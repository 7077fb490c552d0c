"""Seedable random streams with named, isolated substreams.

Each training phase gets its own family of generators so that (a) a
consumer that draws nothing (e.g. the latent sampler when the switch
probability is 0) cannot shift any other consumer's stream, and (b) a
later phase's streams do not depend on how much randomness earlier
phases consumed. Both properties are load-bearing for the exact
reduction check between switched and plain training.
"""
from __future__ import annotations

import numpy as np

STREAMS = ("init", "shuffle", "dropout", "switch", "latent")

PHASES = ("classifier", "dssm", "ved", "finetune")


class RunRng:
    """One generator per named substream, all derived from (seed, phase)."""

    def __init__(self, seed: int, phase: str):
        if phase not in PHASES:
            raise ValueError(f"unknown rng phase {phase!r}; expected one of {PHASES}")
        self.seed = int(seed)
        self.phase = phase
        base = np.random.SeedSequence(self.seed, spawn_key=(PHASES.index(phase),))
        children = base.spawn(len(STREAMS))
        self.init = np.random.default_rng(children[0])
        self.shuffle = np.random.default_rng(children[1])
        self.dropout = np.random.default_rng(children[2])
        self.switch = np.random.default_rng(children[3])
        self.latent = np.random.default_rng(children[4])


def data_rng(seed: int) -> np.random.Generator:
    """Generator for corpus synthesis, independent of training streams."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(97,)))
