"""The traced heap of one training step per phase, rule by rule.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/heap_peaks.py [--seed S] [--profile paper|desk]

It builds the benchmark's corpus for the seed (800 items, 4000 labeled
pairs, 3000 logs pairs) and runs the classifier, VED and e2e phases
through the pipeline's phase functions, each on one batch of its
training examples (triples for VED), so each trains exactly one step at
the profile's shapes (paper: k=300, B=128). With ``tracemalloc`` on,
which numpy reports its buffers to, it prints for each phase's step:

- the traced heap just before the backward sweep;
- for each backward rule, in sweep order, the heap before it runs, the
  heap once it has run and its record has been dropped, and the peak in
  between (the summing of the gradients it returned included);
- the heap before, the heap after and the peak during ``Adam.step``.

Figures are MB of 2**20 bytes, as perfbench's ``peak_rss_mb``. The heap
counts numpy buffers and Python objects, not the interpreter and its
libraries, so it sits below the process's RSS. Point ``PYTHONPATH`` at
another checkout's ``src`` to trace that tree with the same script.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import tempfile
import tracemalloc
from pathlib import Path

from quarts import optim
from quarts import pipeline as P
from quarts import tensor as T
from quarts.catalog import CatalogSpec
from quarts.config import desk_profile, paper_profile

MB = 2 ** 20


class HeapLog:
    """Heap samples of the current phase's step, taken by the hooks."""

    def __init__(self):
        self.rows: list[tuple[str, float, float, float]] = []   # what, before, after, peak
        self._open: tuple[str, float] | None = None   # the open row's what and before

    def mark(self, what: str | None) -> None:
        """Close the open row at the current heap and peak, then open ``what``."""
        current, peak = tracemalloc.get_traced_memory()
        if self._open is not None:
            self.rows.append((*self._open, current / MB, peak / MB))
        tracemalloc.reset_peak()
        self._open = None if what is None else (what, current / MB)


def install(log: HeapLog) -> None:
    """Wrap every recorded rule, ``Tape.backward`` and ``Adam.step`` so that
    they sample the heap into ``log``. Each wrapped rule lives exactly as
    long as the rule it wraps, so the hooks move no array's lifetime."""
    record, backward, step = T.record, T.Tape.backward, optim.Adam.step

    def watched(rule):
        name = rule.__qualname__.replace(".<locals>", "")

        def run(g):
            log.mark(name)
            return rule(g)
        return run

    def traced_record(out_data, inputs, rule):
        return record(out_data, inputs, None if rule is None else watched(rule))

    def traced_backward(tape, loss):
        log.mark(None)
        try:
            return backward(tape, loss)
        finally:
            log.mark(None)

    def traced_step(opt, grads):
        log.mark("Adam.step")
        try:
            return step(opt, grads)
        finally:
            log.mark(None)

    T.record = traced_record
    T.Tape.backward = traced_backward
    optim.Adam.step = traced_step


def one_step_phases(cfg, data, run_dir: Path, log: HeapLog) -> dict[str, list]:
    """Run the classifier, VED and e2e phases on one batch each; returns
    each phase's heap rows."""
    bsz, rows = cfg.batch_size, {}

    def phase(name, run, phase_data, **kwargs):
        gc.collect()
        log.rows = rows[name] = []
        return run(cfg, phase_data, run_dir, **kwargs)

    clf, _ = phase("classifier", P.phase_pretrain_classifier,
                   dataclasses.replace(data, train_ex=data.train_ex[:bsz]))
    triples = P.phase_build_triples(cfg, data, run_dir)[:bsz]
    with open(run_dir / P.CKPT_TRIPLES, "w", encoding="utf-8") as fh:
        fh.writelines(f"{t}\t{q}\t{qm}\n" for t, q, qm in triples)
    phase("ved", P.phase_pretrain_ved, data, clf=clf)
    phase("e2e", P.phase_train_e2e, dataclasses.replace(data, merged_ex=data.merged_ex[:bsz]))
    return rows


def report(phases: dict[str, list]) -> str:
    lines = []
    for name, rows in phases.items():
        lines.append(f"## {name}: one step")
        lines.append(f"{'':>4}  {'before':>7}  {'after':>7}  {'peak':>7}  what (MB)")
        for i, (what, before, after, peak) in enumerate(rows):
            lines.append(f"{i:>4}  {before:7.1f}  {after:7.1f}  {peak:7.1f}  {what}")
        top = max(rows[:-1], key=lambda r: r[3])
        lines.append(f"before the sweep {rows[0][1]:.1f} MB; sweep peak {top[3]:.1f} MB "
                     f"in {top[0]}; Adam.step peak {rows[-1][3]:.1f} MB")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--profile", choices=("paper", "desk"), default="paper")
    args = ap.parse_args(argv)
    make = paper_profile if args.profile == "paper" else desk_profile
    cfg = make(seed=args.seed, clf_epochs=1, ved_epochs=1, e2e_epochs=1)
    log = HeapLog()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        P.generate_data(CatalogSpec(items=800, labeled_pairs=4000, logs_pairs=3000,
                                    seed=args.seed), root / "data")
        data = P.load_data(root / "data", cfg)
        install(log)
        tracemalloc.start()
        try:
            phases = one_step_phases(cfg, data, root / "run", log)
        finally:
            tracemalloc.stop()
    print(report(phases), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
