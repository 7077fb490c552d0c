"""Run configuration: flat key=value files, profiles, and run manifests.

Defaults mirror the reference training setup (hidden 300, embeddings 300,
classifier lr 1e-4 with 0.8 decay every 10 epochs, generator lr 1e-3,
dropout 0.1, batch 128, positive weight 5). The desk profile shrinks the
model to laptop scale. Unknown keys fail fast, naming the offender.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Raised for malformed configuration files."""


@dataclass
class RunConfig:
    hidden_size: int = 300      # k
    embed_dim: int = 300
    latent_dim: int = 64        # d_z
    lr: float = 1e-4
    ved_lr: float = 1e-3
    decay_factor: float = 0.8
    decay_every: int = 10
    beta: float = 5.0
    p: float = 0.3
    dropout: float = 0.1
    batch_size: int = 128
    clf_epochs: int = 3
    ved_epochs: int = 5
    e2e_epochs: int = 2
    kl_anneal_epochs: int = 5
    triple_cap: int = 10
    beam_size: int = 4
    gen_max_len: int = 12
    max_title_len: int = 16
    max_query_len: int = 8
    min_count: int = 1
    seed: int = 0
    precision: str = "f32"      # f32 | f64

    def __post_init__(self):
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")
        if not 0.0 <= self.p < 1.0:
            raise ConfigError(f"switch probability must be in [0, 1), got {self.p}")
        if self.beta < 1.0:
            raise ConfigError(f"positive weight must be >= 1, got {self.beta}")
        for name in ("hidden_size", "embed_dim", "latent_dim", "batch_size", "clf_epochs",
                     "ved_epochs", "e2e_epochs", "triple_cap", "beam_size", "gen_max_len",
                     "max_title_len", "max_query_len", "min_count", "decay_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("lr", "ved_lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must be in (0, 1], got {self.decay_factor}")

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    # the annotations are strings ("int", "float", "str"): see the __future__ import
    return {"int": int, "float": float}.get(_FIELDS[name].type, str)(raw.strip())


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw.strip()!r}")
    if base is not None:
        return base.replace(**values)
    return RunConfig(**values)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    return parse_config(text, base=base)


def desk_profile(**overrides) -> RunConfig:
    """Laptop-scale profile: small model, small batches, quick epochs."""
    return RunConfig(hidden_size=64, embed_dim=64, batch_size=32,
                     lr=1e-3, clf_epochs=3, ved_epochs=5, e2e_epochs=2).replace(**overrides)


def paper_profile(**overrides) -> RunConfig:
    return RunConfig(**overrides)


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write ``path`` all at once: the block writes a temporary file in the
    same directory, which is flushed to disk and then replaces ``path`` when
    the block ends. A block that raises removes it and leaves ``path`` as it
    was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_json_fields(cls, path, error: type[Exception], what: str):
    """The dataclass ``cls`` built from the JSON object in ``path``. Malformed
    UTF-8 JSON, another JSON value or a key ``cls`` lacks raises ``error``
    naming the file, and the key."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
            raise error(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in obj:
        if key not in known:
            raise error(f"{path}: unknown {what} key {key!r}")
    return cls(**obj)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# The keys of a phase's manifest entry, each with the JSON type of its value.
ENTRY_TYPES = {"checkpoint": str, "seconds": (int, float), "config": dict, "data": dict,
               "ids": dict, "records": list}


@dataclass
class RunManifest:
    """The run dir's one record: each phase's entry, which a rerun of the phase
    replaces whole. An entry's config hash is ``RunConfig(**entry["config"]).hash()``."""
    created: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S"))
    phases: dict = field(default_factory=dict)        # name -> entry, keys as ENTRY_TYPES

    def record_phase(self, name: str, checkpoint: str, seconds: float, cfg: RunConfig,
                     data: dict[str, str], ids: dict, records: list[dict]) -> None:
        """``data``: the hash of each file the phase read; ``ids``: what its token
        ids mean (``pipeline.DataBundle.ids``); ``records``: its epoch records."""
        self.phases[name] = {"checkpoint": checkpoint, "seconds": round(seconds, 6),
                             "config": dataclasses.asdict(cfg), "data": data, "ids": ids,
                             "records": records}

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a saved manifest. Malformed JSON, an unknown key or a phase entry
        unlike ``ENTRY_TYPES`` is a ConfigError naming the file (and the phase)."""
        man = load_json_fields(cls, path, ConfigError, "manifest")
        if not isinstance(man.phases, dict):
            raise ConfigError(f"{path}: 'phases' must be a JSON object")
        for name, entry in man.phases.items():
            if not (isinstance(entry, dict) and entry.keys() == ENTRY_TYPES.keys()
                    and all(isinstance(entry[k], t) for k, t in ENTRY_TYPES.items())):
                raise ConfigError(f"{path}: phase {name!r} must be an object of "
                                  f"{', '.join(ENTRY_TYPES)}, as a phase writes it")
        return man
