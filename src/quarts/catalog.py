"""Synthetic product-search corpus with a ground-truth match oracle.

Items are titles of the form ``brand product-type attributes``. Matched
queries name the item's product type; mismatched queries substitute it,
either with a related accessory type (hard, near the decision boundary:
insoles for a running-shoe item) or with an unrelated type (easy). The
oracle labels any (item, query) pair by comparing resolved product types,
standing in for human annotation.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .config import atomic_write, load_json_fields
from .data import DataError, RawPair, tokenize
from .rng import data_rng

_DOMAINS: dict[str, list[str]] = {
    "footwear": ["running shoes", "hiking boots", "dress shoes", "sandals",
                 "slippers", "insoles", "shoe laces", "ankle socks",
                 "shoe polish", "shoe rack"],
    "mobile": ["smartphone", "phone case", "screen protector", "phone charger",
               "power bank", "earbuds", "headphones", "phone stand",
               "car mount", "selfie stick"],
    "computing": ["laptop", "laptop sleeve", "wireless mouse", "mechanical keyboard",
                  "usb hub", "webcam", "laptop stand", "external drive",
                  "monitor", "graphics card"],
    "kitchen": ["coffee maker", "coffee grinder", "coffee filters", "chef knife",
                "cutting board", "knife sharpener", "blender", "mixing bowl",
                "measuring cups", "spice rack"],
    "fitness": ["yoga mat", "yoga blocks", "dumbbells", "resistance bands",
                "jump rope", "foam roller", "gym bag", "water bottle",
                "workout gloves", "exercise bike"],
    "watches": ["wrist watch", "watch band", "watch winder", "watch box",
                "smart watch", "fitness tracker", "charging dock", "watch stand",
                "travel case", "watch roll"],
}

_BRANDS = [
    "alvora", "bramley", "cindara", "dorvik", "elanti", "fenwick", "gavano",
    "halcyx", "imbrix", "jorvan", "kelsano", "lumetra", "marovia", "nexaro",
    "ovant", "pellora", "quintal", "ravelo", "solmara", "tervun", "ulmari",
    "vantor", "welkin", "xandor", "ystrel", "zephra", "ordale", "brindt",
    "calluna", "mistral",
]

_ATTRIBUTES = {
    "color": ["black", "white", "gray", "navy", "red", "green", "blue",
              "silver", "gold", "beige", "purple", "teal"],
    "size": ["small", "medium", "large", "mini", "slim", "wide",
             "9", "10", "11", "12", "38mm", "42mm"],
    "material": ["leather", "cotton", "steel", "plastic", "silicone", "rubber",
                 "wool", "bamboo", "aluminum", "ceramic", "canvas", "mesh"],
}

_AUDIENCE = ["for men", "for women", "for kids"]


def _default_accessory_map(types: list[str], per_type: int) -> dict[str, list[str]]:
    domain_of = {}
    for dom, ts in _DOMAINS.items():
        for t in ts:
            domain_of[t] = dom
    out = {}
    for t in types:
        dom = domain_of.get(t)
        siblings = [s for s in _DOMAINS.get(dom, []) if s != t and s in types]
        out[t] = siblings[:per_type]
    return out


@dataclass
class CatalogSpec:
    """Everything needed to synthesize a corpus reproducibly."""
    product_types: list[str] = field(default_factory=list)
    brands: list[str] = field(default_factory=list)
    attributes: dict[str, list[str]] = field(default_factory=dict)
    accessory_map: dict[str, list[str]] = field(default_factory=dict)
    items: int = 5000
    labeled_pairs: int = 50000
    logs_pairs: int = 50000
    positive_rate: float = 0.15
    hard_fraction: float = 0.6
    logs_noise: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not self.product_types:
            self.product_types = [t for ts in _DOMAINS.values() for t in ts]
        if not self.brands:
            self.brands = list(_BRANDS)
        if not self.attributes:
            self.attributes = {k: list(v) for k, v in _ATTRIBUTES.items()}
        if not self.accessory_map:
            self.accessory_map = _default_accessory_map(self.product_types, 8)
        self.validate()

    def validate(self) -> None:
        known = set(self.product_types)
        for t, accs in self.accessory_map.items():
            if t not in known:
                raise DataError(f"accessory map names unknown type {t!r}")
            if t in accs:
                raise DataError(f"accessory map must be irreflexive, {t!r} maps to itself")
            if not accs:
                raise DataError(f"type {t!r} has no accessory neighbors")
            for a in accs:
                if a not in known:
                    raise DataError(f"accessory {a!r} of {t!r} is not a product type")
        for t in self.product_types:
            if t not in self.accessory_map:
                raise DataError(f"type {t!r} missing from the accessory map")
        for name in ("items", "labeled_pairs", "logs_pairs"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.positive_rate < 1.0:
            raise DataError("positive_rate must be in (0, 1)")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise DataError("hard_fraction must be in [0, 1]")
        if not 0.0 <= self.logs_noise < 1.0:
            raise DataError("logs_noise must be in [0, 1)")

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)

    @classmethod
    def load(cls, path) -> "CatalogSpec":
        """Read a saved spec; malformed JSON or an unknown key is a DataError."""
        return load_json_fields(cls, path, DataError, "catalog")


class MatchOracle:
    """Ground-truth labeler: product-type comparison through the catalog.

    A query resolves to the leftmost longest known type phrase in its
    token stream; label 0 (match) iff it equals the item's type.
    """

    def __init__(self, spec: CatalogSpec):
        self.spec = spec
        self._phrases = {tuple(tokenize(t)): t for t in spec.product_types}
        self._max_len = max(len(p) for p in self._phrases)
        self._accessory_tokens = {
            t: {tok for a in accs for tok in tokenize(a)}
            for t, accs in spec.accessory_map.items()
        }

    def resolve(self, text: str) -> str | None:
        tokens = tokenize(text)
        for i in range(len(tokens)):
            for ln in range(min(self._max_len, len(tokens) - i), 0, -1):
                hit = self._phrases.get(tuple(tokens[i:i + ln]))
                if hit is not None:
                    return hit
        return None

    def label(self, item_title: str, query: str) -> int | None:
        """0 = match, 1 = mismatch, None = query has no resolvable type."""
        item_type = self.resolve(item_title)
        if item_type is None:
            raise DataError(f"item title has no product type: {item_title!r}")
        query_type = self.resolve(query)
        if query_type is None:
            return None
        return 0 if query_type == item_type else 1

    def accessory_token_overlap(self, item_title: str, query: str) -> bool:
        """Whether the query shares any token with the item's accessory phrases."""
        item_type = self.resolve(item_title)
        toks = self._accessory_tokens.get(item_type, set())
        return any(t in toks for t in tokenize(query))


def _sample_item(spec: CatalogSpec, rng: np.random.Generator) -> tuple[str, str, dict]:
    ptype = spec.product_types[rng.integers(len(spec.product_types))]
    brand = spec.brands[rng.integers(len(spec.brands))]
    attrs = {}
    for pool_name in ("color", "size", "material"):
        pool = spec.attributes.get(pool_name, [])
        if pool and rng.random() < (0.9 if pool_name == "color" else 0.7):
            attrs[pool_name] = pool[rng.integers(len(pool))]
    title = " ".join([brand, ptype] + list(attrs.values()))
    return title, ptype, {"brand": brand, **attrs}


def _matched_query(spec: CatalogSpec, ptype: str, parts: dict,
                   rng: np.random.Generator) -> str:
    units = [ptype]
    if rng.random() < 0.35:
        units.append(parts["brand"])
    for key in ("color", "size", "material"):
        if key in parts and rng.random() < 0.4:
            units.append(parts[key])
    rng.shuffle(units)
    q = " ".join(units)
    if rng.random() < 0.2:
        q += " " + _AUDIENCE[rng.integers(len(_AUDIENCE))]
    return q


def _hard_mismatch_query(spec: CatalogSpec, ptype: str, parts: dict,
                         rng: np.random.Generator) -> str:
    accs = spec.accessory_map[ptype]
    t2 = accs[rng.integers(len(accs))]
    roll = rng.random()
    if roll < 0.45:
        return f"{t2} for {ptype}"
    if roll < 0.65 and "color" in parts:
        return f"{parts['color']} {t2}"
    if roll < 0.8:
        return f"{parts['brand']} {t2}"
    return t2


def _easy_mismatch_query(spec: CatalogSpec, ptype: str, parts: dict,
                         rng: np.random.Generator) -> str:
    forbidden = set(spec.accessory_map[ptype]) | {ptype}
    choices = [t for t in spec.product_types if t not in forbidden]
    if not choices:
        raise DataError("catalog too small for easy mismatches")
    t2 = choices[rng.integers(len(choices))]
    if rng.random() < 0.3:
        pool = spec.attributes["color"]
        return f"{t2} {pool[rng.integers(len(pool))]}"
    return t2


def generate_corpus(spec: CatalogSpec) -> tuple[list[RawPair], list[RawPair], MatchOracle]:
    """Synthesize (labeled, logs, oracle); bitwise reproducible per seed.

    Labeled pairs carry oracle-verified labels. Logs pairs all carry y=0
    (behaviorally matched) but a ``logs_noise`` fraction are truly
    accessory mismatches, mirroring purchase-signal bias. Logs are
    deduplicated against the labeled set on exact (title, query) equality.
    """
    rng = data_rng(spec.seed)
    oracle = MatchOracle(spec)

    items: list[tuple[str, str, dict]] = []
    seen_titles: set[str] = set()
    attempts = 0
    while len(items) < spec.items:
        attempts += 1
        if attempts > 60 * spec.items:
            raise DataError(f"cannot synthesize {spec.items} distinct items; "
                            "catalog capacity exceeded")
        title, ptype, parts = _sample_item(spec, rng)
        if title in seen_titles:
            continue
        seen_titles.add(title)
        items.append((title, ptype, parts))

    def fill(count: int, make_query, label: int, source: str,
             taken: set[tuple[str, str]]) -> list[RawPair]:
        out = []
        tries = 0
        while len(out) < count:
            tries += 1
            if tries > 80 * max(count, 1):
                raise DataError(
                    f"cannot synthesize {count} distinct pairs (label={label}); "
                    "requested counts exceed combinatorial capacity")
            title, ptype, parts = items[rng.integers(len(items))]
            query = make_query(spec, ptype, parts, rng)
            key = (title, query)
            if key in taken:
                continue
            taken.add(key)
            out.append(RawPair(title, query, label, source))
        return out

    taken: set[tuple[str, str]] = set()
    n_pos = int(round(spec.labeled_pairs * spec.positive_rate))
    n_hard = int(round(n_pos * spec.hard_fraction))

    labeled = fill(spec.labeled_pairs - n_pos, _matched_query, 0, "annotated", taken)
    labeled += fill(n_hard, _hard_mismatch_query, 1, "annotated", taken)
    labeled += fill(n_pos - n_hard, _easy_mismatch_query, 1, "annotated", taken)
    perm = rng.permutation(len(labeled))
    labeled = [labeled[i] for i in perm]

    # Logs pairs are behaviorally "matched" (purchased in response to the
    # query), not human-verified: a noise fraction are accessory purchases
    # that still carry y=0. The oracle knows their true label.
    n_noisy = int(round(spec.logs_pairs * spec.logs_noise))
    logs = fill(spec.logs_pairs - n_noisy, _matched_query, 0, "logs", taken)
    logs += fill(n_noisy, _hard_mismatch_query, 0, "logs", taken)
    logs_perm = rng.permutation(len(logs))
    logs = [logs[i] for i in logs_perm]

    for p in labeled:
        want = oracle.label(p.title, p.query)
        if want != p.label:
            raise DataError(f"oracle disagrees with construction: {p}")
    return labeled, logs, oracle
