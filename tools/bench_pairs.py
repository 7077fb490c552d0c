"""Parent/change pairs of benchmark runs, alternating which tree runs first.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S

Each tree is a checkout holding ``perfbench/`` and ``BENCHMARK.json``; the
two must hold identical copies of both, so the runs differ only in the
program. Pair i runs ``perfbench/run.py --workload W --seed S --trace 0``
for the run length ``BENCHMARK.json`` fixes, in the parent first when i is
even and in the change first when it is odd, so a first-runner advantage
cancels out over the pairs. A run that exits non-zero or is not
``correct`` stops the tool.

For each metric the summary gives both sides' median and quartiles, the
change/parent ratio of the medians, the pairs the change won and lost
(by the metric's direction in ``BENCHMARK.json``; ties count for
neither), whether the medians differ by more than the parent's
interquartile range, a verdict, and each side's median split by which
tree ran first, and the ``src_lines`` that each tree's runs report; then
each ``src/quarts`` file whose line count differs between the trees, and
both trees' totals. The metrics are those of a run's result line plus the generation rates,
which perfbench gates on no workload and reports per round only
(``info.per_round``): each run reads its median round, and the rows take
per-layer verdicts, without a bound. For each output digest the runs
report (``info.ckpt_sha``: checkpoints, scores, generations) it counts
the pairs whose two runs agree, so a change meant to move some outputs
shows which moved and which held. The verdicts:

- ``gain``: the change won at least nine tenths of the pairs and its
  median is better by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: either side's interquartile range is wider than the
  bound, and not every change run reads better than every parent run;
- ``within bound``: none of these, for a metric with a bound;
- ``no gain``: none of these, for a per-layer metric (no bound).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

GAIN_SHARE = 0.9   # share of pairs the change must win to claim a gain
GEN_RATES = ("gen_beam4_pairs_per_s", "gen_beam1_pairs_per_s")


class RunRefused(RuntimeError):
    """A run failed its output checks or exited non-zero."""


def bench_files(tree: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``perfbench/``, by path."""
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for path in sorted((tree / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(tree))] = path.read_bytes()
    return files


def tagged(lines: list[str], tag: str) -> dict:
    """The JSON record of the first line that starts with ``tag``, such as
    perfbench's ``env`` and ``info`` lines; {} when there is none."""
    return next((json.loads(l[len(tag) + 1:]) for l in lines if l.startswith(tag + " ")), {})


def src_lines(envs: list[dict]) -> str:
    """The ``src_lines`` that a tree's runs report in their ``env`` records:
    one value, or each value seen when the tree changed between runs."""
    return "/".join(str(v) for v in sorted({e.get("src_lines") for e in envs}, key=str))


def file_lines(tree: Path) -> dict[str, int]:
    """The line count of each ``src/quarts/*.py`` in ``tree``, by file name."""
    return {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((tree / "src" / "quarts").glob("*.py"))}


def format_file_lines(parent: dict[str, int], change: dict[str, int]) -> str:
    """The files whose line counts differ (0 where a tree lacks the file),
    then both totals."""
    rows = [f"  {name:16s} {parent.get(name, 0):6d} -> {change.get(name, 0)}"
            for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]
    return "\n".join(["src_lines per file, parent -> change:", *rows,
                      f"  {'total':16s} {sum(parent.values()):6d} -> {sum(change.values())}"])


def digest_agreement(infos: list[tuple[dict, dict]]) -> dict[str, int]:
    """For each ``ckpt_sha`` key in the (parent, change) ``info`` records of
    the pairs, the number of pairs whose two digests are equal; a digest
    that one side lacks is not equal."""
    shas = [(p.get("ckpt_sha", {}), c.get("ckpt_sha", {})) for p, c in infos]
    keys = dict.fromkeys(k for pair in shas for side in pair for k in side)
    return {k: sum(p.get(k) is not None and p.get(k) == c.get(k) for p, c in shas)
            for k in keys}


def round_rates(info: dict) -> dict[str, float]:
    """The generation rates of a run's ``info`` record: the median of each
    per-round list it holds."""
    per_round = info.get("per_round", {})
    return {k: float(np.median(per_round[k])) for k in GEN_RATES if per_round.get(k)}


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             ) -> tuple[dict, dict, dict]:
    """One untraced run in ``tree``: (metric values by name, its ``info``
    record, its ``env`` record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RunRefused(f"{tree}: exit {proc.returncode}, correct="
                         f"{result.get('correct')}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    info = tagged(lines, "info")
    return ({**{k: m["value"] for k, m in result["metrics"].items()}, **round_rates(info)},
            info, tagged(lines, "env"))


def _directions(spec: dict) -> dict[str, tuple[str, float | None]]:
    """Each declared metric's (better, bound); per-layer metrics have no bound."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out.setdefault(m["name"], (m["better"], None))
    return out


def summarize(runs: list[tuple[dict, dict, bool]], spec: dict) -> list[dict]:
    """One row per metric from ``runs``, each (parent metrics, change
    metrics, whether the parent ran first); see the module docstring."""
    directions = _directions(spec)
    rows = []
    for name in runs[0][0]:
        parent = np.array([p[name] for p, _, _ in runs], dtype=float)
        change = np.array([c[name] for _, c, _ in runs], dtype=float)
        first = np.array([f for _, _, f in runs])
        p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
        c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
        row = {"metric": name, "pairs": len(runs),
               "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
               "ratio": c_med / p_med if p_med else float("nan"),
               "beyond_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
               "by_order": {order: (float(np.median(parent[mask])),
                                    float(np.median(change[mask])))
                            for order, mask in (("parent_first", first),
                                                ("change_first", ~first)) if mask.any()}}
        better, bound = directions.get(name, (None, None))
        sign = {"higher": 1.0, "lower": -1.0}.get(better)
        if sign is None:
            row.update(wins=None, losses=None, verdict="-")
            rows.append(row)
            continue
        gain = sign * (change - parent)
        row["wins"], row["losses"] = int((gain > 0).sum()), int((gain < 0).sum())
        improved = sign * (c_med - p_med) > 0
        if row["wins"] >= GAIN_SHARE * len(runs) and improved and row["beyond_parent_iqr"]:
            row["verdict"] = "gain"
        elif bound is None:
            row["verdict"] = "no gain"
        elif sign * (c_med - p_med) < -bound * p_med:
            row["verdict"] = "regression"
        elif (max(p_q3 - p_q1, c_q3 - c_q1) > bound * p_med
              and not (sign * change).min() > (sign * parent).max()):
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "within bound"
        row["bound"] = bound
        rows.append(row)
    return rows


def _trio(q: tuple) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def format_rows(rows: list[dict]) -> str:
    head = (f"{'metric':28s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
            f"{'ratio':>7s} {'won':>4s} {'lost':>4s} {'>iqr':>5s}  verdict")
    out = [head]
    for r in rows:
        won = "-" if r["wins"] is None else str(r["wins"])
        lost = "-" if r["losses"] is None else str(r["losses"])
        out.append(f"{r['metric']:28s} {_trio(r['parent']):>30s} {_trio(r['change']):>30s} "
                   f"{r['ratio']:7.4f} {won:>4s} {lost:>4s} "
                   f"{'yes' if r['beyond_parent_iqr'] else 'no':>5s}  {r['verdict']}")
        for order, (p, c) in r["by_order"].items():
            out.append(f"    {order:24s} parent median {p:.4g}, change median {c:.4g}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if bench_files(args.parent) != bench_files(args.change):
        sys.stderr.write("the trees hold different perfbench/ or BENCHMARK.json; "
                         "both sides must run the same benchmark\n")
        return 2
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    if args.pairs < 1:
        sys.stderr.write("--pairs must be >= 1\n")
        return 2
    runs, envs, infos = [], ([], []), []
    for i in range(args.pairs):
        parent_first = i % 2 == 0
        trees = [args.parent, args.change] if parent_first else [args.change, args.parent]
        try:
            results = [run_once(tree, args.workload, args.seed, spec["run_seconds"])
                       for tree in trees]
        except RunRefused as exc:
            sys.stderr.write(f"refused run in pair {i}: {exc}\n")
            return 1
        (p, p_info, p_env), (c, c_info, c_env) = results if parent_first else results[::-1]
        infos.append((p_info, c_info))
        envs[0].append(p_env)
        envs[1].append(c_env)
        runs.append((p, c, parent_first))
        sys.stderr.write(f"pair {i} ({'parent' if parent_first else 'change'} first) done\n")
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{spec['run_seconds']} s per run; ratio = change median / parent median")
    print(format_rows(summarize(runs, spec)))
    print(f"src_lines: parent {src_lines(envs[0])}, change {src_lines(envs[1])}")
    print(format_file_lines(file_lines(args.parent), file_lines(args.change)))
    agree = digest_agreement(infos)
    print(f"ckpt_sha equal (pairs of {args.pairs}): "
          + ", ".join(f"{k} {n}" for k, n in agree.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
