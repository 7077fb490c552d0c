"""Benchmark entry point for the QUARTS reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` reports the per-layer metrics from one traced set-up and round. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every output check passed. ``--workload all`` runs each
workload in a fresh process and prints all metrics by name and unit.

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one client, one core, steady timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True   # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

EXIT_CHECK_FAILED = 1
EXIT_NO_PROGRAM = 2


def _import_program():
    """Import quarts from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import quarts
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program from {SRC}: {exc}\n")
        sys.exit(EXIT_NO_PROGRAM)
    if not Path(quarts.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"quarts resolved to {quarts.__file__}, not under {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)


def _units() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "quarts").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "src_lines": src_lines}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    units = _units()
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def run_one(args) -> int:
    _import_program()
    import spans
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    print("env " + json.dumps({"workload": wl.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               **environment()}))
    checks = spans.Checks()
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if args.trace:
            metrics, absent, rec = W.traced(wl, args.seed, root, checks)
            trace_path = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
            rec.write(trace_path)
            print("spans " + json.dumps(rec.summary()))
            print("trace " + json.dumps({"spans_file": str(trace_path.relative_to(ROOT)),
                                         "absent": absent}))
        else:
            metrics, info = W.measure(wl, args.seed, args.seconds, root, checks)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print("info " + json.dumps(info))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    checks.require(checks.attempted > 0, "no operation was checked")
    for note in checks.notes:
        print(f"CHECK FAILED: {note}")
    _emit(checks.correct, checks.attempted, checks.failed, metrics)
    return 0 if checks.correct else EXIT_CHECK_FAILED


def run_all(args, names) -> int:
    """Each workload in a fresh process; a combined table and result."""
    _import_program()
    status, attempted, failed, correct, merged = 0, 0, 0, True, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or EXIT_CHECK_FAILED
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct and status == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return status


def main(argv=None) -> int:
    names = ["train-desk", "train-paper", "infer"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="corpus and model seed")
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measurement time; every run makes at least two rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
