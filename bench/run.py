"""plmetric benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload train-bench --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the repository root. The package is imported from ``src/`` and the
reference routes from ``tests/oracles.py``; without them the benchmark exits
with an error and prints no result. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. ``--workload all`` runs every
workload untraced and traced, each in its own child process, and prints the
reference figures (machine, library versions, ``src/`` line count, tracing
overhead). The first run in a checkout also trains each training workload's
reference run once, untimed, and keeps checkpoints in ``bench/out/cache``
that every later run resumes. See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: the CLI's --threads
# needs threadpoolctl, which may be absent, so it cannot be relied on here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train-bench", "train-default", "eval-large")


def import_program():
    """Import plmetric from this checkout's src/ only, never an installed copy."""
    for sub in ("tests", "src"):
        path = ROOT / sub
        if not path.is_dir():
            raise SystemExit(f"error: {path} not found; run the benchmark from a full checkout")
        sys.path.insert(0, str(path))
    import plmetric

    where = Path(plmetric.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"error: imported plmetric from {where}, not from {ROOT / 'src'}")


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")


def run_one(args) -> int:
    import_program()
    import workloads

    # The first run in a checkout trains the reference runs whose checkpoints
    # every later run resumes; the others find them made.
    for each in workloads.WORKLOADS.values():
        each.prepare()
    workload = workloads.WORKLOADS[args.workload]
    rec, metrics, tracer = workloads.run(workload, args.seed, args.seconds, bool(args.trace))
    failed = rec.attempted - rec.ok
    for message in rec.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    kind = "per-layer" if args.trace else "end-to-end"
    _print_metrics(f"{args.workload} seed={args.seed} {kind}", metrics)
    print(
        f"  rounds={rec.rounds} steps={len(rec.steps)} evaluations={len(rec.eval)} "
        f"setups={len(rec.setup)} tail=p{workload.tail_pct} "
        f"anchors_checked={rec.anchors} anchors_exempt={rec.exempt}"
    )
    raw = workloads.raw_medians(rec)
    print(
        f"  unscaled medians: setup {raw['setup']:.4f} s, step {raw['steps'] * 1000:.2f} ms, "
        f"train {raw['train']:.4f} s, eval {raw['eval']:.4f} s; reference kernel "
        f"{rec.speed.median_ms():.3f} ms (nominal {workloads.HOST_NOMINAL_MS:.3f} ms)"
    )
    if tracer.missing:
        print(f"  not traced (absent from the package): {', '.join(tracer.missing)}")
    correct = failed == 0 and not rec.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": rec.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _reference_figures() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def run_all(args) -> int:
    import_program()
    results = {}
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[name, trace] = json.loads(lines[-1]) if lines else None
            status = status or proc.returncode
    figures = _reference_figures()
    print("== reference figures")
    for key, value in figures.items():
        print(f"  {key:<32} {value}")
    combined = {"correct": status == 0, "attempted": 0, "failed": 0, "metrics": {}}
    for (name, trace), res in results.items():
        if res is None:
            combined["correct"] = False
            continue
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"  {name} trace={trace}: attempted={res['attempted']} failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        if trace:
            untraced = results.get((name, 0))
            if untraced is not None:
                overhead = res["metrics"]["trace.op_ms_p50"]["value"] - (
                    untraced["metrics"]["step_ms_p50"]["value"]
                )
                print(f"  {name} tracing overhead {overhead:+.3f} ms per operation (traced p50 - untraced p50)")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
