"""fedsln benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (bench/worker.py), so import
and set-up are paid and measured every time. Repetitions run while one
more still fits in S seconds (at least one runs). Then set-up probes run
until there are SETUP_SAMPLES set-up times, as long as the next one is
expected to end within S + SETUP_PROBE_S seconds. Every repetition's outputs are checked; a
repetition that crashes or fails a check counts as failed. With --trace 1
one more repetition runs with spans around each layer, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
SETUP_PROBE_S = 8  # how far set-up probes may run past --seconds
WORKER_TIMEOUT_S = 100
# One BLAS thread: on two shared cores a second thread times the scheduler.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_worker(workload: str, seed: int, out: Path, mode: str) -> dict:
    """One repetition; raises RuntimeError with the worker's stderr on failure,
    ValueError if its last line is not JSON."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--mode", mode]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fedsln" / "__init__.py").is_file():
        print(f"bench: no fedsln sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    attempted = failed = checks = 0
    correct = True
    reps: list[dict] = []
    setups: list[float] = []
    first_hashes = None

    def attempt(mode: str, out: Path) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            return run_worker(args.workload, args.seed, out, mode)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return None

    start = time.perf_counter()
    # Start another repetition only if one more of average length still
    # ends within the run, so a run lasts about --seconds.
    while attempted == 0 or (time.perf_counter() - start) * (attempted + 1) / attempted <= args.seconds:
        out = run_dir / f"rep{attempted}"
        rep = attempt("full", out)
        if rep is None:
            continue
        checks += rep["checks"]
        failures = list(rep["failures"])
        if first_hashes is None:
            first_hashes = rep["hashes"]
            for rel, digest in sorted(first_hashes.items()):
                print(f"sha256 {digest}  {rel}")
        elif rep["hashes"] != first_hashes:
            failures.append("outputs differ from the first repetition's bytes")
        if failures:
            failed += 1
            correct = False
            for message in failures:
                print(f"bench: check failed: {message}", file=sys.stderr)
            continue
        reps.append(rep)
        setups.append(rep["setup_s"])
        print("bench: repetition " + ", ".join(f"{k} {rep[k]:.3f}" for k in END_TO_END), file=sys.stderr)
        if len(reps) > 1:
            shutil.rmtree(out)
    while reps and len(setups) < SETUP_SAMPLES:
        if time.perf_counter() - start + statistics.median(setups) > args.seconds + SETUP_PROBE_S:
            break
        probe = attempt("setup", run_dir / "setup")
        if probe is None:
            break
        setups.append(probe["setup_s"])
    if not reps:
        print("bench: no repetition finished; no result", file=sys.stderr)
        return 1
    print(f"bench: {len(reps)} repetitions, {len(setups)} set-ups, {checks} checks", file=sys.stderr)

    if args.trace:
        traced = attempt("traced", run_dir / "traced")
        if traced is None:
            return 1
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["run_s"] - statistics.median(r["run_s"] for r in reps)
        if layers.keys() != PER_LAYER.keys():
            print(f"bench: traced metrics {sorted(layers.keys() ^ PER_LAYER.keys())} are in only one of "
                  "the traced run and BENCHMARK.json", file=sys.stderr)
            return 1
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {name: statistics.median(r[name] for r in reps) for name in END_TO_END}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
