"""Run a set of benchmark runs and keep each run's result line.

    python3 bench/sweep.py --out DIR [--seeds 1-10]

Runs bench/run.py untraced once per (workload, seed), one after another,
for every workload and with the run length in BENCHMARK.json, and writes
DIR/<workload>/seed<N>.json.
Compare two such directories with bench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10", help="comma list of seeds or ranges a-b")
    args = parser.parse_args()
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        (args.out / workload).mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            (args.out / workload / f"seed{seed}.json").write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            shown = ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}, {shown}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
