"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py DIR_A DIR_B

Each directory holds <workload>/seed<N>.json files written by
bench/sweep.py. For each workload and metric this prints both sets'
median and quartiles, each set's spread (quartile distance over median),
and a verdict:

    ok       the medians differ by at most the bound, in either direction,
             and each set's spread is within the bound
    WORSE    B's median is worse than A's by more than the bound
    BETTER   B's median is better than A's by more than the bound
    NOISY    a set's spread exceeds the bound, so the metric is unresolved

The share of failed operations must also be equal in the two sets. The
exit status is 0 only when every verdict is ok, that is when two sets of
one commit agree. When B is a change to A, WORSE is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, workload: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((directory / workload).glob("seed*.json"))]


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the spread (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_dir, b_dir = map(Path, argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_ok = True
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3] spread':>40} "
          f"{'B median [q1, q3] spread':>40} {'B vs A':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = load(a_dir, workload), load(b_dir, workload)
        if len(a_runs) < 2 or len(b_runs) < 2:
            print(f"{workload:<16} fewer than two runs in a set; skipped")
            all_ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in a_runs])
            b = summary([r["metrics"][name]["value"] for r in b_runs])
            change = (b[0] - a[0]) / abs(a[0])
            gain = -change if metric["better"] == "lower" else change
            noisy = max(a[3], b[3]) > bound
            verdict = "WORSE" if gain < -bound else "BETTER" if gain > bound else "NOISY" if noisy else "ok"
            all_ok &= verdict == "ok"
            print(f"{workload:<16} {name:<12} "
                  f"{a[0]:>12.5g} [{a[1]:.5g}, {a[2]:.5g}] {a[3]:>6.2%} "
                  f"{b[0]:>12.5g} [{b[1]:.5g}, {b[2]:.5g}] {b[3]:>6.2%} "
                  f"{change:>+8.2%} {bound:>6.0%}  {verdict}")
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        same_share = fa[0] * fb[1] == fb[0] * fa[1]
        all_ok &= same_share
        print(f"{workload:<16} failed       A {fa[0]}/{fa[1]}   B {fb[0]}/{fb[1]}   "
              f"{'ok' if same_share else 'SHARE DIFFERS'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
