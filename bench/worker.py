"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out DIR --mode MODE

MODE is one of:

    full    run the workload through fedsln.cli.main, then check its outputs
    setup   stop as soon as every classroom's datasets are built
    traced  run the workload with a span around each public function, then
            measure the data layer's tracemalloc peak in a second build

Clocks start before `import fedsln`. Only the calls into
experiment.build_client_datasets and experiment.run_method are timed in
the full and setup modes. The last line of standard output is one JSON
object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
FEATURE_SAMPLE = 100  # pairs per classroom checked against brute force


class SetupDone(BaseException):
    """Ends a setup probe. It derives from BaseException so that
    run_experiment's `except Exception` does not turn it into a stage error."""


class StageTimers:
    """Timers around the few calls into fedsln.experiment, plus the inputs
    the output checks need."""

    def __init__(self, experiment, t0: float, seed: int, stop_after_setup: bool):
        self.experiment = experiment
        self.t0 = t0
        self.seed = seed
        self.stop_after_setup = stop_after_setup
        self.setup_s: float | None = None
        self.train_s: dict[str, float] = {}
        self.wall_clocks: list[float] = []
        self.cfg = None
        self.datasets = None
        self.samples: dict[int, list[dict]] = {}
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        exp = self.experiment
        build, run, featurize = exp.build_client_datasets, exp.run_method, exp.build_examples
        self._saved = {"build_client_datasets": build, "run_method": run, "build_examples": featurize}

        def timed_build(cfg, seed):
            datasets = build(cfg, seed)
            self.setup_s = time.perf_counter() - self.t0
            self.cfg, self.datasets = cfg, datasets
            if self.stop_after_setup:
                raise SetupDone
            return datasets

        def timed_run(method, *args, **kwargs):
            start = time.perf_counter()
            outcome = run(method, *args, **kwargs)
            self.train_s[method] = time.perf_counter() - start
            self.wall_clocks.extend(r.wall_clock for r in outcome.history)
            return outcome

        def sampled_featurize(tp, pairs):
            examples = featurize(tp, pairs)
            self._sample(tp, examples)
            return examples

        exp.build_client_datasets = timed_build
        exp.run_method = timed_run
        exp.build_examples = sampled_featurize

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.experiment, name, fn)

    def _sample(self, tp, examples) -> None:
        """Keep the snapshot neighbor sets of a seeded sample of pairs (a few
        hundred small sets, so the run's memory peak does not move)."""
        client = len(self.samples)
        rng = random.Random(self.seed * 1_000_003 + client)
        adj_prev, adj_now = tp.graph_prev.adjacency, tp.graph_now.adjacency
        picked = []
        for i in rng.sample(range(len(examples)), min(FEATURE_SAMPLE, len(examples))):
            u, v = examples[i].u, examples[i].v
            picked.append(
                {
                    "u": u,
                    "v": v,
                    "nu": adj_prev[u],
                    "nv": adj_prev[v],
                    "degree": {w: len(adj_prev[w]) for w in adj_prev[u]},
                    "label": int(v in adj_now[u]),
                }
            )
        self.samples[client] = picked


def mean_test_auc(out: Path) -> float:
    lines = (out / "metrics.csv").read_text().splitlines()
    col = lines[0].split(",").index("auc")
    aucs = [float(line.split(",")[col]) for line in lines[1:]]
    return sum(aucs) / len(aucs)


def run(workload_name: str, seed: int, out: Path, mode: str) -> dict:
    from workloads import WORKLOADS

    argv = WORKLOADS[workload_name].argv(seed, out)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC_DIR))
    import fedsln.cli
    import fedsln.experiment

    import_s = time.perf_counter() - t0
    if not Path(fedsln.__file__).resolve().is_relative_to(SRC_DIR):
        raise RuntimeError(f"imported fedsln from {fedsln.__file__}, not from {SRC_DIR}")
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    timers = StageTimers(fedsln.experiment, t0, seed, stop_after_setup=mode == "setup")
    timers.install()
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = fedsln.cli.main(argv)
    except SetupDone:
        return {"setup_s": timers.setup_s}
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timers.uninstall()
    if code != 0:
        raise RuntimeError(f"fedsln {' '.join(argv)} exited with {code}")

    result = {
        "setup_s": timers.setup_s,
        "train_s": sum(timers.train_s.values()),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "test_auc": mean_test_auc(out),
    }
    if tracer is None:
        import checks

        chk, hashes = checks.check_run(out, timers.cfg, seed, timers.datasets, timers.samples)
        result.update(checks=chk.count, failures=chk.failures, hashes=hashes)
        return result

    tracer.uninstall()
    from tracing import round_metrics

    layers = tracer.layer_metrics()
    layers.update(round_metrics(timers.wall_clocks))
    layers["cli.import_s"] = import_s
    for method in ("centralized", "fedavg", "fedala", "perfedavg_hf"):
        layers[f"experiment.run_method.{method}_s"] = timers.train_s.get(method, 0.0)
    tracer.dump(out / "trace.json")
    del tracer

    import tracemalloc

    cfg = timers.cfg
    del timers
    tracemalloc.start()
    fedsln.experiment.build_client_datasets(cfg, seed)
    layers["graphs.data_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("full", "setup", "traced"), required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.out, args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
