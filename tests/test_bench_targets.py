"""Every function the benchmark's tracer wraps, and everything its output
checks read, must still exist.

bench/tracing.py wraps fedsln functions by name and raises MissingTarget
when one is gone, which fails the traced benchmark run. bench/worker.py
samples neighbor sets and examples while the data are built, and
bench/checks.py reads the examples and the explain settings after the
run. These tests load those files by path and run them, so a rename or a
deletion they depend on fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import fedsln.cli  # noqa: F401  the benchmark imports these before tracing
import fedsln.experiment as experiment
import fedsln.federation as federation
import fedsln.neural
import fedsln.personalization as personalization
from fedsln.config import build_experiment_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    gradient = fedsln.neural.gradient
    hooks = (federation.local_round,)
    assert federation.run_fedavg.__defaults__ == hooks
    tracer = load_bench("tracing").Tracer()
    tracer.install()  # raises MissingTarget naming every missing name
    try:
        assert fedsln.neural.gradient is not gradient
        # the tracer swaps only __defaults__: a hook made keyword-only would
        # run untraced and read as zero seconds
        (traced,) = federation.run_fedavg.__defaults__
        assert traced is not hooks[0]
        assert traced.__wrapped__ is hooks[0]
    finally:
        tracer.uninstall()
    assert fedsln.neural.gradient is gradient
    assert federation.run_fedavg.__defaults__ == hooks


def test_tracer_times_the_fedala_local_step_and_its_synchronize():
    # _ala_round reaches local_round through the personalization module's
    # name for it, which the tracer swaps too; local_round synchronizes
    x = np.linspace(-1.0, 1.0, 60).reshape(20, 3)
    y = (x[:, 0] > 0.0) * 1.0
    clients = federation.make_clients([(x, y), (x[::-1], y[::-1])], seed=3)
    cfg = fedsln.neural.TrainConfig(batch_size=4, local_steps=2, global_rounds=3)
    start = fedsln.neural.init_params(np.random.default_rng(3), (4,), 3)
    tracer = load_bench("tracing").Tracer()
    tracer.install()
    try:
        personalization.run_fedala(clients, cfg, start)
    finally:
        tracer.uninstall()
    names = [tracer.names[index] for index, *_ in tracer.spans]
    assert names.count("federation.local_round") == 2 * 3
    syncs = [span for span in tracer.spans if tracer.names[span[0]] == "federation.synchronize"]
    assert len(syncs) == 2 * 3
    assert all(names[parent] == "federation.local_round" for *_, parent in syncs)


def test_all_training_happens_inside_one_timed_run_method(monkeypatch):
    # bench/worker.py times each experiment.run_method call and sums them
    # as train_s; training outside those calls, or inside two nested ones,
    # would silently misstate it
    depth = 0
    seen = []  # (what, timed calls enclosing it)
    real_run = experiment.run_method

    def timed_run(method, *args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            return real_run(method, *args, **kwargs)
        finally:
            depth -= 1

    def spy(name, real):
        def wrapper(*args, **kwargs):
            seen.append((name, depth))
            return real(*args, **kwargs)

        return wrapper

    fedavg_spy = spy("run_fedavg", experiment.run_fedavg)
    monkeypatch.setattr(experiment, "run_method", timed_run)
    monkeypatch.setattr(experiment, "run_fedavg", fedavg_spy)
    monkeypatch.setattr(personalization, "run_fedavg", fedavg_spy)
    monkeypatch.setattr(personalization, "fine_tune", spy("fine_tune", personalization.fine_tune))
    cfg = build_experiment_config(
        {
            "experiment": {
                "methods": "fedavg_ft,centralized,fedavg,perfedavg_hf,fedala",
                "seeds": "1,2",
            },
            "model": {"hidden_sizes": "4"},
            "data": {
                "source": "synthetic",
                "nodes": "40,50",
                "communities": "2,3",
                "intra_p": "0.4,0.35",
                "inter_p": "0.06,0.04",
            },
            "split": {"negatives_per_positive": "2.0"},
            "centralized": {"epochs": "1"},
            **{
                m: {"global_rounds": "1", "local_steps": "2"}
                for m in ("fedavg", "perfedavg_hf", "fedala")
            },
        }
    )
    experiment.run_experiment(cfg, max_workers=1)
    # per seed: four round loops (fedavg_ft reuses fedavg's), and one
    # fine-tune per classroom for fedavg_ft and for perfedavg_hf
    assert sorted(set(seen)) == [("fine_tune", 1), ("run_fedavg", 1)]
    assert [name for name, _ in seen].count("run_fedavg") == 2 * 4
    assert [name for name, _ in seen].count("fine_tune") == 2 * 2 * 2


def test_the_output_checks_pass_on_a_benchmark_workload(tmp_path, capsys):
    # the meta_explain workload reads every piece of the per-pair example
    # view and the neighbor-set view that the checks use, and explains
    worker, checks = load_bench("worker"), load_bench("checks")
    workloads = load_bench("workloads")
    seed = 2
    timers = worker.StageTimers(experiment, 0.0, seed, stop_after_setup=False)
    timers.install()
    try:
        code = fedsln.cli.main(workloads.WORKLOADS["meta_explain"].argv(seed, tmp_path))
    finally:
        timers.uninstall()
    capsys.readouterr()
    assert code == 0
    assert timers.cfg.explain.enabled
    chk, _hashes = checks.check_run(tmp_path, timers.cfg, seed, timers.datasets, timers.samples)
    assert chk.count > 0
    assert chk.failures == []
