"""Driver-level tests: dataset assembly, privacy boundary, report emission."""

import gc
import json
import pickle
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fedsln.experiment as experiment
from fedsln.analysis import fairness_report, rates_from_counts
from fedsln.config import ConfigError, build_experiment_config
from fedsln.experiment import (
    StageError,
    build_client_datasets,
    emit_reports,
    export_feature_tables,
    export_synthetic_graphs,
    pool_training_data,
    run_experiment,
    run_method,
)
from fedsln.features import N_FEATURES, StandardizedRows
from fedsln.neural import (
    BatchStream,
    NonFiniteParamsError,
    epochs_to_steps,
    evaluate,
    init_params,
    load_checkpoint,
    params_checksum,
    train_steps,
)
from fedsln.personalization import fine_tune
from fedsln.rng import derive_rng

SPEED = {
    "experiment": {"methods": "centralized,fedavg,fedala", "seeds": "1"},
    "model": {"hidden_sizes": "4"},
    "data": {
        "source": "synthetic",
        "nodes": "40,50",
        "communities": "2,3",
        "intra_p": "0.4,0.35",
        "inter_p": "0.06,0.04",
    },
    "split": {"negatives_per_positive": "2.0"},
    "centralized": {"epochs": "2", "batch_size": "64"},
    "fedavg": {"global_rounds": "2", "local_steps": "5"},
    "perfedavg_hf": {"global_rounds": "2", "local_steps": "3"},
    "fedala": {
        "global_rounds": "2",
        "local_steps": "5",
        "ala_data_fraction": "50",
        "ala_update_cap": "5",
    },
}


def make_cfg(**patches):
    raw = {k: dict(v) for k, v in SPEED.items()}
    for section, kv in patches.items():
        sec = raw.setdefault(section, {})
        for key, val in kv.items():
            if val is None:
                sec.pop(key, None)
            else:
                sec[key] = val
    return build_experiment_config(raw)


def explaining(cfg, enabled=True):
    """cfg with Shapley reports on, as the explain and report subcommands set it."""
    return replace(cfg, explain=replace(cfg.explain, enabled=enabled))


@pytest.fixture(scope="module")
def cfg():
    return make_cfg()


@pytest.fixture(scope="module")
def datasets(cfg):
    return build_client_datasets(cfg, seed=1)


def every_row(view: StandardizedRows) -> np.ndarray:
    return view[np.arange(len(view))]


class TestDatasets:
    def test_shapes(self, datasets):
        assert [d.client_id for d in datasets] == [0, 1]
        for d in datasets:
            assert d.raw_train_x.shape == (len(d.train_examples), N_FEATURES)
            assert d.raw_test_x.shape == (len(d.test_examples), N_FEATURES)
            assert d.train_y.shape == (len(d.train_examples),)
            assert len(d.train_examples) > len(d.test_examples) > 0

    def test_standardized_train_columns(self, datasets):
        # what the clients train on: the raw split through its standardizer
        for d in datasets:
            x = every_row(StandardizedRows(d.raw_train_x, d.standardizer))
            mean = x.mean(axis=0)
            assert np.allclose(mean, 0.0, atol=1e-12)
            std = x.std(axis=0)
            # constant raw columns stay constant; others become unit scale
            varying = d.raw_train_x.std(axis=0) > 0
            assert np.allclose(std[varying], 1.0, atol=1e-12)

    def test_test_uses_train_statistics(self, cfg, datasets):
        out = run_method("fedavg", datasets, cfg, seed=1)
        for d in datasets:
            c = d.client_id
            x = d.standardizer.transform(d.raw_test_x)
            assert out.reports[c] == evaluate(out.models[c], x, d.test_y)

    def test_deterministic(self, cfg, datasets):
        again = build_client_datasets(cfg, seed=1)
        for a, b in zip(datasets, again):
            assert np.array_equal(a.raw_train_x, b.raw_train_x)
            assert np.array_equal(a.standardizer.mean, b.standardizer.mean)
            assert np.array_equal(a.standardizer.std, b.standardizer.std)
            assert np.array_equal(a.test_y, b.test_y)
            assert a.train_examples == b.train_examples

    def test_seed_changes_data(self, cfg, datasets):
        other = build_client_datasets(cfg, seed=2)
        assert not np.array_equal(datasets[0].raw_train_x, other[0].raw_train_x)

    def test_pooling(self, datasets):
        std, x, y = pool_training_data(datasets)
        n = sum(len(d.train_y) for d in datasets)
        assert x.shape == (n, N_FEATURES) and y.shape == (n,)
        raw = np.concatenate([d.raw_train_x for d in datasets])
        # the pooled matrix is held raw, under the statistics fit on it
        assert isinstance(x, StandardizedRows) and x.standardizer is std
        assert np.array_equal(x.raw, raw)
        assert np.array_equal(std.mean, raw.mean(axis=0))
        assert np.array_equal(std.std, raw.std(axis=0))
        rows = every_row(x)
        assert np.allclose(rows.mean(axis=0), 0.0, atol=1e-12)
        assert np.array_equal(std.transform(raw), rows)
        assert np.array_equal(y, np.concatenate([d.train_y for d in datasets]))

    def test_raw_features_are_the_containers_own_read_only_matrix(self, datasets):
        for d in datasets:
            splits = (
                (d.raw_train_x, d.train_examples, d.train_y),
                (d.raw_test_x, d.test_examples, d.test_y),
            )
            for raw, examples, y in splits:
                assert np.shares_memory(raw, examples.features)
                for matrix in (raw, examples.features):
                    with pytest.raises(ValueError):
                        matrix[0, 0] = 1.0
                assert y.dtype == np.float64
                assert np.array_equal(y, examples.labels.astype(np.float64))

    def test_classrooms_are_built_one_at_a_time(self, cfg, monkeypatch):
        # a graph's indptr lives exactly as long as the graph does
        made = []
        live_at_each_call = []
        real = experiment.generate_synthetic

        def tracked(*args):
            gc.collect()
            live_at_each_call.append(sum(ref() is not None for ref in made))
            graph = real(*args)
            made.append(weakref.ref(graph.indptr))
            return graph

        monkeypatch.setattr(experiment, "generate_synthetic", tracked)
        build_client_datasets(cfg, seed=1)
        assert live_at_each_call == [0, 0]


def test_one_wide_classroom_keeps_its_arrays_once():
    """Memory guard on the largest benchmark classroom.

    What the build retains must be the arrays the dataset holds (the raw
    matrices are the containers' features, so they are not counted
    again, and no standardized copy is held), and the build's peak must
    stay within 2.2 times that: it reads 2.11, set by the train/test
    split, with featurization below it.
    """
    wide = make_cfg(
        data={"nodes": "3240", "communities": "12", "intra_p": "0.05", "inter_p": "0.004167"},
        split={"negatives_per_positive": "1.0"},
    )
    build_client_datasets(make_cfg(), seed=1)  # first-call allocations stay out
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (d,) = build_client_datasets(wide, seed=1)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(
        a.nbytes
        for ex in (d.train_examples, d.test_examples)
        for a in (ex.pairs, ex.features, ex.labels)
    ) + sum(
        a.nbytes
        for a in (d.train_y, d.test_y, d.standardizer.mean, d.standardizer.std, d.standardizer.scale)
    )
    assert abs((current - start) - held) <= 0.05 * held
    assert peak - start <= 2.2 * held


class TestRunMethod:
    def test_centralized(self, cfg, datasets):
        out = run_method("centralized", datasets, cfg, seed=1)
        assert out.training == "pooled"
        assert out.models[0] is out.models[1]
        assert sorted(out.reports) == [0, 1]
        for rep in out.reports.values():
            assert 0.0 <= rep.accuracy <= 1.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_centralized_is_pooled_sgd_in_one_round(self, cfg, seed):
        # the reference is plain SGD on the pooled data, with the pooled
        # pseudo-client's init and update stream
        datasets = build_client_datasets(cfg, seed)
        out = run_method("centralized", datasets, cfg, seed=seed)
        tcfg = cfg.train["centralized"]
        _std, x, y = pool_training_data(datasets)
        expected = train_steps(
            init_params(derive_rng(seed, "init"), cfg.hidden_sizes, N_FEATURES),
            x,
            y,
            tcfg,
            BatchStream(len(y), tcfg.batch_size, derive_rng(seed, "client", 0, "update")),
            epochs_to_steps(len(y), tcfg.batch_size, tcfg.epochs),
        )
        assert out.models[0].flat.tobytes() == expected.flat.tobytes()
        assert len(out.history) == 1
        assert out.history[0].checksum == params_checksum(out.models[0])

    def test_fedavg(self, cfg, datasets):
        out = run_method("fedavg", datasets, cfg, seed=1)
        assert out.training == "federated"
        assert out.models[0] is out.models[1]
        assert len(out.history) == 2

    def test_personalized_methods(self, cfg, datasets):
        fedavg = run_method("fedavg", datasets, cfg, seed=1)
        for method in ("fedavg_ft", "perfedavg_hf", "fedala"):
            out = run_method(method, datasets, cfg, seed=1, fedavg=fedavg)
            assert out.training == "personalized"
            assert sorted(out.models) == [0, 1]
            assert out.models[0] is not out.models[1]
        assert out.ala_weights is not None and sorted(out.ala_weights) == [0, 1]

    @pytest.mark.parametrize(
        "method", ["centralized", "fedavg", "fedavg_ft", "perfedavg_hf", "fedala"]
    )
    def test_standardizer_table(self, cfg, datasets, method):
        fedavg = run_method("fedavg", datasets, cfg, seed=1) if method == "fedavg_ft" else None
        out = run_method(method, datasets, cfg, seed=1, fedavg=fedavg)
        assert sorted(out.standardizers) == [0, 1]
        if method == "centralized":
            pooled, _x, _y = pool_training_data(datasets)
            for std in out.standardizers.values():
                assert np.array_equal(std.mean, pooled.mean)
                assert np.array_equal(std.std, pooled.std)
        else:
            for d in datasets:
                assert out.standardizers[d.client_id] is d.standardizer

    @pytest.mark.parametrize(
        "method", ["centralized", "fedavg", "fedavg_ft", "perfedavg_hf", "fedala"]
    )
    def test_clients_train_on_the_raw_split(self, cfg, datasets, method, monkeypatch):
        # no client holds a standardized copy: each reads the raw matrix
        # through its serving standardizer, one drawn batch at a time; that
        # holds for the clients of the rounds and of the fine-tune pass
        trained, tuned = [], []
        real_fedavg, real_fine_tune = experiment.run_fedavg, fine_tune

        def spy_fedavg(clients, *args, **kwargs):
            trained.extend(clients)
            return real_fedavg(clients, *args, **kwargs)

        def spy_fine_tune(global_params, client, *args, **kwargs):
            tuned.append(client)
            return real_fine_tune(global_params, client, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_fedavg", spy_fedavg)
        monkeypatch.setattr("fedsln.personalization.run_fedavg", spy_fedavg)
        monkeypatch.setattr("fedsln.personalization.fine_tune", spy_fine_tune)
        fedavg = run_method("fedavg", datasets, cfg, seed=1) if method == "fedavg_ft" else None
        out = run_method(method, datasets, cfg, seed=1, fedavg=fedavg)
        assert trained
        assert len(tuned) == (len(datasets) if method in ("fedavg_ft", "perfedavg_hf") else 0)
        for client in trained + tuned:
            assert isinstance(client.train_x, StandardizedRows)
        if method == "centralized":
            (client,) = trained
            assert client.train_x.standardizer is out.standardizers[0]
            for d in datasets:
                assert not np.shares_memory(client.train_x.raw, d.raw_train_x)
        else:
            assert len(trained) == len(datasets)
            for clients in (trained, tuned):
                for client, d in zip(clients, datasets):
                    assert np.shares_memory(client.train_x.raw, d.raw_train_x)
                    assert client.train_x.standardizer is d.standardizer

    def test_fedavg_ft_fine_tunes_fedavgs_model(self, cfg, datasets):
        # each classroom's model is one fine-tune pass from the global
        # model of the fedavg outcome handed over; without one, no call
        # trains fedavg itself
        fedavg = run_method("fedavg", datasets, cfg, seed=1)
        handed = run_method("fedavg_ft", datasets, cfg, seed=1, fedavg=fedavg)
        with pytest.raises(ValueError, match=r"^need seed 1's fedavg outcome, not None$"):
            run_method("fedavg_ft", datasets, cfg, seed=1)
        ft_cfg = cfg.train["fedavg_ft"]
        clients = experiment.make_clients(
            [(StandardizedRows(d.raw_train_x, d.standardizer), d.train_y) for d in datasets], 1
        )
        for client in clients:
            expected = fine_tune(fedavg.models[0], client, ft_cfg)
            assert handed.models[client.client_id].flat.tobytes() == expected.flat.tobytes()
        assert sorted(handed.models) == [0, 1]
        assert handed.history is fedavg.history and len(handed.history) == 2
        assert handed.seed == 1
        assert params_checksum(handed.models[0]) != params_checksum(handed.models[1])

    def test_fedavg_ft_rejects_another_outcome(self, cfg, datasets):
        fedala = run_method("fedala", datasets, cfg, seed=1)
        with pytest.raises(ValueError, match="fedavg outcome, not seed 1's fedala"):
            run_method("fedavg_ft", datasets, cfg, seed=1, fedavg=fedala)
        fedavg = run_method("fedavg", datasets, cfg, seed=1)
        with pytest.raises(ValueError, match="not seed 1's fedavg"):
            run_method("fedavg_ft", datasets, cfg, seed=2, fedavg=fedavg)

    def test_unknown_method(self, cfg, datasets):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("boosting", datasets, cfg, seed=1)

    def test_divergence_reaches_a_direct_caller_untagged(self, datasets):
        # run_experiment adds the [train:<method>] tag and the seed
        cfg = make_cfg(fedavg={"learning_rate": "1e200"})
        with pytest.raises(NonFiniteParamsError, match=r"^round 0: client [01] has non-finite"):
            run_method("fedavg", datasets, cfg, seed=1)

    def test_reproducible(self, cfg, datasets):
        a = run_method("fedavg", datasets, cfg, seed=1)
        b = run_method("fedavg", datasets, cfg, seed=1)
        assert params_checksum(a.models[0]) == params_checksum(b.models[0])


class TestPrivacyBoundary:
    def test_federated_run_never_pools(self, monkeypatch):
        calls = []
        real = experiment.pool_training_data

        def spy(datasets):
            calls.append(len(datasets))
            return real(datasets)

        monkeypatch.setattr(experiment, "pool_training_data", spy)
        cfg = make_cfg(
            experiment={"methods": "fedavg,fedala,fedavg_ft,perfedavg_hf"}
        )
        run_experiment(cfg)
        assert calls == []

    def test_centralized_pools_once_per_seed(self, monkeypatch):
        calls = []
        real = experiment.pool_training_data

        def spy(datasets):
            calls.append(len(datasets))
            return real(datasets)

        monkeypatch.setattr(experiment, "pool_training_data", spy)
        cfg = make_cfg(experiment={"methods": "centralized", "seeds": "1,2"})
        run_experiment(cfg)
        assert calls == [2, 2]


def seed_mean_fairness(report, method):
    """fairness_report of method's per-classroom rates averaged over seeds."""
    mean_rates = []
    for ms in report.classroom_metrics(method).values():
        rates = [rates_from_counts(m.tp, m.fp, m.tn, m.fn) for m in ms]
        mean_rates.append(tuple(float(np.mean(column)) for column in zip(*rates)))
    return fairness_report(mean_rates)


@pytest.fixture(scope="module")
def full_report():
    cfg = make_cfg(
        experiment={"methods": "centralized,fedavg,fedala", "seeds": "1,2"},
        explain={"method": "fedala", "pairs_per_client": "2", "background_size": "16"},
    )
    return run_experiment(explaining(cfg))


class TestRunExperiment:
    def test_metrics_grid(self, full_report):
        cells = [(o.method, c, o.seed) for o in full_report.outcomes for c in o.reports]
        assert len(cells) == 3 * 2 * 2
        assert set(cells) == {
            (m, c, s)
            for m in ("centralized", "fedavg", "fedala")
            for c in (0, 1)
            for s in (1, 2)
        }

    def test_fairness_per_method(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["fairness"])
        rows = [l.split(",") for l in (tmp_path / "fairness.csv").read_text().splitlines()[1:]]
        assert sorted({r[0] for r in rows}) == ["centralized", "fedala", "fedavg"]
        for method in ("centralized", "fedala", "fedavg"):
            # two classrooms' rates, then the spreads
            assert [r[1] for r in rows if r[0] == method] == ["0", "1", "range"]
            tpr_range = next(float(r[2]) for r in rows if r[:2] == [method, "range"])
            assert 0.0 <= tpr_range <= 1.0

    def test_explanations_first_seed_only(self, full_report):
        assert sorted(full_report.importance) == [0, 1]
        assert len(full_report.explanations) == 2 * 2
        for rec in full_report.explanations:
            assert set(rec) == {
                "client", "u", "v", "label", "base_value", "predicted", "phi",
            }
            assert len(rec["phi"]) == N_FEATURES
            # additivity carried through the emitted record
            assert rec["base_value"] + sum(rec["phi"].values()) == pytest.approx(
                rec["predicted"], abs=1e-9
            )

    def test_checkpoint_listing(self, full_report, tmp_path):
        written = emit_reports(full_report, tmp_path, include=["models"])
        files = [p.relative_to(tmp_path).as_posix() for p in written]
        names = [rel for rel in files if rel.endswith(".ckpt")]
        assert "models/centralized_seed1.ckpt" in names
        assert "models/fedavg_seed2.ckpt" in names
        assert "models/fedala_seed1_client0.ckpt" in names
        assert len(names) == 2 * (1 + 1 + 2)
        # every checkpoint is listed before every blend-weight file
        blend = files[len(names):]
        assert "models/fedala_seed1_client0_blend.csv" in blend
        assert len(blend) == 4

    @pytest.mark.parametrize("explain", ["false", "true"])
    def test_no_seed_outlives_its_iteration(self, monkeypatch, explain):
        # every array a ClientDataset holds is gone before the next seed is built
        held = []
        live_at_each_build = []
        real = experiment.build_client_datasets

        def tracked(cfg, seed):
            gc.collect()
            live_at_each_build.append(sum(ref() is not None for ref in held))
            datasets = real(cfg, seed)
            held.extend(
                weakref.ref(a)
                for d in datasets
                for a in (d.raw_train_x, d.raw_test_x, d.train_y, d.test_y)
            )
            return datasets

        monkeypatch.setattr(experiment, "build_client_datasets", tracked)
        cfg = make_cfg(
            experiment={"methods": "fedavg,fedavg_ft", "seeds": "1,2,3"},
            explain={"method": "fedavg_ft", "pairs_per_client": "1", "background_size": "4"},
        )
        report = run_experiment(explaining(cfg, enabled=explain == "true"))
        assert live_at_each_build == [0, 0, 0]
        assert len(held) == 3 * 2 * 4
        assert bool(report.explanations) == (explain == "true")

    def test_explain_method_must_be_selected(self):
        cfg = make_cfg(
            experiment={"methods": "fedavg"},
            explain={"method": "fedala"},
        )
        with pytest.raises(ConfigError, match="explain method 'fedala' is not among the methods"):
            explaining(cfg)
        # a run that does not explain takes the same config
        assert explaining(cfg, enabled=False).explain.method == "fedala"

    def test_data_stage_error(self):
        cfg = make_cfg(data={"intra_p": "0.0,0.0", "inter_p": "0.0,0.0"})
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "data"


class TestEmit:
    def test_groups_and_files(self, full_report, tmp_path):
        out = tmp_path / "run"
        written = emit_reports(full_report, out)
        names = sorted(p.relative_to(out).as_posix() for p in written)
        assert "metrics.csv" in names
        assert "summary.csv" in names
        assert "fairness.csv" in names
        assert "importance.csv" in names
        assert "explanations.json" in names
        assert "importance_client0.svg" in names
        assert "run_manifest.json" in names
        assert "models/fedala_seed1_client0_blend.csv" in names
        assert sum(n.endswith(".ckpt") for n in names) == 8

    def test_metrics_csv_layout(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["metrics"])
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,client,seed,accuracy,loss,auc"
        assert len(lines) == 1 + sum(len(o.reports) for o in full_report.outcomes)
        first = lines[1].split(",")
        assert first[0] == "centralized" and first[1] == "0" and first[2] == "1"
        float(first[3]), float(first[4]), float(first[5])
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 3 * 2

    def test_fairness_csv_has_range_row(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["fairness"])
        lines = (tmp_path / "fairness.csv").read_text().splitlines()
        range_rows = [l for l in lines if l.split(",")[1] == "range"]
        assert len(range_rows) == 3
        fr = seed_mean_fairness(full_report, "fedavg")
        assert f"fedavg,range,{float(fr.tpr_range)!r},{float(fr.fpr_range)!r}" in lines

    def test_include_filters(self, full_report, tmp_path):
        written = emit_reports(full_report, tmp_path, include=["fairness"])
        assert [p.name for p in written] == ["fairness.csv"]
        assert not (tmp_path / "metrics.csv").exists()

    def test_unknown_group(self, full_report, tmp_path):
        with pytest.raises(ValueError, match="unknown report groups"):
            emit_reports(full_report, tmp_path, include=["metrics", "plots"])

    def test_cleanup_on_failure(self, full_report, tmp_path, monkeypatch):
        def boom(path, params, standardizer=None):
            raise OSError("disk full")

        monkeypatch.setattr(experiment, "save_checkpoint", boom)
        with pytest.raises(StageError, match=r"\[emit\] disk full"):
            emit_reports(full_report, tmp_path, include=["metrics", "models"])
        assert not (tmp_path / "metrics.csv").exists()

    def test_failed_rerun_keeps_earlier_run(self, full_report, tmp_path, monkeypatch):
        emit_reports(full_report, tmp_path)
        before = {
            p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        assert any(rel.suffix == ".ckpt" for rel in before)
        # a later run with other models under the same file names; its
        # third checkpoint fails
        other = run_experiment(
            make_cfg(experiment={"seeds": "1,2"}, model={"hidden_sizes": "3"})
        )
        real_save = experiment.save_checkpoint
        calls = []

        def fail_late(path, params, standardizer=None):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            real_save(path, params, standardizer)

        monkeypatch.setattr(experiment, "save_checkpoint", fail_late)
        with pytest.raises(StageError, match=r"\[emit\] disk full"):
            emit_reports(other, tmp_path)
        after = {
            p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        assert after == before

    def test_target_named_twice_moves_nothing(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["metrics"])
        before = (tmp_path / "metrics.csv").read_bytes()
        fedavg = next(o for o in full_report.outcomes if (o.method, o.seed) == ("fedavg", 1))
        twice = replace(full_report, outcomes=[fedavg, fedavg])
        twice_named = r"\[emit\] .*fedavg_seed1\.ckpt would be written twice"
        with pytest.raises(StageError, match=twice_named):
            emit_reports(twice, tmp_path, include=["metrics", "models"])
        assert (tmp_path / "metrics.csv").read_bytes() == before
        files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert files == ["metrics.csv", "summary.csv"]

    def test_checkpoints_load_back(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["models"])
        path = tmp_path / "models" / "centralized_seed1.ckpt"
        params, standardizer = load_checkpoint(path)
        wanted = next(
            o.models[0] for o in full_report.outcomes if (o.method, o.seed) == ("centralized", 1)
        )
        assert params_checksum(params) == params_checksum(wanted)
        assert standardizer is not None
        bare, none_std = load_checkpoint(tmp_path / "models" / "fedavg_seed1.ckpt")
        assert none_std is None and bare.layers

    def test_explanations_json_round_trip(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["explain"])
        loaded = json.loads((tmp_path / "explanations.json").read_text())
        assert len(loaded) == len(full_report.explanations)
        assert loaded[0]["client"] == full_report.explanations[0]["client"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_cfg(experiment={"output_dir": str(tmp_path / "a")})
        emit_reports(run_experiment(cfg))
        emit_reports(run_experiment(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b


class TestExports:
    def test_feature_tables(self, cfg, tmp_path):
        paths = export_feature_tables(cfg, 1, tmp_path)
        assert len(paths) == 4
        text = (tmp_path / "features_client0_train.csv").read_text()
        header = text.splitlines()[0]
        assert header.startswith("u,v,") and header.endswith(",label")

    def test_synthetic_graphs(self, cfg, tmp_path):
        paths = export_synthetic_graphs(cfg, 1, tmp_path)
        assert [p.name for p in paths] == ["client0.edges", "client1.edges"]
        body = (tmp_path / "client0.edges").read_text()
        assert all("," in line for line in body.splitlines())

    def test_edge_list_config_round_trip(self, tmp_path):
        base = make_cfg()
        export_synthetic_graphs(base, 1, tmp_path / "graphs")
        cfg = make_cfg(
            data={
                "source": "edge_lists",
                "paths": f"{tmp_path}/graphs/client0.edges, {tmp_path}/graphs/client1.edges",
                # synthetic keys are not valid here
                "nodes": None,
                "communities": None,
                "intra_p": None,
                "inter_p": None,
            }
        )
        datasets = build_client_datasets(cfg, seed=1)
        assert len(datasets) == 2 and len(datasets[0].train_examples) > 0

    def test_generate_requires_synthetic(self, tmp_path):
        cfg = make_cfg(
            data={
                "source": "edge_lists",
                "paths": "x.edges",
                "nodes": None,
                "communities": None,
                "intra_p": None,
                "inter_p": None,
            }
        )
        with pytest.raises(StageError, match=r"\[data\]"):
            export_synthetic_graphs(cfg, 1, tmp_path)


def test_stage_error_message():
    err = StageError("train:fedavg", "seed 3: boom")
    assert str(err) == "[train:fedavg] seed 3: boom"
    assert err.stage == "train:fedavg"


def test_stage_error_survives_pickling():
    # a client shard hands its classroom's StageError to the parent pickled
    err = pickle.loads(pickle.dumps(StageError("explain", "seed 1: classroom 1: boom")))
    assert type(err) is StageError
    assert str(err) == "[explain] seed 1: classroom 1: boom"
    assert (err.stage, err.message) == ("explain", "seed 1: classroom 1: boom")
