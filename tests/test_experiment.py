"""Driver-level tests: dataset assembly, privacy boundary, report emission."""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fedsln.experiment as experiment
from fedsln.config import build_experiment_config
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
from fedsln.features import N_FEATURES
from fedsln.neural import (
    epochs_to_steps,
    evaluate,
    init_params,
    load_checkpoint,
    params_checksum,
    train_steps,
)
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
    "fedavg_ft": {"epochs": "1"},
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


@pytest.fixture(scope="module")
def cfg():
    return make_cfg()


@pytest.fixture(scope="module")
def datasets(cfg):
    return build_client_datasets(cfg, seed=1)


class TestDatasets:
    def test_shapes(self, datasets):
        assert [d.client_id for d in datasets] == [0, 1]
        for d in datasets:
            assert d.train_x.shape == (len(d.train_examples), N_FEATURES)
            assert d.raw_test_x.shape == (len(d.test_examples), N_FEATURES)
            assert d.train_y.shape == (len(d.train_examples),)
            assert len(d.train_examples) > len(d.test_examples) > 0

    def test_standardized_train_columns(self, datasets):
        for d in datasets:
            mean = d.train_x.mean(axis=0)
            assert np.allclose(mean, 0.0, atol=1e-12)
            std = d.train_x.std(axis=0)
            # constant raw columns stay constant; others become unit scale
            varying = d.raw_train_x.std(axis=0) > 0
            assert np.allclose(std[varying], 1.0, atol=1e-12)

    def test_test_uses_train_statistics(self, cfg, datasets):
        out = run_method("fedavg", datasets, cfg, seed=1)
        for d in datasets:
            c = d.client_id
            assert np.array_equal(d.standardizer.transform(d.raw_train_x), d.train_x)
            x = d.standardizer.transform(d.raw_test_x)
            assert out.reports[c] == evaluate(out.models[c], x, d.test_y)

    def test_deterministic(self, cfg, datasets):
        again = build_client_datasets(cfg, seed=1)
        for a, b in zip(datasets, again):
            assert np.array_equal(a.train_x, b.train_x)
            assert np.array_equal(a.test_y, b.test_y)
            assert a.train_examples == b.train_examples

    def test_seed_changes_data(self, cfg, datasets):
        other = build_client_datasets(cfg, seed=2)
        assert not np.array_equal(datasets[0].raw_train_x, other[0].raw_train_x)

    def test_pooling(self, datasets):
        std, x, y = pool_training_data(datasets)
        n = sum(len(d.train_y) for d in datasets)
        assert x.shape == (n, N_FEATURES) and y.shape == (n,)
        assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
        raw = np.concatenate([d.raw_train_x for d in datasets])
        assert np.array_equal(std.transform(raw), x)

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
    again), and the build's peak must stay within three times that.
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
        for a in (d.train_x, d.train_y, d.test_y, d.standardizer.mean, d.standardizer.std)
    )
    assert abs((current - start) - held) <= 0.05 * held
    assert peak - start <= 3 * held


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
        tcfg = replace(cfg.train["centralized"], hidden_sizes=cfg.hidden_sizes, seed=seed)
        _std, x, y = pool_training_data(datasets)
        expected = train_steps(
            init_params(derive_rng(seed, "init"), tcfg.hidden_sizes, N_FEATURES),
            x,
            y,
            tcfg,
            derive_rng(seed, "client", 0, "update"),
            steps=epochs_to_steps(len(y), tcfg.batch_size, tcfg.epochs),
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
        for method in ("fedavg_ft", "perfedavg_hf", "fedala"):
            out = run_method(method, datasets, cfg, seed=1)
            assert out.training == "personalized"
            assert sorted(out.models) == [0, 1]
            assert out.models[0] is not out.models[1]
        assert out.ala_weights is not None and sorted(out.ala_weights) == [0, 1]

    @pytest.mark.parametrize(
        "method", ["centralized", "fedavg", "fedavg_ft", "perfedavg_hf", "fedala"]
    )
    def test_standardizer_table(self, cfg, datasets, method):
        out = run_method(method, datasets, cfg, seed=1)
        assert sorted(out.standardizers) == [0, 1]
        if method == "centralized":
            pooled, _x, _y = pool_training_data(datasets)
            for std in out.standardizers.values():
                assert np.array_equal(std.mean, pooled.mean)
                assert np.array_equal(std.std, pooled.std)
        else:
            for d in datasets:
                assert out.standardizers[d.client_id] is d.standardizer

    def test_unknown_method(self, cfg, datasets):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("boosting", datasets, cfg, seed=1)

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


@pytest.fixture(scope="module")
def full_report():
    cfg = make_cfg(
        experiment={"methods": "centralized,fedavg,fedala", "seeds": "1,2"},
        explain={
            "enabled": "true",
            "method": "fedala",
            "pairs_per_client": "2",
            "background_size": "16",
        },
    )
    return run_experiment(cfg)


class TestRunExperiment:
    def test_metrics_grid(self, full_report):
        rows = {(m, c, s) for (m, c, s, _rep) in full_report.metrics}
        assert len(full_report.metrics) == 3 * 2 * 2
        assert rows == {
            (m, c, s)
            for m in ("centralized", "fedavg", "fedala")
            for c in (0, 1)
            for s in (1, 2)
        }

    def test_fairness_per_method(self, full_report):
        assert sorted(full_report.fairness) == ["centralized", "fedala", "fedavg"]
        for fr in full_report.fairness.values():
            assert len(fr.client_rates) == 2
            assert 0.0 <= fr.tpr_range <= 1.0

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

    def test_checkpoint_listing(self, full_report):
        names = [rel for (rel, _p, _s) in full_report.checkpoints]
        assert "models/centralized_seed1.ckpt" in names
        assert "models/fedavg_seed2.ckpt" in names
        assert "models/fedala_seed1_client0.ckpt" in names
        assert len(names) == 2 * (1 + 1 + 2)
        blend = [rel for (rel, _text) in full_report.extra_files]
        assert "models/fedala_seed1_client0_blend.csv" in blend
        assert len(blend) == 4

    def test_explain_method_must_be_selected(self):
        cfg = make_cfg(
            experiment={"methods": "fedavg"},
            explain={"enabled": "true", "method": "fedala"},
        )
        with pytest.raises(StageError, match=r"\[config\]") as err:
            run_experiment(cfg)
        assert err.value.stage == "config"

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
        assert len(lines) == 1 + len(full_report.metrics)
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
        fr = full_report.fairness["fedavg"]
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
        twice = replace(full_report, metrics=[], extra_files=[("a.csv", "1\n"), ("a.csv", "2\n")])
        with pytest.raises(StageError, match=r"\[emit\] .*a\.csv would be written twice"):
            emit_reports(twice, tmp_path, include=["metrics", "models"])
        assert (tmp_path / "metrics.csv").read_bytes() == before
        files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert files == ["metrics.csv", "summary.csv"]

    def test_checkpoints_load_back(self, full_report, tmp_path):
        emit_reports(full_report, tmp_path, include=["models"])
        path = tmp_path / "models" / "centralized_seed1.ckpt"
        params, standardizer = load_checkpoint(path)
        wanted = next(
            p for (rel, p, _s) in full_report.checkpoints
            if rel.endswith("centralized_seed1.ckpt")
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
