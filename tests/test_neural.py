"""Network math against independent oracles.

Gradients are checked with central finite differences, AUC against the
literal O(P*N) pairwise count, and the forward pass against a by-hand
recomputation with raw numpy.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fedsln.neural import (
    BatchStream,
    DenseLayer,
    MetricsReport,
    ModelParams,
    NonFiniteParamsError,
    TrainConfig,
    UndefinedAucError,
    auc,
    bce_loss,
    check_finite,
    epochs_to_steps,
    evaluate,
    forward,
    gradient,
    init_params,
    load_checkpoint,
    mean_loss,
    params_checksum,
    save_checkpoint,
    sgd_step,
    train_steps,
)
from fedsln.features import StandardizedRows, Standardizer
from fedsln.rng import derive_rng


def flatten(params):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in params.layers])


def random_model(rng, dims=(6, 5, 3)):
    return init_params(rng, hidden=dims[1:], input_dim=dims[0])


def fd_gradient(params, x, y, h=1e-5):
    """Central finite differences over every scalar parameter."""
    base = params.copy()
    out = []
    for li, layer in enumerate(base.layers):
        for arr in (layer.weights, layer.biases):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = mean_loss(base, x, y)
                arr[idx] = keep - h
                down = mean_loss(base, x, y)
                arr[idx] = keep
                g[idx] = (up - down) / (2 * h)
            out.append(g)
    return np.concatenate([a.ravel() for a in out])


class TestForward:
    def test_hand_computed_single_hidden(self):
        # 2 -> 2 -> 1, fixed numbers, recomputed with raw numpy below
        w1 = np.array([[0.5, -1.0], [2.0, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.5, -0.5]])
        b2 = np.array([0.3])
        params = ModelParams.from_layers([DenseLayer(w1, b1), DenseLayer(w2, b2)])
        x = np.array([0.4, -0.6])
        h = np.logaddexp(0.0, w1 @ x + b1)
        expected = float(expit((w2 @ h + b2)[0]))
        assert forward(params, x[None, :])[0] == pytest.approx(expected, abs=1e-15)

    def test_batch_and_row_agree(self):
        params = random_model(derive_rng(0, "m"))
        x = derive_rng(1, "x").normal(size=(4, 6))
        batch = forward(params, x)
        rows = [forward(params, x[i : i + 1]) for i in range(4)]
        assert np.allclose(batch, np.concatenate(rows), atol=1e-15)
        # a row is a one-row batch; a bare row is refused
        with pytest.raises(ValueError, match=r"expected an \(m, 6\) batch .* got shape \(6,\)"):
            forward(params, x[0])

    def test_outputs_are_probabilities(self):
        params = random_model(derive_rng(3, "m"))
        x = derive_rng(4, "x").normal(scale=10.0, size=(100, 6))
        p = forward(params, x)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_rejects_wrong_width(self):
        params = random_model(derive_rng(0, "m"))
        with pytest.raises(ValueError):
            forward(params, np.zeros((3, 5)))


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        params = init_params(derive_rng(7, "init"))
        dims = params.layer_dims
        assert dims == (6, 32, 16, 1)
        for layer in params.layers:
            fan_out, fan_in = layer.weights.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weights) < limit)
            assert np.all(layer.biases == 0.0)

    def test_seed_reproducibility(self):
        a = flatten(init_params(derive_rng(11, "init")))
        b = flatten(init_params(derive_rng(11, "init")))
        c = flatten(init_params(derive_rng(12, "init")))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_input_stays_open(self):
        rng = derive_rng(5, "init")
        a = init_params(rng, hidden=(4,), input_dim=3)
        b = init_params(rng, hidden=(4,), input_dim=3)
        assert not np.array_equal(flatten(a), flatten(b))  # stream advanced


class TestModelParams:
    def test_validation(self):
        w = np.zeros((2, 3))
        b = np.zeros(2)
        with pytest.raises(ValueError):
            ModelParams.from_layers([])
        with pytest.raises(ValueError):
            ModelParams.from_layers([DenseLayer(w, np.zeros(3))])  # bias mismatch
        with pytest.raises(ValueError):
            ModelParams.from_layers([DenseLayer(w, b)])  # head not scalar
        with pytest.raises(ValueError):
            ModelParams.from_layers(
                [DenseLayer(w, b), DenseLayer(np.zeros((1, 5)), np.zeros(1))]
            )  # does not chain
        with pytest.raises(ValueError):
            ModelParams(np.zeros(8), (3, 2, 1))  # 3*2+2 + 2*1+1 = 11 values
        with pytest.raises(ValueError):
            ModelParams(np.zeros(11), (3, 0, 1))

    def test_copy_is_deep(self):
        params = random_model(derive_rng(0, "m"))
        dup = params.copy()
        dup.layers[0].weights[0, 0] += 1.0
        assert params.layers[0].weights[0, 0] != dup.layers[0].weights[0, 0]

    def test_structure_mismatch(self):
        a = random_model(derive_rng(0, "m"), dims=(6, 5, 3))
        b = random_model(derive_rng(0, "m"), dims=(6, 4, 3))
        with pytest.raises(ValueError, match="structures do not match"):
            sgd_step(a, b, 0.1)

    def test_flat_buffer_is_checkpoint_layout_with_views(self, tmp_path):
        params = random_model(derive_rng(4, "m"), dims=(6, 5, 3))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert np.array_equal(params.flat, flatten(params))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        header = 8 + 8 + 4 * params.n_layers
        assert raw[header:-1] == params.flat.tobytes()
        params.layers[1].biases[2] = 7.5  # views write through
        assert params.flat[6 * 5 + 5 + 5 * 3 + 2] == 7.5

    def test_construction_does_not_scan_for_non_finite(self):
        nan_model = ModelParams.from_layers([DenseLayer(np.full((1, 3), np.nan), np.zeros(1))])
        with pytest.raises(NonFiniteParamsError, match="round 2: client 4"):
            check_finite(nan_model, "round 2: client 4")
        check_finite(random_model(derive_rng(0, "m")), "finite model")


class TestLoss:
    def test_bce_hand_values(self):
        assert bce_loss(0.5, 1.0) == pytest.approx(np.log(2.0), abs=1e-15)
        assert bce_loss(0.9, 1.0) == pytest.approx(-np.log(0.9), abs=1e-15)
        assert bce_loss(0.9, 0.0) == pytest.approx(-np.log(0.1), abs=1e-12)

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(bce_loss(0.0, 1.0))
        assert np.isfinite(bce_loss(1.0, 0.0))

    def test_mean_loss_matches_manual(self):
        params = random_model(derive_rng(2, "m"))
        x = derive_rng(3, "x").normal(size=(8, 6))
        y = (derive_rng(4, "y").random(8) < 0.5).astype(float)
        p = forward(params, x)
        assert mean_loss(params, x, y) == pytest.approx(
            float(np.mean(bce_loss(p, y))), abs=1e-15
        )


class TestGradient:
    def test_finite_difference_sweep(self):
        # 20 random model/batch draws, relative error < 1e-4
        for seed in range(20):
            rng = derive_rng(seed, "fd")
            hidden = (int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            params = init_params(rng, hidden=hidden, input_dim=4)
            m = int(rng.integers(1, 9))
            x = rng.normal(size=(m, 4))
            y = (rng.random(m) < 0.5).astype(float)
            got = flatten(gradient(params, x, y))
            want = fd_gradient(params, x, y)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel < 1e-4, (seed, rel)

    def test_batch_gradient_is_mean_of_rows(self):
        params = random_model(derive_rng(9, "m"))
        x = derive_rng(10, "x").normal(size=(3, 6))
        y = np.array([1.0, 0.0, 1.0])
        whole = flatten(gradient(params, x, y))
        rows = np.mean(
            [flatten(gradient(params, x[i : i + 1], y[i : i + 1])) for i in range(3)],
            axis=0,
        )
        assert np.allclose(whole, rows, atol=1e-15)

    def test_rejects_empty_and_mismatched(self):
        params = random_model(derive_rng(0, "m"))
        with pytest.raises(ValueError):
            gradient(params, np.empty((0, 6)), np.empty(0))
        with pytest.raises(ValueError):
            gradient(params, np.zeros((2, 6)), np.zeros(3))

    def test_sgd_step_arithmetic(self):
        params = random_model(derive_rng(1, "m"))
        grad = random_model(derive_rng(2, "m"))
        out = sgd_step(params, grad, 0.1)
        assert np.allclose(flatten(out), flatten(params) - 0.1 * flatten(grad), atol=1e-15)
        with pytest.raises(ValueError):
            sgd_step(params, grad, -0.1)


class TestBatchStream:
    def test_epoch_covers_every_index(self):
        stream = BatchStream(10, 3, derive_rng(0, "s"))
        seen = np.concatenate([stream.next_indices() for _ in range(4)])
        assert len(seen) == 10
        assert sorted(seen.tolist()) == list(range(10))

    def test_tail_chunk_is_short(self):
        stream = BatchStream(10, 3, derive_rng(0, "s"))
        sizes = [len(stream.next_indices()) for _ in range(4)]
        assert sizes == [3, 3, 3, 1]

    def test_reshuffles_between_epochs(self):
        stream = BatchStream(32, 32, derive_rng(1, "s"))
        first = stream.next_indices().copy()
        second = stream.next_indices().copy()
        assert not np.array_equal(first, second)
        assert sorted(second.tolist()) == list(range(32))

    def test_oversized_batch_clamps(self):
        stream = BatchStream(5, 100, derive_rng(0, "s"))
        assert stream.batch_size == 5
        assert sorted(stream.next_indices().tolist()) == list(range(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchStream(0, 4, derive_rng(0, "s"))


class TestTrainSteps:
    def test_loss_decreases_on_separable_data(self):
        rng = derive_rng(0, "data")
        x = np.vstack([rng.normal(-2.0, 0.5, size=(60, 6)), rng.normal(2.0, 0.5, size=(60, 6))])
        y = np.concatenate([np.zeros(60), np.ones(60)])
        params = init_params(derive_rng(1, "init"), hidden=(8,), input_dim=6)
        before = mean_loss(params, x, y)
        cfg = TrainConfig(learning_rate=0.5, batch_size=32, local_steps=200)
        stream = BatchStream(len(y), cfg.batch_size, derive_rng(2, "steps"))
        after_params = train_steps(params, x, y, cfg, stream, cfg.local_steps)
        assert mean_loss(after_params, x, y) < before * 0.5

    def test_zero_steps_returns_equal_copy(self):
        params = random_model(derive_rng(0, "m"))
        x = derive_rng(1, "x").normal(size=(4, 6))
        y = np.zeros(4)
        out = train_steps(params, x, y, TrainConfig(), BatchStream(4, 128, derive_rng(0, "s")), 0)
        assert out is not params
        assert np.array_equal(flatten(out), flatten(params))

    def test_deterministic_given_stream(self):
        params = random_model(derive_rng(0, "m"))
        x = derive_rng(1, "x").normal(size=(16, 6))
        y = (derive_rng(2, "y").random(16) < 0.5).astype(float)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, local_steps=12)
        a = train_steps(params.copy(), x, y, cfg, BatchStream(16, 4, derive_rng(7, "s")), 12)
        b = train_steps(params.copy(), x, y, cfg, BatchStream(16, 4, derive_rng(7, "s")), 12)
        assert np.array_equal(flatten(a), flatten(b))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        hidden=st.lists(st.integers(1, 9), min_size=0, max_size=3),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 48),
        steps=st.integers(0, 12),
        learning_rate=st.sampled_from([0.0, 1e-3, 0.3, 5.0]),
        seed=st.integers(0, 2**16),
    )
    def test_in_place_loop_matches_gradient_and_sgd_step(
        self, hidden, n, batch_size, steps, learning_rate, seed
    ):
        # the reference is the step written with the public kernels
        rng = derive_rng(seed, "data")
        x = rng.normal(size=(n, 4))
        y = (rng.random(n) < 0.5).astype(float)
        params = init_params(derive_rng(seed, "m"), hidden=tuple(hidden), input_dim=4)
        cfg = TrainConfig(learning_rate=learning_rate, batch_size=batch_size)
        fast = train_steps(
            params, x, y, cfg, BatchStream(n, batch_size, derive_rng(seed, "s")), steps
        )

        stream = BatchStream(n, batch_size, derive_rng(seed, "s"))
        slow = params
        for _ in range(steps):
            idx = stream.next_indices()
            slow = sgd_step(slow, gradient(slow, x[idx], y[idx]), learning_rate)
        assert np.array_equal(fast.flat, slow.flat)
        assert fast.flat is not params.flat

    @pytest.mark.parametrize("n, batch_size", [(37, 8), (30, 7), (5, 9)])
    def test_view_trains_like_the_materialized_matrix(self, n, batch_size):
        # 37/8 and 30/7 end each epoch on a short batch; 9 > 5 is clamped
        rng = derive_rng(n, "view")
        raw = rng.normal(4.0, 30.0, size=(n, 6))
        raw[:, 2] = 1.5  # a zero-std column
        y = (rng.random(n) < 0.5).astype(float)
        s = Standardizer.fit(raw)
        params = init_params(derive_rng(n, "m"), hidden=(5, 3), input_dim=6)
        cfg = TrainConfig(learning_rate=0.2, batch_size=batch_size)
        steps = 3 * epochs_to_steps(n, batch_size, 1) + 1
        on_view = train_steps(
            params, StandardizedRows(raw, s), y, cfg,
            BatchStream(n, batch_size, derive_rng(n, "s")), steps,
        )
        on_matrix = train_steps(
            params, s.transform(raw), y, cfg, BatchStream(n, batch_size, derive_rng(n, "s")), steps
        )
        assert on_view.flat.tobytes() == on_matrix.flat.tobytes()

    def test_rejects_rows_of_the_wrong_width(self):
        params = init_params(derive_rng(0, "init"), hidden=(3,), input_dim=6)
        view = StandardizedRows(np.zeros((4, 5)), Standardizer(np.zeros(5), np.ones(5)))
        stream = BatchStream(4, 128, derive_rng(0, "s"))
        with pytest.raises(ValueError, match="6 features"):
            train_steps(params, view, np.zeros(4), TrainConfig(), stream, 100)
        with pytest.raises(ValueError, match="label counts differ"):
            train_steps(params, np.zeros((4, 6)), np.zeros(3), TrainConfig(), stream, 100)

    def test_epochs_to_steps(self):
        assert epochs_to_steps(10, 3, 1) == 4
        assert epochs_to_steps(10, 3, 5) == 20
        assert epochs_to_steps(10, 100, 7) == 7  # clamped batch = whole pass
        assert epochs_to_steps(256, 256, 2) == 2
        with pytest.raises(ValueError):
            epochs_to_steps(0, 3, 1)
        for batch_size in (0, -2):
            with pytest.raises(ValueError, match="^batch_size must be positive$"):
                epochs_to_steps(10, batch_size, 1)


class TestAuc:
    @staticmethod
    def brute_force(scores, labels):
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        total = 0.0
        for p in pos:
            for n in neg:
                total += 1.0 if p > n else 0.5 if p == n else 0.0
        return total / (len(pos) * len(neg))

    def test_hand_cases(self):
        assert auc([0.1, 0.9], [0, 1]) == 1.0
        assert auc([0.9, 0.1], [0, 1]) == 0.0
        assert auc([0.5, 0.5], [0, 1]) == 0.5
        assert auc([0.2, 0.5, 0.5, 0.8], [0, 0, 1, 1]) == pytest.approx(0.875)

    def test_matches_pair_counting_exactly(self):
        # 100 random score/label sets including heavy ties
        for seed in range(100):
            rng = derive_rng(seed, "auc")
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == self.brute_force(scores.tolist(), labels.tolist())
        # one large set, 6,000 scores on 40 values: the pairs are counted
        # as arrays, each (positive, negative) comparison made once
        rng = derive_rng(100, "auc")
        scores = rng.choice(np.linspace(0.0, 1.0, 40), size=6000)
        labels = (rng.random(6000) < 0.4).astype(int)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = int(np.sum(pos[:, None] > neg[None, :]))
        ties = int(np.sum(pos[:, None] == neg[None, :]))
        assert auc(scores, labels) == (wins + 0.5 * ties) / (pos.size * neg.size)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAucError):
            auc([0.1, 0.2], [1, 1])


class TestEvaluate:
    def test_counts_with_tie_at_threshold(self):
        # engineered logits: p = expit(x) with identity-ish single layer
        params = ModelParams.from_layers([DenseLayer(np.array([[1.0]]), np.zeros(1))])
        x = np.array([[-2.0], [2.0], [0.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        rep = evaluate(params, x, y)
        # p = [0.12, 0.88, 0.50, 0.95]; ties (0.5) predict positive
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 2, 1, 0)
        assert rep.accuracy == 0.5
        assert isinstance(rep, MetricsReport)

    def test_rejects_empty(self):
        params = ModelParams.from_layers([DenseLayer(np.array([[1.0]]), np.zeros(1))])
        with pytest.raises(ValueError):
            evaluate(params, np.empty((0, 1)), np.empty(0))


BAD_STANDARDIZER = "standardizer needs a finite mean and a finite std >= 0"


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = random_model(derive_rng(0, "m"))
        std = Standardizer.fit(derive_rng(1, "x").normal(size=(30, 6)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, std)
        loaded, loaded_std = load_checkpoint(path)
        assert params_checksum(loaded) == params_checksum(params)
        assert np.array_equal(loaded_std.mean, std.mean)
        assert np.array_equal(loaded_std.std, std.std)

    def test_round_trip_without_standardizer(self, tmp_path):
        params = random_model(derive_rng(2, "m"), dims=(3, 2))
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, params)
        loaded, std = load_checkpoint(path)
        assert std is None
        assert np.array_equal(flatten(loaded), flatten(params))

    def test_rejects_garbage_and_truncation(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(bad)
        params = random_model(derive_rng(0, "m"))
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, params)
        trailing = tmp_path / "trailing.ckpt"
        trailing.write_bytes(good.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            load_checkpoint(trailing)

    @settings(max_examples=25, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        input_dim=st.integers(1, 6),
        with_std=st.booleans(),
    )
    def test_every_proper_prefix_is_rejected_naming_the_path(
        self, tmp_path_factory, hidden, input_dim, with_std
    ):
        params = init_params(derive_rng(0, "m"), hidden=tuple(hidden), input_dim=input_dim)
        std = None
        if with_std:
            std = Standardizer.fit(derive_rng(1, "x").normal(size=(8, input_dim)))
        folder = tmp_path_factory.mktemp("prefix")
        good = folder / "good.ckpt"
        save_checkpoint(good, params, std)
        raw = good.read_bytes()
        cut = folder / "cut.ckpt"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match=re.escape(str(cut))):
                load_checkpoint(cut)

    def test_rejects_non_finite_parameters(self, tmp_path):
        params = random_model(derive_rng(0, "m"))
        params.layers[1].weights[0, 0] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)

    # a well-formed file for the 2-3-1 model, then one field changed at a time
    @staticmethod
    def handmade(outs=(3, 1), in_dim=2, flag=1, mean=(0.5, -1.0), std=(2.0, 0.0)):
        dims = (in_dim, *outs)
        n = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
        blob = b"FSLNCKP1" + struct.pack(f"<II{len(outs)}I", len(outs), in_dim, *outs)
        blob += np.linspace(-1.0, 1.0, n).astype("<f8").tobytes() + struct.pack("<B", flag)
        if flag == 1:
            blob += np.array([*mean, *std], dtype="<f8").tobytes()
        return blob

    def test_handmade_file_loads(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(self.handmade())
        params, std = load_checkpoint(path)
        assert params.layer_dims == (2, 3, 1)
        assert std.mean.tolist() == [0.5, -1.0]
        assert std.std.tolist() == [2.0, 0.0]  # a constant feature

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"flag": 2}, "standardizer flag 2 is neither 0 nor 1"),
            ({"mean": (np.nan, 0.0)}, BAD_STANDARDIZER),
            ({"mean": (0.0, -np.inf)}, BAD_STANDARDIZER),
            ({"std": (1.0, np.nan)}, BAD_STANDARDIZER),
            ({"std": (1.0, -2.0)}, BAD_STANDARDIZER),  # would flip a feature's sign
            ({"outs": (3, 2)}, "output layer must be scalar"),
            ({"outs": ()}, "a model needs at least one layer"),
            ({"outs": (0, 1)}, "layer dimensions must be positive"),
        ],
    )
    def test_rejects_a_malformed_file_naming_the_path(self, tmp_path, fields, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self.handmade(**fields))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_checkpoint(path)

    def test_standardizer_dimension_check(self, tmp_path):
        params = random_model(derive_rng(0, "m"))  # input dim 6
        std = Standardizer.fit(np.ones((4, 3)) + np.arange(4)[:, None])
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", params, std)

    def test_checksum_sensitivity(self):
        a = random_model(derive_rng(0, "m"))
        b = a.copy()
        assert params_checksum(a) == params_checksum(b)
        b.layers[0].weights[0, 0] = np.nextafter(
            b.layers[0].weights[0, 0], np.inf
        )
        assert params_checksum(a) != params_checksum(b)
