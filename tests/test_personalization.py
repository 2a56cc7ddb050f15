"""Personalization strategies against closed-form and structural oracles.

The meta-step is pinned by a quadratic model where every quantity is
known in closed form; the curvature approximation is checked against an
exact Hessian-vector product computed by forward-over-reverse
differentiation; the reductions (alpha=0, frozen blending weights) are
checked bitwise against the plain pipelines they must collapse to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fedsln.features import StandardizedRows, Standardizer
from fedsln.federation import local_round, make_clients, run_fedavg
from fedsln.graphs import round_half_up
from fedsln.neural import (
    DEFAULT_HIDDEN,
    DenseLayer,
    ModelParams,
    TrainConfig,
    _gradient_into,
    bce_loss,
    gradient,
    layer_views,
    init_params,
    mean_loss,
    params_checksum,
    sgd_step,
)
from fedsln.personalization import (
    AlaWeights,
    _ala_round,
    _check_top_layers,
    _meta_round,
    ala_init,
    ala_weights_to_csv,
    fine_tune,
    learn_ala_weights,
    perfedavg_hf_step,
)
from fedsln.rng import derive_rng


def start_model(seed, hidden=DEFAULT_HIDDEN, dim=6):
    return init_params(derive_rng(seed, "init"), hidden, dim)


def toy_clients(n_clients, seed=0, n=40, dim=6):
    datasets = []
    for i in range(n_clients):
        rng = derive_rng(seed * 100 + i, "toy")
        x = rng.normal(size=(n, dim))
        w = rng.normal(size=dim)
        y = (x @ w > 0).astype(float)
        cut = n - 10
        datasets.append((x[:cut], y[:cut]))
    return make_clients(datasets, seed)


def view_clients(n_clients, seed=0, n=40):
    """toy_clients whose rows are a StandardizedRows view of shifted,
    scaled raw data, as run_method builds them."""
    datasets = []
    for c in toy_clients(n_clients, seed, n):
        raw = c.train_x * 40.0 + 7.0
        datasets.append((StandardizedRows(raw, Standardizer.fit(raw)), c.train_y))
    return make_clients(datasets, seed)


def reference_meta_round(client, global_params, config):
    """The meta-learning local step written with the public meta-step."""
    params = global_params
    upd = client.batch_stream("update", config.batch_size)
    meta = client.batch_stream("meta", config.batch_size)
    hess = client.batch_stream("hess", config.batch_size)
    x, y = client.train_x, client.train_y
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_steps):
            i1, i2, i3 = meta.next_indices(), upd.next_indices(), hess.next_indices()
            params = perfedavg_hf_step(
                params,
                ((x[i1], y[i1]), (x[i2], y[i2]), (x[i3], y[i3])),
                config.meta_inner,
                config.meta_outer,
                config.hf_delta,
            )
    client.params = params
    return params


def reference_learn_ala_weights(client, global_params, local_prev, config, *, weights=None):
    """The full-depth learner: every update blends a whole model and takes
    its gradient through every layer."""
    p = weights.n_layers if weights is not None else config.ala_top_layers
    _check_top_layers(global_params, p)
    n = client.size
    m = max(1, round_half_up(config.ala_data_fraction / 100.0 * n))
    idx = client.generator("ala-subsample").choice(n, size=m, replace=False)
    sx = np.asarray(client.train_x[idx], dtype=np.float64)
    sy = np.asarray(client.train_y[idx], dtype=np.float64)
    w = weights.copy() if weights is not None else AlaWeights.ones_like(global_params, p)
    top = global_params.flat.size - w.flat.size
    spread = global_params.flat[top:] - local_prev.flat[top:]
    grad = np.empty_like(global_params.flat)
    grads = layer_views(grad, global_params.layer_dims)
    cap = config.ala_update_cap if weights is None else 1
    losses = []
    for _ in range(cap):
        blended = ala_init(local_prev, global_params, w)
        probs = _gradient_into(blended.layers, grads, sx, sy)
        losses.append(float(np.mean(bce_loss(probs, sy))))
        w = AlaWeights(
            np.clip(w.flat - config.ala_weight_lr * (grad[top:] * spread), 0.0, 1.0),
            w.layer_dims,
        )
        window = losses[-config.ala_window :]
        if len(window) == config.ala_window and float(np.std(window)) < config.ala_convergence_tol:
            break
    return w


DUMMY_BATCH = (np.zeros((1, 1)), np.zeros(1))


class TestMetaStep:
    def test_quadratic_oracle(self):
        # L(w) = w^2/2 so grad = w; with w=1, alpha=0.5, beta=0.1:
        # inner = 0.5, g2 = 0.5, d = 0.5, update = 1 - 0.1*(0.5 - 0.25)
        params = ModelParams.from_layers([DenseLayer(np.array([[1.0]]), np.array([0.0]))])
        out = perfedavg_hf_step(
            params,
            (DUMMY_BATCH, DUMMY_BATCH, DUMMY_BATCH),
            alpha=0.5,
            beta=0.1,
            delta=1e-3,
            grad_fn=lambda p, x, y: p,
        )
        assert abs(out.layers[0].weights[0, 0] - 0.975) < 1e-12
        assert abs(out.layers[0].biases[0]) < 1e-12

    def test_quadratic_alpha_zero_is_plain_sgd(self):
        params = ModelParams.from_layers([DenseLayer(np.array([[2.0]]), np.array([0.5]))])
        out = perfedavg_hf_step(
            params,
            (DUMMY_BATCH, DUMMY_BATCH, DUMMY_BATCH),
            alpha=0.0,
            beta=0.25,
            delta=1e-3,
            grad_fn=lambda p, x, y: p,
        )
        # w - beta*w = 0.75*w
        assert out.layers[0].weights[0, 0] == pytest.approx(1.5, abs=1e-15)
        assert out.layers[0].biases[0] == pytest.approx(0.375, abs=1e-15)

    def test_rejects_nonpositive_delta(self):
        params = ModelParams.from_layers([DenseLayer(np.array([[1.0]]), np.array([0.0]))])
        with pytest.raises(ValueError):
            perfedavg_hf_step(
                params, (DUMMY_BATCH,) * 3, 0.1, 0.1, 0.0, grad_fn=lambda p, x, y: p
            )

    def test_hvp_error_shrinks_quadratically(self):
        # exact H @ v by forward-over-reverse on a two-layer model;
        # central differences should lose ~x100 error per delta decade
        rng = derive_rng(0, "hvp")
        params = init_params(rng, hidden=(5,), input_dim=4)
        m = 12
        x = rng.normal(size=(m, 4))
        y = (rng.random(m) < 0.5).astype(float)
        v = init_params(rng, hidden=(5,), input_dim=4)

        w1, b1 = params.layers[0]
        w2, b2 = params.layers[1]
        v1, c1 = v.layers[0]
        v2, c2 = v.layers[1]
        z1 = x @ w1.T + b1
        a1 = np.logaddexp(0.0, z1)
        s1 = expit(z1)
        p = expit((a1 @ w2.T + b2)[:, 0])
        delta2 = ((p - y) / m)[:, None]
        rz1 = x @ v1.T + c1
        ra1 = s1 * rz1
        rz2 = (ra1 @ w2.T + a1 @ v2.T + c2)[:, 0]
        rdelta2 = (p * (1 - p) * rz2 / m)[:, None]
        rd1 = (rdelta2 @ w2 + delta2 @ v2) * s1 + (delta2 @ w2) * (s1 * (1 - s1)) * rz1
        hv = np.concatenate(
            [
                (rd1.T @ x).ravel(),
                rd1.sum(axis=0),
                (rdelta2.T @ a1 + delta2.T @ ra1).ravel(),
                rdelta2.sum(axis=0),
            ]
        )

        errors = []
        for delta in (1e-2, 1e-3, 1e-4):
            plus = gradient(ModelParams(params.flat + delta * v.flat, params.layer_dims), x, y)
            minus = gradient(ModelParams(params.flat - delta * v.flat, params.layer_dims), x, y)
            approx = (plus.flat - minus.flat) / (2 * delta)
            errors.append(np.linalg.norm(approx - hv))
        assert 50 < errors[0] / errors[1] < 200
        assert 50 < errors[1] / errors[2] < 200


class TestFineTune:
    def test_one_epoch_matches_manual_replay(self):
        client = toy_clients(1, seed=7)[0]
        cfg = TrainConfig(learning_rate=0.1, batch_size=8)
        start = start_model(3)
        tuned = fine_tune(start, client, cfg)

        rng = derive_rng(client.seed, "client", client.client_id, "finetune")
        order = rng.permutation(client.size)
        params = start.copy()
        for lo in range(0, client.size, 8):
            idx = order[lo : lo + 8]
            params = sgd_step(
                params,
                gradient(params, client.train_x[idx], client.train_y[idx]),
                0.1,
            )
        assert params_checksum(tuned) == params_checksum(params)

    @pytest.mark.parametrize("batch_size", [7, 30, 64])  # ragged, exact, clamped
    def test_repeat_calls_match_manual_replay(self, batch_size):
        client = toy_clients(1, seed=3)[0]
        assert client.size == 30
        cfg = TrainConfig(learning_rate=0.1, batch_size=batch_size)
        start = start_model(6)
        order = derive_rng(client.seed, "client", client.client_id, "finetune").permutation(30)
        params = start.copy()
        for lo in range(0, 30, batch_size):
            idx = order[lo : lo + batch_size]
            grad = gradient(params, client.train_x[idx], client.train_y[idx])
            params = sgd_step(params, grad, 0.1)
        # the stream is drawn afresh each call, so a repeat is the same model
        for _ in range(2):
            assert np.array_equal(fine_tune(start, client, cfg).flat, params.flat)

    def test_does_not_mutate_global(self):
        client = toy_clients(1, seed=1)[0]
        start = start_model(3)
        fingerprint = params_checksum(start)
        fine_tune(start, client, TrainConfig(learning_rate=0.5, batch_size=4))
        assert params_checksum(start) == fingerprint


class TestPerFedAvg:
    def test_alpha_zero_equals_fedavg_ft_bitwise(self):
        cfg = TrainConfig(
            learning_rate=0.05, batch_size=8, local_steps=6, global_rounds=3, meta_inner=0.0
        )
        clients = toy_clients(2, seed=2)
        meta_global, meta_hist = run_fedavg(clients, cfg, start_model(2), local=_meta_round)
        # perfedavg_hf serves each client the fine-tune of its meta-learned global model
        meta = {c.client_id: fine_tune(meta_global, c, cfg) for c in clients}
        # fedavg_ft: plain FedAvg rounds, then one fine-tune pass per client
        global_params, fed_hist = run_fedavg(toy_clients(2, seed=2), cfg, start_model(2))
        ft = {c.client_id: fine_tune(global_params, c, cfg) for c in toy_clients(2, seed=2)}
        assert sorted(meta) == sorted(ft) == [0, 1]
        for cid in meta:
            assert params_checksum(meta[cid]) == params_checksum(ft[cid])
        assert [r.checksum for r in meta_hist] == [r.checksum for r in fed_hist]

    def test_meta_learning_reduces_loss(self):
        clients = toy_clients(2, seed=11)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=10, global_rounds=5)
        initial = start_model(11)
        global_params, _ = run_fedavg(clients, cfg, initial, local=_meta_round)
        x, y = clients[0].train_x, clients[0].train_y
        served = fine_tune(global_params, clients[0], cfg)
        assert mean_loss(served, x, y) < mean_loss(initial, x, y)

    def test_reproducible(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=2)
        a, _ = run_fedavg(toy_clients(2, seed=3), cfg, start_model(3), local=_meta_round)
        b, _ = run_fedavg(toy_clients(2, seed=3), cfg, start_model(3), local=_meta_round)
        assert params_checksum(a) == params_checksum(b)

    def test_threaded_matches_sequential(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=2)
        seq, seq_hist = run_fedavg(toy_clients(3, seed=6), cfg, start_model(6), local=_meta_round)
        par, par_hist = run_fedavg(
            toy_clients(3, seed=6), cfg, start_model(6), local=_meta_round, max_workers=3
        )
        assert params_checksum(seq) == params_checksum(par)
        assert [r.checksum for r in seq_hist] == [r.checksum for r in par_hist]

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        hidden=st.lists(st.integers(1, 7), min_size=0, max_size=2),
        batch_size=st.integers(1, 40),
        local_steps=st.integers(0, 6),
        rounds=st.integers(2, 3),
        alpha=st.sampled_from([0.0, 0.01, 0.3]),
        beta=st.sampled_from([0.0, 0.05, 2.0]),
        delta=st.sampled_from([1e-5, 1e-3, 0.5]),
        seed=st.integers(0, 2**16),
        views=st.booleans(),
    )
    def test_in_place_round_matches_the_public_meta_step(
        self, hidden, batch_size, local_steps, rounds, alpha, beta, delta, seed, views
    ):
        cfg = TrainConfig(
            learning_rate=0.05,
            batch_size=batch_size,
            local_steps=local_steps,
            global_rounds=rounds,
            meta_inner=alpha,
            meta_outer=beta,
            hf_delta=delta,
        )
        make = view_clients if views else toy_clients
        start = start_model(seed, hidden=tuple(hidden))
        fast, fast_hist = run_fedavg(make(2, seed=seed % 50), cfg, start, local=_meta_round)
        slow, slow_hist = run_fedavg(
            make(2, seed=seed % 50), cfg, start, local=reference_meta_round
        )
        assert fast.flat.tobytes() == slow.flat.tobytes()
        assert [r.checksum for r in fast_hist] == [r.checksum for r in slow_hist]


def random_pair(seed, dims=(3, 4, 1)):
    rng = derive_rng(seed, "pair")
    prev = init_params(rng, hidden=dims[1:-1], input_dim=dims[0])
    glob = init_params(rng, hidden=dims[1:-1], input_dim=dims[0])
    return prev, glob


class TestAlaInit:
    def test_all_ones_returns_global_exactly(self):
        prev, glob = random_pair(0)
        w = AlaWeights.ones_like(glob, 2)
        out = ala_init(prev, glob, w)
        assert np.array_equal(out.flat, glob.flat)

    def test_all_zeros_returns_prev_on_top_global_below(self):
        prev, glob = random_pair(1)
        w = AlaWeights.ones_like(glob, 1)
        zero = AlaWeights.from_layers([DenseLayer(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in w.layers])
        out = ala_init(prev, glob, zero)
        assert np.array_equal(out.layers[-1].weights, prev.layers[-1].weights)
        assert np.array_equal(out.layers[-1].biases, prev.layers[-1].biases)
        assert np.array_equal(out.layers[0].weights, glob.layers[0].weights)

    def test_interior_weights_give_convex_combination(self):
        prev, glob = random_pair(2)
        half = AlaWeights.from_layers(
            [
                DenseLayer(np.full_like(l.weights, 0.5), np.full_like(l.biases, 0.5))
                for l in glob.layers[-2:]
            ]
        )
        out = ala_init(prev, glob, half)
        for i in (-2, -1):
            expected = 0.5 * prev.layers[i].weights + 0.5 * glob.layers[i].weights
            assert np.allclose(out.layers[i].weights, expected, atol=1e-12)
            lo = np.minimum(prev.layers[i].weights, glob.layers[i].weights)
            hi = np.maximum(prev.layers[i].weights, glob.layers[i].weights)
            assert np.all(out.layers[i].weights >= lo - 1e-12)
            assert np.all(out.layers[i].weights <= hi + 1e-12)

    def test_validation(self):
        prev, glob = random_pair(3)
        # one 3 -> 1 layer of weights; the model's top layer is 4 -> 1
        w = AlaWeights(np.ones(4), (3, 1))
        with pytest.raises(ValueError, match="weight shapes do not match"):
            ala_init(prev, glob, w)
        with pytest.raises(ValueError):
            AlaWeights.from_layers([DenseLayer(np.array([[1.5]]), np.array([0.0]))])


class TestLearnAlaWeights:
    def test_matches_grid_search_on_scalar_blend(self):
        # single 1 -> 1 sigmoid layer; equal biases pin the bias weight,
        # so the learned scalar must land on the grid-search optimum
        rng = derive_rng(5, "grid")
        x = rng.normal(size=(60, 1))
        y = (x[:, 0] * 1.2 > 0).astype(float)
        prev = ModelParams.from_layers([DenseLayer(np.array([[0.0]]), np.array([0.0]))])
        glob = ModelParams.from_layers([DenseLayer(np.array([[2.0]]), np.array([0.0]))])
        clients = make_clients([(x, y)], seed=5)
        cfg = TrainConfig(
            learning_rate=0.1,
            ala_top_layers=1,
            ala_data_fraction=100.0,
            ala_weight_lr=0.5,
            ala_convergence_tol=1e-10,
            ala_window=10,
            ala_update_cap=500,
        )
        learned = learn_ala_weights(clients[0], glob, prev, cfg)
        got = learned.layers[0].weights[0, 0]

        grid = np.linspace(0.0, 1.0, 2001)
        losses = [
            mean_loss(ala_init(prev, glob, AlaWeights.from_layers([DenseLayer(np.array([[w]]), np.array([0.0]))])), x, y)
            for w in grid
        ]
        best = grid[int(np.argmin(losses))]
        assert abs(got - best) < 1e-2

    def test_bounds_hold_under_fuzzing(self):
        # 20 scenarios x 50 updates = 1000 fuzzed steps at a hostile
        # weight learning rate; every intermediate state is validated by
        # the AlaWeights constructor, the final one re-checked here
        for seed in range(20):
            rng = derive_rng(seed, "fuzz")
            x = rng.normal(scale=3.0, size=(30, 3))
            y = (rng.random(30) < 0.5).astype(float)
            clients = make_clients([(x, y)], seed=seed)
            prev = init_params(rng, hidden=(4,), input_dim=3)
            glob = init_params(rng, hidden=(4,), input_dim=3)
            cfg = TrainConfig(
                ala_top_layers=2,
                ala_weight_lr=10.0,
                ala_convergence_tol=0.0,
                ala_update_cap=50,
            )
            w = learn_ala_weights(clients[0], glob, prev, cfg)
            for layer in w.layers:
                assert np.all(layer.weights >= 0.0) and np.all(layer.weights <= 1.0)
                assert np.all(layer.biases >= 0.0) and np.all(layer.biases <= 1.0)

    def test_zero_lr_keeps_weights_at_start(self):
        clients = toy_clients(1, seed=8)
        prev, glob = random_pair(8, dims=(6, 4, 1))
        cfg = TrainConfig(ala_top_layers=1, ala_weight_lr=0.0, ala_update_cap=5)
        w = learn_ala_weights(clients[0], glob, prev, cfg)
        assert all(np.all(l.weights == 1.0) and np.all(l.biases == 1.0) for l in w.layers)

    def test_subsample_is_deterministic_per_client(self):
        clients = toy_clients(1, seed=9)
        prev, glob = random_pair(9, dims=(6, 4, 1))
        cfg = TrainConfig(ala_top_layers=1, ala_weight_lr=0.3, ala_update_cap=3)
        a = learn_ala_weights(toy_clients(1, seed=9)[0], glob, prev, cfg)
        b = learn_ala_weights(toy_clients(1, seed=9)[0], glob, prev, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)


    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=3),
        top_pick=st.integers(0, 3),
        start=st.sampled_from(["ones", "drawn"]),
        fraction=st.sampled_from([5.0, 50.0, 100.0]),
        seed=st.integers(0, 2**16),
    )
    def test_tail_learner_matches_the_full_depth_learner(
        self, hidden, top_pick, start, fraction, seed
    ):
        rng = derive_rng(seed, "ala-ref")
        dims = (6, *hidden)
        prev = init_params(rng, hidden=tuple(hidden), input_dim=6)
        glob = init_params(rng, hidden=tuple(hidden), input_dim=6)
        top_layers = 1 + top_pick % prev.n_layers  # every count from 1 to n
        weights = None
        if start == "drawn":
            tail = AlaWeights.ones_like(glob, top_layers)
            weights = AlaWeights(rng.random(tail.flat.size), tail.layer_dims)
        cfg = TrainConfig(
            ala_top_layers=top_layers,
            ala_data_fraction=fraction,
            ala_weight_lr=2.0,
            ala_convergence_tol=1e-4,
            ala_window=3,
            ala_update_cap=12,
        )
        got = learn_ala_weights(
            view_clients(1, seed=seed % 50)[0], glob, prev, cfg, weights=weights
        )
        want = reference_learn_ala_weights(
            view_clients(1, seed=seed % 50)[0], glob, prev, cfg, weights=weights
        )
        assert got.layer_dims == want.layer_dims == glob.layer_dims[len(dims) - top_layers :]
        assert got.flat.tobytes() == want.flat.tobytes()


class TestRunFedala:
    def test_frozen_weights_full_depth_reduces_to_fedavg(self):
        cfg = TrainConfig(
            learning_rate=0.05,
            batch_size=8,
            local_steps=6,
            global_rounds=4,
            ala_top_layers=3,
            ala_weight_lr=0.0,
        )
        _, ala_hist = run_fedavg(toy_clients(2, seed=5), cfg, start_model(5), local=_ala_round)
        fed, hist = run_fedavg(toy_clients(2, seed=5), cfg, start_model(5))
        assert [r.checksum for r in ala_hist] == [r.checksum for r in hist]

    def test_clients_keep_local_states(self):
        clients = toy_clients(2, seed=12)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5, global_rounds=3)
        _, history = run_fedavg(clients, cfg, start_model(12), local=_ala_round)
        # the clients' last local states differ from the aggregated global
        # of the final round
        for client in clients:
            assert params_checksum(client.params) != history[-1].checksum
        assert params_checksum(clients[0].params) != params_checksum(clients[1].params)
        assert clients[0].ala_weights is not None

    def test_first_round_is_local_round_from_the_global_model(self):
        # a client with no previous model has nothing to blend: its step
        # is plain FedAvg's, bit for bit, and learns no weights
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5)
        glob = start_model(7)
        (ala_client,), (plain_client,) = toy_clients(1, seed=7), toy_clients(1, seed=7)
        ala = _ala_round(ala_client, glob, cfg)
        plain = local_round(plain_client, glob, cfg)
        assert ala.flat.tobytes() == plain.flat.tobytes()
        assert ala is ala_client.params
        assert ala_client.ala_weights is None
        assert glob.flat.tobytes() == start_model(7).flat.tobytes()

    def test_reproducible(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=3)
        a, b = toy_clients(2, seed=1), toy_clients(2, seed=1)
        run_fedavg(a, cfg, start_model(1), local=_ala_round)
        run_fedavg(b, cfg, start_model(1), local=_ala_round)
        for ca, cb in zip(a, b):
            assert params_checksum(ca.params) == params_checksum(cb.params)

    def test_threaded_matches_sequential(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=3)
        seq, par = toy_clients(3, seed=2), toy_clients(3, seed=2)
        _, seq_hist = run_fedavg(seq, cfg, start_model(2), local=_ala_round)
        start = start_model(2)
        before = start.flat.copy()
        _, par_hist = run_fedavg(par, cfg, start, local=_ala_round, max_workers=3)
        assert start.flat.tobytes() == before.tobytes()
        # the shards hand each client's last local state back
        for cs, cp in zip(seq, par):
            assert params_checksum(cs.params) == params_checksum(cp.params)
        assert [r.checksum for r in seq_hist] == [r.checksum for r in par_hist]

    def test_weights_csv(self):
        w = AlaWeights.from_layers([DenseLayer(np.array([[0.25, 1.0]]), np.array([0.5]))])
        text = ala_weights_to_csv(w)
        lines = text.splitlines()
        assert lines[0] == "layer,kind,index,value"
        assert "0,weights,0,0.25" in lines
        assert "0,biases,0,0.5" in lines
