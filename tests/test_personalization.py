"""Personalization strategies against closed-form and structural oracles.

The meta-step is pinned by a quadratic model where every quantity is
known in closed form; the curvature approximation is checked against an
exact Hessian-vector product computed by forward-over-reverse
differentiation; the reductions (alpha=0, frozen blending weights) are
checked bitwise against the plain pipelines they must collapse to.
"""

import numpy as np
import pytest
from scipy.special import expit

from fedsln.federation import make_clients, run_fedavg
from fedsln.neural import (
    DenseLayer,
    ModelParams,
    TrainConfig,
    gradient,
    init_params,
    mean_loss,
    params_checksum,
    sgd_step,
)
from fedsln.personalization import (
    AlaWeights,
    ala_init,
    ala_weights_to_csv,
    fine_tune,
    learn_ala_weights,
    perfedavg_hf_step,
    run_fedala,
    run_fedavg_ft,
    run_perfedavg_hf,
)
from fedsln.rng import derive_rng


def flatten(params):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in params.layers])


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
            approx = (flatten(plus) - flatten(minus)) / (2 * delta)
            errors.append(np.linalg.norm(approx - hv))
        assert 50 < errors[0] / errors[1] < 200
        assert 50 < errors[1] / errors[2] < 200


class TestFineTune:
    def test_one_epoch_matches_manual_replay(self):
        client = toy_clients(1, seed=7)[0]
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, seed=7)
        start = init_params(3)
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
        cfg = TrainConfig(learning_rate=0.1, batch_size=batch_size, seed=3)
        start = init_params(6)
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
        start = init_params(3)
        fingerprint = params_checksum(start)
        fine_tune(start, client, TrainConfig(learning_rate=0.5, batch_size=4))
        assert params_checksum(start) == fingerprint

    def test_run_fedavg_ft_structure(self):
        clients = toy_clients(3, seed=4)
        fed = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=2, seed=4)
        ft = TrainConfig(learning_rate=0.01, batch_size=4, seed=4)
        client_params, history = run_fedavg_ft(clients, fed, ft)
        assert sorted(client_params) == [0, 1, 2]
        assert len(history) == 2
        # each client model is one fine-tuning pass from the final global
        global_params, _ = run_fedavg(toy_clients(3, seed=4), fed)
        for client in toy_clients(3, seed=4):
            expected = fine_tune(global_params, client, ft)
            assert params_checksum(client_params[client.client_id]) == params_checksum(expected)
        # personalization diverges the clients from one another
        sums = {params_checksum(p) for p in client_params.values()}
        assert len(sums) == 3


class TestPerFedAvg:
    def test_alpha_zero_equals_fedavg_ft_bitwise(self):
        cfg = TrainConfig(
            learning_rate=0.05, batch_size=8, local_steps=6, global_rounds=3, seed=2, meta_inner=0.0
        )
        meta, meta_hist = run_perfedavg_hf(toy_clients(2, seed=2), cfg)
        ft, ft_hist = run_fedavg_ft(toy_clients(2, seed=2), cfg, cfg)
        for cid in meta:
            assert params_checksum(meta[cid]) == params_checksum(ft[cid])
        assert [r.checksum for r in meta_hist] == [r.checksum for r in ft_hist]

    def test_meta_learning_reduces_loss(self):
        clients = toy_clients(2, seed=11)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=10, global_rounds=5, seed=11)
        initial = init_params(derive_rng(11, "init"), cfg.hidden_sizes, 6)
        client_params, _ = run_perfedavg_hf(clients, cfg)
        x, y = clients[0].train_x, clients[0].train_y
        assert mean_loss(client_params[0], x, y) < mean_loss(initial, x, y)

    def test_reproducible(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=2, seed=3)
        a, _ = run_perfedavg_hf(toy_clients(2, seed=3), cfg)
        b, _ = run_perfedavg_hf(toy_clients(2, seed=3), cfg)
        for cid in a:
            assert params_checksum(a[cid]) == params_checksum(b[cid])

    def test_threaded_matches_sequential(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=2, seed=6)
        seq, seq_hist = run_perfedavg_hf(toy_clients(3, seed=6), cfg)
        par, par_hist = run_perfedavg_hf(toy_clients(3, seed=6), cfg, max_workers=3)
        for cid in seq:
            assert params_checksum(seq[cid]) == params_checksum(par[cid])
        assert [r.checksum for r in seq_hist] == [r.checksum for r in par_hist]


def random_pair(seed, dims=(3, 4, 1)):
    rng = derive_rng(seed, "pair")
    prev = init_params(rng, hidden=dims[1:-1], input_dim=dims[0])
    glob = init_params(rng, hidden=dims[1:-1], input_dim=dims[0])
    return prev, glob


class TestAlaInit:
    def test_all_ones_returns_global_exactly(self):
        prev, glob = random_pair(0)
        w = AlaWeights.ones_like(glob, 2)
        out = ala_init(prev, glob, w, 2)
        assert np.array_equal(flatten(out), flatten(glob))

    def test_all_zeros_returns_prev_on_top_global_below(self):
        prev, glob = random_pair(1)
        w = AlaWeights.ones_like(glob, 1)
        zero = AlaWeights.from_layers([DenseLayer(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in w.layers])
        out = ala_init(prev, glob, zero, 1)
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
        out = ala_init(prev, glob, half, 2)
        for i in (-2, -1):
            expected = 0.5 * prev.layers[i].weights + 0.5 * glob.layers[i].weights
            assert np.allclose(out.layers[i].weights, expected, atol=1e-12)
            lo = np.minimum(prev.layers[i].weights, glob.layers[i].weights)
            hi = np.maximum(prev.layers[i].weights, glob.layers[i].weights)
            assert np.all(out.layers[i].weights >= lo - 1e-12)
            assert np.all(out.layers[i].weights <= hi + 1e-12)

    def test_validation(self):
        prev, glob = random_pair(3)
        w = AlaWeights.ones_like(glob, 1)
        with pytest.raises(ValueError):
            ala_init(prev, glob, w, 2)  # weight count mismatch
        with pytest.raises(ValueError):
            ala_init(prev, glob, w, 99)
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
            mean_loss(ala_init(prev, glob, AlaWeights.from_layers([DenseLayer(np.array([[w]]), np.array([0.0]))]), 1), x, y)
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


class TestRunFedala:
    def test_frozen_weights_full_depth_reduces_to_fedavg(self):
        cfg = TrainConfig(
            learning_rate=0.05,
            batch_size=8,
            local_steps=6,
            global_rounds=4,
            seed=5,
            ala_top_layers=3,
            ala_weight_lr=0.0,
        )
        _, ala_hist = run_fedala(toy_clients(2, seed=5), cfg)
        fed, hist = run_fedavg(toy_clients(2, seed=5), cfg)
        assert [r.checksum for r in ala_hist] == [r.checksum for r in hist]

    def test_clients_keep_local_states(self):
        clients = toy_clients(2, seed=12)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5, global_rounds=3, seed=12)
        client_params, history = run_fedala(clients, cfg)
        # final per-client parameters are the last local states, which
        # differ from the aggregated global of the final round
        for cid, params in client_params.items():
            assert params is clients[cid].params
            assert params_checksum(params) != history[-1].checksum
        assert params_checksum(client_params[0]) != params_checksum(client_params[1])
        assert clients[0].ala_weights is not None

    def test_reproducible(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=3, seed=1)
        a, _ = run_fedala(toy_clients(2, seed=1), cfg)
        b, _ = run_fedala(toy_clients(2, seed=1), cfg)
        for cid in a:
            assert params_checksum(a[cid]) == params_checksum(b[cid])

    def test_threaded_matches_sequential(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=4, global_rounds=3, seed=2)
        seq, seq_hist = run_fedala(toy_clients(3, seed=2), cfg)
        par, par_hist = run_fedala(toy_clients(3, seed=2), cfg, max_workers=3)
        for cid in seq:
            assert params_checksum(seq[cid]) == params_checksum(par[cid])
        assert [r.checksum for r in seq_hist] == [r.checksum for r in par_hist]

    def test_weights_csv(self):
        w = AlaWeights.from_layers([DenseLayer(np.array([[0.25, 1.0]]), np.array([0.5]))])
        text = ala_weights_to_csv(w)
        lines = text.splitlines()
        assert lines[0] == "layer,kind,index,value"
        assert "0,weights,0,0.25" in lines
        assert "0,biases,0,0.5" in lines
