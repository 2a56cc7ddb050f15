"""Acceptance gate: one test per release criterion.

Every test prints a single "criterion NN [PASS|FAIL]" line on the real
stdout (bypassing capture) so a plain pytest run still shows the eleven
verdicts, then asserts at the criterion's stated tolerance. Criterion 10
trains the bundled desk benchmark (configs/desk_benchmark.ini) once and
shares the outcome across its sub-checks.
"""

import time
from itertools import combinations
from math import factorial, log, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from fedsln.analysis import fairness_report, make_predictor, shapley_values
from fedsln.cli import default_max_workers
from fedsln.cli import main as cli_main
from fedsln.config import load_config
from fedsln.experiment import build_client_datasets, run_method
from fedsln.features import FEATURE_NAMES, Standardizer, ks_statistic, pair_features
from fedsln.federation import aggregate, make_clients, run_fedavg
from fedsln.graphs import SlnGraph
from fedsln.neural import (
    DEFAULT_HIDDEN,
    DenseLayer,
    ModelParams,
    TrainConfig,
    auc,
    gradient,
    init_params,
    mean_loss,
    params_checksum,
    train_steps,
)
from fedsln.personalization import (
    AlaWeights,
    _ala_round,
    _meta_round,
    ala_init,
    learn_ala_weights,
    perfedavg_hf_step,
    fine_tune,
)
from fedsln.rng import derive_rng

BENCH_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_benchmark.ini"


def verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


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


# --- criterion 1: feature oracle sweep ---------------------------------


def brute_features(graph, u, v):
    nu, nv = set(graph.neighbors(u)), set(graph.neighbors(v))
    inter, union = nu & nv, nu | nv
    du, dv = len(nu), len(nv)
    return np.array(
        [
            len(inter) / len(union) if union else 0.0,
            sum(1.0 / log(len(graph.neighbors(w))) for w in inter) if inter else 0.0,
            sum(1.0 / len(graph.neighbors(w)) for w in inter) if inter else 0.0,
            float(du * dv),
            len(inter) / sqrt(du * dv) if du and dv else 0.0,
            2.0 * len(inter) / (du + dv) if du + dv else 0.0,
        ]
    )


def test_criterion_01_feature_oracle_sweep(capsys):
    t0 = time.perf_counter()
    worst, symmetric = 0.0, True
    for g in range(200):
        rng = np.random.default_rng(1000 + g)
        n = int(rng.integers(3, 13))
        p = float(rng.uniform(0.1, 0.9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graph = SlnGraph.from_edges(n, edges)
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
        got = pair_features(graph, pairs)
        for (u, v), row in zip(pairs.tolist(), got):
            worst = max(worst, float(np.max(np.abs(row - brute_features(graph, u, v)))))
        symmetric = symmetric and np.array_equal(got, pair_features(graph, pairs[:, ::-1]))
    elapsed = time.perf_counter() - t0
    verdict(capsys, 
        1,
        "six features match brute force on 200 random graphs",
        worst <= 1e-12 and symmetric and elapsed < 10.0,
        f"max_err={worst:.1e} symmetry={'exact' if symmetric else 'broken'} {elapsed:.1f}s",
    )


def test_criterion_02_hand_graph_fixtures(capsys):
    g4 = SlnGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    expected = {
        (0, 1): np.array([1 / 3, 1 / log(3), 1 / 3, 4.0, 0.5, 0.5]),
        (1, 3): np.array([0.5, 1 / log(3), 1 / 3, 2.0, 1 / sqrt(2), 2 / 3]),
    }
    got = pair_features(g4, np.array(list(expected), dtype=np.int64))
    worst = max(
        float(np.max(np.abs(row - want))) for row, want in zip(got, expected.values())
    )
    verdict(capsys, 2, "twelve tabulated hand-graph feature values", worst <= 1e-9,
            f"max_err={worst:.1e}")


# --- criterion 3: backprop vs finite differences -----------------------


def fd_gradient(params, x, y, h=1e-5):
    base = params.copy()
    out = []
    for layer in base.layers:
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


def test_criterion_03_gradient_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        rng = derive_rng(k, "acceptance-grad")
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(h) for h in rng.integers(2, 6, size=depth))
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(2, 9))
        params = init_params(rng, hidden, dim)
        x = rng.normal(size=(m, dim))
        y = (rng.random(m) < 0.5).astype(float)
        got = gradient(params, x, y).flat
        want = fd_gradient(params, x, y)
        worst = max(worst, float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)))
    elapsed = time.perf_counter() - t0
    verdict(capsys, 3, "backprop matches central differences on 20 draws",
            worst < 1e-4 and elapsed < 5.0, f"max_rel={worst:.1e} {elapsed:.1f}s")


# --- criterion 4: aggregation algebra -----------------------------------


def const_model(value, dims=(2, 3, 1)):
    layers, fan_in = [], dims[0]
    for out in dims[1:]:
        layers.append(DenseLayer(np.full((out, fan_in), float(value)), np.full(out, float(value))))
        fan_in = out
    return ModelParams.from_layers(layers)


def test_criterion_04_aggregation_algebra(capsys):
    # weighted means: sizes 1:3 -> 0.25a+0.75b; sizes 2:3:5 -> 4.4
    two = aggregate([const_model(0.0), const_model(4.0)], [1, 3])
    three = aggregate([const_model(1.0), const_model(4.0), const_model(6.0)], [2, 3, 5])
    fix_err = max(
        max(float(np.max(np.abs(l.weights - v))) for l in m.layers)
        for m, v in ((two, 3.0), (three, 4.4))
    )

    cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=7, global_rounds=4)
    fed, _ = run_fedavg(toy_clients(1, seed=4), cfg, start_model(4))
    solo = toy_clients(1, seed=4)[0]
    seq = train_steps(
        start_model(4),
        solo.train_x, solo.train_y, cfg,
        solo.batch_stream("update", cfg.batch_size),
        cfg.global_rounds * cfg.local_steps,
    )
    solo_err = float(np.max(np.abs(fed.flat - seq.flat)))

    cfg2 = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5, global_rounds=3)
    g_seq, h_seq = run_fedavg(toy_clients(3, seed=9), cfg2, start_model(9))
    g_par, h_par = run_fedavg(toy_clients(3, seed=9), cfg2, start_model(9), max_workers=3)
    order_ok = params_checksum(g_seq) == params_checksum(g_par) and [
        r.checksum for r in h_seq
    ] == [r.checksum for r in h_par]

    verdict(capsys, 4, "weighted-mean aggregation, single-client and scheduling identities",
            fix_err <= 1e-12 and solo_err <= 1e-12 and order_ok,
            f"fixture_err={fix_err:.1e} solo_err={solo_err:.1e} "
            f"order={'exact' if order_ok else 'broken'}")


# --- criterion 5: FedALA reductions -------------------------------------


def test_criterion_05_fedala_reductions(capsys):
    rng = derive_rng(5, "ala-reductions")
    prev = init_params(rng, (4, 3), 5)
    glob = init_params(rng, (4, 3), 5)
    top = 2
    base = len(glob.layers) - top

    ones = AlaWeights.ones_like(glob, top)
    w1 = ala_init(prev, glob, ones)
    ones_exact = all(
        np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
        for a, b in zip(w1.layers, glob.layers)
    )

    zeros = AlaWeights.from_layers(
        [DenseLayer(np.zeros_like(l.weights), np.zeros_like(l.biases))
         for l in glob.layers[base:]]
    )
    w0 = ala_init(prev, glob, zeros)
    zeros_exact = all(
        np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
        for a, b in zip(w0.layers[base:], prev.layers[base:])
    ) and all(
        np.array_equal(a.weights, b.weights)
        for a, b in zip(w0.layers[:base], glob.layers[:base])
    )

    cfg = TrainConfig(
        learning_rate=0.05, batch_size=8, local_steps=6, global_rounds=4,
        ala_top_layers=3, ala_weight_lr=0.0,
    )
    _ala, ala_hist = run_fedavg(toy_clients(2, seed=5), cfg, start_model(5), local=_ala_round)
    _fed, hist = run_fedavg(toy_clients(2, seed=5), cfg, start_model(5))
    trajectory_ok = [r.checksum for r in ala_hist] == [r.checksum for r in hist]

    bounded = True
    for seed in range(20):
        frng = derive_rng(seed, "fuzz")
        x = frng.normal(scale=3.0, size=(30, 3))
        y = (frng.random(30) < 0.5).astype(float)
        client = make_clients([(x, y)], seed=seed)[0]
        fuzz_cfg = TrainConfig(
            ala_top_layers=2, ala_weight_lr=10.0,
            ala_convergence_tol=0.0, ala_update_cap=50,
        )
        w = learn_ala_weights(
            client,
            init_params(frng, hidden=(4,), input_dim=3),
            init_params(frng, hidden=(4,), input_dim=3),
            fuzz_cfg,
        )
        bounded = bounded and all(
            np.all(l.weights >= 0.0) and np.all(l.weights <= 1.0)
            and np.all(l.biases >= 0.0) and np.all(l.biases <= 1.0)
            for l in w.layers
        )

    verdict(capsys, 5, "blending reductions at W=1, W=0, frozen full depth; fuzzed bounds",
            ones_exact and zeros_exact and trajectory_ok and bounded,
            f"W1={'exact' if ones_exact else 'broken'} W0={'exact' if zeros_exact else 'broken'} "
            f"trajectory={'bitwise' if trajectory_ok else 'diverged'} "
            f"bounds={'held' if bounded else 'violated'}")


# --- criterion 6: meta-step fixtures -------------------------------------


def test_criterion_06_perfedavg_hf(capsys):
    batch = (np.zeros((1, 1)), np.zeros(1))
    start = ModelParams.from_layers([DenseLayer(np.array([[1.0]]), np.array([0.0]))])
    stepped = perfedavg_hf_step(
        start, (batch, batch, batch), alpha=0.5, beta=0.1, delta=1e-3,
        grad_fn=lambda p, x, y: p,
    )
    quad_err = abs(float(stepped.layers[0].weights[0, 0]) - 0.975)

    # exact H @ v by forward-over-reverse on a two-layer model; the
    # central difference should lose ~x100 accuracy per delta decade
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
        [(rd1.T @ x).ravel(), rd1.sum(axis=0),
         (rdelta2.T @ a1 + delta2.T @ ra1).ravel(), rdelta2.sum(axis=0)]
    )
    errors = []
    for delta in (1e-2, 1e-3, 1e-4):
        plus = gradient(ModelParams(params.flat + delta * v.flat, params.layer_dims), x, y)
        minus = gradient(ModelParams(params.flat - delta * v.flat, params.layer_dims), x, y)
        errors.append(float(np.linalg.norm((plus.flat - minus.flat) / (2 * delta) - hv)))
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    ratios_ok = 50 < r1 < 200 and 50 < r2 < 200

    cfg = TrainConfig(
        learning_rate=0.05, batch_size=8, local_steps=6, global_rounds=3,
        meta_inner=0.0,
    )
    meta_clients = toy_clients(2, seed=2)
    meta_global, meta_hist = run_fedavg(meta_clients, cfg, start_model(2), local=_meta_round)
    meta = {c.client_id: fine_tune(meta_global, c, cfg) for c in meta_clients}
    # fedavg_ft: plain FedAvg rounds, then one fine-tune pass per client
    global_params, ft_hist = run_fedavg(toy_clients(2, seed=2), cfg, start_model(2))
    ft = {c.client_id: fine_tune(global_params, c, cfg) for c in toy_clients(2, seed=2)}
    alpha_zero_ok = all(
        params_checksum(meta[cid]) == params_checksum(ft[cid]) for cid in meta
    ) and [r.checksum for r in meta_hist] == [r.checksum for r in ft_hist]

    verdict(capsys, 6, "meta-step quadratic fixture, curvature convergence, alpha-zero identity",
            quad_err <= 1e-12 and ratios_ok and alpha_zero_ok,
            f"quad_err={quad_err:.1e} ratios=({r1:.1f},{r2:.1f}) "
            f"alpha0={'bitwise' if alpha_zero_ok else 'diverged'}")


# --- criterion 7: attribution axioms -------------------------------------


def subset_shapley(predict, x, background):
    """Factorial-weighted subset enumeration (2^n coalition values)."""
    x = np.asarray(x, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    n = x.size
    v = {}
    for mask in range(1 << n):
        block = bg.copy()
        for f in range(n):
            if mask >> f & 1:
                block[:, f] = x[f]
        v[mask] = float(np.mean(predict(block)))
    phi = np.zeros(n)
    for f in range(n):
        others = [g for g in range(n) if g != f]
        for r in range(n):
            for subset in combinations(others, r):
                mask = sum(1 << g for g in subset)
                weight = factorial(r) * factorial(n - r - 1) / factorial(n)
                phi[f] += weight * (v[mask | (1 << f)] - v[mask])
    return phi


def identity_standardizer(n):
    return Standardizer(np.zeros(n), np.ones(n))


def test_criterion_07_shapley_axioms(capsys):
    t0 = time.perf_counter()

    eff_worst = 0.0
    for k in range(100):
        rng = derive_rng(k, "accept-shap")
        n = int(rng.integers(2, 7))
        predict = make_predictor(init_params(rng, (4,), n), identity_standardizer(n))
        e = shapley_values(
            predict, rng.normal(size=n), rng.normal(size=(int(rng.integers(1, 9)), n))
        )
        eff_worst = max(eff_worst, abs(e.base_value + float(np.sum(e.phi)) - e.predicted))

    rng = derive_rng(7, "accept-shap-dummy")
    params = init_params(rng, (4,), 5)
    for layer0 in (params.layers[0],):
        layer0.weights[:, 0] = 0.0  # feature 0 disconnected
    e = shapley_values(
        make_predictor(params, identity_standardizer(5)),
        rng.normal(size=5), rng.normal(size=(6, 5)),
    )
    dummy_ok = e.phi[0] == 0.0

    rng = derive_rng(8, "accept-shap-brute")
    n = 6
    predict = make_predictor(init_params(rng, (5,), n), identity_standardizer(n))
    x = rng.normal(size=n)
    bg = rng.normal(size=(8, n))
    brute_err = float(np.max(np.abs(shapley_values(predict, x, bg).phi - subset_shapley(predict, x, bg))))

    # symmetric predictor + identical background columns -> equal phi
    def sym_predict(block):
        return expit(block[:, 0] + block[:, 1] + 0.5 * block[:, 2])

    xs = np.array([0.7, 0.7, -0.3, 1.1, 0.0, -2.0])
    bg_sym = rng.normal(size=(8, n))
    bg_sym[:, 1] = bg_sym[:, 0]
    es = shapley_values(sym_predict, xs, bg_sym)
    sym_err = abs(float(es.phi[0] - es.phi[1]))

    def f(block):
        return expit(block @ np.linspace(-1, 1, n))

    def g(block):
        return np.tanh(block[:, 0] - block[:, 3])

    lin = np.asarray(shapley_values(lambda b: 2.0 * f(b) + 3.0 * g(b), x, bg).phi)
    parts = 2.0 * np.asarray(shapley_values(f, x, bg).phi) + 3.0 * np.asarray(
        shapley_values(g, x, bg).phi
    )
    lin_err = float(np.max(np.abs(lin - parts)))

    elapsed = time.perf_counter() - t0
    verdict(capsys, 7, "attribution efficiency, dummy, symmetry, linearity",
            eff_worst < 1e-9 and dummy_ok and brute_err <= 1e-9
            and sym_err <= 1e-9 and lin_err <= 1e-9 and elapsed < 10.0,
            f"eff={eff_worst:.1e} dummy={'0.0' if dummy_ok else 'nonzero'} "
            f"brute={brute_err:.1e} sym={sym_err:.1e} lin={lin_err:.1e} {elapsed:.1f}s")


# --- criterion 8: rank statistic ------------------------------------------


def brute_auc(scores, labels):
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    cmp = pos[:, None] - neg[None, :]
    return float(((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (len(pos) * len(neg)))


def test_criterion_08_auc_matches_pair_counting(capsys):
    exact = True
    for k in range(100):
        rng = derive_rng(k, "accept-auc")
        m = int(rng.integers(2, 1001))
        scores = rng.integers(0, 6, size=m) / 5.0  # heavy ties
        if k % 2:
            scores = scores + rng.normal(scale=0.25, size=m)
        labels = (rng.random(m) < 0.5).astype(float)
        labels[0], labels[1] = 1.0, 0.0  # both classes present
        exact = exact and auc(scores, labels) == brute_auc(scores, labels)
    verdict(capsys, 8, "rank AUC equals brute-force pair counting on 100 sets", exact,
            "exact on all sets" if exact else "mismatch found")


# --- criterion 9: fairness spread fixtures --------------------------------


def test_criterion_09_fairness_ranges(capsys):
    rates = {
        "centralized": [(0.83, 0.03), (0.72, 0.04), (0.72, 0.05), (0.81, 0.10), (0.28, 0.02)],
        "fedavg": [(0.81, 0.05), (0.76, 0.05), (0.77, 0.07), (0.71, 0.08), (0.37, 0.03)],
        "fedala": [(0.84, 0.03), (0.74, 0.04), (0.68, 0.04), (0.85, 0.11), (0.68, 0.05)],
    }
    reports = {name: fairness_report(rows) for name, rows in rates.items()}
    spans = {
        name: (max(t for t, _ in rows) - min(t for t, _ in rows))
        for name, rows in rates.items()
    }
    exact = all(reports[n].tpr_range == spans[n] for n in rates)
    published = (
        round(reports["centralized"].tpr_range, 12) == 0.55
        and round(reports["fedavg"].tpr_range, 12) == 0.44
        and round(reports["fedala"].tpr_range, 12) == 0.17
    )
    ordering = (
        reports["fedala"].tpr_range
        < reports["fedavg"].tpr_range
        < reports["centralized"].tpr_range
    )
    verdict(capsys, 9, "published TPR spreads 0.55/0.44/0.17 with the adaptive method lowest",
            exact and published and ordering,
            f"spans=({reports['centralized'].tpr_range:.2f},"
            f"{reports['fedavg'].tpr_range:.2f},{reports['fedala'].tpr_range:.2f})")


# --- criterion 10: desk benchmark ------------------------------------------


@pytest.fixture(scope="module")
def desk_benchmark():
    cfg = load_config(BENCH_CONFIG)
    ra = FEATURE_NAMES.index("resource_allocation")
    t0 = time.perf_counter()
    means: dict[str, list[float]] = {m: [] for m in cfg.methods}
    ks_min = 1.0
    workers = default_max_workers(cfg.n_clients)
    for seed in cfg.seeds:
        datasets = build_client_datasets(cfg, seed)
        for i, j in combinations(range(len(datasets)), 2):
            ks_min = min(
                ks_min,
                ks_statistic(datasets[i].raw_train_x[:, ra], datasets[j].raw_train_x[:, ra]),
            )
        for method in cfg.methods:
            out = run_method(method, datasets, cfg, seed, max_workers=workers)
            accs = [out.reports[c].accuracy for c in sorted(out.reports)]
            means[method].append(float(np.mean(accs)))
    return {
        "mean": {m: float(np.mean(v)) for m, v in means.items()},
        "ks_min": float(ks_min),
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_10_desk_benchmark(capsys, desk_benchmark):
    mean = desk_benchmark["mean"]
    gap = abs(mean["fedavg"] - mean["centralized"])
    lift = mean["fedala"] - mean["fedavg"]
    ks_min = desk_benchmark["ks_min"]
    elapsed = desk_benchmark["elapsed"]
    verdict(capsys, 10, "five-client benchmark: parity, personalization lift, non-IID spread",
            gap <= 0.03 and lift >= 0.005 and ks_min > 0.05 and elapsed < 600.0,
            f"(a) |fedavg-centralized|={gap:.4f}<=0.03 "
            f"(b) fedala-fedavg={lift:.4f}>=0.005 "
            f"(c) min_KS={ks_min:.3f}>0.05 in {elapsed:.0f}s")


# --- criterion 11: emitted-byte determinism --------------------------------


SMALL_CONFIG = """\
[experiment]
methods = centralized,fedavg,fedala
seeds = 1,2

[model]
hidden_sizes = 8

[data]
source = synthetic
nodes = 40,50
communities = 2,3
intra_p = 0.4,0.35
inter_p = 0.06,0.04

[split]
negatives_per_positive = 2.0

[centralized]
epochs = 3

[fedavg]
global_rounds = 3
local_steps = 10

[fedala]
global_rounds = 3
local_steps = 10
"""


def test_criterion_11_byte_identical_metrics(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(SMALL_CONFIG)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(ini), "--output-dir", str(out)])
        assert code == 0
        outs.append((out / "metrics.csv").read_bytes())
    capsys.readouterr()
    identical = outs[0] == outs[1]
    verdict(capsys, 11, "two identical invocations emit byte-identical metrics.csv", identical,
            f"{len(outs[0])} bytes" if identical else "byte difference found")
