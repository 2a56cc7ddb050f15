"""Fairness arithmetic and exact attributions.

Shapley values are checked against closed-form linear attributions, an
independent permutation-enumeration oracle and the per-mask and
per-instance forms the batched engine replaced; fairness spreads against
published per-classroom rate tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsln.analysis import (
    SHAPLEY_CHUNK,
    FairnessReport,
    ShapleyExplanation,
    _shapley_weights,
    fairness_report,
    global_importance,
    make_predictor,
    rates_from_counts,
    shapley_values,
    shapley_values_batch,
    svg_bar_chart,
)
from fedsln.features import FEATURE_NAMES, Standardizer
from fedsln.neural import confusion_counts, init_params
from fedsln.rng import derive_rng

# per-classroom (TPR, FPR) reference rows used in the fairness fixtures
RATES_CENTRALIZED = ((0.83, 0.03), (0.72, 0.04), (0.72, 0.05), (0.81, 0.10), (0.28, 0.02))
RATES_FEDAVG = ((0.81, 0.05), (0.76, 0.05), (0.77, 0.07), (0.71, 0.08), (0.37, 0.03))
RATES_FEDALA = ((0.84, 0.03), (0.74, 0.04), (0.68, 0.04), (0.85, 0.11), (0.68, 0.05))


class TestConfusion:
    def test_counts_fixture(self):
        tp, fp, tn, fn = confusion_counts([0.9, 0.5, 0.2, 0.7], [1, 0, 0, 0])
        assert (tp, fp, tn, fn) == (1, 2, 1, 0)  # tie at 0.5 predicts positive

    def test_rates_fixture(self):
        tpr, fpr = rates_from_counts(*confusion_counts([0.9, 0.1, 0.8, 0.3], [1, 1, 0, 0]))
        assert tpr == 0.5 and fpr == 0.5

    def test_missing_class_gives_none(self):
        tpr, fpr = rates_from_counts(*confusion_counts([0.9, 0.1], [1, 1]))
        assert fpr is None and tpr == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            confusion_counts([], [])


class TestFairness:
    def test_reference_table_ranges(self):
        # max-minus-min TPR: 0.55, 0.44, 0.17; the personalized column
        # shows the smallest spread
        rc = fairness_report(RATES_CENTRALIZED)
        rf = fairness_report(RATES_FEDAVG)
        ra = fairness_report(RATES_FEDALA)
        assert rc.tpr_range == 0.83 - 0.28
        assert rf.tpr_range == 0.81 - 0.37
        assert ra.tpr_range == 0.85 - 0.68
        assert round(rc.tpr_range, 12) == 0.55
        assert round(rf.tpr_range, 12) == 0.44
        assert round(ra.tpr_range, 12) == 0.17
        assert ra.tpr_range < rf.tpr_range < rc.tpr_range

    def test_fpr_ranges(self):
        assert round(fairness_report(RATES_CENTRALIZED).fpr_range, 12) == 0.08
        assert round(fairness_report(RATES_FEDAVG).fpr_range, 12) == 0.05
        assert round(fairness_report(RATES_FEDALA).fpr_range, 12) == 0.08

    def test_single_client_zero_spread(self):
        r = fairness_report([(0.5, 0.1)])
        assert r.tpr_range == 0.0 and r.fpr_range == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fairness_report([])
        with pytest.raises(ValueError):
            fairness_report([(0.5, None)])
        with pytest.raises(ValueError):
            fairness_report([(1.5, 0.0)])


def linear_predictor(coefs, intercept=0.0):
    c = np.asarray(coefs, dtype=np.float64)

    def predict(x):
        return np.atleast_2d(x) @ c + intercept

    return predict


def permutation_shapley(predict, x, background):
    """Independent oracle: average marginal contribution over all n!
    feature orderings, subset values cached per mask."""
    import itertools

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
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        mask = 0
        for f in perm:
            phi[f] += v[mask | (1 << f)] - v[mask]
            mask |= 1 << f
    return phi / len(perms)


def per_instance_shapley(predict, x, background):
    """The one-instance form shapley_values_batch replaced: the whole
    2^n x background hybrid of x in one predict call."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.asarray(background, dtype=np.float64)
    n = x.size
    n_subsets = 1 << n
    in_subset = ((np.arange(n_subsets)[:, None] >> np.arange(n)) & 1).astype(bool)
    hybrid = np.where(in_subset[:, None, :], x, bg).reshape(-1, n)
    out = np.asarray(predict(hybrid), dtype=np.float64).reshape(n_subsets, -1)
    v = out.mean(axis=1)
    without = np.nonzero(~in_subset.T)[1].reshape(n, n_subsets // 2)
    with_f = without | (1 << np.arange(n))[:, None]
    weights = _shapley_weights(n)[in_subset.sum(axis=1)[without]]
    phi = (weights * (v[with_f] - v[without])).sum(axis=1)
    return ShapleyExplanation(
        base_value=float(v[0]),
        phi=tuple(float(p) for p in phi),
        predicted=float(v[n_subsets - 1]),
    )


def rowwise_predictor(params):
    """The network scored with correctly rounded elementwise operations
    only (softsign hidden units), so a row's score cannot depend on the
    rows scored beside it."""

    def predict(h):
        a = np.asarray(h, dtype=np.float64)
        layers = params.layers
        for k, layer in enumerate(layers):
            z = np.repeat(layer.biases[None, :], len(a), axis=0)
            for f in range(a.shape[1]):
                z += a[:, f : f + 1] * layer.weights[:, f]
            a = z if k == len(layers) - 1 else z / (1.0 + np.abs(z))
        return a[:, 0]

    return predict


def row_keys(rows):
    """Each row's bytes, so 0.0 and -0.0 count as different rows."""
    return [r.tobytes() for r in np.ascontiguousarray(rows, dtype=np.float64)]


def loop_shapley(predict, x, background):
    """The per-mask loop shapley_values replaced: the hybrid built one
    background copy at a time, phi accumulated one subset at a time."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.asarray(background, dtype=np.float64)
    n = x.size
    n_subsets = 1 << n
    rows = bg.shape[0]
    hybrid = np.empty((n_subsets * rows, n), dtype=np.float64)
    for mask in range(n_subsets):
        block = bg.copy()
        for f in range(n):
            if mask >> f & 1:
                block[:, f] = x[f]
        hybrid[mask * rows : (mask + 1) * rows] = block
    out = np.asarray(predict(hybrid), dtype=np.float64).reshape(n_subsets, rows)
    v = out.mean(axis=1)

    fact = math.factorial
    denom = fact(n)
    phi = np.zeros(n)
    for f in range(n):
        bit = 1 << f
        for mask in range(n_subsets):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            weight = fact(s) * fact(n - s - 1) / denom
            phi[f] += weight * (v[mask | bit] - v[mask])
    return ShapleyExplanation(
        base_value=float(v[0]),
        phi=tuple(float(p) for p in phi),
        predicted=float(v[n_subsets - 1]),
    )


class TestShapley:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(n=st.integers(1, 8), rows=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_matches_loop_reference(self, n, rows, seed):
        rng = derive_rng(seed, "shap-loop")
        predict = rowwise_predictor(init_params(rng, hidden=(5,), input_dim=n))
        x = rng.normal(size=n)
        # repeated background rows and zeroed cells; x shares no value with
        # them, so rows of different subsets never coincide
        pool = rng.normal(size=(max(1, rows // 2), n))
        bg = pool[rng.integers(0, len(pool), rows)]
        bg[rng.random((rows, n)) < 0.4] = 0.0
        calls, hybrids = [], []

        def spy(h):
            calls.append(h.copy())
            return predict(h)

        def spy_ref(h):
            hybrids.append(h.copy())
            return predict(h)

        got = shapley_values(spy, x, bg)
        ref = loop_shapley(spy_ref, x, bg)
        assert got.base_value == ref.base_value and got.predicted == ref.predicted
        # the weighted differences are summed in another order
        err = float(np.max(np.abs(np.subtract(got.phi, ref.phi))))
        assert err <= 1e-12 * float(np.max(np.abs(ref.phi))), err

        # every distinct hybrid row is scored once, in full-size calls, and
        # the padding repeats rows already sent
        assert all(c.shape == (SHAPLEY_CHUNK, n) for c in calls)
        distinct = set(row_keys(hybrids[0]))
        sent = row_keys(np.concatenate(calls))
        assert len(calls) == -(-len(distinct) // SHAPLEY_CHUNK)
        assert len(set(sent[: len(distinct)])) == len(distinct)
        assert set(sent) == distinct

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        n_pairs=st.integers(1, 70),
        n_bg=st.integers(2, 120),
        pool=st.integers(1, 40),
        zeros=st.floats(0.0, 0.9),
        hidden=st.sampled_from([(8,), (5,), (32, 16), (16, 8, 4)]),
        seed=st.integers(0, 2**16),
    )
    def test_batch_matches_per_instance_bitwise(self, n_pairs, n_bg, pool, zeros, hidden, seed):
        rng = derive_rng(seed, "shap-batch")
        params = init_params(rng, hidden=hidden, input_dim=6)
        predict = make_predictor(params, Standardizer.fit(rng.normal(size=(50, 6)) * 2.0))
        # few distinct rows of small counts, many exact zeros, some -0.0
        rows = np.round(rng.exponential(2.0, size=(pool, 6)), 1)
        rows[rng.random((pool, 6)) < zeros] = 0.0
        rows[rng.random((pool, 6)) < 0.2] *= -1.0
        xs = rows[rng.integers(0, pool, n_pairs)]
        bg = rows[rng.integers(0, pool, n_bg)]
        got = shapley_values_batch(predict, xs, bg)
        assert got == [per_instance_shapley(predict, x, bg) for x in xs]

    def test_linear_model_closed_form(self):
        # phi_f = c_f * (x_f - mean(background_f)), exactly
        rng = derive_rng(0, "lin")
        coefs = np.array([1.5, -2.0, 0.5, 3.0])
        bg = rng.normal(size=(50, 4))
        x = rng.normal(size=4)
        expl = shapley_values(linear_predictor(coefs, 0.7), x, bg)
        expected = coefs * (x - bg.mean(axis=0))
        assert np.allclose(expl.phi, expected, atol=1e-9)
        assert expl.base_value == pytest.approx(float(bg.mean(axis=0) @ coefs + 0.7), abs=1e-9)

    def test_matches_permutation_enumeration(self):
        rng = derive_rng(3, "perm")
        params = init_params(rng, hidden=(5,), input_dim=4)
        std = Standardizer.fit(rng.normal(size=(40, 4)))
        predict = make_predictor(params, std)
        bg = rng.normal(size=(8, 4))
        x = rng.normal(size=4)
        expl = shapley_values(predict, x, bg)
        oracle = permutation_shapley(predict, x, bg)
        assert np.allclose(expl.phi, oracle, atol=1e-9)

    def test_efficiency_sweep(self):
        # base + sum(phi) telescopes to the prediction on 100 draws
        for seed in range(100):
            rng = derive_rng(seed, "eff")
            params = init_params(rng, hidden=(4,), input_dim=6)
            std = Standardizer.fit(rng.normal(size=(30, 6)))
            predict = make_predictor(params, std)
            bg = rng.normal(size=(int(rng.integers(1, 7)), 6))
            x = rng.normal(size=6)
            expl = shapley_values(predict, x, bg)
            assert abs(expl.base_value + sum(expl.phi) - expl.predicted) < 1e-9

    def test_dummy_feature_gets_exact_zero(self):
        rng = derive_rng(5, "dummy")
        coefs = np.array([2.0, 0.0, -1.0])  # feature 1 is ignored
        bg = rng.normal(size=(20, 3))
        x = rng.normal(size=3)
        expl = shapley_values(linear_predictor(coefs), x, bg)
        assert expl.phi[1] == 0.0

    def test_symmetry(self):
        # interchangeable features (same coefficient, same value, same
        # background column) receive identical attributions
        rng = derive_rng(6, "sym")
        col = rng.normal(size=20)
        bg = np.column_stack([col, col, rng.normal(size=20)])
        coefs = np.array([1.3, 1.3, -0.4])
        x = np.array([0.8, 0.8, 0.1])
        expl = shapley_values(linear_predictor(coefs), x, bg)
        assert expl.phi[0] == pytest.approx(expl.phi[1], abs=1e-9)

    def test_linearity(self):
        rng = derive_rng(7, "linearity")
        bg = rng.normal(size=(15, 4))
        x = rng.normal(size=4)
        p1 = linear_predictor(np.array([1.0, -1.0, 0.5, 2.0]))
        p2 = linear_predictor(np.array([0.3, 0.7, -2.0, 0.0]), intercept=1.0)
        combo = lambda z: 2.0 * p1(z) + 3.0 * p2(z)
        e1 = shapley_values(p1, x, bg)
        e2 = shapley_values(p2, x, bg)
        ec = shapley_values(combo, x, bg)
        expected = 2.0 * np.array(e1.phi) + 3.0 * np.array(e2.phi)
        assert np.allclose(ec.phi, expected, atol=1e-9)

    def test_validation(self):
        predict = linear_predictor(np.ones(3))
        with pytest.raises(ValueError):
            shapley_values(predict, np.ones(3), np.empty((0, 3)))
        with pytest.raises(ValueError):
            shapley_values(predict, np.ones(3), np.ones((5, 2)))
        with pytest.raises(ValueError):
            shapley_values(linear_predictor(np.ones(21)), np.ones(21), np.ones((2, 21)))
        with pytest.raises(ValueError):
            shapley_values_batch(predict, np.empty((0, 3)), np.ones((5, 3)))
        with pytest.raises(ValueError):
            shapley_values(lambda h: predict(h)[:-1], np.ones(3), np.ones((5, 3)))


class TestGlobalImportance:
    def test_mean_abs_and_ranking(self):
        e1 = ShapleyExplanation(0.0, (0.4, -0.2, 0.0, 0.0, 0.0, 0.0), 0.2)
        e2 = ShapleyExplanation(0.0, (-0.2, 0.6, 0.0, 0.0, 0.0, 0.0), 0.4)
        imp, ranking = global_importance([e1, e2])
        assert np.allclose(imp, [0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
        assert ranking[:2] == (1, 0)
        assert ranking[2:] == (2, 3, 4, 5)  # ties keep index order

    def test_requires_input(self):
        with pytest.raises(ValueError):
            global_importance([])


class TestMakePredictor:
    def test_standardizes_before_forward(self):
        rng = derive_rng(2, "pred")
        params = init_params(rng, hidden=(4,), input_dim=6)
        raw = rng.normal(size=(25, 6)) * 3.0 + 1.0
        std = Standardizer.fit(raw)
        predict = make_predictor(params, std)
        from fedsln.neural import forward

        direct = forward(params, std.transform(raw[:5]))
        assert np.allclose(predict(raw[:5]), direct, atol=1e-15)


class TestSvg:
    def test_deterministic_and_well_formed(self):
        values = [0.3, 0.1, 0.25, 0.05, 0.2, 0.15]
        a = svg_bar_chart(values)
        b = svg_bar_chart(values)
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
        assert a.count("<rect") == 6
        for name in FEATURE_NAMES:
            assert name in a

    def test_bars_sorted_descending(self):
        text = svg_bar_chart([0.1, 0.9, 0.5], labels=("low", "high", "mid"))
        assert text.index("high") < text.index("mid") < text.index("low")

    def test_zero_values_ok(self):
        text = svg_bar_chart([0.0, 0.0], labels=("a", "b"))
        assert 'width="0.00"' in text

    def test_validation(self):
        with pytest.raises(ValueError):
            svg_bar_chart([0.1], labels=("a", "b"))
        with pytest.raises(ValueError):
            svg_bar_chart([], labels=())
