"""Fairness arithmetic and exact attributions.

Shapley values are checked against closed-form linear attributions and
an independent permutation-enumeration oracle; fairness spreads against
published per-classroom rate tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsln.analysis import (
    FairnessReport,
    ShapleyExplanation,
    confusion_counts,
    fairness_report,
    global_importance,
    make_predictor,
    rates_from_counts,
    shapley_values,
    svg_bar_chart,
)
from fedsln.features import FEATURE_NAMES, Standardizer
from fedsln.neural import forward, init_params
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
        params = init_params(rng, hidden=(5,), input_dim=n)
        x = rng.normal(size=n)
        bg = rng.normal(size=(rows, n))
        hybrids = []

        def predict(h):
            hybrids.append(h.copy())
            return forward(params, h)

        got = shapley_values(predict, x, bg)
        ref = loop_shapley(predict, x, bg)
        assert hybrids[0].tobytes() == hybrids[1].tobytes()
        assert got.base_value == ref.base_value and got.predicted == ref.predicted
        # the weighted differences are summed in another order
        err = float(np.max(np.abs(np.subtract(got.phi, ref.phi))))
        assert err <= 1e-12 * float(np.max(np.abs(ref.phi))), err

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
