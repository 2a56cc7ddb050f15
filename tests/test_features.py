"""Feature oracles: hand-worked fixtures plus brute-force sweeps.

The brute-force reference below recomputes each score straight from raw
neighbor sets with no shared code path, so its agreement with
pair_features, the shipped kernel, is meaningful.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedsln.features import (
    FEATURE_NAMES,
    PairExamples,
    StandardizedRows,
    Standardizer,
    build_examples,
    examples_to_csv,
    ks_statistic,
    pair_features,
    to_arrays,
)
from fedsln.graphs import SlnGraph, generate_synthetic, temporal_split

G4 = SlnGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def features_of(graph, u, v):
    """pair_features of the one pair (u, v), by feature name."""
    row = pair_features(graph, np.array([[u, v]], dtype=np.int64))[0]
    return dict(zip(FEATURE_NAMES, row.tolist()))


def all_pairs(n, ordered=False):
    """Every pair of distinct nodes below n, u < v unless ordered."""
    return np.array(
        [(u, v) for u in range(n) for v in range(n) if u < v or (ordered and u != v)],
        dtype=np.int64,
    ).reshape(-1, 2)


def brute_force(graph, u, v):
    """Reference: direct neighbor-set arithmetic, one score at a time."""
    nu, nv = set(graph.neighbors(u)), set(graph.neighbors(v))
    common = nu & nv
    union = nu | nv
    out = {
        "jaccard": len(common) / len(union) if union else 0.0,
        "adamic_adar": sum(1.0 / math.log(len(graph.neighbors(w))) for w in common),
        "resource_allocation": sum(1.0 / len(graph.neighbors(w)) for w in common),
        "preferential_attachment": len(nu) * len(nv),
        "cosine": (
            len(common) / math.sqrt(len(nu) * len(nv)) if nu and nv else 0.0
        ),
        "dice": 2 * len(common) / (len(nu) + len(nv)) if nu or nv else 0.0,
    }
    return out


def hand_examples(rows):
    """A PairExamples container from ((u, v), features, label) rows."""
    pairs, features, labels = zip(*rows) if rows else ((), (), ())
    return PairExamples(
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.array(features, dtype=np.float64).reshape(-1, len(FEATURE_NAMES)),
        np.array(labels, dtype=np.int64),
    )


class TestHandFixtures:
    # twelve tabulated values on G4: pair (0,3) shares {2}, pair (0,1) shares {2}
    def test_pair_0_3(self):
        fv = features_of(G4, 0, 3)
        assert fv["jaccard"] == pytest.approx(0.5, abs=1e-9)
        assert fv["adamic_adar"] == pytest.approx(1 / math.log(3), abs=1e-9)
        assert fv["resource_allocation"] == pytest.approx(1 / 3, abs=1e-9)
        assert fv["preferential_attachment"] == pytest.approx(2.0, abs=1e-9)
        assert fv["cosine"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert fv["dice"] == pytest.approx(2 / 3, abs=1e-9)

    def test_pair_0_1(self):
        fv = features_of(G4, 0, 1)
        assert fv["jaccard"] == pytest.approx(1 / 3, abs=1e-9)
        assert fv["adamic_adar"] == pytest.approx(1 / math.log(3), abs=1e-9)
        assert fv["resource_allocation"] == pytest.approx(1 / 3, abs=1e-9)
        assert fv["preferential_attachment"] == pytest.approx(4.0, abs=1e-9)
        assert fv["cosine"] == pytest.approx(0.5, abs=1e-9)
        assert fv["dice"] == pytest.approx(0.5, abs=1e-9)


class TestBruteForceSweep:
    def test_200_seeded_graphs(self):
        for seed in range(200):
            n = 3 + seed % 10  # sizes 3..12
            g = generate_synthetic(n, 1 + seed % 3, 0.6, 0.2, seed)
            pairs = all_pairs(n)
            for (u, v), row in zip(pairs.tolist(), pair_features(g, pairs).tolist()):
                ref = brute_force(g, u, v)
                for name, got in zip(FEATURE_NAMES, row):
                    assert abs(got - ref[name]) < 1e-12, (seed, u, v, name)

    def test_symmetry_exact(self):
        for seed in range(40):
            g = generate_synthetic(10, 2, 0.5, 0.1, seed)
            pairs = all_pairs(10)
            x = pair_features(g, pairs)
            assert x.tobytes() == pair_features(g, pairs[:, ::-1]).tobytes()

    def test_isolated_pair_all_zero_except_pa(self):
        g = SlnGraph.from_edges(4, [(0, 1)])
        assert list(features_of(g, 2, 3).values()) == [0.0] * 6

    def test_rejects_identical_endpoints(self):
        with pytest.raises(ValueError):
            pair_features(G4, np.array([[1, 1]]))

    def test_all_values_are_floats(self):
        g = SlnGraph.from_edges(3, [(0, 1)])
        assert pair_features(g, np.array([[0, 2]])).dtype == np.float64
        tp = temporal_split(g, [(0, 1), (0, 2)], 0.2, 0)
        example = build_examples(tp, tp.pair_universe)[1]
        assert all(isinstance(x, float) for x in example.features)


class TestBuildExamples:
    def _tp(self):
        uni = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        return temporal_split(G4, uni, 0.5, 2)

    def test_labels_come_from_now_features_from_prev(self):
        tp = self._tp()
        examples = build_examples(tp, tp.pair_universe)
        by_pair = {(e.u, e.v): e for e in examples}
        assert by_pair[(0, 1)].label == 1  # edge in graph_now though removed in prev
        assert by_pair[(0, 3)].label == 0
        assert by_pair[(0, 1)].features == tuple(features_of(tp.graph_prev, 0, 1).values())

    def test_order_preserved(self):
        tp = self._tp()
        pairs = tp.pair_universe[::-1]
        examples = build_examples(tp, pairs)
        assert [(e.u, e.v) for e in examples] == [tuple(p) for p in pairs.tolist()]

    def test_rejects_pair_outside_universe(self):
        uni = ((0, 1), (0, 2))
        tp = temporal_split(G4, uni, 0.0, 0)
        with pytest.raises(ValueError):
            build_examples(tp, [(1, 3)])

    def test_to_arrays_shapes(self):
        tp = self._tp()
        x, y = to_arrays(build_examples(tp, tp.pair_universe))
        assert x.shape == (6, 6) and y.shape == (6,)
        assert x.dtype == np.float64 and y.dtype == np.float64
        assert set(y.tolist()) <= {0.0, 1.0}

    def test_to_arrays_returns_the_containers_matrix_read_only(self):
        tp = self._tp()
        examples = build_examples(tp, tp.pair_universe)
        before = examples.features.tobytes()
        x, y = to_arrays(examples)
        assert x is examples.features
        assert not x.flags.writeable and not examples.features.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 1.0
        assert x.tobytes() == before
        # the labels are converted, so they are a new array
        assert not np.shares_memory(y, examples.labels)
        assert to_arrays(examples)[0] is x

    def test_to_arrays_matches_list_construction_exactly(self):
        def reference(examples):
            x = np.array([ex.features for ex in examples], dtype=np.float64).reshape(
                len(examples), len(FEATURE_NAMES)
            )
            return x, np.array([ex.label for ex in examples], dtype=np.float64)

        hand = hand_examples(
            [
                ((0, 1), (1 / 3, 1 / math.log(3), 1 / 3, 4.0, 0.5, 0.5), 1),
                ((1, 3), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0),
                ((2, 5), (0.1, 2.5e-300, 7.0, 1e12, 0.75, -0.0), 1),
            ]
        )
        tp = self._tp()
        for examples in (hand, build_examples(tp, tp.pair_universe), hand_examples([])):
            got, want = to_arrays(examples), reference(examples)
            assert not got[0].flags.writeable
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
        x, y = to_arrays(hand_examples([]))
        assert x.shape == (0, 6) and y.shape == (0,)

    def test_examples_to_csv(self):
        hand = hand_examples(
            [
                ((0, 3), tuple(features_of(G4, 0, 3).values()), 0),
                ((2, 5), (0.1, 2.5e-300, 7.0, 1e12, 0.75, -0.0), 1),
            ]
        )
        text = examples_to_csv(hand)
        lines = text.splitlines()
        assert lines[0] == "u,v," + ",".join(FEATURE_NAMES) + ",label"
        assert lines[1].startswith("0,3,0.5,")
        assert lines[1].endswith(",0")
        assert lines[2] == "2,5,0.1,2.5e-300,7.0,1000000000000.0,0.75,-0.0,1"
        assert examples_to_csv(hand_examples([])) == lines[0] + "\n"


class TestStandardizer:
    def test_transform_zero_mean_unit_std(self):
        rng = np.random.default_rng(4)
        x = rng.normal(3.0, 2.5, size=(200, 6))
        s = Standardizer.fit(x)
        z = s.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10)
        z = Standardizer.fit(x).transform(x)
        assert np.all(z[:, 0] == 0.0) and np.all(z[:, 2] == 0.0)

    def test_transform_uses_training_statistics(self):
        train = np.zeros((4, 2))
        train[:, 0] = [0.0, 2.0, 4.0, 6.0]
        s = Standardizer.fit(train)
        out = s.transform(np.array([[3.0, 0.0]]))
        assert out[0, 0] == pytest.approx((3.0 - 3.0) / np.std([0, 2, 4, 6]))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.empty((0, 6)))

    def test_transform_leaves_its_input_alone(self):
        x = np.arange(12.0).reshape(4, 3)
        x.flags.writeable = False
        z = Standardizer.fit(x).transform(x)
        assert not np.shares_memory(z, x)
        assert np.array_equal(x, np.arange(12.0).reshape(4, 3))


@st.composite
def raw_and_indices(draw):
    """A raw matrix with a zero-std column and large values, and the index
    arrays a stream draws from it: unsorted, repeated, one row, or an
    epoch's short last batch."""
    n = draw(st.integers(1, 50))
    cols = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([1.0, 1e3, 1e12, 1e300]))
    raw = rng.normal(size=(n, cols)) * scale + draw(st.sampled_from([0.0, -7.5, 1e15]))
    raw[:, draw(st.integers(0, cols - 1))] = draw(st.sampled_from([0.0, 3.25, -1e200]))
    kind = draw(st.sampled_from(["unsorted", "repeated", "one", "short last"]))
    if kind == "unsorted":
        idx = rng.permutation(n)[: draw(st.integers(1, n))]
    elif kind == "repeated":
        idx = rng.integers(0, n, size=draw(st.integers(1, 2 * n)))
    elif kind == "one":
        idx = np.array([draw(st.integers(0, n - 1))])
    else:
        batch = draw(st.integers(1, n))
        idx = rng.permutation(n)[(n - 1) // batch * batch :]
    return raw, idx


class TestStandardizedRows:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(raw_and_indices(), st.booleans())
    def test_rows_equal_the_transformed_matrix_bit_for_bit(self, drawn, other_statistics):
        raw, idx = drawn
        # at 1e300 the std overflows to inf; the two forms must still agree
        with np.errstate(over="ignore", invalid="ignore"):
            fit_on = raw[::-1] * 0.5 + 1.0 if other_statistics else raw
            s = Standardizer.fit(fit_on)
            view = StandardizedRows(raw, s)
            got = view[idx]
            want = s.transform(raw)[idx]
        assert view.shape == raw.shape and len(view) == len(raw)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_view_keeps_the_raw_matrix_and_never_writes_it(self):
        raw = np.arange(20.0).reshape(5, 4)
        raw.flags.writeable = False
        s = Standardizer.fit(raw)
        view = StandardizedRows(raw, s)
        assert view.raw is raw
        rows = view[np.array([4, 0, 4])]
        assert not np.shares_memory(rows, raw)
        assert np.array_equal(raw, np.arange(20.0).reshape(5, 4))
        assert np.array_equal(view[2], s.transform(raw)[2])

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            StandardizedRows(np.zeros(3), Standardizer(np.zeros(3), np.ones(3)))


class TestKsStatistic:
    def test_hand_fixture(self):
        # ECDFs disagree by exactly one third at the extremes
        assert ks_statistic([1, 2, 3], [2, 3, 4]) == pytest.approx(1 / 3, abs=1e-15)

    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0, 0.1], [5.0, 6.0]) == 1.0

    def test_matches_scipy_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.normal(0, 1, size=rng.integers(2, 40))
            b = rng.normal(0.5, 1.3, size=rng.integers(2, 40))
            expected = stats.ks_2samp(a, b, method="exact").statistic
            assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])
