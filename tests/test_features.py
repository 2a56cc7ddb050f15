"""Feature oracles: hand-worked fixtures plus brute-force sweeps.

The brute-force reference below recomputes each score straight from raw
neighbor sets with no shared code path, so agreement is meaningful.
"""

import math

import numpy as np
import pytest
from scipy import stats

from fedsln.features import (
    FEATURE_NAMES,
    FeatureVector,
    PairExample,
    Standardizer,
    build_examples,
    compute_features,
    examples_to_csv,
    ks_statistic,
    to_arrays,
)
from fedsln.graphs import SlnGraph, SplitSpec, generate_synthetic, temporal_split

G4 = SlnGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


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


class TestHandFixtures:
    # twelve tabulated values on G4: pair (0,3) shares {2}, pair (0,1) shares {2}
    def test_pair_0_3(self):
        fv = compute_features(G4, 0, 3)
        assert fv.jaccard == pytest.approx(0.5, abs=1e-9)
        assert fv.adamic_adar == pytest.approx(1 / math.log(3), abs=1e-9)
        assert fv.resource_allocation == pytest.approx(1 / 3, abs=1e-9)
        assert fv.preferential_attachment == pytest.approx(2.0, abs=1e-9)
        assert fv.cosine == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert fv.dice == pytest.approx(2 / 3, abs=1e-9)

    def test_pair_0_1(self):
        fv = compute_features(G4, 0, 1)
        assert fv.jaccard == pytest.approx(1 / 3, abs=1e-9)
        assert fv.adamic_adar == pytest.approx(1 / math.log(3), abs=1e-9)
        assert fv.resource_allocation == pytest.approx(1 / 3, abs=1e-9)
        assert fv.preferential_attachment == pytest.approx(4.0, abs=1e-9)
        assert fv.cosine == pytest.approx(0.5, abs=1e-9)
        assert fv.dice == pytest.approx(0.5, abs=1e-9)


class TestBruteForceSweep:
    def test_200_seeded_graphs(self):
        for seed in range(200):
            n = 3 + seed % 10  # sizes 3..12
            g = generate_synthetic(n, 1 + seed % 3, 0.6, 0.2, seed)
            for u in range(n):
                for v in range(u + 1, n):
                    fv = compute_features(g, u, v)
                    ref = brute_force(g, u, v)
                    for name in FEATURE_NAMES:
                        assert abs(getattr(fv, name) - ref[name]) < 1e-12, (
                            seed,
                            u,
                            v,
                            name,
                        )

    def test_symmetry_exact(self):
        for seed in range(40):
            g = generate_synthetic(10, 2, 0.5, 0.1, seed)
            for u in range(10):
                for v in range(u + 1, 10):
                    assert compute_features(g, u, v) == compute_features(g, v, u)

    def test_isolated_pair_all_zero_except_pa(self):
        g = SlnGraph.from_edges(4, [(0, 1)])
        fv = compute_features(g, 2, 3)
        assert fv == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_identical_endpoints(self):
        with pytest.raises(ValueError):
            compute_features(G4, 1, 1)

    def test_all_values_are_floats(self):
        fv = compute_features(SlnGraph.from_edges(3, [(0, 1)]), 0, 2)
        assert all(isinstance(x, float) for x in fv)


class TestBuildExamples:
    def _tp(self):
        uni = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        return temporal_split(G4, uni, SplitSpec(removal_fraction=0.5, seed=2))

    def test_labels_come_from_now_features_from_prev(self):
        tp = self._tp()
        examples = build_examples(tp, tp.pair_universe)
        by_pair = {(e.u, e.v): e for e in examples}
        assert by_pair[(0, 1)].label == 1  # edge in graph_now though removed in prev
        assert by_pair[(0, 3)].label == 0
        assert by_pair[(0, 1)].features == compute_features(tp.graph_prev, 0, 1)

    def test_order_preserved(self):
        tp = self._tp()
        pairs = tp.pair_universe[::-1]
        examples = build_examples(tp, pairs)
        assert [(e.u, e.v) for e in examples] == [tuple(p) for p in pairs.tolist()]

    def test_rejects_pair_outside_universe(self):
        uni = ((0, 1), (0, 2))
        tp = temporal_split(G4, uni, SplitSpec(removal_fraction=0.0, seed=0))
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

        hand = [
            PairExample(0, 1, FeatureVector(1 / 3, 1 / math.log(3), 1 / 3, 4.0, 0.5, 0.5), 1),
            PairExample(1, 3, FeatureVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0),
            PairExample(2, 5, FeatureVector(0.1, 2.5e-300, 7.0, 1e12, 0.75, -0.0), 1),
        ]
        tp = self._tp()
        for examples in (hand, build_examples(tp, tp.pair_universe), []):
            got, want = to_arrays(examples), reference(examples)
            assert not got[0].flags.writeable
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
        x, y = to_arrays([])
        assert x.shape == (0, 6) and y.shape == (0,)

    def test_examples_to_csv(self):
        ex = PairExample(0, 3, compute_features(G4, 0, 3), 0)
        text = examples_to_csv([ex])
        lines = text.splitlines()
        assert lines[0] == "u,v," + ",".join(FEATURE_NAMES) + ",label"
        assert lines[1].startswith("0,3,0.5,")
        assert lines[1].endswith(",0")


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
