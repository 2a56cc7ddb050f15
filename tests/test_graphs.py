"""Graph construction, ingestion, temporal snapshots, and splits.

Frozen values in this file were produced by the shipped seed derivation;
they pin the exact selection behavior so regressions in any stochastic
site show up as fixture mismatches.
"""

import numpy as np
import pytest

from fedsln.graphs import (
    EdgeListError,
    GraphError,
    SlnGraph,
    TemporalPair,
    generate_synthetic,
    load_edge_list,
    round_half_up,
    sample_pair_universe,
    temporal_split,
    to_edge_list,
    train_test_split,
)

# shared 4-node fixture: triangle 0-1-2 plus a pendant 3 hanging off 2
G4 = SlnGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
ALL_PAIRS_4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))


def tuples(pairs):
    """An (m, 2) pair array as a list of (u, v) tuples."""
    return [tuple(p) for p in pairs.tolist()]


def edges(graph):
    """A graph's edges as sorted (u, v) tuples, u < v."""
    return tuples(graph.edge_array())


def test_round_half_up():
    assert round_half_up(0.0) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(1.4999) == 1
    assert round_half_up(2.5) == 3
    assert round_half_up(5.6) == 6


class TestSlnGraph:
    def test_basic_accessors(self):
        assert G4.node_count == 4
        assert G4.edge_count == 4
        assert G4.neighbors(2) == frozenset({0, 1, 3})
        assert G4.degrees().tolist() == [2, 2, 3, 1]
        assert G4.has_edges(np.array([[0, 1], [1, 0], [0, 3]])).tolist() == [True, True, False]
        assert edges(G4) == [(0, 1), (0, 2), (1, 2), (2, 3)]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            SlnGraph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            SlnGraph.from_edges(2, [(0, 5)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError, match=r"asymmetric edge \(0, 1\)"):
            SlnGraph(2, [0, 1, 1], [1])

    def test_duplicate_edges_collapse(self):
        g = SlnGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_node_out_of_range_access(self):
        with pytest.raises(GraphError):
            G4.neighbors(4)
        with pytest.raises(GraphError):
            G4.has_edges(np.array([[0, -1]]))


class TestEdgeList:
    def test_comma_and_whitespace_separators(self):
        g = load_edge_list("a,b\nb c\n")
        assert g.node_count == 3
        assert edges(g) == [(0, 1), (1, 2)]

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n1,2\n  # indented comment\n2,3\n")
        assert g.edge_count == 2

    def test_first_seen_index_order(self):
        g = load_edge_list("z,y\nx,z\n")
        assert edges(g) == [(0, 1), (0, 2)]

    def test_empty_input(self):
        g = load_edge_list("")
        assert g.node_count == 0 and g.edge_count == 0

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListError) as err:
            load_edge_list("a,b\nc,c\n")
        assert err.value.line_no == 2

    def test_malformed_line(self):
        with pytest.raises(EdgeListError):
            load_edge_list("a,b,c\n")
        with pytest.raises(EdgeListError):
            load_edge_list("loner\n")

    def test_round_trip(self):
        text = to_edge_list(G4)
        assert text == "0,1\n0,2\n1,2\n2,3\n"
        again = load_edge_list(text)
        assert edges(again) == edges(G4)

    def test_to_edge_list_empty(self):
        assert to_edge_list(SlnGraph.from_edges(0, [])) == ""


class TestTemporalSplit:
    def test_g4_half_removal_frozen(self):
        # frozen: seeded shuffle with seed 2 selects these three pairs;
        # two of them are edges, so graph_prev keeps 4 - 2 = 2 edges
        tp = temporal_split(G4, ALL_PAIRS_4, 0.5, 2)
        assert tuples(tp.removed_pairs) == [(2, 3), (0, 1), (0, 3)]
        assert edges(tp.graph_prev) == [(0, 2), (1, 2)]

    def test_line_graph_frozen(self):
        # frozen: none of the selected pairs happen to be edges here,
        # so deletion is a no-op and both snapshots coincide
        line = SlnGraph.from_edges(8, [(i, i + 1) for i in range(7)])
        uni = tuple((u, v) for u in range(8) for v in range(u + 1, 8))
        tp = temporal_split(line, uni, 0.2, 3)
        assert len(tp.removed_pairs) == 6  # round_half_up(0.2 * 28)
        assert tuples(tp.removed_pairs) == [(3, 6), (1, 6), (0, 2), (3, 5), (5, 7), (2, 7)]
        assert edges(tp.graph_prev) == edges(line)

    def test_fraction_zero_is_identity(self):
        tp = temporal_split(G4, ALL_PAIRS_4, 0.0, 1)
        assert tuples(tp.removed_pairs) == []
        assert edges(tp.graph_prev) == edges(G4)

    def test_fraction_one_unlinks_whole_universe(self):
        tp = temporal_split(G4, ALL_PAIRS_4, 1.0, 1)
        assert set(tuples(tp.removed_pairs)) == set(ALL_PAIRS_4)
        assert not tp.graph_prev.has_edges(np.array(ALL_PAIRS_4)).any()

    def test_prev_edges_subset_of_now(self):
        for seed in range(30):
            g = generate_synthetic(15, 3, 0.5, 0.1, seed)
            uni = tuple((u, v) for u in range(15) for v in range(u + 1, 15))
            tp = temporal_split(g, uni, 0.3, seed)
            assert set(edges(tp.graph_prev)) <= set(edges(g))
            # edges outside the selection always survive
            removed = set(tuples(tp.removed_pairs))
            survivors = set(edges(g)) - removed
            assert survivors == set(edges(tp.graph_prev))

    def test_reproducible(self):
        a = temporal_split(G4, ALL_PAIRS_4, 0.2, 11)
        b = temporal_split(G4, ALL_PAIRS_4, 0.2, 11)
        assert tuples(a.removed_pairs) == tuples(b.removed_pairs)

    def test_rejects_bad_pairs(self):
        with pytest.raises(GraphError):
            temporal_split(G4, [(1, 0)], 0.2, 0)  # u >= v
        with pytest.raises(GraphError):
            temporal_split(G4, [(0, 9)], 0.2, 0)  # out of range
        with pytest.raises(GraphError):
            temporal_split(G4, [(0, 1), (0, 1)], 0.2, 0)  # duplicate

    @pytest.mark.parametrize("fraction", [1.5, -0.1, float("nan")])
    def test_rejects_removal_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(GraphError, match=r"removal_fraction must lie in \[0, 1\]"):
            temporal_split(G4, ALL_PAIRS_4, fraction, 0)

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(GraphError):
            TemporalPair(G4, G4, ALL_PAIRS_4, ((0, 1),))  # still linked in prev


class TestTrainTestSplit:
    def test_frozen_assignment(self):
        train, test = train_test_split(np.arange(10), 0.8, seed=9)
        assert train.tolist() == [8, 9, 5, 3, 6, 0, 2, 1]
        assert test.tolist() == [7, 4]

    def test_partition_property(self):
        for seed in range(25):
            items = np.arange(37)
            train, test = train_test_split(items, 0.8, seed)
            assert len(train) == 30  # round_half_up(29.6)
            assert sorted(train.tolist() + test.tolist()) == items.tolist()

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(0), 0.8, 0)
        with pytest.raises(ValueError):
            train_test_split(np.arange(2), 1.0, 0)
        with pytest.raises(ValueError):
            train_test_split(np.arange(2), 0.0, 0)


class TestGenerateSynthetic:
    def test_frozen_fingerprint(self):
        g = generate_synthetic(20, 2, 0.8, 0.1, seed=5)
        assert g.edge_count == 82
        assert edges(g)[:5] == [(0, 2), (0, 4), (0, 6), (0, 8), (0, 10)]

    def test_validity_sweep(self):
        for seed in range(20):
            g = generate_synthetic(12, 3, 0.6, 0.05, seed)
            # construction re-checks symmetry and self-loop invariants
            assert g.node_count == 12
            for u, v in edges(g):
                assert u < v and g.has_edges(np.array([[v, u]]))[0]

    def test_edge_probability_extremes(self):
        full = generate_synthetic(10, 1, 1.0, 1.0, seed=0)
        assert full.edge_count == 45
        empty = generate_synthetic(10, 2, 0.0, 0.0, seed=0)
        assert empty.edge_count == 0

    def test_intra_denser_than_inter(self):
        # same community pairs should dominate when intra_p >> inter_p
        g = generate_synthetic(60, 2, 0.9, 0.02, seed=1)
        same = sum(1 for u, v in edges(g) if u % 2 == v % 2)
        cross = g.edge_count - same
        assert same > 5 * cross

    def test_tiny_and_invalid_inputs(self):
        assert generate_synthetic(0, 1, 0.5, 0.1, 0).node_count == 0
        assert generate_synthetic(1, 1, 0.5, 0.1, 0).edge_count == 0
        with pytest.raises(GraphError):
            generate_synthetic(5, 0, 0.5, 0.1, 0)
        with pytest.raises(GraphError):
            generate_synthetic(5, 2, 0.2, 0.5, 0)  # inter > intra

    def test_reproducible(self):
        a = generate_synthetic(30, 3, 0.4, 0.05, seed=7)
        b = generate_synthetic(30, 3, 0.4, 0.05, seed=7)
        assert edges(a) == edges(b)


class TestPairUniverse:
    def test_g4_counts(self):
        uni = tuples(sample_pair_universe(G4, 0.5, seed=1))
        assert len(uni) == 6  # 4 positives + round_half_up(2.0) negatives
        assert uni[:4] == edges(G4)
        assert set(uni[4:]) <= {(0, 3), (1, 3)}

    def test_negatives_are_unlinked_and_unique(self):
        for seed in range(20):
            g = generate_synthetic(20, 4, 0.3, 0.02, seed)
            if g.edge_count == 0:
                continue
            uni = tuples(sample_pair_universe(g, 2.0, seed))
            neg = uni[g.edge_count :]
            assert len(neg) == round_half_up(2.0 * g.edge_count)
            assert len(set(neg)) == len(neg)
            assert not g.has_edges(np.array(neg)).any()

    def test_too_many_negatives(self):
        with pytest.raises(GraphError):
            sample_pair_universe(G4, 100.0, seed=0)

    def test_ratio_zero(self):
        assert tuples(sample_pair_universe(G4, 0.0, seed=0)) == edges(G4)
