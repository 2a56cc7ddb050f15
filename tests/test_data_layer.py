"""The sparse, vectorized data layer against the slow references it replaced.

Each reference below is the per-edge or per-pair construction the CSR
layer stands in for: a one-shot triu_indices draw for the stochastic
block model, a dense n x n matrix for the pair universe, Python sets for
the temporal split, neighbor sets for the graph accessors, and
compute_features called pair by pair for the feature matrix. Results
must agree bit for bit. Draws come from hypothesis and are derandomized,
so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsln.features import (
    N_FEATURES,
    PairExample,
    PairExamples,
    build_examples,
    compute_features,
    pair_features,
    to_arrays,
)
from fedsln.graphs import (
    GraphError,
    SlnGraph,
    SplitSpec,
    TemporalPair,
    generate_synthetic,
    round_half_up,
    sample_pair_universe,
    temporal_split,
    train_test_split,
)
from fedsln.rng import derive_rng

CHECKED = settings(derandomize=True, deadline=None, max_examples=100)


# --- references --------------------------------------------------------


def reference_sbm_edges(n, k, intra_p, inter_p, seed):
    """All n(n-1)/2 uniforms in one draw over triu_indices."""
    if n < 2:
        return []
    communities = np.arange(n) % k
    iu, iv = np.triu_indices(n, k=1)
    thresholds = np.where(communities[iu] == communities[iv], intra_p, inter_p)
    mask = derive_rng(seed, "sbm").random(len(iu)) < thresholds
    return list(zip(iu[mask].tolist(), iv[mask].tolist()))


def reference_universe(graph, ratio, seed):
    """Open pairs ranked through a dense n x n linked matrix."""
    positives = graph.edges()
    n_neg = round_half_up(ratio * len(positives))
    n = graph.node_count
    linked = np.zeros((n, n), dtype=bool)
    for u, v in positives:
        linked[u, v] = True
    iu, iv = np.triu_indices(n, k=1)
    open_idx = np.flatnonzero(~linked[iu, iv])
    if n_neg > len(open_idx):
        raise GraphError(
            f"requested {n_neg} negatives but only {len(open_idx)} unlinked pairs exist"
        )
    chosen = derive_rng(seed, "universe").choice(len(open_idx), size=n_neg, replace=False)
    sel = open_idx[chosen]
    return positives + sorted(zip(iu[sel].tolist(), iv[sel].tolist()))


def reference_split(graph, universe, spec):
    """Removed pairs and the earlier snapshot's edges, through Python sets."""
    k = round_half_up(spec.removal_fraction * len(universe))
    order = derive_rng(spec.seed, "temporal-removal").permutation(len(universe))
    removed = [universe[i] for i in order[:k]]
    removed_set = set(removed)
    return removed, [e for e in graph.edges() if e not in removed_set]


def reference_adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def tuples(pairs):
    return [tuple(p) for p in pairs.tolist()]


# --- strategies ---------------------------------------------------------


@st.composite
def graphs(draw, max_nodes=12):
    """Small graphs, isolated nodes included; edges listed in any orientation."""
    n = draw(st.integers(0, max_nodes))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(picked, flips)]
    return n, edges


probabilities = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
ratios = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0))
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
seeds = st.integers(0, 2**31 - 1)


# --- graph storage ------------------------------------------------------


@CHECKED
@given(graphs())
def test_csr_accessors_match_neighbor_sets(drawn):
    n, edges = drawn
    graph = SlnGraph.from_edges(n, edges)
    adj = reference_adjacency(n, edges)
    assert graph.node_count == n
    assert graph.edge_count == sum(len(s) for s in adj) // 2
    assert graph.edges() == sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    assert list(graph.adjacency) == [frozenset(s) for s in adj]
    for u in range(n):
        assert graph.neighbors(u) == adj[u]
        assert graph.adjacency[u] == adj[u]
        assert graph.degree(u) == len(adj[u])
        row = graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist()
        assert row == sorted(adj[u])
        for v in range(n):
            assert graph.has_edge(u, v) == (v in adj[u])
    assert graph.degrees().tolist() == [len(s) for s in adj]
    if n:
        pairs = np.array([(u, v) for u in range(n) for v in range(n)], dtype=np.int64)
        want = [v in adj[u] for u, v in pairs.tolist()]
        assert graph.has_edges(pairs).tolist() == want


@CHECKED
@given(graphs())
def test_constructor_accepts_what_from_edges_builds(drawn):
    n, edges = drawn
    graph = SlnGraph.from_edges(n, edges)
    again = SlnGraph(n, graph.indptr.tolist(), graph.indices.tolist())
    assert again.edges() == graph.edges()


def test_constructor_validates_outside_arrays():
    with pytest.raises(GraphError, match="out of range"):
        SlnGraph(2, [0, 1, 2], [1, 2])
    with pytest.raises(GraphError, match="self-loop at node 0"):
        SlnGraph(2, [0, 1, 1], [0])
    with pytest.raises(GraphError, match="not sorted and unique"):
        SlnGraph(3, [0, 2, 3, 4], [2, 1, 0, 0])
    with pytest.raises(GraphError, match="not sorted and unique"):
        SlnGraph(2, [0, 2, 4], [1, 1, 0, 0])
    with pytest.raises(GraphError, match="asymmetric"):
        SlnGraph(3, [0, 1, 2, 2], [1, 2])
    with pytest.raises(GraphError, match="offsets"):
        SlnGraph(2, [0, 1], [1])
    with pytest.raises(GraphError, match="partition"):
        SlnGraph(2, [0, 2, 1], [1, 0])
    with pytest.raises(GraphError, match="node_labels"):
        SlnGraph(1, [0, 0], [], ("a", "b"))
    with pytest.raises(GraphError):
        SlnGraph(-1, [0], [])


def test_from_edges_validates_in_input_order():
    with pytest.raises(GraphError, match=r"edge \(0, 5\) out of range"):
        SlnGraph.from_edges(3, [(0, 1), (0, 5), (2, 2)])
    with pytest.raises(GraphError, match="self-loop at node 2"):
        SlnGraph.from_edges(3, [(0, 1), (2, 2), (0, 5)])
    with pytest.raises(GraphError, match="out of range"):
        SlnGraph.from_edges(3, [(-1, 1)])


def test_empty_and_one_node_graphs():
    for n in (0, 1):
        graph = SlnGraph.from_edges(n, [])
        assert graph.edges() == [] and graph.edge_count == 0
        assert graph.edge_array().shape == (0, 2)
        assert list(graph.adjacency) == [frozenset()] * n
        assert sample_pair_universe(graph, 0.0, seed=1).shape == (0, 2)
        assert sample_pair_universe(graph, 3.0, seed=1).shape == (0, 2)
        tp = temporal_split(graph, [], SplitSpec(removal_fraction=1.0, seed=1))
        assert tp.removed_pairs.shape == (0, 2)
        examples = build_examples(tp, tp.pair_universe)
        assert len(examples) == 0
        x, y = to_arrays(examples)
        assert x.shape == (0, N_FEATURES) and y.shape == (0,)


def test_adjacency_view_indexing():
    graph = SlnGraph.from_edges(3, [(0, 2)])
    rows = graph.adjacency
    assert len(rows) == 3
    assert rows[-1] == frozenset({0})
    assert 2 in rows[0] and len(rows[1]) == 0
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(GraphError):
        graph.neighbors(3)


# --- synthetic graphs ---------------------------------------------------


@CHECKED
@given(
    st.integers(0, 40),
    # one community, a few, and more communities than nodes
    st.one_of(st.integers(1, 6), st.integers(7, 60)),
    probabilities,
    probabilities,
    st.booleans(),
    seeds,
)
@example(40, 1, 0.3, 0.0, False, 1)  # every pair in one community
@example(12, 50, 0.9, 0.3, False, 2)  # every pair across communities
@example(30, 4, 1.0, 0.0, False, 3)  # each community complete, no pair across
@example(30, 4, 0.5, 0.5, True, 4)  # intra_p = inter_p
def test_blocked_sbm_matches_one_shot_draw(n, k, p, q, equal, seed):
    intra_p, inter_p = max(p, q), min(p, q)
    if equal:
        inter_p = intra_p
    graph = generate_synthetic(n, k, intra_p, inter_p, seed)
    assert graph.node_count == n
    assert graph.edges() == reference_sbm_edges(n, k, intra_p, inter_p, seed)


def test_blocked_sbm_spans_several_blocks(monkeypatch):
    import fedsln.graphs as graphs_module

    specs = [
        (45, 4, 0.4, 0.05),
        (45, 1, 0.4, 0.05),
        (20, 50, 0.4, 0.05),
        (45, 4, 0.3, 0.3),
        (45, 4, 1.0, 0.0),
    ]
    for block in (1, 7, 64):
        monkeypatch.setattr(graphs_module, "_SBM_BLOCK", block)
        for n, k, intra_p, inter_p in specs:
            graph = generate_synthetic(n, k, intra_p, inter_p, seed=3)
            assert graph.edges() == reference_sbm_edges(n, k, intra_p, inter_p, 3)


# --- pair universe ------------------------------------------------------


@CHECKED
@given(graphs(), ratios, seeds)
def test_rank_mapped_universe_matches_dense_matrix(drawn, ratio, seed):
    n, edges = drawn
    graph = SlnGraph.from_edges(n, edges)
    try:
        want = reference_universe(graph, ratio, seed)
    except GraphError as exc:
        with pytest.raises(GraphError) as err:
            sample_pair_universe(graph, ratio, seed)
        assert str(err.value) == str(exc)
        return
    got = sample_pair_universe(graph, ratio, seed)
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert tuples(got) == want


@CHECKED
@given(st.integers(2, 40), st.integers(1, 4), seeds)
def test_universe_on_synthetic_graphs(n, k, seed):
    graph = generate_synthetic(n, k, 0.6, 0.1, seed)
    n_open = n * (n - 1) // 2 - graph.edge_count
    ratio = n_open / max(graph.edge_count, 1)  # as many negatives as exist, or near it
    for r in (0.0, 1.0, ratio):
        try:
            want = reference_universe(graph, r, seed)
        except GraphError:
            with pytest.raises(GraphError, match="requested"):
                sample_pair_universe(graph, r, seed)
            continue
        assert tuples(sample_pair_universe(graph, r, seed)) == want


def test_too_many_negatives_names_counts():
    graph = SlnGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(GraphError, match="requested 6 negatives but only 2 unlinked"):
        sample_pair_universe(graph, 1.5, seed=0)
    with pytest.raises(GraphError, match="non-negative"):
        sample_pair_universe(graph, -1.0, seed=0)


# --- temporal split -----------------------------------------------------


@st.composite
def split_inputs(draw):
    n, edges = draw(graphs())
    graph = SlnGraph.from_edges(n, edges)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    universe = draw(st.permutations(all_pairs))[: draw(st.integers(0, len(all_pairs)))]
    spec = SplitSpec(removal_fraction=draw(fractions), seed=draw(seeds))
    return graph, universe, spec


@CHECKED
@given(split_inputs())
def test_array_split_matches_set_split(inputs):
    graph, universe, spec = inputs
    removed, kept = reference_split(graph, universe, spec)
    tp = temporal_split(graph, universe, spec)
    assert tuples(tp.removed_pairs) == removed
    assert tuples(tp.pair_universe) == universe
    assert tp.graph_prev.edges() == kept
    assert tp.graph_now is graph


def test_split_rejects_bad_pairs_naming_the_first():
    graph = SlnGraph.from_edges(4, [(0, 1), (2, 3)])
    spec = SplitSpec()
    cases = [
        ([(0, 1), (2, 1), (0, 9)], r"pair \(2, 1\) must satisfy u < v"),
        ([(0, 1), (0, 9), (2, 1)], r"pair \(0, 9\) out of range"),
        ([(0, 2), (1, 3), (0, 2)], r"duplicate pair \(0, 2\)"),
        ([(-1, 2)], r"pair \(-1, 2\) out of range"),
        ([(1, 1)], r"pair \(1, 1\) must satisfy u < v"),
    ]
    for universe, message in cases:
        with pytest.raises(GraphError, match=message):
            temporal_split(graph, universe, spec)
    with pytest.raises(GraphError, match="shape"):
        temporal_split(graph, [(0, 1, 2)], spec)


def test_temporal_pair_invariants():
    now = SlnGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    prev = SlnGraph.from_edges(4, [(1, 2), (2, 3)])
    universe = [(0, 1), (0, 2), (1, 2)]
    tp = TemporalPair(prev, now, universe, [(0, 1)])
    assert not tp.pair_universe.flags.writeable
    assert tuples(tp.removed_pairs) == [(0, 1)]
    with pytest.raises(GraphError, match="duplicate pair"):
        TemporalPair(prev, now, universe + [(0, 1)], [(0, 1)])
    with pytest.raises(GraphError, match="absent from graph_now"):
        TemporalPair(SlnGraph.from_edges(4, [(0, 3)]), now, universe, [])
    with pytest.raises(GraphError, match="from the pair universe"):
        TemporalPair(prev, now, universe, [(1, 3)])
    with pytest.raises(GraphError, match="from the pair universe"):
        TemporalPair(prev, now, universe, [(0, 7)])
    with pytest.raises(GraphError, match=r"\(1, 2\) still linked"):
        TemporalPair(prev, now, universe, [(1, 2)])
    with pytest.raises(GraphError, match="node set"):
        TemporalPair(SlnGraph.from_edges(5, []), now, universe, [])


# --- features and examples ----------------------------------------------


def assert_rows_match_reference(graph, pairs, x):
    for (u, v), row in zip(pairs, x.tolist()):
        want = compute_features(graph, u, v)
        assert row == list(want), (u, v)
        # equal as floats and as bits: no -0.0 against 0.0
        assert np.array(row).tobytes() == np.array(want).tobytes(), (u, v)


@CHECKED
@given(graphs(max_nodes=14))
def test_pair_features_match_compute_features(drawn):
    n, edges = drawn
    graph = SlnGraph.from_edges(n, edges)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    x = pair_features(graph, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert x.shape == (len(pairs), N_FEATURES) and x.dtype == np.float64
    assert_rows_match_reference(graph, pairs, x)


@CHECKED
@given(st.integers(2, 40), st.integers(1, 5), seeds)
def test_pair_features_on_dense_communities(n, k, seed):
    # many common neighbors per pair: the sums run over long rows
    graph = generate_synthetic(n, k, 0.9, 0.3, seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    x = pair_features(graph, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert_rows_match_reference(graph, pairs, x)


def test_pair_features_across_blocks(monkeypatch):
    import fedsln.features as features_module

    # 8385 pairs: more than one block at every size, the default included
    graph = generate_synthetic(130, 3, 0.3, 0.05, seed=4)
    pairs = np.array([(u, v) for u in range(130) for v in range(u + 1, 130)], dtype=np.int64)
    assert len(pairs) > features_module._PAIR_BLOCK
    want = np.array([compute_features(graph, u, v) for u, v in pairs.tolist()])
    for block in (1, 7, features_module._PAIR_BLOCK, len(pairs)):
        monkeypatch.setattr(features_module, "_PAIR_BLOCK", block)
        # one sparse product per pair at block size 1: every 16th pair will do
        rows = slice(None, None, 16 if block == 1 else 1)
        assert pair_features(graph, pairs[rows]).tobytes() == want[rows].tobytes(), block


def test_degree_one_endpoints_and_degree_two_common_neighbor():
    # path 0 - 1 - 2: the endpoints have degree 1 and share node 1, of degree 2
    graph = SlnGraph.from_edges(4, [(0, 1), (1, 2)])
    pairs = [(0, 2), (0, 3), (2, 3), (0, 1)]
    x = pair_features(graph, np.array(pairs, dtype=np.int64))
    assert_rows_match_reference(graph, pairs, x)
    assert x[0].tolist() == [1.0, 1.0 / math.log(2), 0.5, 1.0, 1.0, 1.0]
    assert x[1].tolist() == [0.0] * N_FEATURES  # isolated endpoint


def test_pair_features_validation():
    graph = SlnGraph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="distinct endpoints"):
        pair_features(graph, np.array([[0, 2], [1, 1]]))
    with pytest.raises(GraphError, match="out of range"):
        pair_features(graph, np.array([[0, 3]]))
    assert pair_features(graph, np.zeros((0, 2), dtype=np.int64)).shape == (0, N_FEATURES)


@CHECKED
@given(split_inputs(), seeds)
def test_build_examples_matches_per_pair_reference(inputs, order_seed):
    graph, universe, spec = inputs
    tp = temporal_split(graph, universe, spec)
    order = derive_rng(order_seed, "order").permutation(len(universe))
    pairs = [universe[i] for i in order]
    examples = build_examples(tp, pairs)
    assert len(examples) == len(pairs)
    want = [
        PairExample(u, v, compute_features(tp.graph_prev, u, v), int(graph.has_edge(u, v)))
        for u, v in pairs
    ]
    assert list(examples) == want
    assert [examples[i] for i in range(len(pairs))] == want
    x, y = to_arrays(examples)
    ref_x, ref_y = to_arrays(want)
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()


def test_build_examples_rejects_pairs_outside_universe():
    graph = SlnGraph.from_edges(4, [(0, 1), (2, 3)])
    tp = temporal_split(graph, [(0, 1), (0, 2)], SplitSpec(removal_fraction=0.0))
    for bad in ([(0, 1), (1, 3)], [(1, 0)], [(0, 6)], [(-1, 2)], [(2, 2)]):
        u, v = bad[-1]
        with pytest.raises(ValueError, match=rf"pair \({u}, {v}\) is outside"):
            build_examples(tp, bad)


def test_examples_container_split_and_equality():
    graph = generate_synthetic(20, 2, 0.6, 0.1, seed=2)
    tp = temporal_split(graph, sample_pair_universe(graph, 1.0, 2), SplitSpec(seed=2))
    examples = build_examples(tp, tp.pair_universe)
    listed = list(examples)
    train, test = train_test_split(examples, 0.8, seed=5)
    list_train, list_test = train_test_split(listed, 0.8, seed=5)
    assert isinstance(train, PairExamples) and isinstance(test, PairExamples)
    assert list(train) == list_train and list(test) == list_test
    assert train == PairExamples.from_examples(list_train)
    assert train != test
    assert examples[-1] == listed[-1]
    assert all(isinstance(f, float) for f in examples[0].features)
    assert isinstance(examples[0].label, int) and isinstance(examples[0].u, int)
