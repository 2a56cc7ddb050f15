"""The sparse, vectorized data layer against the slow references it replaced.

Each reference below is the per-edge or per-pair construction the CSR
layer stands in for: a one-shot triu_indices draw for the stochastic
block model, a dense n x n matrix for the pair universe, Python sets for
the temporal split, neighbor sets for the graph accessors, and
compute_features, the per-pair scores over neighbor sets, called pair by
pair for the feature matrix. Results must agree bit for bit. Draws come from hypothesis and are derandomized,
so every run checks the same examples.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsln.features as features_module
from fedsln.features import (
    N_FEATURES,
    PairExample,
    PairExamples,
    build_examples,
    pair_features,
    to_arrays,
)
from fedsln.graphs import (
    GraphError,
    SlnGraph,
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
    positives = tuples(graph.edge_array())
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


def reference_split(graph, universe, removal_fraction, seed):
    """Removed pairs and the earlier snapshot's edges, through Python sets."""
    k = round_half_up(removal_fraction * len(universe))
    order = derive_rng(seed, "temporal-removal").permutation(len(universe))
    removed = [universe[i] for i in order[:k]]
    removed_set = set(removed)
    return removed, [e for e in tuples(graph.edge_array()) if e not in removed_set]


def reference_adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def tuples(pairs):
    return [tuple(p) for p in pairs.tolist()]


def compute_features(graph, u, v):
    """The per-pair reference: all six scores from the two neighbor sets,
    in FEATURE_NAMES order. Each sum runs from 0.0 over the common
    neighbors in ascending order."""
    if u == v:
        raise ValueError(f"feature pair must have distinct endpoints, got ({u}, {v})")
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    du, dv = len(nu), len(nv)
    common = sorted(nu & nv)
    nc = len(common)
    union = du + dv - nc
    degs = [len(graph.neighbors(w)) for w in common]
    return (
        nc / union if union else 0.0,
        sum((1.0 / math.log(d) for d in degs), 0.0),
        sum((1.0 / d for d in degs), 0.0),
        float(du * dv),
        nc / math.sqrt(du * dv) if du and dv else 0.0,
        2.0 * nc / (du + dv) if du + dv else 0.0,
    )


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
    assert tuples(graph.edge_array()) == sorted(
        (u, v) for u in range(n) for v in adj[u] if u < v
    )
    assert list(graph.adjacency) == [frozenset(s) for s in adj]
    for u in range(n):
        assert graph.neighbors(u) == adj[u]
        assert graph.adjacency[u] == adj[u]
        row = graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist()
        assert row == sorted(adj[u])
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
    assert again.edge_array().tobytes() == graph.edge_array().tobytes()


@CHECKED
@given(graphs(), st.integers(0, 10**6))
def test_symmetry_check_names_the_entry_a_lookup_finds(drawn, pick):
    n, edges = drawn
    graph = SlnGraph.from_edges(n, edges)
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    if not indices:
        return
    # drop one entry of one row: its mirror in the other row is left one-way
    i = pick % len(indices)
    row = max(u for u in range(n) if indptr[u] <= i)
    indices = indices[:i] + indices[i + 1 :]
    indptr = [p - (u > row) for u, p in enumerate(indptr)]
    entries = [(u, w) for u in range(n) for w in indices[indptr[u] : indptr[u + 1]]]
    present = set(entries)
    u, w = next((u, w) for u, w in entries if (w, u) not in present)
    with pytest.raises(GraphError, match=rf"^asymmetric edge \({u}, {w}\)$"):
        SlnGraph(n, indptr, indices)


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
        assert graph.edge_array().shape == (0, 2) and graph.edge_count == 0
        assert list(graph.adjacency) == [frozenset()] * n
        assert sample_pair_universe(graph, 0.0, seed=1).shape == (0, 2)
        assert sample_pair_universe(graph, 3.0, seed=1).shape == (0, 2)
        tp = temporal_split(graph, [], 1.0, 1)
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
    assert tuples(graph.edge_array()) == reference_sbm_edges(n, k, intra_p, inter_p, seed)


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
            assert tuples(graph.edge_array()) == reference_sbm_edges(n, k, intra_p, inter_p, 3)


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
    return graph, universe, draw(fractions), draw(seeds)


@CHECKED
@given(split_inputs())
def test_array_split_matches_set_split(inputs):
    graph, universe, fraction, seed = inputs
    removed, kept = reference_split(graph, universe, fraction, seed)
    tp = temporal_split(graph, universe, fraction, seed)
    assert tuples(tp.removed_pairs) == removed
    assert tuples(tp.pair_universe) == universe
    assert tuples(tp.graph_prev.edge_array()) == kept
    assert tp.graph_now is graph
    n = graph.node_count
    queries = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)]
    members = set(universe)
    assert tp.in_universe(queries).tolist() == [q in members for q in queries]


def test_split_rejects_bad_pairs_naming_the_first():
    graph = SlnGraph.from_edges(4, [(0, 1), (2, 3)])
    cases = [
        ([(0, 1), (2, 1), (0, 9)], r"pair \(2, 1\) must satisfy u < v"),
        ([(0, 1), (0, 9), (2, 1)], r"pair \(0, 9\) out of range"),
        ([(0, 2), (1, 3), (0, 2)], r"duplicate pair \(0, 2\)"),
        ([(-1, 2)], r"pair \(-1, 2\) out of range"),
        ([(1, 1)], r"pair \(1, 1\) must satisfy u < v"),
    ]
    for universe, message in cases:
        with pytest.raises(GraphError, match=message):
            temporal_split(graph, universe, 0.2, 0)
    with pytest.raises(GraphError, match="shape"):
        temporal_split(graph, [(0, 1, 2)], 0.2, 0)


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
    # 8385 pairs: more than one block at every size, the default included
    graph = generate_synthetic(130, 3, 0.3, 0.05, seed=4)
    pairs = np.array([(u, v) for u in range(130) for v in range(u + 1, 130)], dtype=np.int64)
    assert len(pairs) > features_module._PAIR_BLOCK
    want = np.array([compute_features(graph, u, v) for u, v in pairs.tolist()])
    # a walk cap of 1 puts every pair walking a row in a block of its own,
    # and 50 ends most blocks after a few pairs; a bitset budget of one word
    # gives every row a range of its own, and the default covers all 130
    for budget in (1, features_module._BITSET_WORDS):
        for walk in (1, 50, features_module._WALK_BLOCK):
            for block in (1, 7, features_module._PAIR_BLOCK, len(pairs)):
                monkeypatch.setattr(features_module, "_BITSET_WORDS", budget)
                monkeypatch.setattr(features_module, "_PAIR_BLOCK", block)
                monkeypatch.setattr(features_module, "_WALK_BLOCK", walk)
                # one block per pair: every 16th pair will do
                rows = slice(None, None, 16 if block == 1 or walk == 1 else 1)
                got = pair_features(graph, pairs[rows])
                assert got.tobytes() == want[rows].tobytes(), (budget, block, walk)


@st.composite
def word_edge_graphs(draw):
    """A graph whose node count sits at a 64-bit word boundary, with
    isolated nodes, and up to 200 of its ordered pairs in a drawn order,
    so that consecutive pairs hop between row ranges."""
    n = draw(st.sampled_from([0, 1, 2, 63, 64, 65, 127, 128, 129]))
    rng = derive_rng(draw(seeds), "word-edge")
    linked = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.05, 0.2, 0.6])), k=1)
    isolated = rng.random(n) < 0.2
    linked[isolated] = False
    linked[:, isolated] = False
    graph = SlnGraph.from_edges(n, np.argwhere(linked))
    ordered = np.argwhere(~np.eye(n, dtype=bool))
    return graph, ordered[rng.permutation(len(ordered))[:200]]


@CHECKED
@given(
    word_edge_graphs(),
    st.sampled_from([1, 2, 3, features_module._BITSET_WORDS]),
    st.sampled_from([1, 50, features_module._WALK_BLOCK]),
    st.sampled_from([1, 7, features_module._PAIR_BLOCK]),
)
def test_pair_features_on_bounded_row_ranges(drawn, budget, walk, block):
    # budgets of 1 to 3 words give one row per range, or a few rows where
    # a row is one word
    graph, pairs = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features_module, "_BITSET_WORDS", budget)
        patch.setattr(features_module, "_WALK_BLOCK", walk)
        patch.setattr(features_module, "_PAIR_BLOCK", block)
        x = pair_features(graph, pairs)
    assert x.shape == (len(pairs), N_FEATURES)
    assert_rows_match_reference(graph, pairs.tolist(), x)


def test_pair_features_memory_is_bounded_on_a_hundred_thousand_nodes():
    # a bitset of every row would take 100,000 x 1,563 words, about 1.25 GB
    n = 100_000
    rng = derive_rng(7, "sparse")
    ends = rng.integers(0, n, size=(200_000, 2))
    graph = SlnGraph.from_edges(n, ends[ends[:, 0] != ends[:, 1]])
    # random pairs, and pairs of two neighbors of one node, which share it
    middles = np.flatnonzero(graph.degrees() >= 2)[:5_000]
    first_two = graph.indices[graph.indptr[middles][:, None] + np.arange(2)]
    pairs = np.concatenate([rng.integers(0, n, size=(20_000, 2)), first_two])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        x = pair_features(graph, pairs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    bitset = 8 * features_module._BITSET_WORDS
    per_node = 6 * 8 * n  # degrees, the two weight arrays, np.unique's
    walk = 16 * 8 * features_module._WALK_BLOCK
    block = 16 * 8 * features_module._PAIR_BLOCK
    # the output, the visiting order and the range keys (two bytes for 599 ranges)
    per_pair = x.nbytes + 10 * len(pairs)
    assert peak <= bitset + per_node + walk + block + per_pair, peak / 2**20
    assert (x[:, 0] > 0).sum() >= 5_000
    for i in range(0, len(pairs), 250):
        u, v = pairs[i].tolist()
        assert x[i].tolist() == list(compute_features(graph, u, v)), (u, v)


def test_pair_features_transient_is_bounded_on_a_dense_classroom():
    # graph_prev has mean degree about 200 and the universe 152,288 pairs:
    # 8,192-pair blocks alone walk 1 to 1.6 million row entries each and
    # peak above 100 MB; with the walk cap the kernel reads 10.3 MB, for a
    # 7.0 MB result
    graph = generate_synthetic(600, 2, 0.8, 0.05, seed=1)
    tp = temporal_split(graph, sample_pair_universe(graph, 1.0, 2), 0.2, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        x = pair_features(tp.graph_prev, tp.pair_universe)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert x.shape == (152_288, N_FEATURES)
    assert peak < 16 * 2**20, peak / 2**20


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
    graph, universe, fraction, seed = inputs
    tp = temporal_split(graph, universe, fraction, seed)
    order = derive_rng(order_seed, "order").permutation(len(universe))
    pairs = [universe[i] for i in order]
    examples = build_examples(tp, pairs)
    assert len(examples) == len(pairs)
    linked = graph.has_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2)).tolist()
    want = [
        PairExample(u, v, compute_features(tp.graph_prev, u, v), int(label))
        for (u, v), label in zip(pairs, linked)
    ]
    assert list(examples) == want
    assert [examples[i] for i in range(len(pairs))] == want
    x, y = to_arrays(examples)
    ref_x = np.array([ex.features for ex in want], dtype=np.float64).reshape(-1, N_FEATURES)
    ref_y = np.array(linked, dtype=np.float64)
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()


def test_build_examples_rejects_pairs_outside_universe():
    graph = SlnGraph.from_edges(4, [(0, 1), (2, 3)])
    tp = temporal_split(graph, [(0, 1), (0, 2)], 0.0, 0)
    for bad in ([(0, 1), (1, 3)], [(1, 0)], [(0, 6)], [(-1, 2)], [(2, 2)]):
        u, v = bad[-1]
        with pytest.raises(ValueError, match=rf"pair \({u}, {v}\) is outside"):
            build_examples(tp, bad)


def test_examples_container_split_and_equality():
    graph = generate_synthetic(20, 2, 0.6, 0.1, seed=2)
    tp = temporal_split(graph, sample_pair_universe(graph, 1.0, 2), 0.2, 2)
    examples = build_examples(tp, tp.pair_universe)
    listed = list(examples)
    train, test = train_test_split(examples, 0.8, seed=5)
    train_idx, test_idx = train_test_split(np.arange(len(examples)), 0.8, seed=5)
    assert isinstance(train, PairExamples) and isinstance(test, PairExamples)
    assert list(train) == [listed[i] for i in train_idx]
    assert list(test) == [listed[i] for i in test_idx]
    assert train == PairExamples(
        examples.pairs[train_idx], examples.features[train_idx], examples.labels[train_idx]
    )
    assert train != test
    assert examples[-1] == listed[-1]
    assert all(isinstance(f, float) for f in examples[0].features)
    assert isinstance(examples[0].label, int) and isinstance(examples[0].u, int)
