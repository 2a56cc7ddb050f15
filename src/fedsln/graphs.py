"""Social learning network graphs and dataset construction.

A graph is the set of students in one course forum plus the undirected
interaction links observed between them. It is stored as a symmetric CSR
(compressed sparse row) adjacency: `indptr` holds n + 1 row offsets and
`indices` each node's neighbors in ascending order, so a graph takes
O(n + E) memory. Candidate pairs travel as one (m, 2) int64 array with
u < v in every row; a pair's key u * n + v orders pairs lexicographically.

This module covers edge-list ingestion and serialization, synthetic
benchmark generation, the two-snapshot construction that poses link
prediction as a supervised problem, and seeded splitting helpers. None of
them allocates an n x n array: the stochastic block model draws its
uniforms in blocks of rows of the strict upper triangle and reads each
row's same-community partners at fixed offsets, and the negative sample
maps each drawn open-pair rank to its pair through the sorted linked
pairs.

Outside input is validated where it enters: the SlnGraph constructor
checks ranges, self-loops, sorted duplicate-free rows and symmetry (one
sort); from_edges and load_edge_list check ranges and self-loops;
temporal_split checks its removal fraction; TemporalPair checks that
universe pairs are in range, ordered u < v and unique, and that the two
snapshots and the removed pairs are consistent.

Edge-list format: one ``u<sep>v`` pair per line where the separator is a
comma or whitespace, ``#`` starts a comment line, blank lines are
ignored. Node tokens are mapped to dense integer indices in first-seen
order and the tokens themselves are not kept, so everything downstream
(feature tables, explanations) names a student by index. Isolated nodes
are not representable in this format.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .rng import derive_rng

__all__ = [
    "EdgeListError",
    "GraphError",
    "Pair",
    "SlnGraph",
    "TemporalPair",
    "as_pairs",
    "generate_synthetic",
    "load_edge_list",
    "pair_keys",
    "round_half_up",
    "sample_pair_universe",
    "temporal_split",
    "to_edge_list",
    "train_test_split",
]

Pair = tuple[int, int]
T = TypeVar("T")

# Uniforms per block of the stochastic block model's draw; bounds its
# transient memory independently of the node count.
_SBM_BLOCK = 1 << 18


class GraphError(ValueError):
    """Graph construction or validation failure."""


class EdgeListError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def round_half_up(x: float) -> int:
    """Round a non-negative fractional count, halves going up."""
    return int(math.floor(x + 0.5))


def as_pairs(pairs: Iterable[Pair] | np.ndarray) -> np.ndarray:
    """Pairs as an (m, 2) int64 array; an int64 array passes through uncopied."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"pairs must form an (m, 2) array, got shape {arr.shape}")
    return arr


def pair_keys(node_count: int, pairs: np.ndarray) -> np.ndarray:
    """u * node_count + v per row; one-to-one on pairs within range."""
    return pairs[:, 0] * node_count + pairs[:, 1]


def _in_range(node_count: int, pairs: np.ndarray) -> np.ndarray:
    return ((pairs >= 0) & (pairs < node_count)).all(axis=1)


def _lookup(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return sorted_keys[pos] == queries


# bench/worker.py reads the snapshots' neighbor sets through this view
class _Rows(Sequence[frozenset[int]]):
    """Read-only view of a graph's rows as neighbor sets, built on access."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "SlnGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.node_count

    def __getitem__(self, u) -> frozenset[int]:
        u = operator.index(u)
        n = self._graph.node_count
        if u < 0:
            u += n
        if not 0 <= u < n:
            raise IndexError(f"node {u} out of range")
        return self._graph.neighbors(u)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return (self._graph.neighbors(u) for u in range(self._graph.node_count))


class SlnGraph:
    """Immutable undirected simple graph over dense node indices.

    Row u of the CSR arrays (indptr, indices) lists u's neighbors in
    ascending order, and every edge appears in both endpoints' rows. The
    constructor takes the arrays from outside and validates them;
    from_edges builds them from an edge list. _keys, the sorted
    u * node_count + w of every row entry, answers has_edges with one
    searchsorted. features.pair_features tests common neighbors on a
    bitset it fills from the rows instead.
    """

    __slots__ = ("node_count", "indptr", "indices", "_keys")

    def __init__(
        self,
        node_count: int,
        indptr: Sequence[int] | np.ndarray,
        indices: Sequence[int] | np.ndarray,
    ):
        if node_count < 0:
            raise GraphError("node_count must be non-negative")
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64).reshape(-1)
        if indptr.shape != (node_count + 1,):
            raise GraphError("indptr must hold node_count + 1 offsets")
        counts = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != indices.size or (counts < 0).any():
            raise GraphError("indptr does not partition the indices into rows")
        rows = np.repeat(np.arange(node_count, dtype=np.int64), counts)
        bad = (indices < 0) | (indices >= node_count)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(f"neighbor {indices[i]} of node {rows[i]} out of range")
        loops = rows == indices
        if loops.any():
            raise GraphError(f"self-loop at node {rows[int(np.argmax(loops))]}")
        keys = rows * node_count + indices
        unsorted = np.diff(keys) <= 0
        if unsorted.any():
            u = rows[int(np.argmax(unsorted)) + 1]
            raise GraphError(f"neighbors of node {u} are not sorted and unique")
        # unique transposed keys sort to keys iff symmetric; the lookup names the offender
        transposed = indices * node_count + rows
        if not np.array_equal(np.sort(transposed), keys):
            i = int(np.argmax(~_lookup(keys, transposed)))
            raise GraphError(f"asymmetric edge ({rows[i]}, {indices[i]})")
        for arr in (indptr, indices, keys):
            arr.flags.writeable = False
        self.node_count = node_count
        self.indptr = indptr
        self.indices = indices
        self._keys = keys

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Pair] | np.ndarray) -> "SlnGraph":
        """Graph from (u, v) pairs in any orientation; duplicates collapse."""
        arr = as_pairs(edges)
        out = ~_in_range(node_count, arr)
        loop = arr[:, 0] == arr[:, 1]
        if (out | loop).any():
            i = int(np.argmax(out | loop))
            u, v = arr[i].tolist()
            if out[i]:
                raise GraphError(f"edge ({u}, {v}) out of range")
            raise GraphError(f"self-loop at node {u}")
        upper = np.unique(pair_keys(node_count, np.sort(arr, axis=1)))
        return cls._from_upper_keys(node_count, upper)

    @classmethod
    def _from_upper_keys(cls, node_count: int, keys: np.ndarray) -> "SlnGraph":
        """Graph from the sorted, unique keys of its pairs with u < v."""
        divisor = max(node_count, 1)  # a graph without nodes has no keys
        u, v = np.divmod(keys, divisor)
        both = np.sort(np.concatenate([keys, v * node_count + u]))
        rows, cols = np.divmod(both, divisor)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        return cls(node_count, indptr, cols)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.node_count:
            raise GraphError(f"node {u} out of range")

    # bench/worker.py samples neighbor sets through adjacency
    @property
    def adjacency(self) -> Sequence[frozenset[int]]:
        """Neighbor sets by node, each built from its CSR row on access."""
        return _Rows(self)

    # the row _Rows builds; bench/worker.py reads it through adjacency
    def neighbors(self, u: int) -> frozenset[int]:
        self._check_node(u)
        return frozenset(self.indices[self.indptr[u] : self.indptr[u + 1]].tolist())

    def degrees(self) -> np.ndarray:
        """Degree of every node, int64."""
        return np.diff(self.indptr)

    def has_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Whether each row (u, v) of a pair array is linked; bool (m,)."""
        pairs = as_pairs(pairs)
        out = ~_in_range(self.node_count, pairs)
        if out.any():
            raise GraphError(f"pair {tuple(pairs[int(np.argmax(out))].tolist())} out of range")
        return _lookup(self._keys, pair_keys(self.node_count, pairs))

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) int64 array, u < v, sorted lexicographically."""
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees())
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]])

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2


def load_edge_list(text: str) -> SlnGraph:
    """Parse edge-list text; node tokens become dense indices in first-seen order."""
    index: dict[str, int] = {}
    edges: list[Pair] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")] if "," in line else line.split()
        if len(tokens) != 2 or not all(tokens):
            raise EdgeListError(f"expected 'u<sep>v', got {raw!r}", line_no)
        if tokens[0] == tokens[1]:
            raise EdgeListError(f"self-loop on {tokens[0]!r}", line_no)
        pair = []
        for tok in tokens:
            if tok not in index:
                index[tok] = len(index)
            pair.append(index[tok])
        edges.append((pair[0], pair[1]))
    return SlnGraph.from_edges(len(index), edges)


def to_edge_list(graph: SlnGraph) -> str:
    """Serialize as sorted ``u,v`` lines over dense indices."""
    lines = [f"{u},{v}" for u, v in graph.edge_array().tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def _validate_pairs(node_count: int, pairs: np.ndarray) -> np.ndarray:
    """The pairs' keys, sorted and read-only; rejects the first pair, in input
    order, that is out of range, not ordered u < v, or a repeat of an earlier pair."""
    out = ~_in_range(node_count, pairs)
    unordered = pairs[:, 0] >= pairs[:, 1]
    keys, first = np.unique(pair_keys(node_count, pairs), return_index=True)
    repeat = np.ones(len(pairs), dtype=bool)
    repeat[first] = False
    bad = out | unordered | repeat
    if not bad.any():
        keys.flags.writeable = False
        return keys
    i = int(np.argmax(bad))
    u, v = pairs[i].tolist()
    if out[i]:
        raise GraphError(f"pair ({u}, {v}) out of range")
    if unordered[i]:
        raise GraphError(f"pair ({u}, {v}) must satisfy u < v")
    raise GraphError(f"duplicate pair ({u}, {v})")


@dataclass(frozen=True, eq=False)
class TemporalPair:
    """Graph at time t (graph_now) plus the earlier snapshot derived from it.

    graph_prev is graph_now with the links among the selected removed_pairs
    deleted; features are computed on graph_prev, labels read off graph_now.
    Both pair fields are stored as read-only (m, 2) int64 arrays.
    """

    graph_prev: SlnGraph
    graph_now: SlnGraph
    pair_universe: np.ndarray
    removed_pairs: np.ndarray
    _universe_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph_now.node_count
        if self.graph_prev.node_count != n:
            raise GraphError("snapshots must share the node set")
        universe = as_pairs(self.pair_universe).copy()
        removed = as_pairs(self.removed_pairs).copy()
        for name, arr in (("pair_universe", universe), ("removed_pairs", removed)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_universe_keys", _validate_pairs(n, universe))
        if not self.graph_now.has_edges(self.graph_prev.edge_array()).all():
            raise GraphError("graph_prev has edges absent from graph_now")
        if not self.in_universe(removed).all():
            raise GraphError("removed pairs must come from the pair universe")
        linked = self.graph_prev.has_edges(removed)
        if linked.any():
            u, v = removed[int(np.argmax(linked))].tolist()
            raise GraphError(f"removed pair ({u}, {v}) still linked in graph_prev")

    def in_universe(self, pairs: Iterable[Pair] | np.ndarray) -> np.ndarray:
        """Whether each row (u, v) of a pair array is a universe pair; bool (m,)."""
        pairs = as_pairs(pairs)
        n = self.graph_now.node_count
        inside = _in_range(n, pairs)
        inside[inside] = _lookup(self._universe_keys, pair_keys(n, pairs[inside]))
        return inside


def temporal_split(
    graph_now: SlnGraph,
    pair_universe: Iterable[Pair] | np.ndarray,
    removal_fraction: float,
    seed: int,
) -> TemporalPair:
    """Delete the links among a seeded selection of universe pairs.

    Selects round_half_up(removal_fraction * |universe|) pairs, removal_fraction
    in [0, 1], by a shuffle seeded with seed. Every selected pair is unlinked
    in graph_prev; all other edges of graph_now are preserved.
    """
    if not 0.0 <= removal_fraction <= 1.0:
        raise GraphError("removal_fraction must lie in [0, 1]")
    n = graph_now.node_count
    universe = as_pairs(pair_universe)
    # TemporalPair rejects bad universe pairs before anything is returned
    k = round_half_up(removal_fraction * len(universe))
    order = derive_rng(seed, "temporal-removal").permutation(len(universe))
    removed = universe[order[:k]]
    edge_keys = pair_keys(n, graph_now.edge_array())
    kept = edge_keys[~_lookup(np.sort(pair_keys(n, removed)), edge_keys)]
    graph_prev = SlnGraph._from_upper_keys(n, kept)
    return TemporalPair(graph_prev, graph_now, universe, removed)


def train_test_split(items: T, train_fraction: float, seed: int) -> tuple[T, T]:
    """Seeded shuffle followed by a round-half-up prefix split.

    items is anything an index array selects from, such as an ndarray or
    a PairExamples container; it is indexed with the two index arrays.
    """
    if len(items) == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    order = derive_rng(seed, "train-test").permutation(len(items))
    n_train = round_half_up(train_fraction * len(items))
    return items[order[:n_train]], items[order[n_train:]]


def generate_synthetic(
    n_nodes: int,
    n_communities: int,
    intra_p: float,
    inter_p: float,
    seed: int,
) -> SlnGraph:
    """Stochastic block model with round-robin community assignment.

    Node i belongs to community i mod n_communities; each unordered pair
    is linked independently with intra_p inside a community and inter_p
    across communities. Requires 0 <= inter_p <= intra_p <= 1. One
    uniform is drawn per pair in row-major upper-triangle order, in
    blocks of rows; the draws equal one draw of all n(n-1)/2 at once,
    and so do the edges.
    """
    if n_nodes < 0:
        raise GraphError("n_nodes must be non-negative")
    if n_communities < 1:
        raise GraphError("n_communities must be at least 1")
    if not (0.0 <= inter_p <= intra_p <= 1.0):
        raise GraphError("need 0 <= inter_p <= intra_p <= 1")
    if n_nodes < 2:
        return SlnGraph.from_edges(n_nodes, [])
    rng = derive_rng(seed, "sbm")
    rows_per_block = max(1, _SBM_BLOCK // n_nodes)
    c = n_communities
    linked = []
    for start in range(0, n_nodes - 1, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, n_nodes - 1), dtype=np.int64)
        counts = n_nodes - 1 - rows
        offsets = np.cumsum(counts) - counts  # of each row's first pair in the block
        draws = rng.random(int(counts.sum()))
        # row u's partner at in-row offset j is u + j + 1, in u's community
        # exactly when j + 1 is a multiple of c: offsets c - 1, 2c - 1, ...
        same = counts // c
        firsts = np.cumsum(same) - same  # of each row's first partner in pos
        pos = np.repeat(offsets + c - 1 - c * firsts, same)
        pos += c * np.arange(pos.size, dtype=np.int64)
        mask = draws < inter_p
        mask[pos] = draws[pos] < intra_p
        hit = np.flatnonzero(mask)
        row = np.searchsorted(offsets, hit, side="right") - 1
        u = rows[row]
        linked.append(u * n_nodes + hit - offsets[row] + u + 1)
    return SlnGraph._from_upper_keys(n_nodes, np.concatenate(linked))


def _triangle_pairs(n: int, tri: np.ndarray) -> np.ndarray:
    """Pairs (u, v) at the given indices of the row-major strict upper triangle."""
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(row_start, tri, side="right") - 1
    return np.column_stack([u, tri - row_start[u] + u + 1])


def sample_pair_universe(
    graph: SlnGraph, negatives_per_positive: float, seed: int
) -> np.ndarray:
    """All linked pairs plus a seeded sample of unlinked pairs, as (m, 2).

    The negative count is round_half_up(ratio * edge_count), drawn
    uniformly without replacement from the unlinked pairs ranked in
    row-major upper-triangle order; raises if fewer unlinked pairs exist.
    Rows hold the positives, then the negatives, each in lexicographic
    order.
    """
    if negatives_per_positive < 0:
        raise GraphError("negatives_per_positive must be non-negative")
    positives = graph.edge_array()
    n_neg = round_half_up(negatives_per_positive * len(positives))
    n = graph.node_count
    u, v = positives[:, 0], positives[:, 1]
    linked = u * (2 * n - u - 1) // 2 + (v - u - 1)
    n_open = n * (n - 1) // 2 - len(linked)
    if n_neg > n_open:
        raise GraphError(
            f"requested {n_neg} negatives but only {n_open} unlinked pairs exist"
        )
    ranks = derive_rng(seed, "universe").choice(n_open, size=n_neg, replace=False)
    # linked[k] - k unlinked pairs precede the k-th linked one, so the open
    # pair of rank r has as many linked pairs before it as entries <= r
    open_before = linked - np.arange(len(linked))
    tri = np.sort(ranks + np.searchsorted(open_before, ranks, side="right"))
    return np.concatenate([positives, _triangle_pairs(n, tri)])
