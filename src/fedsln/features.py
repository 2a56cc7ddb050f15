"""Pairwise topology features and dataset shaping for link prediction.

Six neighborhood similarity scores per student pair, computed on the
earlier snapshot; a two-sample Kolmogorov-Smirnov statistic used to
compare feature distributions between classrooms; and the helpers that
turn a temporal snapshot pair into labeled examples and standardize them.

pair_features scores a whole (m, 2) pair array from the CSR adjacency.
The common neighbors of each pair are the entries of its shorter sorted
row whose bit is set in the other endpoint's row of a uint64 bitset;
the bitset covers a bounded range of rows at a time, and the pairs are
visited grouped by that range, in blocks bounded in pairs and in walked
row entries. The resource-allocation and Adamic-Adar sums are
np.bincount over the common neighbors with per-node weights 1/d and
1/log(d). The sums run from 0.0 over each pair's common neighbors in
ascending order, so every score equals, bit for bit, the same sums taken
pair by pair over neighbor sets, whatever the range and block sizes.
Examples are one array-backed PairExamples container, and to_arrays
hands out the container's own feature matrix, read-only, rather than a
copy.

A training split is never standardized as a whole. StandardizedRows
wraps the raw matrix and a Standardizer and standardizes the rows an
index array draws, when it draws them; Standardizer.transform, which
scoring uses, runs the same subtract-then-divide, so both give the same
bits for a row.

Every 0/0 corner (isolated endpoints, empty unions) is defined as 0.
Adamic-Adar uses the natural logarithm; a common neighbor always has
degree >= 2, so log never sees 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import GraphError, Pair, SlnGraph, TemporalPair, as_pairs

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "PairExample",
    "PairExamples",
    "StandardizedRows",
    "Standardizer",
    "build_examples",
    "examples_to_csv",
    "ks_statistic",
    "pair_features",
    "to_arrays",
]

FEATURE_NAMES = (
    "jaccard",
    "adamic_adar",
    "resource_allocation",
    "preferential_attachment",
    "cosine",
    "dice",
)
N_FEATURES = len(FEATURE_NAMES)


# bench/checks.py reads examples one pair at a time through this record
@dataclass(frozen=True)
class PairExample:
    """One candidate link: endpoints, its six features at t-1 in
    FEATURE_NAMES order, label at t."""

    u: int
    v: int
    features: tuple[float, ...]
    label: int


# A pair's common neighbors are the entries of its shorter row whose bit is
# set in its longer endpoint's row of a packed bitset. The bitset holds one
# range of consecutive rows at a time, at most _BITSET_WORDS words (2 MiB),
# or one row where a row alone is longer; pairs are visited grouped by the
# range of their longer endpoint, so each range that holds a pair is filled
# once. A block of pairs ends at _PAIR_BLOCK pairs or _WALK_BLOCK walked row
# entries (its pairs' shorter degrees), whichever comes first, and a pair
# that walks more is a block of its own; the fill reads _WALK_BLOCK row
# entries at a time. So beyond O(n) per-node and O(pairs) arrays the working
# set is bounded whatever the node count and the degrees: on the wide
# benchmark classrooms, which fit one range each, featurization takes 3.1 to
# 4.0 MB beyond its result, and on a 600-node classroom of mean degree about
# 200 it peaks at 10.3 MB for a 7.0 MB result.
_BITSET_WORDS = 1 << 18
_PAIR_BLOCK = 1 << 13
_WALK_BLOCK = 1 << 15


def _fill_rows(graph: SlnGraph, first: int, bits: np.ndarray) -> None:
    """Write rows first, first + 1, ... of the adjacency into the rows of
    bits, as many as it has: bit w of row r is set iff (first + r, w) is an
    edge."""
    bits.fill(0)
    stop = int(graph.indptr[min(first + len(bits), graph.node_count)])
    for lo in range(int(graph.indptr[first]), stop, _WALK_BLOCK):
        entry = np.arange(lo, min(lo + _WALK_BLOCK, stop))
        row = np.searchsorted(graph.indptr, entry, side="right") - 1 - first
        w = graph.indices[entry]
        np.bitwise_or.at(bits, (row, w >> 6), np.uint64(1) << (w & 63).view(np.uint64))


def _common_neighbors(
    graph: SlnGraph, a: np.ndarray, b: np.ndarray, bits: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """The common neighbors of each pair (a[i], b[i]) as (owner, w): w runs
    over a[i]'s row in ascending order and is kept where bit w of b[i]'s
    row is set in bits, which holds rows first, first + 1, ..., and owner
    is i, so the entries come grouped by pair."""
    starts = graph.indptr[a]
    lengths = graph.indptr[a + 1] - starts
    owner = np.repeat(np.arange(len(a)), lengths)
    # an entry's position in indices: its row start plus its offset in the row
    walked = np.arange(owner.size) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    w = graph.indices.take(walked)
    word = bits.ravel().take(np.repeat((b - first) * bits.shape[1], lengths) + (w >> 6))
    common = (word >> (w & 63).view(np.uint64) & 1).astype(bool)
    return owner[common], w[common]


def _walked_and_tested(
    deg: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's endpoints as (a, b): a's row is walked and b's row tested,
    so a is the endpoint of lower degree, u on a tie."""
    shorter = deg[u] <= deg[v]
    return np.where(shorter, u, v), np.where(shorter, v, u)


def _block_scores(
    graph: SlnGraph,
    a: np.ndarray,
    b: np.ndarray,
    bits: np.ndarray,
    first: int,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """The six scores of the pairs (a[i], b[i]) as (m, 6) float64, from
    the degrees and the Adamic-Adar and resource-allocation weights."""
    deg, aa_weight, ra_weight = weights
    m = len(a)
    owner, w = _common_neighbors(graph, a, b, bits, first)
    da, db = deg[a], deg[b]
    nc = np.bincount(owner, minlength=m)
    union = da + db - nc
    x = np.zeros((m, N_FEATURES), dtype=np.float64)
    np.divide(nc, union, out=x[:, 0], where=union > 0)
    # bincount adds each pair's weights from 0.0 in ascending neighbor order
    x[:, 1] = np.bincount(owner, weights=aa_weight[w], minlength=m)
    x[:, 2] = np.bincount(owner, weights=ra_weight[w], minlength=m)
    x[:, 3] = da * db
    np.divide(nc, np.sqrt(x[:, 3]), out=x[:, 4], where=(da > 0) & (db > 0))
    np.divide(2.0 * nc, da + db, out=x[:, 5], where=da + db > 0)
    return x


def pair_features(graph: SlnGraph, pairs: np.ndarray) -> np.ndarray:
    """The six scores of every row (u, v) of a pair array, as (m, 6) float64."""
    pairs = as_pairs(pairs)
    same = pairs[:, 0] == pairs[:, 1]
    if same.any():
        u = int(pairs[int(np.argmax(same)), 0])
        raise ValueError(f"feature pair must have distinct endpoints, got ({u}, {u})")
    outside = ~((pairs >= 0) & (pairs < graph.node_count)).all(axis=1)
    if outside.any():
        raise GraphError(f"pair {tuple(pairs[int(np.argmax(outside))].tolist())} out of range")
    deg = graph.degrees()
    # the scalar terms a per-pair sum over neighbor sets adds, one per degree
    ra_weight = np.divide(1.0, deg, out=np.zeros(deg.size), where=deg > 0)
    uniq, inverse = np.unique(deg, return_inverse=True)
    aa_weight = np.array(
        [1.0 / math.log(d) if d > 1 else 0.0 for d in uniq.tolist()], dtype=np.float64
    )[inverse]
    weights = (deg, aa_weight, ra_weight)
    out = np.zeros((len(pairs), N_FEATURES), dtype=np.float64)
    n = graph.node_count
    words = max(1, -(-n // 64))  # a graph without nodes still gets one word
    span = max(1, min(n, _BITSET_WORDS // words))  # rows per range
    bits = np.empty((span, words), dtype=np.uint64)
    ranges = -(-n // span)
    # each pair's range, a small integer, filled a block at a time
    key = np.empty(len(pairs), dtype=np.min_scalar_type(ranges))
    for start in range(0, len(pairs), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        key[block] = _walked_and_tested(deg, pairs[block, 0], pairs[block, 1])[1] // span
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=ranges)
    ends = np.cumsum(counts)
    for r in np.flatnonzero(counts).tolist():
        first = r * span
        _fill_rows(graph, first, bits)
        for lo in range(int(ends[r] - counts[r]), int(ends[r]), _PAIR_BLOCK):
            index = order[lo : min(lo + _PAIR_BLOCK, int(ends[r]))]
            a, b = _walked_and_tested(deg, pairs[index, 0], pairs[index, 1])
            walked = np.cumsum(deg[a])
            start = 0
            while start < len(index):
                # a block ends where its walked entries pass _WALK_BLOCK, after its first pair
                passed = (walked[start - 1] if start else 0) + _WALK_BLOCK
                stop = max(start + 1, int(np.searchsorted(walked, passed, side="right")))
                block = slice(start, stop)
                out[index[block]] = _block_scores(graph, a[block], b[block], bits, first, weights)
                start = stop
    return out


@dataclass(frozen=True, eq=False)
class PairExamples:
    """Featurized candidate links, one row per pair.

    pairs (m, 2) int64, features (m, 6) float64 in FEATURE_NAMES order,
    labels (m,) int64. An int index builds one PairExample; an index
    array or a slice selects a PairExamples subset. Iteration yields
    PairExample objects.
    """

    pairs: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        # bench/worker.py reads the int index, one sampled pair at a time
        if isinstance(index, (int, np.integer)):
            u, v = self.pairs[index].tolist()
            features = tuple(self.features[index].tolist())
            return PairExample(u, v, features, int(self.labels[index]))
        return PairExamples(self.pairs[index], self.features[index], self.labels[index])

    # bench/checks.py iterates every example to look pairs up by endpoints
    def __iter__(self) -> Iterator[PairExample]:
        rows = zip(self.pairs.tolist(), self.features.tolist(), self.labels.tolist())
        for (u, v), features, label in rows:
            yield PairExample(u, v, tuple(features), label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairExamples):
            return NotImplemented
        return (
            np.array_equal(self.pairs, other.pairs)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )

    __hash__ = None


def build_examples(tp: TemporalPair, pairs: Iterable[Pair] | np.ndarray) -> PairExamples:
    """Featurize pairs on graph_prev and label them from graph_now.

    Every pair must belong to the temporal pair's universe; output order
    matches input order.
    """
    pairs = as_pairs(pairs)
    inside = tp.in_universe(pairs)
    if not inside.all():
        u, v = pairs[int(np.argmin(inside))].tolist()
        raise ValueError(f"pair ({u}, {v}) is outside the sampled universe")
    return PairExamples(
        pairs,
        pair_features(tp.graph_prev, pairs),
        tp.graph_now.has_edges(pairs).astype(np.int64),
    )


def to_arrays(examples: PairExamples) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (m, 6) and label vector (m,), both float64.

    The matrix is the container's own features array, not a copy, and is
    marked read-only, so the container and its caller share one
    unchangeable matrix. The labels are a new float64 array.
    """
    examples.features.flags.writeable = False
    return examples.features, examples.labels.astype(np.float64)


def examples_to_csv(examples: PairExamples) -> str:
    """CSV with columns u,v,<six features>,label; repr-precision floats.

    Reads the container's pairs, features and labels arrays row by row.
    """
    lines = ["u,v," + ",".join(FEATURE_NAMES) + ",label"]
    rows = zip(examples.pairs.tolist(), examples.features.tolist(), examples.labels.tolist())
    for (u, v), features, label in rows:
        feats = ",".join(map(repr, features))
        lines.append(f"{u},{v},{feats},{label}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring statistics from a training split.

    Constant features (std 0) are left uncentered-scaled by 1 so they
    standardize to 0 without dividing by zero; `scale` is the std with
    those zeros replaced by 1, computed once.
    """

    mean: np.ndarray
    std: np.ndarray
    scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scale", np.where(self.std == 0.0, 1.0, self.std))

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("need a non-empty 2-D feature matrix")
        return cls(mean=x.mean(axis=0), std=x.std(axis=0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """(x - mean) / scale as a new float64 array."""
        return self._standardize(np.array(x, dtype=np.float64))

    def _standardize(self, rows: np.ndarray) -> np.ndarray:
        """(rows - mean) / scale, written over rows, a float64 array the
        caller owns. Each element is one exactly rounded subtraction and
        one exactly rounded division, so the bits do not depend on which
        rows are standardized together."""
        rows -= self.mean
        rows /= self.scale
        return rows


class StandardizedRows:
    """A raw feature matrix seen through a standardizer, one draw at a time.

    view[idx] gathers the raw rows an index array (or one int) selects and
    standardizes them, so it equals standardizer.transform(raw)[idx] bit
    for bit while no standardized copy of the matrix is ever held. shape
    and len are the raw matrix's.
    """

    __slots__ = ("raw", "standardizer")

    def __init__(self, raw: np.ndarray, standardizer: Standardizer):
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2:
            raise ValueError(f"need a 2-D feature matrix, got shape {raw.shape}")
        self.raw = raw
        self.standardizer = standardizer

    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, idx) -> np.ndarray:
        # take always gathers into a fresh array, which is standardized in place
        return self.standardizer._standardize(self.raw.take(idx, axis=0))


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic.

    sup over the pooled sample points of |F_a - F_b| with right-continuous
    empirical CDFs. Both samples must be non-empty.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
