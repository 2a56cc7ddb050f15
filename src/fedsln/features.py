"""Pairwise topology features and dataset shaping for link prediction.

Six neighborhood similarity scores per student pair, computed on the
earlier snapshot; a two-sample Kolmogorov-Smirnov statistic used to
compare feature distributions between classrooms; and the helpers that
turn a temporal snapshot pair into labeled examples and standardize them.

pair_features scores a whole (m, 2) pair array from the CSR adjacency,
in blocks bounded in pairs and in walked row entries: the common
neighbors of each pair are the entries of its shorter sorted row that
are linked to the other endpoint, looked up in the graph's sorted edge keys, and the
resource-allocation and Adamic-Adar sums are np.bincount over them with
per-node weights 1/d and 1/log(d). The sums run from 0.0 over each pair's common neighbors
in ascending order, so every score equals, bit for bit, the same sums
taken pair by pair over neighbor sets, whatever the block size.
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


# A block ends at _PAIR_BLOCK pairs or _WALK_BLOCK walked row entries (its
# pairs' shorter degrees), whichever comes first. On the wide benchmark
# classrooms (degree about 25, under 160,000 entries a block) it peaks at
# 4 to 8 MB, twice that at 1 << 14, and smaller blocks take no less time;
# the walk cap stops it growing with degree (110 MB at degree 200 without).
_PAIR_BLOCK = 1 << 13
_WALK_BLOCK = 1 << 18


def _common_neighbors(
    graph: SlnGraph, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The common neighbors of each pair (a[i], b[i]) as (owner, w): w runs
    over a[i]'s row in ascending order and is kept where (b[i], w) is an
    edge, and owner is i, so the entries come grouped by pair."""
    starts = graph.indptr[a]
    lengths = graph.indptr[a + 1] - starts
    owner = np.repeat(np.arange(len(a)), lengths)
    # an entry's position in indices: its row start plus its offset in the row
    walked = np.arange(owner.size) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    w = graph.indices[walked]
    common = graph._linked(b[owner], w)
    return owner[common], w[common]


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
    out = np.zeros((len(pairs), N_FEATURES), dtype=np.float64)
    start = 0
    while start < len(pairs):
        block = pairs[start : start + _PAIR_BLOCK]
        # cut where the walked entries pass _WALK_BLOCK, after the first pair
        walked = np.cumsum(np.minimum(deg[block[:, 0]], deg[block[:, 1]]))
        block = block[: max(1, int(np.searchsorted(walked, _WALK_BLOCK, side="right")))]
        u, v = block[:, 0], block[:, 1]
        du, dv = deg[u], deg[v]
        shorter = du <= dv
        owner, w = _common_neighbors(graph, np.where(shorter, u, v), np.where(shorter, v, u))
        m = len(block)
        nc = np.bincount(owner, minlength=m)
        union = du + dv - nc
        x = out[start : start + m]
        np.divide(nc, union, out=x[:, 0], where=union > 0)
        # bincount adds each pair's weights from 0.0 in ascending neighbor order
        x[:, 1] = np.bincount(owner, weights=aa_weight[w], minlength=m)
        x[:, 2] = np.bincount(owner, weights=ra_weight[w], minlength=m)
        x[:, 3] = du * dv
        np.divide(nc, np.sqrt(x[:, 3]), out=x[:, 4], where=(du > 0) & (dv > 0))
        np.divide(2.0 * nc, du + dv, out=x[:, 5], where=du + dv > 0)
        start += m
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
