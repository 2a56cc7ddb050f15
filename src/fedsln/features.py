"""Pairwise topology features and dataset shaping for link prediction.

Six neighborhood similarity scores per student pair, computed on the
earlier snapshot; a two-sample Kolmogorov-Smirnov statistic used to
compare feature distributions between classrooms; and the helpers that
turn a temporal snapshot pair into labeled, standardized examples.

pair_features scores a whole (m, 2) pair array from the CSR adjacency,
in blocks of _PAIR_BLOCK pairs: the common neighbors of each pair are
the product of its two sorted rows, and the resource-allocation and
Adamic-Adar sums are a sparse mat-vec over them with per-node weights
1/d and 1/log(d). The sums run from 0.0 over the common neighbors in
ascending order, within one row, so every score equals, bit for bit,
what the per-pair reference compute_features returns, whatever the
block size. Examples are one array-backed PairExamples container; a
PairExample object is built only when one is indexed or iterated, and
to_arrays hands out the container's own feature matrix, read-only,
rather than a copy.

Every 0/0 corner (isolated endpoints, empty unions) is defined as 0.
Adamic-Adar uses the natural logarithm; a common neighbor always has
degree >= 2, so log never sees 1.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import GraphError, Pair, SlnGraph, TemporalPair, as_pairs

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "FeatureVector",
    "PairExample",
    "PairExamples",
    "Standardizer",
    "build_examples",
    "compute_features",
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


class FeatureVector(NamedTuple):
    jaccard: float
    adamic_adar: float
    resource_allocation: float
    preferential_attachment: float
    cosine: float
    dice: float


@dataclass(frozen=True)
class PairExample:
    """One candidate link: endpoints, features at t-1, label at t."""

    u: int
    v: int
    features: FeatureVector
    label: int


def compute_features(graph: SlnGraph, u: int, v: int) -> FeatureVector:
    """The per-pair reference: all six scores from the two neighbor sets."""
    if u == v:
        raise ValueError(f"feature pair must have distinct endpoints, got ({u}, {v})")
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    du, dv = len(nu), len(nv)
    common = sorted(nu & nv)
    nc = len(common)
    union = du + dv - nc
    degs = [graph.degree(n) for n in common]
    return FeatureVector(
        jaccard=nc / union if union else 0.0,
        adamic_adar=sum((1.0 / math.log(d) for d in degs), 0.0),
        resource_allocation=sum((1.0 / d for d in degs), 0.0),
        preferential_attachment=float(du * dv),
        cosine=nc / math.sqrt(du * dv) if du and dv else 0.0,
        dice=2.0 * nc / (du + dv) if du + dv else 0.0,
    )


# Pairs scored per sparse row product. It bounds the transient memory:
# on the wide benchmark classrooms (degree about 25) a block's row
# products take about 15 MB here and 29 MB at 1 << 14, and no more time.
# 1 << 12 halves them again but slowed the later Shapley stage: with no
# larger block freed first, glibc's heap-trim threshold stays low, and
# each Shapley call faulted its temporaries in afresh.
_PAIR_BLOCK = 1 << 13


def pair_features(graph: SlnGraph, pairs: np.ndarray) -> np.ndarray:
    """The six scores of every row (u, v) of a pair array, as (m, 6) float64.

    Equal bit for bit to compute_features applied pair by pair.
    """
    pairs = as_pairs(pairs)
    same = pairs[:, 0] == pairs[:, 1]
    if same.any():
        u = int(pairs[int(np.argmax(same)), 0])
        raise ValueError(f"feature pair must have distinct endpoints, got ({u}, {u})")
    outside = ~((pairs >= 0) & (pairs < graph.node_count)).all(axis=1)
    if outside.any():
        raise GraphError(f"pair {tuple(pairs[int(np.argmax(outside))].tolist())} out of range")
    deg = graph.degrees()
    # the same scalar expressions compute_features evaluates per neighbor
    ra_weight = np.divide(1.0, deg, out=np.zeros(deg.size), where=deg > 0)
    uniq, inverse = np.unique(deg, return_inverse=True)
    aa_weight = np.array(
        [1.0 / math.log(d) if d > 1 else 0.0 for d in uniq.tolist()], dtype=np.float64
    )[inverse]
    adj = graph.csr()
    out = np.zeros((len(pairs), N_FEATURES), dtype=np.float64)
    for start in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[start : start + _PAIR_BLOCK]
        u, v = block[:, 0], block[:, 1]
        # canonical CSR times canonical CSR keeps each row's columns sorted,
        # so the mat-vecs below add the weights in ascending neighbor order
        common = adj[u].multiply(adj[v])
        nc = np.diff(common.indptr)
        du, dv = deg[u], deg[v]
        union = du + dv - nc
        x = out[start : start + _PAIR_BLOCK]
        np.divide(nc, union, out=x[:, 0], where=union > 0)
        x[:, 1] = common @ aa_weight
        x[:, 2] = common @ ra_weight
        x[:, 3] = du * dv
        np.divide(nc, np.sqrt(x[:, 3]), out=x[:, 4], where=(du > 0) & (dv > 0))
        np.divide(2.0 * nc, du + dv, out=x[:, 5], where=du + dv > 0)
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

    @classmethod
    def from_examples(cls, examples: Sequence[PairExample]) -> "PairExamples":
        m = len(examples)
        pairs = np.fromiter(
            chain.from_iterable((ex.u, ex.v) for ex in examples), dtype=np.int64, count=2 * m
        ).reshape(m, 2)
        features = np.fromiter(
            chain.from_iterable(ex.features for ex in examples),
            dtype=np.float64,
            count=m * N_FEATURES,
        ).reshape(m, N_FEATURES)
        labels = np.fromiter((ex.label for ex in examples), dtype=np.int64, count=m)
        return cls(pairs, features, labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            u, v = self.pairs[index].tolist()
            features = FeatureVector(*self.features[index].tolist())
            return PairExample(u, v, features, int(self.labels[index]))
        return PairExamples(self.pairs[index], self.features[index], self.labels[index])

    def __iter__(self) -> Iterator[PairExample]:
        rows = zip(self.pairs.tolist(), self.features.tolist(), self.labels.tolist())
        for (u, v), features, label in rows:
            yield PairExample(u, v, FeatureVector(*features), label)

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


def to_arrays(
    examples: PairExamples | Sequence[PairExample],
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (m, 6) and label vector (m,), both float64.

    The matrix is the container's own features array, not a copy, and is
    marked read-only, so the container and its caller share one
    unchangeable matrix. The labels are a new float64 array.
    """
    if not isinstance(examples, PairExamples):
        examples = PairExamples.from_examples(examples)
    examples.features.flags.writeable = False
    return examples.features, examples.labels.astype(np.float64)


def examples_to_csv(examples: Sequence[PairExample]) -> str:
    """CSV with columns u,v,<six features>,label; repr-precision floats."""
    header = "u,v," + ",".join(FEATURE_NAMES) + ",label"
    lines = [header]
    for ex in examples:
        feats = ",".join(repr(f) for f in ex.features)
        lines.append(f"{ex.u},{ex.v},{feats},{ex.label}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring statistics from a training split.

    Constant features (std 0) are left uncentered-scaled by 1 so they
    standardize to 0 without dividing by zero.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("need a non-empty 2-D feature matrix")
        return cls(mean=x.mean(axis=0), std=x.std(axis=0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        scale = np.where(self.std == 0.0, 1.0, self.std)
        return (x - self.mean) / scale


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
