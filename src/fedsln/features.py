"""Pairwise topology features and dataset shaping for link prediction.

Six neighborhood similarity scores per student pair, computed on the
earlier snapshot; a two-sample Kolmogorov-Smirnov statistic used to
compare feature distributions between classrooms; and the helpers that
turn a temporal snapshot pair into labeled, standardized examples.

Every 0/0 corner (isolated endpoints, empty unions) is defined as 0.
Adamic-Adar uses the natural logarithm; a common neighbor always has
degree >= 2, so log never sees 1.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Pair, SlnGraph, TemporalPair

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "FeatureVector",
    "PairExample",
    "Standardizer",
    "adamic_adar",
    "build_examples",
    "compute_features",
    "cosine",
    "dice",
    "examples_to_csv",
    "jaccard",
    "ks_statistic",
    "preferential_attachment",
    "resource_allocation",
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


def _endpoints(graph: SlnGraph, u: int, v: int) -> tuple[frozenset[int], frozenset[int]]:
    if u == v:
        raise ValueError(f"feature pair must have distinct endpoints, got ({u}, {v})")
    return graph.neighbors(u), graph.neighbors(v)


def jaccard(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    union = len(nu) + len(nv) - len(nu & nv)
    return len(nu & nv) / union if union else 0.0


def adamic_adar(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    return sum((1.0 / math.log(graph.degree(n)) for n in sorted(nu & nv)), 0.0)


def resource_allocation(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    return sum((1.0 / graph.degree(n) for n in sorted(nu & nv)), 0.0)


def preferential_attachment(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    return float(len(nu) * len(nv))


def cosine(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    denom = math.sqrt(len(nu) * len(nv))
    return len(nu & nv) / denom if denom else 0.0


def dice(graph: SlnGraph, u: int, v: int) -> float:
    nu, nv = _endpoints(graph, u, v)
    denom = len(nu) + len(nv)
    return 2.0 * len(nu & nv) / denom if denom else 0.0


def compute_features(graph: SlnGraph, u: int, v: int) -> FeatureVector:
    """All six scores in one pass over the shared neighbor sets."""
    nu, nv = _endpoints(graph, u, v)
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


def build_examples(tp: TemporalPair, pairs: Sequence[Pair]) -> list[PairExample]:
    """Featurize pairs on graph_prev and label them from graph_now.

    Every pair must belong to the temporal pair's universe; output order
    matches input order.
    """
    universe = set(tp.pair_universe)
    examples = []
    for u, v in pairs:
        if (u, v) not in universe:
            raise ValueError(f"pair ({u}, {v}) is outside the sampled universe")
        fv = compute_features(tp.graph_prev, u, v)
        label = 1 if tp.graph_now.has_edge(u, v) else 0
        examples.append(PairExample(u, v, fv, label))
    return examples


def to_arrays(examples: Sequence[PairExample]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (m, 6) and label vector (m,), both float64."""
    m = len(examples)
    x = np.fromiter(
        chain.from_iterable(ex.features for ex in examples),
        dtype=np.float64,
        count=m * N_FEATURES,
    ).reshape(m, N_FEATURES)
    y = np.fromiter((ex.label for ex in examples), dtype=np.float64, count=m)
    return x, y


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
