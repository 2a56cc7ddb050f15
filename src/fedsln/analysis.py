"""Fairness across classrooms and exact attributions.

Fairness is reported as per-client true/false positive rates plus their
max-min spreads; no verdict is attached. The confusion counts behind the
rates come from neural.confusion_counts, the routine evaluate uses.
Shapley values are exact: all 2^n feature subsets are enumerated
against a background sample under marginal-expectation masking, and the
model is called once on the whole hybrid batch. make_predictor runs
neural.forward, the fused softplus kernel that training uses, while the
reported metrics come from neural.evaluate, which keeps np.logaddexp.
So an explanation's `predicted` can differ from that pair's metrics
score by a few ulps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .features import FEATURE_NAMES, Standardizer
from .neural import ModelParams, confusion_counts, forward

__all__ = [
    "FairnessReport",
    "ShapleyExplanation",
    "confusion_counts",
    "fairness_report",
    "global_importance",
    "make_predictor",
    "rates_from_counts",
    "shapley_values",
    "svg_bar_chart",
]


def rates_from_counts(
    tp: int, fp: int, tn: int, fn: int
) -> tuple[float | None, float | None]:
    """(tpr, fpr) from confusion counts; a rate is None when its class is absent."""
    tpr = tp / (tp + fn) if tp + fn else None
    fpr = fp / (fp + tn) if fp + tn else None
    return tpr, fpr


@dataclass(frozen=True)
class FairnessReport:
    """Per-client rates and their spreads; interpretation left to the reader."""

    client_rates: tuple[tuple[float, float], ...]
    tpr_range: float
    fpr_range: float


def fairness_report(rates: Sequence[tuple[float, float]]) -> FairnessReport:
    """Spread of (tpr, fpr) pairs across clients."""
    if len(rates) == 0:
        raise ValueError("fairness needs at least one client")
    for tpr, fpr in rates:
        if tpr is None or fpr is None:
            raise ValueError("every client needs both rates defined")
        if not (0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
    tprs = [r[0] for r in rates]
    fprs = [r[1] for r in rates]
    return FairnessReport(
        client_rates=tuple((float(t), float(f)) for t, f in rates),
        tpr_range=max(tprs) - min(tprs),
        fpr_range=max(fprs) - min(fprs),
    )


@dataclass(frozen=True)
class ShapleyExplanation:
    """Exact attribution of one prediction to the input features."""

    base_value: float
    phi: tuple[float, ...]
    predicted: float


def make_predictor(
    params: ModelParams, standardizer: Standardizer
) -> Callable[[np.ndarray], np.ndarray]:
    """Model plus its training-split standardization as one callable."""

    def predict(x: np.ndarray) -> np.ndarray:
        return forward(params, standardizer.transform(np.atleast_2d(x)))

    return predict


@functools.lru_cache(maxsize=None)
def _shapley_weights(n: int) -> np.ndarray:
    """|S|! (n - |S| - 1)! / n! for every coalition size |S| in 0..n-1."""
    fact = math.factorial
    table = np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])
    table.flags.writeable = False
    return table


def shapley_values(
    predict: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    background: np.ndarray,
) -> ShapleyExplanation:
    """Exact Shapley values under marginal-expectation masking.

    v(S) is the mean prediction over background rows with the features
    in S taken from x. All 2^n subsets are evaluated in one batched
    call, then combined with the exact factorial weights. base_value is
    v(empty), predicted is v(all); base_value + sum(phi) telescopes to
    predicted.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.asarray(background, dtype=np.float64)
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise ValueError("background must be a non-empty matrix")
    n = x.size
    if bg.shape[1] != n:
        raise ValueError("background and instance dimensions differ")
    if n > 20:
        raise ValueError("exact enumeration is limited to 20 features")

    n_subsets = 1 << n
    # in_subset[mask, f] is bit f of mask; row block `mask` of the hybrid
    # is the background with the features in that subset taken from x
    in_subset = ((np.arange(n_subsets)[:, None] >> np.arange(n)) & 1).astype(bool)
    hybrid = np.where(in_subset[:, None, :], x, bg).reshape(-1, n)
    out = np.asarray(predict(hybrid), dtype=np.float64).reshape(n_subsets, -1)
    v = out.mean(axis=1)

    # per feature f, every subset without f (ascending) and the same with f
    without = np.nonzero(~in_subset.T)[1].reshape(n, n_subsets // 2)
    with_f = without | (1 << np.arange(n))[:, None]
    weights = _shapley_weights(n)[in_subset.sum(axis=1)[without]]
    phi = (weights * (v[with_f] - v[without])).sum(axis=1)
    return ShapleyExplanation(
        base_value=float(v[0]),
        phi=tuple(float(p) for p in phi),
        predicted=float(v[n_subsets - 1]),
    )


def global_importance(
    explanations: Sequence[ShapleyExplanation],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Mean |phi| per feature and the descending feature ranking.

    Ties rank by feature index for determinism.
    """
    if len(explanations) == 0:
        raise ValueError("need at least one explanation")
    mat = np.abs(np.array([e.phi for e in explanations], dtype=np.float64))
    importance = mat.mean(axis=0)
    ranking = tuple(int(i) for i in np.argsort(-importance, kind="stable"))
    return importance, ranking


def svg_bar_chart(
    values: Sequence[float],
    labels: Sequence[str] = FEATURE_NAMES,
    title: str = "feature importance",
) -> str:
    """Horizontal bar chart as a deterministic standalone SVG string.

    Bars are sorted by descending value; text uses fixed 6-decimal
    formatting so identical inputs yield identical bytes.
    """
    if len(values) != len(labels) or len(values) == 0:
        raise ValueError("need one label per value")
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    bar_h, gap, left, top = 22, 8, 190, 40
    chart_w = 420
    height = top + len(values) * (bar_h + gap) + 16
    peak = max(max(values), 0.0)
    scale = chart_w / peak if peak > 0 else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{left + chart_w + 110}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<text x="{left}" y="20" font-size="14">{title}</text>',
    ]
    for row, i in enumerate(order):
        y = top + row * (bar_h + gap)
        width = max(values[i], 0.0) * scale
        parts.append(
            f'<text x="{left - 8}" y="{y + bar_h - 7}" text-anchor="end">{labels[i]}</text>'
        )
        parts.append(
            f'<rect x="{left}" y="{y}" width="{width:.2f}" height="{bar_h}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{left + width + 6:.2f}" y="{y + bar_h - 7}">{values[i]:.6f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
