"""Fairness across classrooms, paired significance, exact attributions.

Fairness is reported as per-client true/false positive rates plus their
max-min spreads; no verdict is attached. The paired t statistic ships
with a two-sided Student-t critical-value table for 1..30 degrees of
freedom, so callers get significance decisions without a stats
dependency. Shapley values are exact: all 2^n feature subsets are
enumerated against a background sample under marginal-expectation
masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .features import FEATURE_NAMES, Standardizer
from .neural import ModelParams, forward

__all__ = [
    "FairnessReport",
    "ShapleyExplanation",
    "confusion_counts",
    "confusion_rates",
    "fairness_report",
    "global_importance",
    "make_predictor",
    "paired_t_test",
    "rates_from_counts",
    "shapley_values",
    "significant",
    "svg_bar_chart",
    "t_critical",
]


def confusion_counts(
    scores: Sequence[float], labels: Sequence[float], threshold: float = 0.5
) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with ties at the threshold predicted positive."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.size != labels.size or scores.size == 0:
        raise ValueError("scores and labels must be non-empty and aligned")
    pred = scores >= threshold
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    tn = int(np.sum(~pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return tp, fp, tn, fn


def confusion_rates(
    scores: Sequence[float], labels: Sequence[float], threshold: float = 0.5
) -> tuple[float | None, float | None]:
    """(tpr, fpr); a rate is None when its class is absent."""
    return rates_from_counts(*confusion_counts(scores, labels, threshold))


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


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, int]:
    """Paired t statistic and degrees of freedom for matched samples.

    t = mean(d) * sqrt(n) / sd(d) with the n-1 sample deviation. A
    constant difference vector is degenerate and raises.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError("paired samples must have equal length")
    if a.size < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate paired test: difference vector is constant")
    t = float(np.mean(d)) * math.sqrt(d.size) / sd
    return t, a.size - 1


# Two-sided Student-t critical values, dof 1..30, standard quantile tables.
_T_CRITICAL = {
    0.10: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
        1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
        1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ),
    0.05: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ),
    0.01: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
        2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ),
}


def t_critical(dof: int, alpha: float = 0.05) -> float:
    """Two-sided critical value; dof above 30 clamps to the 30-row
    (conservative, since critical values shrink with dof)."""
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    if alpha not in _T_CRITICAL:
        raise ValueError(f"no table for alpha={alpha}; have {sorted(_T_CRITICAL)}")
    return _T_CRITICAL[alpha][min(dof, 30) - 1]


def significant(t: float, dof: int, alpha: float = 0.05) -> bool:
    return abs(t) > t_critical(dof, alpha)


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
    rows = bg.shape[0]
    hybrid = np.empty((n_subsets * rows, n), dtype=np.float64)
    for mask in range(n_subsets):
        block = bg.copy()
        for f in range(n):
            if mask >> f & 1:
                block[:, f] = x[f]
        hybrid[mask * rows : (mask + 1) * rows] = block
    out = np.asarray(predict(hybrid), dtype=np.float64).reshape(n_subsets, rows)
    v = out.mean(axis=1)

    fact = math.factorial
    denom = fact(n)
    phi = np.zeros(n)
    for f in range(n):
        bit = 1 << f
        for mask in range(n_subsets):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            weight = fact(s) * fact(n - s - 1) / denom
            phi[f] += weight * (v[mask | bit] - v[mask])
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
