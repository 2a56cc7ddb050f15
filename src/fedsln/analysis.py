"""Fairness across classrooms and exact attributions.

Fairness is reported as per-client true/false positive rates plus their
max-min spreads; no verdict is attached. The confusion counts behind the
rates come from neural.confusion_counts, the routine evaluate uses.
Shapley values are exact: all 2^n feature subsets are enumerated
against a background sample under marginal-expectation masking.
shapley_values_batch explains many instances at once and scores each
byte-distinct hybrid row of a subset once, in fixed-size calls to the
model; shapley_values is its one-instance form. make_predictor runs
neural.forward, the fused softplus kernel that training uses, while the
reported metrics come from neural.evaluate, which keeps np.logaddexp.
So an explanation's `predicted` can differ from that pair's metrics
score by a few ulps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .features import FEATURE_NAMES, Standardizer
from .neural import ModelParams, forward

__all__ = [
    "FairnessReport",
    "ShapleyExplanation",
    "fairness_report",
    "global_importance",
    "make_predictor",
    "rates_from_counts",
    "shapley_values",
    "shapley_values_batch",
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
        return forward(params, standardizer.transform(x))

    return predict


@functools.lru_cache(maxsize=None)
def _shapley_weights(n: int) -> np.ndarray:
    """|S|! (n - |S| - 1)! / n! for every coalition size |S| in 0..n-1."""
    fact = math.factorial
    table = np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])
    table.flags.writeable = False
    return table


# Rows per predictor call. forward's bits for a row can depend on the size
# of the batch it sits in (the BLAS picks kernels by shape), so every call
# has exactly this many rows, a multiple of 16, and the last is padded.
SHAPLEY_CHUNK = 1024


def shapley_values(
    predict: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    background: np.ndarray,
) -> ShapleyExplanation:
    """Exact Shapley values of one instance; see shapley_values_batch."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return shapley_values_batch(predict, x, background)[0]


def shapley_values_batch(
    predict: Callable[[np.ndarray], np.ndarray],
    xs: np.ndarray,
    background: np.ndarray,
) -> list[ShapleyExplanation]:
    """Exact Shapley values of every row of xs under marginal-expectation masking.

    v(S) is the mean prediction over background rows with the features
    in S taken from the instance. All 2^n subsets are enumerated and
    combined with the exact factorial weights. base_value is v(empty),
    predicted is v(all); base_value + sum(phi) telescopes to predicted.

    Each byte-distinct hybrid row is scored once: for subset S, the
    distinct x_S among the instances times the distinct background
    values outside S. predict gets those rows in SHAPLEY_CHUNK-row
    calls and must score each row independently of the others. Each
    v(S) is the mean of one C-ordered row of background_size scores.
    """
    xs = np.asarray(xs, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("instances must be a non-empty matrix")
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise ValueError("background must be a non-empty matrix")
    n = xs.shape[1]
    if bg.shape[1] != n:
        raise ValueError("background and instance dimensions differ")
    if n > 20:
        raise ValueError("exact enumeration is limited to 20 features")

    n_subsets = 1 << n
    # in_subset[mask, f] is bit f of mask
    in_subset = ((np.arange(n_subsets)[:, None] >> np.arange(n)) & 1).astype(bool)
    coalitions = [_Coalition(xs, bg, cols) for cols in in_subset]
    v = np.empty((xs.shape[0], n_subsets))
    pending: dict[int, np.ndarray] = {}  # scores of coalitions not yet complete
    for rows, segments in _hybrid_chunks(coalitions, n):
        out = np.asarray(predict(rows), dtype=np.float64).reshape(-1)
        if out.shape != (SHAPLEY_CHUNK,):
            raise ValueError("predict must return one score per row")
        pos = 0
        for mask, lo, hi in segments:
            coalition = coalitions[mask]
            if lo == 0:
                pending[mask] = np.empty(coalition.size)
            pending[mask][lo:hi] = out[pos : pos + hi - lo]
            pos += hi - lo
            if hi == coalition.size:
                v[:, mask] = coalition.means(pending.pop(mask))

    # per feature f, every subset without f (ascending) and the same with f
    without = np.nonzero(~in_subset.T)[1].reshape(n, n_subsets // 2)
    with_f = without | (1 << np.arange(n))[:, None]
    weights = _shapley_weights(n)[in_subset.sum(axis=1)[without]]
    # take keeps each instance's (n, 2^(n-1)) block C-ordered, so every
    # phi sums its terms in the order a single instance's would
    phi = (weights * (v.take(with_f, axis=1) - v.take(without, axis=1))).sum(axis=2)
    return [
        ShapleyExplanation(
            base_value=float(row[0]),
            phi=tuple(phi_row.tolist()),
            predicted=float(row[n_subsets - 1]),
        )
        for row, phi_row in zip(v, phi)
    ]


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a's byte-distinct rows, and the index among them of each row of a.

    Rows compare by their bytes, so 0.0 and -0.0 stay apart.
    """
    if a.shape[1] == 0:
        return a[:1], np.zeros(len(a), dtype=np.intp)
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return a[first], inverse


class _Coalition:
    """The distinct hybrid rows of one subset S, as a product.

    Row t of the product takes the features in S from distinct instance
    value t // m and the rest from distinct background value t % m,
    where m counts the distinct background values.
    """

    def __init__(self, xs: np.ndarray, bg: np.ndarray, cols: np.ndarray):
        self.cols = cols
        self.x_values, self.x_index = _distinct_rows(xs[:, cols])
        self.bg_values, self.bg_index = _distinct_rows(bg[:, ~cols])
        self.size = len(self.x_values) * len(self.bg_values)

    def write(self, rows: np.ndarray, lo: int, hi: int) -> None:
        """Product rows lo..hi-1 into rows."""
        i, j = np.divmod(np.arange(lo, hi), len(self.bg_values))
        rows[:, self.cols] = self.x_values[i]
        rows[:, ~self.cols] = self.bg_values[j]

    def means(self, scores: np.ndarray) -> np.ndarray:
        """v(S) per instance from the product's scores.

        Each instance's scores are gathered into one C-ordered row in
        background order, so the mean sums them as one pass over the
        instance's own hybrid block would.
        """
        grid = scores[self.x_index[:, None] * len(self.bg_values) + self.bg_index]
        return grid.mean(axis=1)


def _hybrid_chunks(
    coalitions: Sequence[_Coalition], n: int
) -> Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """Every coalition's product rows, in SHAPLEY_CHUNK-row blocks.

    Yields (rows, segments): segment (mask, lo, hi) says that product
    rows lo..hi-1 of coalition mask come next in rows. The last block is
    padded with copies of its first row. rows is one buffer, rewritten
    for the next block.
    """
    rows = np.empty((SHAPLEY_CHUNK, n))
    filled, segments = 0, []
    for mask, coalition in enumerate(coalitions):
        lo = 0
        while lo < coalition.size:
            hi = min(coalition.size, lo + SHAPLEY_CHUNK - filled)
            coalition.write(rows[filled : filled + hi - lo], lo, hi)
            segments.append((mask, lo, hi))
            filled += hi - lo
            lo = hi
            if filled == SHAPLEY_CHUNK:
                yield rows, segments
                filled, segments = 0, []
    if filled:
        rows[filled:] = rows[0]
        yield rows, segments


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
