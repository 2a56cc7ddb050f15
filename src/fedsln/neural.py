"""Dense feedforward binary classifier trained with mini-batch SGD.

The default architecture is 6 -> 32 -> 16 -> 1 with softplus hidden
units and a sigmoid output head; weights start Glorot-uniform, biases at
zero.

Parameters live in one contiguous float64 vector, `ModelParams.flat`,
laid out exactly as the checkpoint stores them: per layer, row-major
weights then biases. `ModelParams.layers` hands out per-layer views into
that vector, so writing through a view changes the model. SGD steps,
federated averaging, the meta-step and the blend of the top layers are
each one vector expression over the buffer (or over its tail, which
holds the top layers).

Hidden units take softplus in one fused, in-place form: e = exp(-|z|),
then max(z, 0) + log1p(e). `gradient` also takes the derivative, the
sigmoid, from the same e: 1/(1+e) for z >= 0 and e/(1+e) for z < 0.
`forward`, and so `mean_loss`, the ALA window loss and Shapley
attribution, run the same kernel, so its hidden activations equal those
of `gradient` bit for bit.

`evaluate` alone applies np.logaddexp(0, z) instead. The two softplus
forms agree to an ulp, but numpy's vectorized exp and the scalar exp
inside logaddexp can differ in the last bit. An exact tie between two
test scores counts half in the AUC, and a last-bit change can split it,
so reported scores keep the logaddexp bits that an outside
recomputation gives. A `forward` score can therefore differ from the
reported one by a few ulps.

Finiteness is not checked when a ModelParams is built. It is checked
where a diverged model could leave the program: federation.aggregate
checks every client's model once per round, experiment.run_method checks
the models it returns, and load_checkpoint rejects non-finite bytes.

Checkpoint layout (little-endian, self-describing):

    magic   8 bytes  b"FSLNCKP1"
    u32     layer count L
    u32     input dimension of layer 1
    u32*L   output dimension of each layer
    f64     per layer: row-major weights then biases
    u8      1 if a standardizer follows, else 0
    f64     standardizer mean then std (input-dimension long each)
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .features import Standardizer
from .rng import derive_rng

__all__ = [
    "DEFAULT_HIDDEN",
    "LOSS_EPS",
    "BatchStream",
    "DenseLayer",
    "MetricsReport",
    "ModelParams",
    "NonFiniteParamsError",
    "TrainConfig",
    "UndefinedAucError",
    "auc",
    "bce_loss",
    "check_finite",
    "confusion_counts",
    "epochs_to_steps",
    "evaluate",
    "flat_size",
    "flatten_layers",
    "forward",
    "gradient",
    "init_params",
    "layer_views",
    "load_checkpoint",
    "mean_loss",
    "params_checksum",
    "save_checkpoint",
    "sgd_step",
    "train_steps",
]

DEFAULT_HIDDEN = (32, 16)
LOSS_EPS = 1e-12
_MAGIC = b"FSLNCKP1"


class UndefinedAucError(ValueError):
    """Raised when a score sample contains only one class."""


class NonFiniteParamsError(ValueError):
    """Raised when a model holds NaN or infinite parameters."""


class DenseLayer(NamedTuple):
    weights: np.ndarray  # (fan_out, fan_in)
    biases: np.ndarray  # (fan_out,)


@functools.lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per layer (weights start, biases start, end, fan_out, fan_in)."""
    if len(dims) < 2:
        raise ValueError("a model needs at least one layer")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dimensions must be positive, got {dims}")
    spans = []
    start = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bias = start + fan_out * fan_in
        spans.append((start, bias, bias + fan_out, fan_out, fan_in))
        start = bias + fan_out
    return tuple(spans)


def flat_size(dims: Sequence[int]) -> int:
    """Length of the flat buffer for layer dims (input, out_1, ..., out_L)."""
    return _layout(tuple(dims))[-1][2]


def layer_views(flat: np.ndarray, dims: Sequence[int]) -> list[DenseLayer]:
    """Per-layer (weights, biases) views into a flat buffer."""
    return [
        DenseLayer(flat[w:b].reshape(fan_out, fan_in), flat[b:end])
        for w, b, end, fan_out, fan_in in _layout(tuple(dims))
    ]


def flatten_layers(layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Copy per-layer (weights, biases) pairs into one flat buffer.

    Returns the buffer and the layer dims; shapes must chain.
    """
    if not layers:
        raise ValueError("a model needs at least one layer")
    parts = []
    dims: list[int] = []
    for i, (w, b) in enumerate(layers):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"layer {i} has inconsistent shapes")
        if not dims:
            dims.append(w.shape[1])
        elif w.shape[1] != dims[-1]:
            raise ValueError(f"layer {i} input does not chain")
        dims.append(w.shape[0])
        parts += [w.ravel(), b]
    return np.concatenate(parts), tuple(dims)


@dataclass
class ModelParams:
    """Fully connected stack in one flat buffer; the head is scalar.

    layer_dims is (input, out_1, ..., out_L); flat holds, per layer,
    row-major weights then biases.
    """

    flat: np.ndarray
    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = self.layer_dims = tuple(self.layer_dims)
        size = flat_size(dims)
        if dims[-1] != 1:
            raise ValueError("output layer must be scalar")
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if self.flat.shape != (size,):
            raise ValueError(
                f"layer dims {dims} need a flat buffer of {size}, got shape {self.flat.shape}"
            )

    @classmethod
    def from_layers(cls, layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> "ModelParams":
        return cls(*flatten_layers(layers))

    @property
    def layers(self) -> list[DenseLayer]:
        return layer_views(self.flat, self.layer_dims)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def dims(self) -> tuple[int, ...]:
        return self.layer_dims

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layer_dims)


def check_finite(params: ModelParams, what: str) -> None:
    """Raise NonFiniteParamsError naming `what` if any parameter is NaN or infinite."""
    if not np.isfinite(params.flat).all():
        raise NonFiniteParamsError(
            f"{what} has non-finite parameters; training diverged"
        )


def init_params(
    seed: int | np.random.Generator,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    input_dim: int = 6,
) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = derive_rng(seed, "init") if isinstance(seed, int) else seed
    dims = tuple(int(d) for d in (input_dim, *hidden, 1))
    params = ModelParams(np.zeros(flat_size(dims)), dims)
    for weights, _biases in params.layers:
        fan_out, fan_in = weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return params


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _softplus(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """softplus(z) = max(z, 0) + log1p(e), e = exp(-|z|), written over z.

    A caller that already holds e passes it in; it is overwritten.
    """
    if e is None:
        e = _exp_neg_abs(z)
    np.maximum(z, 0.0, out=z)
    z += np.log1p(e, out=e)
    return z


def _softplus_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z), written over z, and its derivative sigmoid(z).

    Both come from one e = exp(-|z|): sigmoid is 1/(1+e) for z >= 0 and
    e/(1+e) below, softplus is _softplus's.
    """
    e = _exp_neg_abs(z)
    sig = np.where(z < 0.0, e, 1.0)
    sig /= e + 1.0
    return _softplus(z, e), sig


def _logaddexp_softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z, out=z)


def _as_matrix(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"expected inputs with {params.input_dim} features, got shape {x.shape}"
        )
    return x, squeeze


def _probabilities(
    params: ModelParams, a: np.ndarray, softplus: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Head probabilities for a checked batch; `softplus` acts in place."""
    *hidden, (head_w, head_b) = params.layers
    for w, b in hidden:
        z = a @ w.T
        z += b
        a = softplus(z)
    z = a @ head_w.T
    z += head_b
    return expit(z[:, 0])


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray | float:
    """Predicted link probability; accepts one row or a batch."""
    a, squeeze = _as_matrix(params, x)
    p = _probabilities(params, a, _softplus)
    return float(p[0]) if squeeze else p


def bce_loss(p: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
    """Binary cross entropy with probabilities clamped to [eps, 1-eps]."""
    p = np.clip(np.asarray(p, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(y, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(out) if out.ndim == 0 else out


def mean_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    p = forward(params, np.atleast_2d(x))
    return float(np.mean(bce_loss(p, y)))


def _gradient_into(
    layers: Sequence[DenseLayer], grads: Sequence[DenseLayer], a: np.ndarray, y: np.ndarray
) -> None:
    """Write the mean-over-batch gradient at `layers` into `grads`.

    a is a float64 (m, input) batch with m >= 1 and y its m float64
    labels; grads are layer views into one flat buffer, overwritten.
    """
    acts = [a]
    sigs = []  # softplus' = sigmoid, per hidden layer
    for w, b in layers[:-1]:
        z = acts[-1] @ w.T
        z += b
        act, sig = _softplus_sigmoid(z)
        acts.append(act)
        sigs.append(sig)
    head_w, head_b = layers[-1]
    z = acts[-1] @ head_w.T
    z += head_b
    p = expit(z[:, 0])

    delta = ((p - y) / y.size)[:, None]
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grads[i].weights)
        np.add.reduce(delta, axis=0, out=grads[i].biases)
        if i > 0:
            delta = delta @ layers[i].weights
            delta *= sigs[i - 1]


def _labels(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ValueError("gradient needs a non-empty batch")
    if a.shape[0] != y.size:
        raise ValueError("feature and label counts differ")
    return y


def gradient(params: ModelParams, x: np.ndarray, y: np.ndarray) -> ModelParams:
    """Mean-over-batch gradient of bce_loss(forward(x), y).

    Uses the fused sigmoid/cross-entropy form d/dz = (p - y) / m, the
    exact gradient wherever the loss clamp is inactive. The result is
    written straight into one flat buffer.
    """
    a, _ = _as_matrix(params, x)
    y = _labels(y, a)
    flat = np.empty_like(params.flat)
    _gradient_into(params.layers, layer_views(flat, params.layer_dims), a, y)
    return ModelParams(flat, params.layer_dims)


def sgd_step(params: ModelParams, grad: ModelParams, learning_rate: float) -> ModelParams:
    if learning_rate < 0:
        raise ValueError("learning_rate must be non-negative")
    if grad.layer_dims != params.layer_dims:
        raise ValueError("parameter structures do not match")
    return ModelParams(params.flat - learning_rate * grad.flat, params.layer_dims)


@dataclass
class TrainConfig:
    """Hyperparameters shared by the training regimes.

    meta_inner (alpha) and meta_outer (beta) default to the learning
    rate when left unset. ala_data_fraction is a percentage in (0, 100].
    """

    learning_rate: float = 0.01
    batch_size: int = 128
    local_steps: int = 100
    global_rounds: int = 30
    epochs: int = 200
    seed: int = 0
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN
    meta_inner: float | None = None
    meta_outer: float | None = None
    hf_delta: float = 1e-3
    ala_top_layers: int = 2
    ala_data_fraction: float = 80.0
    ala_weight_lr: float = 1.0
    ala_convergence_tol: float = 1e-3
    ala_window: int = 10
    ala_update_cap: int = 50

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if min(self.local_steps, self.global_rounds, self.epochs) < 0:
            raise ValueError("step counts must be non-negative")
        if self.meta_inner is None:
            self.meta_inner = self.learning_rate
        if self.meta_outer is None:
            self.meta_outer = self.learning_rate
        if self.hf_delta <= 0:
            raise ValueError("hf_delta must be positive")
        if self.ala_top_layers < 1:
            raise ValueError("ala_top_layers must be at least 1")
        if not 0.0 < self.ala_data_fraction <= 100.0:
            raise ValueError("ala_data_fraction is a percentage in (0, 100]")
        if self.ala_weight_lr < 0:
            raise ValueError("ala_weight_lr must be non-negative")
        if self.ala_window < 1 or self.ala_update_cap < 1:
            raise ValueError("ala_window and ala_update_cap must be positive")


class BatchStream:
    """Epoch-pass mini-batch index stream.

    Shuffles a permutation of the dataset, emits consecutive chunks of
    batch_size (the final chunk of an epoch may be shorter), reshuffles
    on exhaustion. A batch_size above the dataset size is clamped and
    flagged.
    """

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("cannot stream batches from an empty dataset")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.n = n
        self.clamped = batch_size > n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = np.empty(0, dtype=np.int64)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos >= len(self._order):
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        chunk = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return chunk


def train_steps(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator | BatchStream,
    *,
    steps: int | None = None,
    flags: set[str] | None = None,
) -> ModelParams:
    """Run seeded mini-batch SGD steps; zero steps returns a copy.

    Accepts either a Generator (a fresh stream is created) or an existing
    BatchStream whose position carries over between calls.
    """
    n_steps = config.local_steps if steps is None else steps
    if n_steps < 0:
        raise ValueError("steps must be non-negative")
    stream = (
        rng if isinstance(rng, BatchStream) else BatchStream(len(y), config.batch_size, rng)
    )
    x, _ = _as_matrix(params, x)
    y = _labels(y, x)
    if stream.clamped and flags is not None:
        flags.add("batch_size_clamped")
    # one working copy and one gradient buffer, each with its layer views,
    # serve every step; the update is sgd_step's arithmetic, in place
    dims = params.layer_dims
    flat = params.flat.copy()
    layers = layer_views(flat, dims)
    grad = np.empty_like(flat)
    grads = layer_views(grad, dims)
    lr = config.learning_rate
    # A diverging run overflows here; aggregate and run_method report it as
    # NonFiniteParamsError.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            idx = stream.next_indices()
            _gradient_into(layers, grads, x[idx], y[idx])
            grad *= lr
            flat -= grad
    return ModelParams(flat, dims)


def epochs_to_steps(n: int, batch_size: int, epochs: int) -> int:
    """SGD steps needed for `epochs` full passes under the epoch stream."""
    if n < 1:
        raise ValueError("empty dataset")
    per_epoch = -(-n // min(batch_size, n))
    return per_epoch * epochs


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outscores a negative, ties counted half.

    Computed from mid-ranks, which matches the pairwise definition
    exactly. Raises UndefinedAucError when one class is missing.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    # tie groups are the runs of equal sorted scores, [first, last] 0-based;
    # each score gets its group's 1-based mid-rank
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    last = np.append(first[1:], s.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = float(ranks[pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    mean_loss: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int


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


def evaluate(params: ModelParams, x: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> MetricsReport:
    """Threshold at 0.5 (ties predict positive) and score a test split.

    The scores take softplus as np.logaddexp(0, z), not the fused kernel
    of `forward`: the AUC counts an exact tie between two scores as half,
    and the reported figures must put ties where an outside recomputation
    with logaddexp puts them. A last-bit difference could split one.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.size or y.size == 0:
        raise ValueError("evaluation needs matching, non-empty features and labels")
    p = _probabilities(params, _as_matrix(params, x)[0], _logaddexp_softplus)
    tp, fp, tn, fn = confusion_counts(p, y, threshold)
    return MetricsReport(
        accuracy=(tp + tn) / y.size,
        mean_loss=float(np.mean(bce_loss(p, y))),
        auc=auc(p, y),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def _params_bytes(params: ModelParams) -> bytes:
    outs = params.layer_dims[1:]
    header = struct.pack(f"<II{len(outs)}I", len(outs), params.input_dim, *outs)
    return header + np.ascontiguousarray(params.flat, dtype="<f8").tobytes()


def params_checksum(params: ModelParams) -> str:
    """SHA-256 over the checkpoint byte layout (without standardizer)."""
    return hashlib.sha256(_params_bytes(params)).hexdigest()


def save_checkpoint(
    path: str | Path, params: ModelParams, standardizer: Standardizer | None = None
) -> None:
    blob = [_MAGIC, _params_bytes(params)]
    if standardizer is None:
        blob.append(struct.pack("<B", 0))
    else:
        if standardizer.mean.shape != (params.input_dim,):
            raise ValueError("standardizer does not match the model input dimension")
        blob.append(struct.pack("<B", 1))
        blob.append(np.ascontiguousarray(standardizer.mean, dtype="<f8").tobytes())
        blob.append(np.ascontiguousarray(standardizer.std, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(blob))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Standardizer | None]:
    """Read a checkpoint; rejects foreign, truncated, padded or non-finite files."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    off = len(_MAGIC)
    n_layers, in_dim = struct.unpack_from("<II", raw, off)
    off += 8
    outs = struct.unpack_from(f"<{n_layers}I", raw, off)
    off += 4 * n_layers
    dims = (in_dim, *outs)
    n = flat_size(dims)
    flat = np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float64)
    off += 8 * n
    (has_std,) = struct.unpack_from("<B", raw, off)
    off += 1
    standardizer = None
    if has_std:
        mean = np.frombuffer(raw, dtype="<f8", count=in_dim, offset=off).copy()
        off += 8 * in_dim
        std = np.frombuffer(raw, dtype="<f8", count=in_dim, offset=off).copy()
        off += 8 * in_dim
        standardizer = Standardizer(mean=mean, std=std)
    if off != len(raw):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    if not np.isfinite(flat).all():
        raise NonFiniteParamsError(f"{path}: non-finite parameters in checkpoint")
    return ModelParams(flat, dims), standardizer
