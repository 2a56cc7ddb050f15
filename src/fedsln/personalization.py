"""Per-client adaptation on top of the shared federated model.

All three strategies run federation.run_fedavg, the one round loop,
and differ only in the hook they hand it or in what follows it:

* post-hoc fine-tuning: plain FedAvg rounds, then exactly one seeded
  pass over each client's train split;
* Hessian-free per-client meta-learning: the local step is
  _meta_round, where each meta-step consumes one batch from each of
  three parallel client streams (meta, update, hessian) and
  approximates the Hessian-vector term with a central difference; the
  same one-pass fine-tune follows;
* adaptive local aggregation: the sync step is _ala_sync, which blends
  the top layers of the incoming global model elementwise with the
  client's previous local model through learnable weights in [0, 1].

Each returns the per-client models and the round history; scoring them
is experiment.run_method's job. Keeping the update batch on its own
stream means the meta path with alpha = 0 consumes batches exactly like
plain FedAvg, so the two pipelines coincide bit for bit under shared
seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .federation import ClientState, RoundRecord, run_fedavg, synchronize
from .neural import (
    DenseLayer,
    ModelParams,
    TrainConfig,
    epochs_to_steps,
    flat_size,
    flatten_layers,
    gradient,
    layer_views,
    mean_loss,
    train_steps,
)
from .graphs import round_half_up
from .rng import derive_rng

__all__ = [
    "AlaWeights",
    "ala_init",
    "ala_weights_to_csv",
    "fine_tune",
    "learn_ala_weights",
    "perfedavg_hf_step",
    "run_fedala",
    "run_fedavg_ft",
    "run_perfedavg_hf",
]

Batch = tuple[np.ndarray, np.ndarray]
GradFn = Callable[[ModelParams, np.ndarray, np.ndarray], ModelParams]
Personalized = tuple[dict[int, ModelParams], list[RoundRecord]]


def fine_tune(
    global_params: ModelParams, client: ClientState, config: TrainConfig
) -> ModelParams:
    """Exactly one seeded epoch of SGD on the client's train split.

    The stream is drawn afresh from the client's "finetune" generator, so
    repeated calls give the same model; divergence is reported by
    run_method's finiteness check.
    """
    rng = derive_rng(client.seed, "client", client.client_id, "finetune")
    steps = epochs_to_steps(client.size, config.batch_size, 1)
    return train_steps(global_params, client.train_x, client.train_y, config, rng, steps=steps)


def run_fedavg_ft(
    clients: Sequence[ClientState],
    fed_config: TrainConfig,
    ft_config: TrainConfig | None = None,
    *,
    max_workers: int | None = None,
) -> Personalized:
    """FedAvg followed by one fine-tuning epoch per client."""
    ft_config = ft_config if ft_config is not None else fed_config
    global_params, history = run_fedavg(clients, fed_config, max_workers=max_workers)
    return _fine_tune_all(global_params, clients, ft_config), history


def _fine_tune_all(
    global_params: ModelParams, clients: Sequence[ClientState], config: TrainConfig
) -> dict[int, ModelParams]:
    """Fine-tune the global model on every client; each keeps its result."""
    for client in clients:
        client.params = fine_tune(global_params, client, config)
    return {c.client_id: c.params for c in clients}


def perfedavg_hf_step(
    params: ModelParams,
    batches: tuple[Batch, Batch, Batch],
    alpha: float,
    beta: float,
    delta: float,
    grad_fn: GradFn = gradient,
) -> ModelParams:
    """One Hessian-free meta-step.

    g1 on b1 gives the inner model w - alpha*g1; g2 is its gradient on
    b2; the curvature term d approximates H(params) @ g2 with a central
    difference of width delta on b3. Update: params - beta*(g2 - alpha*d).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    (x1, y1), (x2, y2), (x3, y3) = batches
    w, dims = params.flat, params.layer_dims
    g1 = grad_fn(params, x1, y1).flat
    g2 = grad_fn(ModelParams(w - alpha * g1, dims), x2, y2).flat
    plus = grad_fn(ModelParams(w + delta * g2, dims), x3, y3).flat
    minus = grad_fn(ModelParams(w - delta * g2, dims), x3, y3).flat
    d = (plus - minus) / (2.0 * delta)
    return ModelParams(w - beta * (g2 - alpha * d), dims)


def _meta_round(
    client: ClientState, config: TrainConfig, *, flags: set[str] | None = None
) -> ModelParams:
    """The meta-learning local step: config.local_steps meta-steps."""
    params = client.params
    upd = client.batch_stream("update", config.batch_size)
    meta = client.batch_stream("meta", config.batch_size)
    hess = client.batch_stream("hess", config.batch_size)
    # the three streams share one batch size and one train split
    if upd.clamped and flags is not None:
        flags.add("batch_size_clamped")
    x, y = client.train_x, client.train_y
    # divergence is reported by aggregate
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_steps):
            i1, i2, i3 = meta.next_indices(), upd.next_indices(), hess.next_indices()
            params = perfedavg_hf_step(
                params,
                ((x[i1], y[i1]), (x[i2], y[i2]), (x[i3], y[i3])),
                config.meta_inner,
                config.meta_outer,
                config.hf_delta,
            )
    client.params = params
    return params


def run_perfedavg_hf(
    clients: Sequence[ClientState],
    config: TrainConfig,
    *,
    max_workers: int | None = None,
) -> Personalized:
    """Federated meta-learning rounds, then one fine-tune epoch each."""
    global_params, history = run_fedavg(
        clients, config, local=_meta_round, max_workers=max_workers
    )
    return _fine_tune_all(global_params, clients, config), history


@dataclass
class AlaWeights:
    """Elementwise blending weights for the top layers, each in [0, 1].

    flat lines up with the tail of ModelParams.flat that holds the top
    layers; layer_dims are the model's dims from the first blended
    layer's input on.
    """

    flat: np.ndarray
    layer_dims: tuple[int, ...]

    def __post_init__(self):
        self.layer_dims = tuple(self.layer_dims)
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if self.flat.shape != (flat_size(self.layer_dims),):
            raise ValueError("blending weights do not fit their layer dims")
        if np.any(self.flat < 0.0) or np.any(self.flat > 1.0):
            raise ValueError("blending weights must lie in [0, 1]")

    @classmethod
    def from_layers(cls, layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> "AlaWeights":
        return cls(*flatten_layers(layers))

    @classmethod
    def ones_like(cls, params: ModelParams, top_layers: int) -> "AlaWeights":
        dims = params.layer_dims[params.n_layers - top_layers :]
        return cls(np.ones(flat_size(dims)), dims)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def values(self) -> list[DenseLayer]:
        """Per-layer views; values[i] aligns with params.layers[n_layers - p + i]."""
        return layer_views(self.flat, self.layer_dims)

    def copy(self) -> "AlaWeights":
        return AlaWeights(self.flat.copy(), self.layer_dims)


def _check_top_layers(params: ModelParams, top_layers: int) -> int:
    if not 1 <= top_layers <= params.n_layers:
        raise ValueError(
            f"top layer count {top_layers} outside 1..{params.n_layers}"
        )
    return params.n_layers - top_layers


def ala_init(
    local_prev: ModelParams,
    global_params: ModelParams,
    weights: AlaWeights,
    top_layers: int,
) -> ModelParams:
    """Blend: bottom layers copied from the global model, top layers
    local_prev*(1-W) + global*W elementwise (exact at W=0 and W=1)."""
    if local_prev.layer_dims != global_params.layer_dims:
        raise ValueError("local and global parameter structures differ")
    base = _check_top_layers(global_params, top_layers)
    if weights.n_layers != top_layers:
        raise ValueError("one weight layer per blended layer required")
    if weights.layer_dims != global_params.layer_dims[base:]:
        raise ValueError("weight shapes do not match the blended layers")
    top = global_params.flat.size - weights.flat.size
    w = weights.flat
    flat = global_params.flat.copy()
    flat[top:] = local_prev.flat[top:] * (1.0 - w) + global_params.flat[top:] * w
    return ModelParams(flat, global_params.layer_dims)


def learn_ala_weights(
    client: ClientState,
    global_params: ModelParams,
    local_prev: ModelParams,
    config: TrainConfig,
    *,
    weights: AlaWeights | None = None,
    max_updates: int | None = None,
) -> AlaWeights:
    """Gradient descent on the blending weights, model parameters frozen.

    Works on a seeded subsample of ala_data_fraction percent of the train
    split. Stops when the std of the last ala_window losses drops below
    ala_convergence_tol, or at the update cap. Weights are clipped to
    [0, 1] after every update.
    """
    p = weights.n_layers if weights is not None else config.ala_top_layers
    _check_top_layers(global_params, p)
    n = client.size
    m = max(1, round_half_up(config.ala_data_fraction / 100.0 * n))
    idx = client.generator("ala-subsample").choice(n, size=m, replace=False)
    sx, sy = client.train_x[idx], client.train_y[idx]

    w = weights.copy() if weights is not None else AlaWeights.ones_like(global_params, p)
    top = global_params.flat.size - w.flat.size
    # chain rule through the blend: dL/dW = dL/dtheta * (global - prev)
    spread = global_params.flat[top:] - local_prev.flat[top:]
    cap = config.ala_update_cap if max_updates is None else max_updates
    losses: list[float] = []
    for _ in range(cap):
        blended = ala_init(local_prev, global_params, w, p)
        losses.append(mean_loss(blended, sx, sy))
        grads = gradient(blended, sx, sy)
        w = AlaWeights(
            np.clip(w.flat - config.ala_weight_lr * (grads.flat[top:] * spread), 0.0, 1.0),
            w.layer_dims,
        )
        window = losses[-config.ala_window :]
        if len(window) == config.ala_window and float(np.std(window)) < config.ala_convergence_tol:
            break
    return w


def _ala_sync(client: ClientState, global_params: ModelParams, config: TrainConfig) -> None:
    if client.params is None:
        # first round: no previous local model, plain copy
        synchronize(client, global_params)
        return
    first_blend = client.ala_weights is None
    client.ala_weights = learn_ala_weights(
        client,
        global_params,
        client.params,
        config,
        weights=client.ala_weights,
        max_updates=None if first_blend else 1,
    )
    client.params = ala_init(
        client.params, global_params, client.ala_weights, config.ala_top_layers
    )


def run_fedala(
    clients: Sequence[ClientState],
    config: TrainConfig,
    *,
    max_workers: int | None = None,
) -> Personalized:
    """Adaptive-blend federated rounds; clients keep their last local state.

    Blending weights get a full learning pass the first time a client
    blends and a single refresh update in every later round.
    """
    _global, history = run_fedavg(
        clients,
        config,
        sync=functools.partial(_ala_sync, config=config),
        max_workers=max_workers,
    )
    return {c.client_id: c.params for c in clients}, history


def ala_weights_to_csv(weights: AlaWeights) -> str:
    """Flatten blending weights to CSV: layer,kind,index,value."""
    lines = ["layer,kind,index,value"]
    for i, layer in enumerate(weights.values):
        for j, val in enumerate(layer.weights.ravel()):
            lines.append(f"{i},weights,{j},{float(val)!r}")
        for j, val in enumerate(layer.biases.ravel()):
            lines.append(f"{i},biases,{j},{float(val)!r}")
    return "\n".join(lines) + "\n"
