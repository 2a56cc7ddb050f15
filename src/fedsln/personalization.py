"""Per-client adaptation on top of the shared federated model.

Post-hoc fine-tuning is one step, fine_tune_all: exactly one seeded pass
over each client's train split, starting from a given global model. It
owns no rounds: experiment.run_method applies it to the seed's fedavg
model for fedavg_ft, and run_perfedavg_hf applies it after its rounds.
The two strategies with rounds of their own run federation.run_fedavg,
the one round loop, and differ only in the local step they hand it:

* Hessian-free per-client meta-learning: the local step is
  _meta_round, which starts from the global model; each meta-step
  consumes one batch from each of three parallel client streams (meta,
  update, hessian) and approximates the Hessian-vector term with a
  central difference; the one-pass fine-tune follows. _meta_round runs
  perfedavg_hf_step's arithmetic in place, in buffers allocated once per
  round, and gives its bits;
* adaptive local aggregation: the local step is _ala_round, which blends
  the top layers of the incoming global model elementwise with the
  client's previous local model through learnable weights in [0, 1],
  then runs federation.local_round from the blend. The layers below the
  blend are the global model's throughout one learn_ala_weights call, so
  the learner runs its subsample through them once and then takes each
  update's loss and gradient over the blended layers alone, with the
  bits of a full-depth pass.

Each returns the per-client models and the round history; scoring the
models, and warning of a batch size clamped to a split, is
experiment.run_method's job. The blend weights, AlaWeights, are a
ModelParams laid out as the top layers they blend.

Keeping the update batch on its own stream means the meta path with
alpha = 0 consumes batches exactly like plain FedAvg, so its rounds
give run_fedavg's global model bit for bit under shared seeds, and its
models are that model's fine_tune_all.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .federation import ClientState, RoundRecord, local_round, run_fedavg
from .neural import (
    BatchStream,
    ModelParams,
    TrainConfig,
    _activations,
    _gradient_into,
    bce_loss,
    epochs_to_steps,
    flat_size,
    gradient,
    layer_views,
    train_steps,
)
from .graphs import round_half_up
from .rng import derive_rng

__all__ = [
    "AlaWeights",
    "ala_init",
    "ala_weights_to_csv",
    "fine_tune",
    "fine_tune_all",
    "learn_ala_weights",
    "perfedavg_hf_step",
    "run_fedala",
    "run_perfedavg_hf",
]

Batch = tuple[np.ndarray, np.ndarray]
GradFn = Callable[[ModelParams, np.ndarray, np.ndarray], ModelParams]
Personalized = tuple[dict[int, ModelParams], list[RoundRecord]]


def fine_tune(global_params: ModelParams, client: ClientState, config: TrainConfig) -> ModelParams:
    """Exactly one seeded epoch of SGD on the client's train split.

    The stream is drawn afresh from the client's "finetune" generator, so
    repeated calls give the same model; divergence is reported by
    run_method's finiteness check.
    """
    rng = derive_rng(client.seed, "client", client.client_id, "finetune")
    stream = BatchStream(client.size, config.batch_size, rng)
    steps = epochs_to_steps(client.size, config.batch_size, 1)
    return train_steps(global_params, client.train_x, client.train_y, config, stream, steps)


def fine_tune_all(
    global_params: ModelParams, clients: Sequence[ClientState], config: TrainConfig
) -> dict[int, ModelParams]:
    """Post-hoc personalization: fine_tune the global model on every client.

    Returns each client's model by client id.
    """
    return {c.client_id: fine_tune(global_params, c, config) for c in clients}


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
    client: ClientState, global_params: ModelParams, config: TrainConfig
) -> ModelParams:
    """The meta-learning local step: config.local_steps meta-steps from the global model.

    Each is perfedavg_hf_step's arithmetic, operation for operation, on
    one working copy of the model, one probe model and four gradient
    buffers that serve every step, so the result has its bits.
    """
    upd = client.batch_stream("update", config.batch_size)
    meta = client.batch_stream("meta", config.batch_size)
    hess = client.batch_stream("hess", config.batch_size)
    x, y = client.train_x, np.asarray(client.train_y, dtype=np.float64)
    alpha, beta, delta = config.meta_inner, config.meta_outer, config.hf_delta
    dims = global_params.layer_dims
    w = global_params.flat.copy()
    probe = np.empty_like(w)
    step = np.empty_like(w)
    g1, g2, plus, minus = (np.empty_like(w) for _ in range(4))
    w_layers, probe_layers = layer_views(w, dims), layer_views(probe, dims)
    g1s, g2s, pluss, minuss = (layer_views(g, dims) for g in (g1, g2, plus, minus))

    def batch(stream):
        idx = stream.next_indices()
        return np.asarray(x[idx], dtype=np.float64), y[idx]

    # divergence is reported by aggregate
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_steps):
            (x1, y1), (x2, y2), (x3, y3) = batch(meta), batch(upd), batch(hess)
            _gradient_into(w_layers, g1s, x1, y1)
            np.multiply(alpha, g1, out=probe)
            np.subtract(w, probe, out=probe)  # w - alpha * g1
            _gradient_into(probe_layers, g2s, x2, y2)
            np.multiply(delta, g2, out=step)
            np.add(w, step, out=probe)  # w + delta * g2
            _gradient_into(probe_layers, pluss, x3, y3)
            np.subtract(w, step, out=probe)  # w - delta * g2
            _gradient_into(probe_layers, minuss, x3, y3)
            d = np.subtract(plus, minus, out=plus)
            d /= 2.0 * delta
            d *= alpha
            np.subtract(g2, d, out=d)  # g2 - alpha * d
            d *= beta
            w -= d
    client.params = ModelParams(w, dims)
    return client.params


def run_perfedavg_hf(
    clients: Sequence[ClientState],
    config: TrainConfig,
    start: ModelParams,
    *,
    max_workers: int = 1,
) -> Personalized:
    """Federated meta-learning rounds from `start`, then one fine-tune epoch each."""
    global_params, history = run_fedavg(
        clients, config, start, local=_meta_round, max_workers=max_workers
    )
    return fine_tune_all(global_params, clients, config), history


class AlaWeights(ModelParams):
    """Elementwise blending weights for the top layers, each in [0, 1].

    Laid out as the model's top layers: flat lines up with the tail of
    ModelParams.flat that holds them, layer_dims are the model's dims from
    the first blended layer's input on (so they end in the scalar head),
    and layers[i] aligns with params.layers[params.n_layers - p + i].
    """

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.flat < 0.0) or np.any(self.flat > 1.0):
            raise ValueError("blending weights must lie in [0, 1]")

    @classmethod
    def ones_like(cls, params: ModelParams, top_layers: int) -> "AlaWeights":
        dims = params.layer_dims[params.n_layers - top_layers :]
        return cls(np.ones(flat_size(dims)), dims)


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
) -> ModelParams:
    """Blend: bottom layers copied from the global model, top
    weights.n_layers layers local_prev*(1-W) + global*W elementwise
    (exact at W=0 and W=1)."""
    tail = _blended_tail(local_prev, global_params, weights)
    flat = global_params.flat.copy()
    flat[flat.size - tail.size :] = tail
    return ModelParams(flat, global_params.layer_dims)


def _blended_tail(
    local_prev: ModelParams,
    global_params: ModelParams,
    weights: AlaWeights,
) -> np.ndarray:
    """The blended top layers, local_prev*(1-W) + global*W, as a new flat
    buffer laid out as weights.flat."""
    if local_prev.layer_dims != global_params.layer_dims:
        raise ValueError("local and global parameter structures differ")
    base = _check_top_layers(global_params, weights.n_layers)
    if weights.layer_dims != global_params.layer_dims[base:]:
        raise ValueError("weight shapes do not match the blended layers")
    top = global_params.flat.size - weights.flat.size
    w = weights.flat
    return local_prev.flat[top:] * (1.0 - w) + global_params.flat[top:] * w


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

    The layers below the blend are the global model's in every update,
    so the subsample goes through them once; each update then blends
    only the top layers (ala_init's expression) and takes the loss and
    the gradient over them from those fixed activations. The operations
    on every blended layer are those of a full-depth pass, so the
    weights are the same bits.
    """
    p = weights.n_layers if weights is not None else config.ala_top_layers
    base = _check_top_layers(global_params, p)
    n = client.size
    m = max(1, round_half_up(config.ala_data_fraction / 100.0 * n))
    idx = client.generator("ala-subsample").choice(n, size=m, replace=False)
    sx = np.asarray(client.train_x[idx], dtype=np.float64)
    sy = np.asarray(client.train_y[idx], dtype=np.float64)

    w = weights.copy() if weights is not None else AlaWeights.ones_like(global_params, p)
    top = global_params.flat.size - w.flat.size
    frozen = _activations(global_params.layers[:base], sx)
    # chain rule through the blend: dL/dW = dL/dtheta * (global - prev)
    spread = global_params.flat[top:] - local_prev.flat[top:]
    grad = np.empty_like(w.flat)
    grads = layer_views(grad, w.layer_dims)
    cap = config.ala_update_cap if max_updates is None else max_updates
    losses: list[float] = []
    for _ in range(cap):
        blended = layer_views(_blended_tail(local_prev, global_params, w), w.layer_dims)
        # one pass gives both the window loss and the gradient
        with np.errstate(over="ignore"):
            probs = _gradient_into(blended, grads, frozen, sy)
        losses.append(float(np.mean(bce_loss(probs, sy))))
        w = AlaWeights(
            np.clip(w.flat - config.ala_weight_lr * (grad * spread), 0.0, 1.0),
            w.layer_dims,
        )
        window = losses[-config.ala_window :]
        if len(window) == config.ala_window and float(np.std(window)) < config.ala_convergence_tol:
            break
    return w


def _ala_round(
    client: ClientState, global_params: ModelParams, config: TrainConfig
) -> ModelParams:
    """The adaptive-blend local step: local_round from the global model blended
    into the client's previous one, or from the global model in its first round."""
    start = global_params
    if client.params is not None:
        cap = None if client.ala_weights is None else 1  # a full pass the first time
        client.ala_weights = learn_ala_weights(
            client, global_params, client.params, config,
            weights=client.ala_weights, max_updates=cap,
        )
        start = ala_init(client.params, global_params, client.ala_weights)
    return local_round(client, start, config)


def run_fedala(
    clients: Sequence[ClientState],
    config: TrainConfig,
    start: ModelParams,
    *,
    max_workers: int = 1,
) -> Personalized:
    """Adaptive-blend federated rounds from `start`; clients keep their last local state.

    Blending weights get a full learning pass the first time a client
    blends and a single refresh update in every later round. A client
    that never trained (zero rounds) is served the global model, which
    is then `start`, as in FedAvg.
    """
    global_params, history = run_fedavg(
        clients, config, start, local=_ala_round, max_workers=max_workers
    )
    return {
        c.client_id: global_params if c.params is None else c.params for c in clients
    }, history


def ala_weights_to_csv(weights: AlaWeights) -> str:
    """Flatten blending weights to CSV: layer,kind,index,value."""
    lines = ["layer,kind,index,value"]
    for i, layer in enumerate(weights.layers):
        for j, val in enumerate(layer.weights.ravel()):
            lines.append(f"{i},weights,{j},{float(val)!r}")
        for j, val in enumerate(layer.biases.ravel()):
            lines.append(f"{i},biases,{j},{float(val)!r}")
    return "\n".join(lines) + "\n"
