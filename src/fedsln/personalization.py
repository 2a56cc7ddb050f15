"""Per-client adaptation on top of the shared federated model.

Three strategies:

* post-hoc fine-tuning: exactly one seeded pass over the local train
  split after FedAvg finishes;
* Hessian-free per-client meta-learning: each meta-step consumes one
  batch from each of three parallel client streams (meta, update,
  hessian) and approximates the Hessian-vector term with a central
  difference, followed by the same one-pass fine-tune;
* adaptive local aggregation: the top layers of the incoming global
  model are blended elementwise with the client's previous local model
  through learnable weights in [0, 1].

Keeping the update batch on its own stream means the meta path with
alpha = 0 consumes batches exactly like plain FedAvg, so the two
pipelines coincide bit for bit under shared seeds.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .federation import (
    ClientState,
    RoundRecord,
    _local_rounds,
    aggregate_round,
    run_fedavg,
    synchronize,
)
from .neural import (
    DenseLayer,
    MetricsReport,
    ModelParams,
    TrainConfig,
    check_finite,
    evaluate,
    flat_size,
    flatten_layers,
    gradient,
    init_params,
    layer_views,
    mean_loss,
    params_checksum,
    sgd_step,
)
from .graphs import round_half_up
from .rng import derive_rng

__all__ = [
    "AlaWeights",
    "PersonalizedOutcome",
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


@dataclass(frozen=True)
class PersonalizedOutcome:
    """Per-client personalized models and their test metrics."""

    method: str
    client_params: dict[int, ModelParams]
    reports: dict[int, MetricsReport]
    history: list[RoundRecord]


def _one_pass(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    learning_rate: float,
    batch_size: int,
    rng: np.random.Generator,
) -> ModelParams:
    n = len(y)
    order = rng.permutation(n)
    b = min(batch_size, n)
    # divergence is reported by run_method's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, b):
            idx = order[start : start + b]
            params = sgd_step(params, gradient(params, x[idx], y[idx]), learning_rate)
    return params


def fine_tune(
    global_params: ModelParams, client: ClientState, config: TrainConfig
) -> ModelParams:
    """Exactly one seeded epoch of SGD on the client's train split."""
    rng = derive_rng(client.seed, "client", client.client_id, "finetune")
    return _one_pass(
        global_params.copy(),
        client.train_x,
        client.train_y,
        config.learning_rate,
        config.batch_size,
        rng,
    )


def run_fedavg_ft(
    clients: Sequence[ClientState],
    fed_config: TrainConfig,
    ft_config: TrainConfig | None = None,
    *,
    max_workers: int | None = None,
) -> PersonalizedOutcome:
    """FedAvg followed by one fine-tuning epoch per client."""
    ft_config = ft_config if ft_config is not None else fed_config
    global_params, history = run_fedavg(clients, fed_config, max_workers=max_workers)
    return _fine_tune_all("fedavg_ft", global_params, clients, ft_config, history)


def _fine_tune_all(
    method: str,
    global_params: ModelParams,
    clients: Sequence[ClientState],
    config: TrainConfig,
    history: list[RoundRecord],
) -> PersonalizedOutcome:
    """Fine-tune the global model on every client, then score each one.

    A fine-tuned model that diverged is reported before it is scored.
    """
    client_params = {}
    reports = {}
    for client in clients:
        personalized = fine_tune(global_params, client, config)
        check_finite(personalized, f"client {client.client_id}'s personalized model")
        client.params = personalized
        client_params[client.client_id] = personalized
        reports[client.client_id] = evaluate(personalized, client.test_x, client.test_y)
    return PersonalizedOutcome(method, client_params, reports, history)


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


def _meta_round(client: ClientState, config: TrainConfig) -> ModelParams:
    params = client.params
    upd = client.batch_stream("update", config.batch_size)
    meta = client.batch_stream("meta", config.batch_size)
    hess = client.batch_stream("hess", config.batch_size)
    x, y = client.train_x, client.train_y
    # divergence is reported by aggregate; errstate is per thread
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
) -> PersonalizedOutcome:
    """Federated meta-learning rounds, then one fine-tune epoch each."""
    if len(clients) == 0:
        raise ValueError("need at least one client")
    input_dim = clients[0].train_x.shape[1]
    global_params = init_params(
        derive_rng(config.seed, "init"), config.hidden_sizes, input_dim
    )
    history: list[RoundRecord] = []
    for k in range(config.global_rounds):
        start = time.perf_counter()
        for client in clients:
            synchronize(client, global_params)
        if max_workers is not None and max_workers > 1 and len(clients) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                local = list(pool.map(lambda c: _meta_round(c, config), clients))
        else:
            local = [_meta_round(c, config) for c in clients]
        global_params = aggregate_round(clients, local, k)
        losses = {c.client_id: mean_loss(c.params, c.train_x, c.train_y) for c in clients}
        history.append(
            RoundRecord(k, losses, params_checksum(global_params), time.perf_counter() - start)
        )
    return _fine_tune_all("perfedavg_hf", global_params, clients, config, history)


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
) -> PersonalizedOutcome:
    """Adaptive-blend federated rounds; clients keep their last local state.

    Blending weights get a full learning pass the first time a client
    blends and a single refresh update in every later round.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    input_dim = clients[0].train_x.shape[1]
    global_params = init_params(
        derive_rng(config.seed, "init"), config.hidden_sizes, input_dim
    )
    history: list[RoundRecord] = []
    for k in range(config.global_rounds):
        start = time.perf_counter()
        flags: set[str] = set()
        for client in clients:
            _ala_sync(client, global_params, config)
        local = _local_rounds(clients, config, max_workers, flags)
        global_params = aggregate_round(clients, local, k)
        losses = {c.client_id: mean_loss(c.params, c.train_x, c.train_y) for c in clients}
        history.append(
            RoundRecord(
                k,
                losses,
                params_checksum(global_params),
                time.perf_counter() - start,
                tuple(sorted(flags)),
            )
        )
    client_params = {c.client_id: c.params for c in clients}
    reports = {
        c.client_id: evaluate(c.params, c.test_x, c.test_y) for c in clients
    }
    return PersonalizedOutcome("fedala", client_params, reports, history)


def ala_weights_to_csv(weights: AlaWeights) -> str:
    """Flatten blending weights to CSV: layer,kind,index,value."""
    lines = ["layer,kind,index,value"]
    for i, layer in enumerate(weights.values):
        for j, val in enumerate(layer.weights.ravel()):
            lines.append(f"{i},weights,{j},{float(val)!r}")
        for j, val in enumerate(layer.biases.ravel()):
            lines.append(f"{i},biases,{j},{float(val)!r}")
    return "\n".join(lines) + "\n"
