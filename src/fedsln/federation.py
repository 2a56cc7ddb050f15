"""In-process federated averaging over classroom clients.

Each client owns its feature arrays plus persistent seeded batch streams
derived from (master seed, client id, slot); the server only ever sees
parameter structures and train-split sizes. A round is synchronize ->
local SGD -> size-weighted aggregation. Local rounds may run on a thread
pool; results are independent of scheduling because every client draws
from its own streams.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .neural import (
    BatchStream,
    ModelParams,
    TrainConfig,
    check_finite,
    init_params,
    mean_loss,
    params_checksum,
    train_steps,
)
from .rng import derive_rng

__all__ = [
    "ClientState",
    "RoundRecord",
    "aggregate",
    "aggregate_round",
    "history_to_csv",
    "local_round",
    "make_clients",
    "run_fedavg",
    "synchronize",
]


@dataclass
class ClientState:
    """One classroom: private data, current local model, RNG streams."""

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    seed: int
    params: ModelParams | None = None
    ala_weights: "object | None" = None
    _streams: dict = field(default_factory=dict, repr=False)
    _generators: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.train_y) == 0:
            raise ValueError(f"client {self.client_id} has no training data")

    @property
    def size(self) -> int:
        return len(self.train_y)

    def generator(self, slot: str) -> np.random.Generator:
        """Persistent per-slot Generator; state carries across rounds."""
        if slot not in self._generators:
            self._generators[slot] = derive_rng(self.seed, "client", self.client_id, slot)
        return self._generators[slot]

    def batch_stream(self, slot: str, batch_size: int) -> BatchStream:
        """Persistent per-slot epoch stream over the train split."""
        if slot not in self._streams:
            self._streams[slot] = BatchStream(self.size, batch_size, self.generator(slot))
        stream = self._streams[slot]
        if stream.batch_size != min(batch_size, self.size):
            raise ValueError(f"slot {slot!r} already streams a different batch size")
        return stream


def make_clients(
    datasets: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    seed: int,
) -> list[ClientState]:
    """Build fresh client states; streams restart from the given seed."""
    return [
        ClientState(i, tx, ty, vx, vy, seed) for i, (tx, ty, vx, vy) in enumerate(datasets)
    ]


def synchronize(client: ClientState, global_params: ModelParams) -> None:
    """Overwrite the client model with a copy of the global one."""
    if client.params is not None and client.params.dims() != global_params.dims():
        raise ValueError("global and client parameter structures differ")
    client.params = global_params.copy()


def local_round(
    client: ClientState, config: TrainConfig, *, flags: set[str] | None = None
) -> ModelParams:
    """config.local_steps SGD steps on the client's persistent stream."""
    if client.params is None:
        raise ValueError("client must be synchronized before local training")
    stream = client.batch_stream("update", config.batch_size)
    client.params = train_steps(
        client.params,
        client.train_x,
        client.train_y,
        config,
        stream,
        steps=config.local_steps,
        flags=flags,
    )
    return client.params


def aggregate(
    local_params: Sequence[ModelParams],
    sizes: Sequence[int],
    *,
    round_index: int | None = None,
    client_ids: Sequence[int] | None = None,
) -> ModelParams:
    """Dataset-size weighted average of parameter structures.

    Every local model is checked for NaN and infinite entries first; the
    error names the round and the client (its id when client_ids is
    given, else its position).
    """
    if len(local_params) == 0:
        raise ValueError("nothing to aggregate")
    if len(local_params) != len(sizes):
        raise ValueError("one size per parameter structure required")
    if any(s <= 0 for s in sizes):
        raise ValueError("aggregation sizes must be positive")
    dims = local_params[0].layer_dims
    ids = range(len(local_params)) if client_ids is None else client_ids
    where = "" if round_index is None else f"round {round_index}: "
    for cid, params in zip(ids, local_params):
        if params.layer_dims != dims:
            raise ValueError("parameter structures do not match")
        check_finite(params, f"{where}client {cid}")
    total = float(sum(sizes))
    mean = sum(s / total * params.flat for s, params in zip(sizes, local_params))
    return ModelParams(mean, dims)


def aggregate_round(
    clients: Sequence[ClientState], local_params: Sequence[ModelParams], round_index: int
) -> ModelParams:
    """aggregate() over one round's clients, weighted by train-split size."""
    return aggregate(
        local_params,
        [c.size for c in clients],
        round_index=round_index,
        client_ids=[c.client_id for c in clients],
    )


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    train_losses: dict[int, float]
    checksum: str
    wall_clock: float
    warnings: tuple[str, ...] = ()


def _local_rounds(
    clients: Sequence[ClientState],
    config: TrainConfig,
    max_workers: int | None,
    flags: set[str],
) -> list[ModelParams]:
    if max_workers is None or max_workers <= 1 or len(clients) == 1:
        return [local_round(c, config, flags=flags) for c in clients]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda c: local_round(c, config, flags=flags), clients))


def run_fedavg(
    clients: Sequence[ClientState],
    config: TrainConfig,
    *,
    max_workers: int | None = None,
    initial: ModelParams | None = None,
) -> tuple[ModelParams, list[RoundRecord]]:
    """config.global_rounds rounds of FedAvg with full participation.

    Returns the final global model and one record per round. Zero rounds
    returns the seeded initial model untouched.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    if initial is None:
        input_dim = clients[0].train_x.shape[1]
        initial = init_params(
            derive_rng(config.seed, "init"), config.hidden_sizes, input_dim
        )
    global_params = initial.copy()
    history: list[RoundRecord] = []
    for k in range(config.global_rounds):
        start = time.perf_counter()
        flags: set[str] = set()
        for client in clients:
            synchronize(client, global_params)
        local = _local_rounds(clients, config, max_workers, flags)
        global_params = aggregate_round(clients, local, k)
        losses = {
            c.client_id: mean_loss(c.params, c.train_x, c.train_y) for c in clients
        }
        history.append(
            RoundRecord(
                round_index=k,
                train_losses=losses,
                checksum=params_checksum(global_params),
                wall_clock=time.perf_counter() - start,
                warnings=tuple(sorted(flags)),
            )
        )
    return global_params, history


def history_to_csv(history: Sequence[RoundRecord]) -> str:
    """Round history as CSV: round,client_id,train_loss."""
    lines = ["round,client_id,train_loss"]
    for record in history:
        for cid in sorted(record.train_losses):
            lines.append(f"{record.round_index},{cid},{record.train_losses[cid]!r}")
    return "\n".join(lines) + "\n"
