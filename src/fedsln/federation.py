"""In-process federated averaging over classroom clients.

Each client owns its feature arrays plus persistent seeded batch streams
derived from (master seed, client id, slot); the server only ever sees
parameter structures and train-split sizes.

run_fedavg is the package's one federated round loop. A round calls
sync(client, global_params) on every client, serially and in client
order; then local(client, config, flags=flags) on every client,
serially or on one thread pool; then aggregates the local models
weighted by train-split size. Plain FedAvg uses the defaults,
synchronize and local_round; the personalization methods pass their
own sync or local step (see personalization.py). Results are
independent of scheduling because every client draws from its own
streams.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .neural import (
    BatchStream,
    ModelParams,
    TrainConfig,
    check_finite,
    init_params,
    params_checksum,
    train_steps,
)
from .rng import derive_rng

__all__ = [
    "ClientState",
    "RoundRecord",
    "aggregate",
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


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    checksum: str
    wall_clock: float
    warnings: tuple[str, ...] = ()


SyncFn = Callable[[ClientState, ModelParams], None]
LocalFn = Callable[..., ModelParams]


# sync and local are positional-or-keyword so that their defaults live in
# __defaults__, where bench/tracing.py swaps in its timing wrappers.
def run_fedavg(
    clients: Sequence[ClientState],
    config: TrainConfig,
    sync: SyncFn = synchronize,
    local: LocalFn = local_round,
    *,
    max_workers: int | None = None,
) -> tuple[ModelParams, list[RoundRecord]]:
    """config.global_rounds federated rounds with full participation.

    Each round: sync(client, global_params) per client in order, then
    local(client, config, flags=flags) per client (on a thread pool when
    max_workers > 1), then the size-weighted aggregate. The defaults give
    plain FedAvg. Returns the final global model and one record per
    round; zero rounds returns the seeded initial model.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    global_params = init_params(
        derive_rng(config.seed, "init"), config.hidden_sizes, clients[0].train_x.shape[1]
    )
    sizes = [c.size for c in clients]
    ids = [c.client_id for c in clients]
    parallel = max_workers is not None and max_workers > 1 and len(clients) > 1
    history: list[RoundRecord] = []
    # the pool starts its threads on first use, so a serial run starts none
    with ThreadPoolExecutor(max_workers=max_workers if parallel else 1) as pool:
        map_clients = pool.map if parallel else map
        for k in range(config.global_rounds):
            start = time.perf_counter()
            flags: set[str] = set()
            for client in clients:
                sync(client, global_params)

            def train(client: ClientState) -> ModelParams:
                return local(client, config, flags=flags)

            local_params = list(map_clients(train, clients))
            global_params = aggregate(local_params, sizes, round_index=k, client_ids=ids)
            history.append(
                RoundRecord(
                    round_index=k,
                    checksum=params_checksum(global_params),
                    wall_clock=time.perf_counter() - start,
                    warnings=tuple(sorted(flags)),
                )
            )
    return global_params, history
