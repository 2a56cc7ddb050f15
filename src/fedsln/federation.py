"""Federated averaging over classroom clients, run in client shards.

Each client owns its feature arrays plus persistent seeded batch streams
derived from (master seed, client id, slot); the server only ever sees
parameter structures and train-split sizes.

run_fedavg is the package's one federated round loop. A round calls
sync(client, global_params) and then local(client, config, flags=flags)
on every client, then aggregates the local models in client-id order,
weighted by train-split size. Plain FedAvg uses the defaults,
synchronize and local_round; the personalization methods pass their
own sync or local step (see personalization.py).

max_workers is the number of client shards. The clients are dealt
round-robin into k = min(max_workers, len(clients)) shards. Shard 0 runs
in the calling process; shards 1..k-1 each run in one child process,
forked when run_fedavg starts, which keeps its clients' data, streams,
generators, models and blend weights for the whole call. Each round the
parent sends the global model to every child, and each child runs sync
and local on its clients and sends back their local models and flags.
When the rounds are done each child sends back its clients' mutable
state, so the parent's ClientState objects end as a serial run leaves
them; a hook's other side effects stay in the process that ran it. An
exception in a child is re-raised in the parent; every child is joined
before run_fedavg returns or raises, and a child whose parent has gone
sees end-of-file on its pipe and exits. Where the fork start method is
missing, k is 1. Results do not depend on k: every client draws only
from its own streams, the aggregate is taken in client order, and
OpenBLAS runs on one thread during the rounds (see _one_blas_thread).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import pickle
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
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


def _train_shard(
    shard: Sequence[ClientState],
    global_params: ModelParams,
    config: TrainConfig,
    sync: SyncFn,
    local: LocalFn,
    flags: set[str],
) -> list[ModelParams]:
    """One round on one shard: sync every client, then train every client."""
    for client in shard:
        sync(client, global_params)
    return [local(client, config, flags=flags) for client in shard]


def _client_state(client: ClientState) -> tuple:
    """What rounds can change in a client; sent in one pickle, so that each
    stream keeps sharing its generator."""
    return client.params, client.ala_weights, client._streams, client._generators


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else a RuntimeError naming its type."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve_shard(conn, inherited, shard, config, sync, local) -> None:
    """Child side: one round per global model received; None asks for the
    clients' state. Ends after the state, after an error, or at end-of-file."""
    # an interrupt reaches the parent too, and the parent stops its children
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # once no child holds a parent end, a dead parent reads as end-of-file
    for end in inherited:
        end.close()
    while True:
        try:
            global_params = conn.recv()
        except EOFError:
            return
        try:
            if global_params is None:
                reply = ("state", [_client_state(c) for c in shard])
            else:
                flags: set[str] = set()
                trained = _train_shard(shard, global_params, config, sync, local, flags)
                reply = ("round", trained, flags)
            payload = pickle.dumps(reply)
        except Exception as exc:
            reply = ("error", _portable(exc))
            payload = pickle.dumps(reply)
        try:
            conn.send_bytes(payload)
        except OSError:  # the parent has gone
            return
        if reply[0] != "round":
            return


class _ShardPool:
    """Forked children that each hold one shard of the clients."""

    def __init__(self, shards, config, sync, local):
        self.shards = shards
        self.conns = []
        self.procs = []
        if not shards:
            return
        ctx = multiprocessing.get_context("fork")
        try:
            for shard in shards:
                mine, theirs = ctx.Pipe()
                self.conns.append(mine)
                proc = ctx.Process(
                    target=_serve_shard,
                    args=(theirs, list(self.conns), shard, config, sync, local),
                )
                proc.start()
                self.procs.append(proc)
                theirs.close()
        except BaseException:
            self.close(abort=True)
            raise

    def _receive(self, index: int):
        try:
            kind, *payload = self.conns[index].recv()
        except EOFError:
            raise RuntimeError(f"client shard {index + 1} exited unexpectedly") from None
        if kind == "error":
            raise payload[0]
        return payload

    def train(self, global_params: ModelParams) -> None:
        """Start a round in every child."""
        for conn in self.conns:
            conn.send(global_params)

    def results(self) -> list[list]:
        """Per child, [its clients' local models, the round's flags]."""
        return [self._receive(i) for i in range(len(self.conns))]

    def restore(self) -> None:
        """Copy every child's client state into the parent's clients."""
        for conn in self.conns:
            conn.send(None)
        for i, shard in enumerate(self.shards):
            (states,) = self._receive(i)
            for client, state in zip(shard, states):
                client.params, client.ala_weights, client._streams, client._generators = state

    def close(self, *, abort: bool) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if abort:
                proc.terminate()
            proc.join()
            proc.close()

    def __enter__(self) -> "_ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)


@functools.lru_cache(maxsize=None)
def _openblas_thread_functions():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None when it has none or the functions cannot be found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted(
        {line.split(maxsplit=5)[5] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the plain names, and those of 64-bit-integer and scipy-openblas builds
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the rounds; forked shards inherit it.

    The shards already occupy the CPUs, and the BLAS threads of several
    processes on the same cores wait for each other (desk fedala, two
    shards on two cores: 3.4 s serially, 7.0 s with two BLAS threads per
    process). The thread count also changes the last bits of the large
    products in the ALA weight learner, so holding it at one in every run
    keeps the bytes equal for any max_workers and any OPENBLAS_NUM_THREADS.
    Another BLAS, or one that cannot be found, is left as it is.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, put = functions
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _shard_count(max_workers: int | None, n_clients: int) -> int:
    if max_workers is None:
        return 1
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(max_workers, n_clients)


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

    Each round: sync(client, global_params) then local(client, config,
    flags=flags) on every client, then the size-weighted aggregate. The
    defaults give plain FedAvg. max_workers (default 1) is the number of
    client shards, all but one in a forked child (see the module
    docstring); it never changes the result. Returns the final global
    model and one record per round; zero rounds returns the seeded
    initial model.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    k = _shard_count(max_workers, len(clients))
    global_params = init_params(
        derive_rng(config.seed, "init"), config.hidden_sizes, clients[0].train_x.shape[1]
    )
    sizes = [c.size for c in clients]
    ids = [c.client_id for c in clients]
    shards = [list(clients[j::k]) for j in range(k)]
    history: list[RoundRecord] = []
    with _one_blas_thread(), _ShardPool(shards[1:], config, sync, local) as pool:
        for r in range(config.global_rounds):
            start = time.perf_counter()
            pool.train(global_params)
            flags: set[str] = set()
            local_params: list = [None] * len(clients)
            local_params[0::k] = _train_shard(shards[0], global_params, config, sync, local, flags)
            for j, (trained, shard_flags) in enumerate(pool.results(), start=1):
                local_params[j::k] = trained
                flags |= shard_flags
            global_params = aggregate(local_params, sizes, round_index=r, client_ids=ids)
            history.append(
                RoundRecord(
                    round_index=r,
                    checksum=params_checksum(global_params),
                    wall_clock=time.perf_counter() - start,
                    warnings=tuple(sorted(flags)),
                )
            )
        pool.restore()
    return global_params, history
