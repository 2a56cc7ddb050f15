"""Federated averaging over classroom clients, run in client shards.

Each client owns its training rows plus persistent seeded batch streams
derived from (master seed, client id, slot); the server only ever sees
parameter structures and train-split sizes.

run_fedavg is the package's one federated round loop. It starts from
the global model its caller hands it and never writes into it. A round calls
local(client, global_params, config) on every client, then aggregates
the local models in client-id order, weighted by train-split size. The
hook is the whole client step: handed the global model, it leaves the
client's new model in client.params and returns it. Plain FedAvg
uses the default, local_round, which synchronizes and then takes SGD
steps; the personalization methods pass their own hook (see
personalization.py).

max_workers is the number of client shards. The clients are dealt
round-robin into k = min(max_workers, len(clients)) shards. The library
default is one shard. The CLI's default is one shard per client
wherever more than one CPU is usable, and the OS spreads the shards over
the CPUs: five clients dealt into two shards on two cores leave one core
idle a third of every round. Shard 0 runs in the calling process;
shards 1..k-1 each run in one child process, forked when run_fedavg
starts, which keeps its clients' data, streams, generators, models and
blend weights for the whole call. Each round the parent sends the global
model to every child, and each child runs local on its clients in turn
and sends back their local models. When the rounds are done each child
sends back its clients' mutable state, so the parent's
ClientState objects end as a serial run leaves them; a hook's other
side effects stay in the process that ran it. An exception in a child is
re-raised in the parent; every child is joined before run_fedavg returns
or raises, and a child whose parent has gone sees end-of-file on its
pipe and exits. Where the fork start method is missing, k is 1. Results do not depend on k: every client draws only
from its own streams, the aggregate is taken in client order, and
OpenBLAS runs on one thread during the rounds (see _one_blas_thread).

map_shards runs one function over a sequence on the same shards and
children, under one OpenBLAS thread as the rounds are: each child maps
its items once and sends back the results, which are merged in item
order, and the failure of the lowest-numbered item is the one raised.
The explanation stage uses it, one classroom per item.
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
    "map_shards",
    "run_fedavg",
    "synchronize",
]


@dataclass
class ClientState:
    """One classroom: private data, current local model, RNG streams.

    train_x is any (n, input) row source an index array selects from: an
    ndarray, or the features.StandardizedRows view run_method passes,
    which standardizes each batch as it is drawn, so no client holds a
    standardized copy of its split. Every reader indexes rows or reads
    shape.
    """

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
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
    datasets: Sequence[tuple[np.ndarray, np.ndarray]], seed: int
) -> list[ClientState]:
    """Build fresh client states from (train_x, train_y) pairs; streams
    restart from the given seed."""
    return [ClientState(i, x, y, seed) for i, (x, y) in enumerate(datasets)]


def synchronize(client: ClientState, global_params: ModelParams) -> None:
    """Overwrite the client model with a copy of the global one."""
    if client.params is not None and client.params.layer_dims != global_params.layer_dims:
        raise ValueError("global and client parameter structures differ")
    client.params = global_params.copy()


def local_round(
    client: ClientState, global_params: ModelParams, config: TrainConfig
) -> ModelParams:
    """synchronize, then config.local_steps SGD steps on the client's persistent stream."""
    synchronize(client, global_params)
    stream = client.batch_stream("update", config.batch_size)
    client.params = train_steps(
        client.params, client.train_x, client.train_y, config, stream, config.local_steps
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
    terms = (s / total * params.flat for s, params in zip(sizes, local_params))
    # summing from the first term, not from 0, keeps a lone model's -0.0
    mean = sum(terms, next(terms))
    return ModelParams(mean, dims)


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    checksum: str
    wall_clock: float


LocalFn = Callable[[ClientState, ModelParams, TrainConfig], ModelParams]


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


def _serve_shard(conn, inherited, shard, handle) -> None:
    """Child side: replies handle(shard, message) to every message received.
    Ends after replying to None, the last message, after an error, or at
    end-of-file."""
    # an interrupt reaches the parent too, and the parent stops its children
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # once no child holds a parent end, a dead parent reads as end-of-file
    for end in inherited:
        end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        last = message is None
        try:
            payload = pickle.dumps(("reply", handle(shard, message)))
        except Exception as exc:
            payload = pickle.dumps(("error", _portable(exc)))
            last = True
        try:
            conn.send_bytes(payload)
        except OSError:  # the parent has gone
            return
        if last:
            return


class _ShardPool:
    """Forked children that each hold one shard and answer every message
    with handle(shard, message); None is the last message a child answers."""

    def __init__(self, shards, handle):
        self.handle = handle
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
                    args=(theirs, list(self.conns), shard, handle),
                )
                proc.start()
                self.procs.append(proc)
                theirs.close()
        except BaseException:
            self.close(abort=True)
            raise

    def _receive(self, index: int):
        try:
            kind, payload = self.conns[index].recv()
        except EOFError:
            raise RuntimeError(f"client shard {index + 1} exited unexpectedly") from None
        if kind == "error":
            raise payload
        return payload

    def ask(self, message, first) -> list:
        """handle(shard, message) for every shard in shard order: `first`,
        the shard this process holds, answered here while the children
        answer for theirs."""
        for conn in self.conns:
            conn.send(message)
        return [self.handle(first, message), *map(self._receive, range(len(self.conns)))]

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


def _local_or_state(config, local, shard, global_params) -> list:
    """A round's local models of the shard's clients, or, for None, the
    clients' state."""
    if global_params is None:
        return [_client_state(c) for c in shard]
    return [local(c, global_params, config) for c in shard]


def _map_shard(fn, shard, _message) -> tuple[list, Exception | None]:
    """fn of the shard's items in order, up to the first that raises: the
    results before it and that item's exception, None if none raised."""
    done = []
    for item in shard:
        try:
            done.append(fn(item))
        except Exception as exc:
            return done, _portable(exc)
    return done, None


@functools.lru_cache(maxsize=None)
def _thread_functions_of(path: str):
    """(get, set) of the thread count of the OpenBLAS at path, or None
    when it cannot be loaded or the functions cannot be found."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    # the plain names, and those of 64-bit-integer and scipy-openblas builds
    for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _openblas_thread_functions() -> list:
    """(get, set) of the thread count of every OpenBLAS this process has
    mapped now, in path order; empty when it has none that can be found.

    numpy and scipy each bring their own copy, so a process can hold two."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted(
        {line.split(maxsplit=5)[5] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    return [f for f in map(_thread_functions_of, paths) if f is not None]


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS to one thread for the rounds; forked shards
    inherit it.

    The shards already occupy the CPUs (by default the CLI runs one per
    classroom, more shards than cores on a small host), and the BLAS
    threads of several processes on the same cores wait for each other
    (desk fedala, two shards on two cores: 3.4 s serially, 7.0 s with two
    BLAS threads per process). The thread count also changes the last
    bits of the large products in the ALA weight learner, so holding it at
    one in every run keeps the bytes equal for any max_workers and any
    OPENBLAS_NUM_THREADS. Each copy gets its own count back on exit.
    Another BLAS, or one that cannot be found, is left as it is.
    """
    functions = _openblas_thread_functions()
    before = [get() for get, _ in functions]
    for _, put in functions:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(functions, before):
            put(count)


def _shard_count(max_workers: int, n_clients: int) -> int:
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(max_workers, n_clients)


# local is positional-or-keyword so that its default lives in __defaults__,
# where bench/tracing.py swaps in its timing wrapper.
def run_fedavg(
    clients: Sequence[ClientState],
    config: TrainConfig,
    start: ModelParams,
    local: LocalFn = local_round,
    *,
    max_workers: int = 1,
) -> tuple[ModelParams, list[RoundRecord]]:
    """config.global_rounds federated rounds with full participation,
    starting from the global model `start`, which is never written to.

    Each round: local(client, global_params, config) on every client,
    then the size-weighted aggregate. The default gives plain FedAvg.
    max_workers is the number of client shards, all but one in a forked
    child (see the module docstring); it never changes the result. Returns
    the final global model and one record per round; zero rounds return `start`.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    k = _shard_count(max_workers, len(clients))
    global_params = start
    sizes = [c.size for c in clients]
    ids = [c.client_id for c in clients]
    shards = [list(clients[j::k]) for j in range(k)]
    history: list[RoundRecord] = []
    handle = functools.partial(_local_or_state, config, local)
    with _one_blas_thread(), _ShardPool(shards[1:], handle) as pool:
        for r in range(config.global_rounds):
            began = time.perf_counter()
            local_params: list = [None] * len(clients)
            for j, trained in enumerate(pool.ask(global_params, shards[0])):
                local_params[j::k] = trained
            global_params = aggregate(local_params, sizes, round_index=r, client_ids=ids)
            history.append(
                RoundRecord(
                    round_index=r,
                    checksum=params_checksum(global_params),
                    wall_clock=time.perf_counter() - began,
                )
            )
        # the children's clients end as a serial run leaves them
        for shard, states in zip(shards, pool.ask(None, shards[0])):
            for client, state in zip(shard, states):
                client.params, client.ala_weights, client._streams, client._generators = state
    return global_params, history


def map_shards(
    fn: Callable[[object], object], items: Sequence, *, max_workers: int = 1
) -> list:
    """[fn(item) for item in items], with the items dealt into shards as
    run_fedavg deals its clients, under one BLAS thread.

    Shard 0 runs in the calling process and the others each in a forked
    child, which needs nothing pickled but the results. Each shard stops at
    its first failing item, and the failure of the lowest-numbered item is
    raised, so max_workers changes neither the results nor the error.
    """
    k = _shard_count(max_workers, len(items))
    shards = [list(items[j::k]) for j in range(k)]
    with _one_blas_thread(), _ShardPool(shards[1:], functools.partial(_map_shard, fn)) as pool:
        replies = pool.ask(None, shards[0])
    results = []
    for i in range(len(items)):
        done, failure = replies[i % k]
        if i // k == len(done):
            raise failure
        results.append(done[i // k])
    return results
