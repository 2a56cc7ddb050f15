"""Federated averaging: aggregation algebra, reductions, scheduling, client shards."""

import functools
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsln.federation import (
    ClientState,
    _openblas_thread_functions,
    aggregate,
    local_round,
    make_clients,
    run_fedavg,
    synchronize,
)
from fedsln.neural import (
    DenseLayer,
    ModelParams,
    NonFiniteParamsError,
    TrainConfig,
    gradient,
    init_params,
    params_checksum,
    train_steps,
)
from fedsln.personalization import _ala_sync, _meta_round
from fedsln.rng import derive_rng


def flatten(params):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in params.layers])


def toy_dataset(seed, n=40, dim=6):
    rng = derive_rng(seed, "toy")
    x = rng.normal(size=(n, dim))
    w = rng.normal(size=dim)
    y = (x @ w + 0.3 * rng.normal(size=n) > 0).astype(float)
    return x, y


def toy_clients(n_clients, seed=0, n=40):
    datasets = []
    for i in range(n_clients):
        x, y = toy_dataset(seed * 100 + i, n=n)
        datasets.append((x[: n - 10], y[: n - 10], x[n - 10 :], y[n - 10 :]))
    return make_clients(datasets, seed)


def const_model(value, dims=(2, 1)):
    layers = []
    fan_in = dims[0]
    for out in dims[1:]:
        layers.append(DenseLayer(np.full((out, fan_in), value), np.full(out, value)))
        fan_in = out
    return ModelParams.from_layers(layers)


class TestAggregate:
    def test_weighted_mean_fixture(self):
        # sizes 1 and 3: result = 0.25*a + 0.75*b, checked to 1e-12
        a, b = const_model(0.0), const_model(4.0)
        out = aggregate([a, b], [1, 3])
        assert np.allclose(flatten(out), 3.0, atol=1e-12)

    def test_three_way_fixture(self):
        models = [const_model(v) for v in (1.0, 2.0, 6.0)]
        out = aggregate(models, [2, 3, 5])
        expected = (2 * 1.0 + 3 * 2.0 + 5 * 6.0) / 10
        assert np.allclose(flatten(out), expected, atol=1e-12)

    def test_equal_sizes_is_plain_mean(self):
        models = [init_params(s, hidden=(3,), input_dim=4) for s in range(3)]
        out = aggregate(models, [7, 7, 7])
        expected = np.mean([flatten(m) for m in models], axis=0)
        assert np.allclose(flatten(out), expected, atol=1e-12)

    def test_single_client_is_identity(self):
        m = init_params(3, hidden=(3,), input_dim=4)
        assert np.array_equal(flatten(aggregate([m], [5])), flatten(m))

    def test_weights_sum_preserved(self):
        # aggregating copies of one model returns that model
        m = init_params(1, hidden=(4,), input_dim=5)
        out = aggregate([m, m.copy(), m.copy()], [1, 2, 9])
        assert np.allclose(flatten(out), flatten(m), atol=1e-12)

    def test_validation(self):
        m = const_model(1.0)
        with pytest.raises(ValueError):
            aggregate([], [])
        with pytest.raises(ValueError):
            aggregate([m], [1, 2])
        with pytest.raises(ValueError):
            aggregate([m, m], [1, 0])
        with pytest.raises(ValueError, match="structures do not match"):
            aggregate([m, const_model(1.0, dims=(3, 1))], [1, 1])

    def test_rejects_non_finite_naming_round_and_client(self):
        bad = const_model(1.0)
        bad.layers[0].biases[0] = np.inf
        with pytest.raises(NonFiniteParamsError, match=r"^client 1 has non-finite"):
            aggregate([const_model(1.0), bad], [1, 1])
        bad.layers[0].biases[0] = np.nan
        with pytest.raises(NonFiniteParamsError, match=r"^round 4: client 7 has non-finite"):
            aggregate([bad, const_model(1.0)], [1, 1], round_index=4, client_ids=[7, 8])

    def test_run_fedavg_names_the_diverged_round_and_client(self):
        cfg = TrainConfig(learning_rate=1e200, batch_size=8, local_steps=3, global_rounds=3, seed=0)
        with pytest.raises(NonFiniteParamsError, match=r"^round \d+: client \d+ has non-finite"):
            run_fedavg(toy_clients(2), cfg)


class TestClientState:
    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            ClientState(0, np.empty((0, 6)), np.empty(0), np.empty((0, 6)), np.empty(0), 0)

    def test_streams_are_persistent_and_slot_scoped(self):
        c = toy_clients(1)[0]
        s1 = c.batch_stream("update", 8)
        s2 = c.batch_stream("update", 8)
        assert s1 is s2
        other = c.batch_stream("meta", 8)
        assert other is not s1

    def test_stream_batch_size_conflict(self):
        c = toy_clients(1)[0]
        c.batch_stream("update", 8)
        with pytest.raises(ValueError):
            c.batch_stream("update", 16)

    def test_generators_reproducible_across_builds(self):
        a = toy_clients(2, seed=5)[1].generator("update").random(4)
        b = toy_clients(2, seed=5)[1].generator("update").random(4)
        assert np.array_equal(a, b)

    def test_distinct_clients_draw_distinct_streams(self):
        clients = toy_clients(2, seed=5)
        a = clients[0].generator("update").random(4)
        b = clients[1].generator("update").random(4)
        assert not np.array_equal(a, b)


class TestSynchronize:
    def test_copies_not_aliases(self):
        c = toy_clients(1)[0]
        g = init_params(0)
        synchronize(c, g)
        c.params.layers[0].weights[0, 0] += 1.0
        assert g.layers[0].weights[0, 0] != c.params.layers[0].weights[0, 0]

    def test_dimension_mismatch(self):
        c = toy_clients(1)[0]
        synchronize(c, init_params(0, hidden=(4,), input_dim=6))
        with pytest.raises(ValueError):
            synchronize(c, init_params(0, hidden=(5,), input_dim=6))

    def test_local_round_requires_sync(self):
        c = toy_clients(1)[0]
        with pytest.raises(ValueError):
            local_round(c, TrainConfig())


class TestRunFedavg:
    def test_single_client_equals_sequential_sgd(self):
        # one client, aggregation weights collapse: K rounds of s steps
        # must match K*s sequential steps on the same stream, to 1e-12
        clients = toy_clients(1, seed=3)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, local_steps=7, global_rounds=4, seed=3)
        final, history = run_fedavg(clients, cfg)

        ref_client = toy_clients(1, seed=3)[0]
        initial = init_params(derive_rng(3, "init"), cfg.hidden_sizes, 6)
        stream = ref_client.batch_stream("update", cfg.batch_size)
        expected = train_steps(
            initial, ref_client.train_x, ref_client.train_y, cfg, stream, steps=28
        )
        assert np.max(np.abs(flatten(final) - flatten(expected))) < 1e-12
        assert len(history) == 4

    def test_scheduling_order_independence(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5, global_rounds=3, seed=1)
        seq, seq_hist = run_fedavg(toy_clients(3, seed=1), cfg)
        par, par_hist = run_fedavg(toy_clients(3, seed=1), cfg, max_workers=3)
        assert params_checksum(seq) == params_checksum(par)
        assert [r.checksum for r in seq_hist] == [r.checksum for r in par_hist]

    def test_rerun_reproducible(self):
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=5, global_rounds=2, seed=9)
        a, _ = run_fedavg(toy_clients(2, seed=9), cfg)
        b, _ = run_fedavg(toy_clients(2, seed=9), cfg)
        assert params_checksum(a) == params_checksum(b)

    def test_zero_rounds_returns_initial(self):
        clients = toy_clients(2, seed=4)
        cfg = TrainConfig(global_rounds=0, seed=4)
        final, history = run_fedavg(clients, cfg)
        expected = init_params(derive_rng(4, "init"), cfg.hidden_sizes, 6)
        assert np.array_equal(flatten(final), flatten(expected))
        assert history == []

    def test_round_records_shape(self):
        clients = toy_clients(2, seed=6)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=3, global_rounds=2, seed=6)
        final, history = run_fedavg(clients, cfg)
        assert [r.round_index for r in history] == [0, 1]
        for record in history:
            assert re.fullmatch(r"[0-9a-f]{64}", record.checksum)
            assert record.wall_clock >= 0.0
            assert record.warnings == ()
        assert history[-1].checksum == params_checksum(final)
        assert history[0].checksum != history[1].checksum

    def test_hooks_sync_every_client_before_local_steps(self):
        calls = []

        def sync(client, global_params):
            calls.append(("sync", client.client_id))
            synchronize(client, global_params)

        def local(client, config, *, flags):
            calls.append(("local", client.client_id))
            flags.add(f"client{client.client_id}")
            return local_round(client, config, flags=flags)

        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=3, global_rounds=2, seed=6)
        hooked, hooked_hist = run_fedavg(toy_clients(2, seed=6), cfg, sync=sync, local=local)
        plain, plain_hist = run_fedavg(toy_clients(2, seed=6), cfg)
        assert calls == [("sync", 0), ("sync", 1), ("local", 0), ("local", 1)] * 2
        assert [r.warnings for r in hooked_hist] == [("client0", "client1")] * 2
        assert [r.checksum for r in hooked_hist] == [r.checksum for r in plain_hist]
        assert params_checksum(hooked) == params_checksum(plain)

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            run_fedavg([], TrainConfig())


# --- client shards: forked children must reproduce the in-process run --------

SHARD_HOOKS = {
    "fedavg": lambda cfg: {},
    "fedala": lambda cfg: {"sync": functools.partial(_ala_sync, config=cfg)},
    "perfedavg_hf": lambda cfg: {"local": _meta_round},
}


def sized_clients(sizes, seed):
    datasets = []
    for i, n in enumerate(sizes):
        x, y = toy_dataset(seed * 100 + i, n=n + 4)
        datasets.append((x[:n], y[:n], x[n:], y[n:]))
    return make_clients(datasets, seed)


def client_snapshot(client):
    """Everything a round can change in a client, as comparable values."""
    streams = {
        slot: (s.rng.bit_generator.state, s._pos, s._order.tolist())
        for slot, s in client._streams.items()
    }
    generators = {slot: g.bit_generator.state for slot, g in client._generators.items()}
    return (
        None if client.params is None else client.params.flat.tolist(),
        None if client.ala_weights is None else client.ala_weights.flat.tolist(),
        streams,
        generators,
        all(s.rng is client._generators[slot] for slot, s in client._streams.items()),
    )


def run_hooked(method, sizes, seed, batch_size, max_workers):
    cfg = TrainConfig(
        learning_rate=0.05,
        batch_size=batch_size,
        local_steps=3,
        global_rounds=2,
        seed=seed,
        hidden_sizes=(4,),
        ala_top_layers=1,
        ala_update_cap=4,
    )
    clients = sized_clients(sizes, seed)
    final, history = run_fedavg(clients, cfg, max_workers=max_workers, **SHARD_HOOKS[method](cfg))
    return (
        final.flat.tolist(),
        [(r.round_index, r.checksum, r.warnings) for r in history],
        [client_snapshot(c) for c in clients],
    )


class TestShards:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        method=st.sampled_from(sorted(SHARD_HOOKS)),
        sizes=st.lists(st.integers(3, 24), min_size=1, max_size=5),
        seed=st.integers(0, 2**16),
        batch_size=st.sampled_from([4, 16]),
        max_workers=st.integers(1, 6),
    )
    def test_sharded_run_equals_in_process(self, method, sizes, seed, batch_size, max_workers):
        # a 16-row batch is clamped on the smaller clients, so warnings
        # cross from the children too
        serial = run_hooked(method, sizes, seed, batch_size, None)
        sharded = run_hooked(method, sizes, seed, batch_size, max_workers)
        assert sharded == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing_client", [0, 1])
    def test_hook_error_is_raised_in_parent(self, failing_client):
        # with two shards client 0 trains in the parent and client 1 in a child
        def local(client, config, *, flags):
            if client.client_id == failing_client:
                raise KeyError(f"client {client.client_id} refuses")
            return local_round(client, config, flags=flags)

        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_steps=3, global_rounds=2, seed=2)
        with pytest.raises(KeyError, match=f"client {failing_client} refuses"):
            run_fedavg(toy_clients(3, seed=2), cfg, local=local, max_workers=2)
        assert multiprocessing.active_children() == []

    def test_unpicklable_error_keeps_type_name_and_message(self):
        class Odd(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}-{b}")

        def local(client, config, *, flags):
            if client.client_id == 1:
                raise Odd("x", client.client_id)
            return local_round(client, config, flags=flags)

        cfg = TrainConfig(batch_size=8, local_steps=1, global_rounds=1, seed=2)
        with pytest.raises(RuntimeError, match="^Odd: x-1$"):
            run_fedavg(toy_clients(2, seed=2), cfg, local=local, max_workers=2)
        assert multiprocessing.active_children() == []

    def test_divergence_closes_every_child(self):
        cfg = TrainConfig(learning_rate=1e200, batch_size=8, local_steps=3, global_rounds=2, seed=5)
        with pytest.raises(NonFiniteParamsError, match=r"round 0: client 0 "):
            run_fedavg(toy_clients(4, seed=5), cfg, max_workers=4)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(_openblas_thread_functions() is None, reason="needs OpenBLAS")
    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a full-batch step on 3000 rows is large enough for OpenBLAS to
        # split its products across threads, which changes their last bits
        def full_batch(client, config, *, flags):
            grad = gradient(client.params, client.train_x, client.train_y)
            client.params = ModelParams(client.params.flat - 0.5 * grad.flat, grad.layer_dims)
            return client.params

        get, put = _openblas_thread_functions()
        before = get()
        cfg = TrainConfig(global_rounds=3, seed=3)
        runs = []
        try:
            for threads in (1, 2):
                put(threads)
                clients = sized_clients([3000, 3200], seed=3)
                final, history = run_fedavg(clients, cfg, local=full_batch)
                assert get() == threads
                runs.append([r.checksum for r in history])
        finally:
            put(before)
        assert runs[0] == runs[1]

    def test_rejects_fewer_than_one_worker(self):
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            run_fedavg(toy_clients(2), TrainConfig(), max_workers=0)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_children_exit_when_the_parent_dies(self, tmp_path):
        # the parent prints its children's pids and dies mid-round, skipping
        # every clean-up; the children must see end-of-file and exit
        script = textwrap.dedent(
            """
            import multiprocessing, os, sys
            import numpy as np
            from fedsln.federation import local_round, make_clients, run_fedavg
            from fedsln.neural import TrainConfig

            rng = np.random.default_rng(0)
            data = [(rng.normal(size=(30, 6)), (rng.random(30) > 0.5) * 1.0,
                     rng.normal(size=(5, 6)), np.array([0.0, 1, 0, 1, 0]))
                    for _ in range(3)]

            def local(client, config, *, flags):
                if client.client_id == 0:
                    pids = [p.pid for p in multiprocessing.active_children()]
                    print(" ".join(map(str, pids)), flush=True)
                    os._exit(0)
                return local_round(client, config, flags=flags)

            run_fedavg(make_clients(data, 1), TrainConfig(batch_size=8), local=local,
                       max_workers=3)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 2, done.stderr

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except (FileNotFoundError, ProcessLookupError):
                return False
            return stat.rpartition(")")[2].split()[0] != "Z"

        deadline = time.monotonic() + 30
        while any(running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(p) for p in pids)
