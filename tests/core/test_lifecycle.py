"""Lifecycle matrix: every teardown path releases every buffer.

The resources at stake: shared-memory segments in ``/dev/shm`` (one per
cached ``W`` matrix on shared stores), solver pools, and shard worker
processes.  The contract pinned here, across stores × backends × shards
(including process placement):

* ``close()`` is idempotent and double-close safe at every layer;
* after ``close()`` no shm segment survives;
* an *abandoned* object (no ``close()`` — a test failure mid-run, a
  Ctrl-C) is cleaned by the ``weakref.finalize`` safety nets at garbage
  collection;
* a store written to again after ``close()`` re-arms its safety net (a
  dead finalizer must not turn later segments into silent leaks).
"""

import os

import numpy as np
import pytest

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.dynamics import BestResponseDynamics
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.service_store import SharedMemoryStore
from repro.core.sharded import ShardedEvaluator
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine

SHM_DIR = "/dev/shm"


def _game(n=8, alpha=1.0, seed=3):
    return TopologyGame(
        EuclideanMetric.random_uniform(n, dim=2, seed=seed), alpha
    )


def _shm_entries():
    """Current repro-owned shm segment names (empty off-POSIX)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-POSIX host
        return set()
    return {
        name for name in os.listdir(SHM_DIR) if name.startswith("repro_")
    }


def _segment_names(store) -> set:
    """The shm segment names a store currently owns."""
    handles = (store.handle(key) for key in store.keys())
    return {handle[1] for handle in handles if handle is not None}


EVALUATOR_CONFIGS = [
    ("unsharded", None, None),
    ("sharded-local", 2, "local"),
    ("sharded-process", 2, "process"),
]
STORE_SPECS = ["memory", "shared"]


class TestCloseMatrix:
    @pytest.mark.parametrize("store", STORE_SPECS)
    @pytest.mark.parametrize(
        "label,shards,placement", EVALUATOR_CONFIGS,
        ids=[c[0] for c in EVALUATOR_CONFIGS],
    )
    def test_close_releases_everything(self, store, label, shards, placement):
        game = _game()
        profile = game.random_profile(0.4, seed=1)
        evaluator = game.make_evaluator(
            profile, shards=shards, store=store, placement=placement
        )
        evaluator.gain_sweep("greedy")
        evaluator.peer_costs()
        segments = _segment_names(evaluator.store)
        if store == "shared":
            assert segments  # the matrix actually lives in /dev/shm
        pool = getattr(evaluator, "worker_pool", None)
        evaluator.close()
        evaluator.close()  # double close is safe
        assert not (segments & _shm_entries())
        if pool is not None:
            assert pool.closed and pool.alive_workers() == 0

    @pytest.mark.parametrize(
        "label,shards,placement", EVALUATOR_CONFIGS,
        ids=[c[0] for c in EVALUATOR_CONFIGS],
    )
    def test_process_backend_migration_cleans_up(
        self, label, shards, placement
    ):
        """Stores auto-migrated to shared memory are closed too."""
        game = _game()
        backend = ProcessBackend(workers=2)
        evaluator = game.make_evaluator(
            game.random_profile(0.4, seed=2), shards=shards,
            placement=placement,
        )
        try:
            evaluator.gain_sweep("greedy", backend=backend)
            assert isinstance(evaluator.store, SharedMemoryStore)
            segments = _segment_names(evaluator.store)
            assert segments
        finally:
            backend.close()
            evaluator.close()
        assert not (segments & _shm_entries())

    def test_evaluator_usable_after_close(self):
        game = _game()
        evaluator = GameEvaluator(
            game, game.random_profile(0.4, seed=1), store="shared"
        )
        before = [(r.peer, r.strategy) for r in evaluator.gain_sweep("greedy")]
        evaluator.close()
        again = [(r.peer, r.strategy) for r in evaluator.gain_sweep("greedy")]
        assert again == before
        segments = _segment_names(evaluator.store)
        assert segments  # the post-close writes re-created segments...
        evaluator.close()
        assert not (segments & _shm_entries())  # ...and close still works


class TestFinalizerSafetyNets:
    def test_abandoned_evaluator_releases_segments(self):
        game = _game()
        evaluator = GameEvaluator(
            game, game.random_profile(0.4, seed=1), store="shared"
        )
        evaluator.gain_sweep("greedy")
        segments = _segment_names(evaluator.store)
        assert segments
        del evaluator  # never closed: the finalizer must fire at GC
        assert not (segments & _shm_entries())

    def test_abandoned_sharded_process_evaluator_releases_workers(self):
        game = _game()
        evaluator = ShardedEvaluator(
            game, game.random_profile(0.4, seed=1),
            shards=2, placement="process", store="shared",
        )
        evaluator.peer_costs()
        segments = _segment_names(evaluator.store)
        transports = evaluator.worker_pool._transports
        del evaluator
        assert not (segments & _shm_entries())
        assert all(not transport.alive for transport in transports)


class TestCloseThenReuse:
    """A dead finalizer must never guard live segments (the leak bug)."""

    def test_shared_store_rearms_after_close(self):
        store = SharedMemoryStore()
        store.put(0, np.ones((4, 5)))
        first = _segment_names(store)
        store.close()
        assert not (first & _shm_entries())
        store.put(1, np.full((4, 5), 2.0))  # reuse after close
        second = _segment_names(store)
        assert second and second.isdisjoint(first)
        assert store._finalizer.alive  # re-armed: exit would clean up
        store.close()
        assert not (second & _shm_entries())

    def test_generation_advances_across_reuse(self):
        store = SharedMemoryStore()
        store.put(0, np.ones((2, 3)))
        first = store.handle(0)[-1]
        store.close()
        store.put(0, np.ones((2, 3)))
        assert store.handle(0)[-1] > first
        store.close()


class TestContextManagers:
    def test_evaluator_is_a_context_manager(self):
        game = _game()
        with GameEvaluator(
            game, game.random_profile(0.4, seed=1), store="shared"
        ) as evaluator:
            evaluator.gain_sweep("greedy")
            segments = _segment_names(evaluator.store)
            assert segments
        assert not (segments & _shm_entries())

    def test_engine_context_closes_owned_sharded_evaluator(self):
        game = _game(n=10)
        with SimulationEngine(
            game,
            method="greedy",
            activation="max-gain",
            shards=2,
            shard_placement="process",
        ) as engine:
            engine.run(max_rounds=4)
            pool = engine.evaluator.worker_pool
            assert pool.alive_workers() == 2
        assert pool.closed and pool.alive_workers() == 0

    def test_dynamics_context_closes_owned_backend_and_evaluator(self):
        game = _game(n=10)
        with BestResponseDynamics(
            game, shards=2, shard_placement="process"
        ) as dynamics:
            dynamics.run(max_rounds=5)
            pool = dynamics._owned_evaluator.worker_pool
        assert pool.closed

    def test_dynamics_double_close_is_safe(self):
        game = _game(n=8)
        dynamics = BestResponseDynamics(game, shards=2)
        dynamics.run(max_rounds=2)
        dynamics.close()
        dynamics.close()

    def test_externally_owned_resources_survive_engine_close(self):
        game = _game(n=8)
        backend = SerialBackend()
        evaluator = game.make_evaluator(game.empty_profile())
        with SimulationEngine(
            game, evaluator=evaluator, backend=backend
        ) as engine:
            engine.run(max_rounds=3)
        # Caller-supplied instances are untouched and still usable.
        evaluator.set_profile(game.empty_profile()).peer_costs()
        assert backend.run_solves([1], lambda p: p) == [1]
        evaluator.close()


class TestCloseAfterFailedInit:
    """close() on an instance whose __init__ raised must be a no-op.

    The failure mode pinned here: validation raising *before* the
    owned-resource slots are assigned, so a later close() (an ExitStack,
    a __del__, a defensive finally) hits AttributeError instead of
    returning quietly.  Constructed via ``cls.__new__`` + explicit
    ``__init__`` so the half-built instance survives the raise.
    """

    @staticmethod
    def _failed_init(cls, *args, **kwargs):
        instance = cls.__new__(cls)
        with pytest.raises((ValueError, TypeError, IndexError)):
            instance.__init__(*args, **kwargs)
        return instance

    def test_dynamics(self):
        game = _game()
        evaluator = game.make_evaluator(game.empty_profile())
        try:
            instance = self._failed_init(
                BestResponseDynamics, game, shards=2, evaluator=evaluator
            )
            instance.close()
            instance.close()
        finally:
            evaluator.close()

    def test_engine(self):
        instance = self._failed_init(
            SimulationEngine, _game(), shards=2, incremental=False
        )
        instance.close()
        instance.close()

    def test_churn(self):
        from repro.simulation.churn import ChurnSimulation

        metric = EuclideanMetric.random_uniform(6, dim=2, seed=0)
        instance = self._failed_init(
            ChurnSimulation, metric, alpha=1.0, join_prob=2.0
        )
        instance.close()
        instance.close()

    def test_evaluator_with_bad_store(self):
        game = _game()
        instance = self._failed_init(
            GameEvaluator, game, store="bogus"
        )
        instance.close()
        instance.close()

    def test_sharded_evaluator_with_bad_placement(self):
        game = _game()
        instance = self._failed_init(
            ShardedEvaluator, game, shards=2, placement="bogus"
        )
        instance.close()
        instance.close()

    def test_socket_transport_that_never_connects(self):
        from repro.core.shard_workers import ShardWorkerError
        from repro.core.transport import SocketTransport

        dmat = _game(n=4).distance_matrix
        transport = SocketTransport.__new__(SocketTransport)
        with pytest.raises(ShardWorkerError, match="never came up"):
            transport.__init__(
                "unix:/nonexistent/repro-lifecycle.sock",
                0,
                2,
                dmat,
                connect_timeout=0.2,
            )
        transport.close()
        transport.close()
        assert not transport.alive

    def test_service_state(self):
        from repro.service import ServiceState

        metric = EuclideanMetric.random_uniform(8, dim=2, seed=1)
        instance = self._failed_init(
            ServiceState, metric, 1.0, shard_placement="local"
        )
        instance.close()
        instance.close()

    def test_churn_service(self):
        from repro.service import ChurnService, ServiceState

        metric = EuclideanMetric.random_uniform(8, dim=2, seed=1)
        with ServiceState(metric, 1.0, initial_active=range(4)) as state:
            instance = self._failed_init(ChurnService, state, max_queue=0)
            instance.close()
            instance.close()

    def test_service_server_with_bad_address(self):
        from repro.service import ChurnService, ServiceServer, ServiceState

        metric = EuclideanMetric.random_uniform(8, dim=2, seed=1)
        with ChurnService(
            ServiceState(metric, 1.0, initial_active=range(4))
        ) as service:
            instance = self._failed_init(
                ServiceServer, service, "not-an-address"
            )
            instance.close()
            instance.close()

    def test_service_client_that_never_connects(self):
        from repro.service import ServiceClient

        client = ServiceClient.__new__(ServiceClient)
        with pytest.raises(OSError):
            client.__init__(
                "unix:/nonexistent/repro-service.sock", connect_timeout=0.1
            )
        client.close()
        client.close()


class TestServiceClose:
    """Double-close and post-close behavior of the service layer."""

    def _service(self):
        from repro.service import ChurnService, ServiceState

        metric = EuclideanMetric.random_uniform(10, dim=2, seed=2)
        return ChurnService(
            ServiceState(metric, 1.0, initial_active=range(4))
        )

    def test_double_close_and_owned_state(self):
        from repro.service import Request, ServiceClosedError

        service = self._service()
        service.request("rebind", 0)
        service.close()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(Request("rebind", 1))
        with pytest.raises(ServiceClosedError):
            service.state.apply_epoch([Request("rebind", 1)])

    def test_unowned_state_survives_service_close(self):
        from repro.service import ChurnService, Request, ServiceState

        metric = EuclideanMetric.random_uniform(10, dim=2, seed=2)
        state = ServiceState(metric, 1.0, initial_active=range(4))
        service = ChurnService(state, own_state=False)
        service.request("rebind", 0)
        service.close()
        outcome = state.apply_epoch([Request("rebind", 1)])
        assert outcome.results[0][0]
        state.close()

    def test_server_double_close(self, tmp_path):
        from repro.service import ServiceServer

        server = ServiceServer(
            self._service(), f"unix:{tmp_path / 'close.sock'}"
        )
        server.close()
        server.close()
        assert not os.path.exists(str(tmp_path / "close.sock"))
