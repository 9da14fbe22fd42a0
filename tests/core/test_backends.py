"""Execution backends: identical results, zero-copy process dispatch.

The contract under test: a gain sweep's response solves are pure
functions of the service matrices, so *any* backend (serial loop,
process pool over a shared-memory store) must return identical results
and walk identical dynamics trajectories.  The process tests are
small (one pool, tiny games) to keep tier-1 wall time bounded.
"""

import os

import numpy as np
import pytest

from repro.core.backends import (
    BACKEND_SPECS,
    ProcessBackend,
    SerialBackend,
    SolverBackend,
    resolve_backend,
)
from repro.core.dynamics import BatchedScheduler, BestResponseDynamics
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine


def _game(n=12, alpha=1.0, seed=3):
    return TopologyGame(
        EuclideanMetric.random_uniform(n, dim=2, seed=seed), alpha
    )


@pytest.fixture(scope="module")
def process_pool():
    """One pool for the whole module: forking per test is the slow part."""
    backend = ProcessBackend(workers=2)
    yield backend
    backend.close()


class TestResolveBackend:
    def test_workers_without_process_spec_raises(self):
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        for spec in (None, "serial", SerialBackend()):
            with pytest.raises(ValueError, match="backend='process'"):
                resolve_backend(spec, 4)

    def test_spec_strings(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        process = resolve_backend("process", 3)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 3
        assert process.distributed

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_spec_raises(self):
        for spec in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown solver backend"):
                resolve_backend(spec)

    def test_removed_shard_spec_raises(self):
        # Solves run in the coordinator or its process pool; shard
        # workers serve distance rows only.
        with pytest.raises(
            ValueError, match=r"expected one of \('serial', 'process'\)"
        ):
            resolve_backend("shard")

    def test_spec_names_are_stable(self):
        # The CLI exposes exactly these.
        assert BACKEND_SPECS == ("serial", "process")
        for spec in BACKEND_SPECS:
            assert resolve_backend(spec).name == spec

    def test_base_backend_runs_serially(self):
        backend = SolverBackend()
        assert backend.run_solves([1, 2, 3], lambda p: p * 10) == [10, 20, 30]


class TestSweepIdentity:
    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_process_backend_matches_serial(self, method, process_pool):
        game = _game()
        profile = game.random_profile(0.3, seed=5)
        serial = GameEvaluator(game, profile).gain_sweep(method)
        evaluator = GameEvaluator(game, profile)
        pooled = evaluator.gain_sweep(method, backend=process_pool)
        assert pooled == serial
        # The matrices were never pickled: the evaluator migrated to a
        # shareable store and handed out attachable handles.
        assert evaluator.store.shareable
        handle = evaluator.store.handle(0)
        assert handle is not None and handle[0] == "shm"
        evaluator.close()

    def test_process_backend_sees_in_place_repairs(self, process_pool):
        """Long-lived workers read the parent's repairs zero-copy."""
        game = _game()
        profile = game.random_profile(0.3, seed=5)
        evaluator = GameEvaluator(game, profile)
        reference = GameEvaluator(game, profile)
        for move_seed in range(4):
            evaluator.set_profile(profile).gain_sweep(
                "greedy", backend=process_pool
            )
            rng = np.random.default_rng(move_seed)
            peer = int(rng.integers(game.n))
            target = int((peer + 1) % game.n)
            profile = profile.with_strategy(peer, frozenset({target}))
        pooled = evaluator.set_profile(profile).gain_sweep(
            "greedy", backend=process_pool
        )
        serial = reference.set_profile(profile).gain_sweep("greedy")
        assert pooled == serial
        evaluator.close()

    def test_store_migration_happens_once(self, process_pool):
        game = _game(n=8)
        evaluator = GameEvaluator(game, game.random_profile(0.4, seed=2))
        evaluator.gain_sweep("greedy")  # warm the in-memory store
        evaluator.gain_sweep("greedy", backend=process_pool)
        store = evaluator.store
        evaluator.gain_sweep("greedy", backend=process_pool)
        assert evaluator.store is store
        evaluator.close()


class TestTrajectoryIdentity:
    """Acceptance: process-backend trajectories == serial on e9/e13 shapes."""

    def test_e9_config_batched_dynamics(self, process_pool):
        # E9's batched-scheduler shape: exact responses, whole-population
        # concurrent rounds, random 2-D instances.
        for seed in (0, 1):
            game = _game(n=8, alpha=1.0, seed=seed)
            runs = []
            for backend in (SerialBackend(), process_pool):
                runs.append(
                    BestResponseDynamics(
                        game,
                        scheduler=BatchedScheduler(),
                        record_moves=False,
                        evaluator=game.make_evaluator(),
                        backend=backend,
                    ).run(max_rounds=40)
                )
            serial, pooled = runs
            assert pooled.profile.key() == serial.profile.key()
            assert pooled.num_moves == serial.num_moves
            assert pooled.stopped_reason == serial.stopped_reason

    def test_e13_config_max_gain_engine(self, process_pool):
        # E13's max-gain shape: greedy solves, all-peers sweep per step.
        game = _game(n=16, alpha=1.0, seed=42)
        serial = SimulationEngine(
            game,
            method="greedy",
            activation="max-gain",
            evaluator=game.make_evaluator(),
        ).run(max_rounds=25)
        pooled = SimulationEngine(
            game,
            method="greedy",
            activation="max-gain",
            evaluator=game.make_evaluator(),
            backend=process_pool,
        ).run(max_rounds=25)
        assert pooled.profile.key() == serial.profile.key()
        assert pooled.moves == serial.moves
        assert pooled.stopped_reason == serial.stopped_reason
        assert pooled.final_cost == pytest.approx(serial.final_cost)


class TestLifecycle:
    def test_close_releases_segments(self, process_pool):
        game = _game(n=6)
        evaluator = GameEvaluator(game, game.random_profile(0.5, seed=1))
        evaluator.gain_sweep("greedy", backend=process_pool)
        names = [
            evaluator.store.handle(peer)[1]
            for peer in range(game.n)
            if evaluator.store.handle(peer) is not None
        ]
        assert names
        evaluator.close()
        if os.path.isdir("/dev/shm"):  # POSIX shm backs the segments
            leftover = set(names) & set(os.listdir("/dev/shm"))
            assert not leftover

    def test_process_backend_close_is_idempotent(self):
        backend = ProcessBackend(workers=2)
        assert backend.run_solves([1], lambda p: p + 1) == [2]
        backend._executor()  # a pool with no submissions forks nothing
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_process_backend_close_reaps_its_workers(self):
        backend = ProcessBackend(workers=2)
        game = _game(n=6)
        with GameEvaluator(game, game.random_profile(0.5, seed=2)) as evaluator:
            evaluator.gain_sweep("greedy", backend=backend)
        workers = list(backend._pool._processes.values())
        assert len(workers) == 2
        backend.close()
        assert not [worker for worker in workers if worker.is_alive()]

    def test_process_backend_requires_tasks_for_batches(self):
        backend = ProcessBackend(workers=2)
        with pytest.raises(RuntimeError, match="store-handle tasks"):
            backend.run_solves([1, 2], lambda p: p, None)
        backend.close()
