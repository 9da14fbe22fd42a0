"""Shard worker processes: cross-process distance rows, identical results.

The contract under test: placing a sharded evaluator's distance row
blocks in per-shard worker processes (``placement="socket"``) changes
*where* the rows are computed, never their bytes — strategic queries are
untouched (they never enter the distance layer) and cost queries stream
the same per-shard reductions.  Trajectories must therefore be identical
to local placement for every shard count, execution backend, and store
kind; the pool must keep the coordinator free of resident distance
blocks; and the worker lifecycle must be leak-proof (daemonic processes,
finalizer safety net, idempotent close).
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.dynamics import BatchedScheduler, BestResponseDynamics
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.sharded import (
    ShardPlan,
    ShardedEvaluator,
    build_sharded_evaluator,
    check_shard_options,
)
from repro.core.shard_workers import (
    PLACEMENT_SPECS,
    ShardWorkerError,
    ShardWorkerPool,
)
from repro.core.transport import SocketTransportFactory
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.churn import ChurnSimulation
from repro.simulation.engine import SimulationEngine

from tests.conftest import games_with_profiles

SHARD_COUNTS = (1, 2, 4)


def _random_game(seed: int, n: int, alpha: float = 1.0) -> TopologyGame:
    rng = np.random.default_rng(seed)
    metric = EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2)))
    return TopologyGame(metric, alpha)


def _response_tuples(responses):
    return [
        (r.peer, r.strategy, r.cost, r.current_cost, r.improved)
        for r in responses
    ]


class TestShardWorkerPool:
    def test_rows_match_reference_distances(self):
        game = _random_game(0, n=11)
        profile = game.random_profile(0.3, seed=1)
        reference = GameEvaluator(game, profile)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 3), game.distance_matrix
        ) as pool:
            pool.reset(profile)
            wanted = [10, 0, 4, 7, 2]
            np.testing.assert_array_equal(
                pool.rows(wanted), reference.overlay_distances()[wanted]
            )

    def test_rebind_repairs_exactly_like_the_coordinator(self):
        game = _random_game(1, n=9)
        profile = game.random_profile(0.4, seed=2)
        reference = GameEvaluator(game, profile)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 2), game.distance_matrix
        ) as pool:
            pool.reset(profile)
            pool.rows(range(game.n))  # build both blocks
            current = profile
            for peer, target in ((0, 3), (8, 1), (4, 0)):
                current = current.with_strategy(peer, frozenset({target}))
                pool.rebind(peer, current.strategy(peer))
                reference.set_profile(current)
                np.testing.assert_array_equal(
                    pool.rows(range(game.n)), reference.overlay_distances()
                )

    def test_stretch_sums_are_narrow_and_exact(self):
        game = _random_game(2, n=10)
        profile = game.random_profile(0.5, seed=3)
        local = ShardedEvaluator(game, profile, shards=2)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 2), game.distance_matrix
        ) as pool:
            pool.reset(profile)
            for shard in range(2):
                row_sums, total = pool.stretch_sums(shard)
                expected = local._shard_stretch_sums(shard)
                np.testing.assert_array_equal(row_sums, expected[0])
                assert total == expected[1]
        local.close()

    def test_out_of_range_peer_rejected(self):
        game = _random_game(3, n=5)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 2), game.distance_matrix
        ) as pool:
            pool.reset(game.empty_profile())
            with pytest.raises(IndexError):
                pool.rows([5])

    def test_query_before_reset_raises_worker_error(self):
        game = _random_game(4, n=4)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 2), game.distance_matrix
        ) as pool:
            with pytest.raises(ShardWorkerError, match="reset"):
                pool.rows([0])

    def test_close_is_idempotent_and_kills_workers(self):
        game = _random_game(5, n=6)
        pool = ShardWorkerPool(ShardPlan.build(game.n, 3), game.distance_matrix)
        assert pool.num_workers == 3
        assert pool.alive_workers() == 3
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        pool.close()  # double close is safe
        assert pool.closed

    def test_finalizer_is_the_safety_net(self):
        game = _random_game(6, n=6)
        pool = ShardWorkerPool(ShardPlan.build(game.n, 2), game.distance_matrix)
        transports = pool._transports
        assert all(transport.alive for transport in transports)
        del pool  # abandoned without close(): the finalizer must fire
        assert all(not transport.alive for transport in transports)

    def test_worker_stats_expose_builds_and_resident_bytes(self):
        game = _random_game(7, n=12)
        profile = game.random_profile(0.3, seed=4)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 4), game.distance_matrix
        ) as pool:
            pool.reset(profile)
            assert all(
                s["resident_bytes"] == 0 for s in pool.worker_stats()
            )
            pool.rows(range(game.n))
            stats = pool.worker_stats()
            assert all(s["block_builds"] == 1 for s in stats)
            assert all(
                s["resident_bytes"] == s["shard_rows"] * game.n * 8
                for s in stats
            )


class TestPlacementIdentity:
    @given(games_with_profiles(min_n=2, max_n=7))
    @settings(max_examples=8, deadline=None)
    def test_costs_and_distances_match_local_placement(self, game_profile):
        game, profile = game_profile
        reference = GameEvaluator(game, profile)
        expected_dist = reference.overlay_distances()
        expected_costs = reference.peer_costs()
        with ShardedEvaluator(
            game, profile, shards=2, placement="socket"
        ) as evaluator:
            np.testing.assert_array_equal(
                evaluator.overlay_distances(), expected_dist
            )
            np.testing.assert_array_equal(
                evaluator.peer_costs(), expected_costs
            )

    def test_social_cost_scalar_identical_to_local_placement(self):
        # Same per-shard partial sums in the same order: the placement
        # must not even perturb the last-ulp summation caveat.
        game = _random_game(8, n=17)
        profile = game.random_profile(0.35, seed=5)
        for shards in SHARD_COUNTS:
            local = ShardedEvaluator(game, profile, shards=shards)
            with ShardedEvaluator(
                game, profile, shards=shards, placement="socket"
            ) as remote:
                assert remote.social_cost() == local.social_cost()
            local.close()

    def test_gain_sweeps_after_rebinds_match(self):
        game = _random_game(9, n=12)
        profile = game.random_profile(0.3, seed=6)
        reference = GameEvaluator(game, profile)
        with ShardedEvaluator(
            game, profile, shards=4, placement="socket"
        ) as evaluator:
            current = profile
            moves = [
                current.with_strategy(0, frozenset()),
                current.with_strategy(0, frozenset({1})),
                current.with_strategy(game.n - 1, frozenset({0})),
            ]
            for step in moves:
                expected = _response_tuples(
                    reference.set_profile(step).gain_sweep("exact")
                )
                got = _response_tuples(
                    evaluator.set_profile(step).gain_sweep("exact")
                )
                assert got == expected
                np.testing.assert_array_equal(
                    evaluator.peer_costs(), reference.peer_costs()
                )

    def test_coordinator_holds_no_distance_blocks(self):
        game = _random_game(10, n=24)
        profile = game.random_profile(0.3, seed=7)
        with ShardedEvaluator(
            game, profile, shards=4, placement="socket"
        ) as evaluator:
            evaluator.peer_costs()
            evaluator.social_cost()
            evaluator.gain_sweep("greedy")
            assert evaluator.stats.distance_resident_peak_bytes == 0
            assert evaluator.stats.distance_block_builds == 0
            per_worker = evaluator.shard_worker_stats()
            full_bytes = game.n * game.n * 8
            assert max(s["resident_peak_bytes"] for s in per_worker) <= (
                full_bytes // 4 + game.n * 8  # one block (+ row rounding)
            )

    def test_placement_validation(self):
        game = _random_game(11, n=6)
        assert PLACEMENT_SPECS == ("local", "socket")
        with pytest.raises(ValueError, match="placement"):
            ShardedEvaluator(game, shards=2, placement="cloud")
        with pytest.raises(ValueError, match="shard_hosts"):
            ShardedEvaluator(
                game, shards=2, placement="local", shard_hosts=("h:1",)
            )

    def test_process_placement_spelling_rejected(self):
        game = _random_game(11, n=6)
        with pytest.raises(
            ValueError, match=r"expected one of \('local', 'socket'\)"
        ):
            ShardedEvaluator(game, shards=2, placement="process")

    def test_local_placement_has_no_pool(self):
        game = _random_game(11, n=6)
        evaluator = ShardedEvaluator(game, shards=2)
        assert evaluator.placement == "local"
        assert evaluator.worker_pool is None
        assert evaluator.shard_worker_stats() is None
        evaluator.close()


class TestTrajectoryIdentity:
    def test_dynamics_identical_across_placements(self):
        game = _random_game(12, n=12, alpha=2.0)
        reference = BestResponseDynamics(game).run(max_rounds=80)
        for shards in SHARD_COUNTS:
            with BestResponseDynamics(
                TopologyGame(game.metric, game.alpha),
                shards=shards,
                shard_placement="socket",
            ) as dynamics:
                result = dynamics.run(max_rounds=80)
            assert result.profile.key() == reference.profile.key()
            assert result.num_moves == reference.num_moves
            assert result.stopped_reason == reference.stopped_reason

    @pytest.mark.parametrize("store", ["memory", "shared"])
    @pytest.mark.parametrize("make_backend", [SerialBackend, ProcessBackend])
    def test_max_gain_identical_across_backend_store_combos(
        self, store, make_backend
    ):
        game = _random_game(13, n=16, alpha=1.0)
        reference = SimulationEngine(
            game, method="greedy", activation="max-gain"
        ).run(max_rounds=20)
        backend = make_backend()
        evaluator = ShardedEvaluator(
            TopologyGame(game.metric, game.alpha),
            store=store,
            shards=4,
            placement="socket",
        )
        try:
            report = SimulationEngine(
                evaluator.game,
                method="greedy",
                activation="max-gain",
                evaluator=evaluator,
                backend=backend,
            ).run(max_rounds=20)
            assert report.profile.key() == reference.profile.key()
            assert report.moves == reference.moves
        finally:
            backend.close()
            evaluator.close()

    def test_process_backend_and_process_placement_compose(self):
        # Solver pool workers *and* shard workers at once: the two
        # process populations serve different bytes (W matrices vs
        # distance rows) and must not perturb each other.
        game = _random_game(14, n=14, alpha=1.0)
        reference = SimulationEngine(
            game, method="greedy", activation="batched"
        ).run(max_rounds=10)
        backend = ProcessBackend(workers=2)
        evaluator = ShardedEvaluator(
            TopologyGame(game.metric, game.alpha),
            shards=3,
            placement="socket",
        )
        try:
            report = SimulationEngine(
                evaluator.game,
                method="greedy",
                activation="batched",
                evaluator=evaluator,
                backend=backend,
            ).run(max_rounds=10)
            assert report.profile.key() == reference.profile.key()
            assert report.moves == reference.moves
            assert evaluator.store.shareable  # auto-migrated per shard
        finally:
            backend.close()
            evaluator.close()

    @pytest.mark.parametrize("activation", ["sequential", "batched"])
    def test_churn_identical_with_process_placement(self, activation):
        metric = EuclideanMetric.random_uniform(14, dim=2, seed=6)
        reference = ChurnSimulation(
            metric, alpha=1.0, seed=13, activation=activation
        ).run(epochs=6)
        with ChurnSimulation(
            metric,
            alpha=1.0,
            seed=13,
            activation=activation,
            shards=3,
            shard_placement="socket",
        ) as sharded:
            result = sharded.run(epochs=6)
        assert result.final_profile.key() == reference.final_profile.key()
        assert result.final_active == reference.final_active
        for got, expected in zip(result.records, reference.records):
            assert (got.moves, got.joins, got.leaves) == (
                expected.moves,
                expected.joins,
                expected.leaves,
            )

    def test_batched_scheduler_identical_with_process_placement(self):
        game = _random_game(15, n=10, alpha=0.8)
        reference = BestResponseDynamics(
            game, scheduler=BatchedScheduler()
        ).run(max_rounds=40)
        with BestResponseDynamics(
            TopologyGame(game.metric, game.alpha),
            scheduler=BatchedScheduler(),
            shards=2,
            shard_placement="socket",
        ) as dynamics:
            result = dynamics.run(max_rounds=40)
        assert result.profile.key() == reference.profile.key()
        assert result.num_moves == reference.num_moves


class TestDriverValidation:
    def test_placement_requires_shards_everywhere(self):
        game = _random_game(16, n=6)
        metric = EuclideanMetric.random_uniform(6, dim=2, seed=0)
        with pytest.raises(ValueError, match="requires shards"):
            BestResponseDynamics(game, shard_placement="socket")
        with pytest.raises(ValueError, match="requires shards"):
            SimulationEngine(game, shard_placement="local")
        with pytest.raises(ValueError, match="requires shards"):
            ChurnSimulation(metric, alpha=1.0, shard_placement="socket")
        with pytest.raises(ValueError, match="requires shards"):
            game.make_evaluator(placement="socket")

    def test_unknown_placement_rejected(self):
        game = _random_game(16, n=6)
        with pytest.raises(ValueError, match="unknown shard placement"):
            BestResponseDynamics(game, shards=2, shard_placement="cloud")
        with pytest.raises(ValueError, match="unknown shard placement"):
            check_shard_options(2, "cloud", None)

    def test_make_evaluator_builds_process_placement(self):
        game = _random_game(17, n=8)
        with game.make_evaluator(
            shards=2, placement="socket"
        ) as evaluator:
            assert isinstance(evaluator, ShardedEvaluator)
            assert evaluator.placement == "socket"
            assert evaluator.worker_pool is not None

    def test_build_sharded_evaluator_defaults(self):
        game = _random_game(17, n=8)
        evaluator = build_sharded_evaluator(game, shards=3)
        assert evaluator.placement == "local"
        assert evaluator.num_shards == 3
        evaluator.close()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def shard_server(tmp_path):
    """An in-process shard server on a Unix socket (one thread each)."""
    from repro.shard_server import ShardServer

    server = ShardServer(f"unix:{tmp_path / 'shard.sock'}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.stop()
    thread.join(timeout=10)


class TestSocketPlacement:
    """Socket placement: same protocol, same bytes, over a real socket."""

    def test_pool_rows_and_sums_match_a_shard_server(self, shard_server):
        game = _random_game(20, n=13)
        profile = game.random_profile(0.35, seed=8)
        with ShardWorkerPool(
            ShardPlan.build(game.n, 3), game.distance_matrix
        ) as forked_pool, ShardWorkerPool(
            ShardPlan.build(game.n, 3),
            game.distance_matrix,
            transport_factory=SocketTransportFactory([shard_server.address]),
        ) as remote_pool:
            for pool in (forked_pool, remote_pool):
                pool.reset(profile)
            np.testing.assert_array_equal(
                remote_pool.rows(range(game.n)),
                forked_pool.rows(range(game.n)),
            )
            for shard in range(3):
                got = remote_pool.stretch_sums(shard)
                expected = forked_pool.stretch_sums(shard)
                np.testing.assert_array_equal(got[0], expected[0])
                assert got[1] == expected[1]

    def test_hostless_placement_forks_one_process_per_shard(self):
        fds_before = _open_fds()
        game = _random_game(19, n=9)
        evaluator = ShardedEvaluator(
            game, game.random_profile(0.3, seed=7), shards=3,
            placement="socket",
        )
        evaluator.social_cost()
        processes = [t._process for t in evaluator.worker_pool._transports]
        pids = [process.pid for process in processes]
        assert len(set(pids)) == 3 and os.getpid() not in pids
        assert [process.name for process in processes] == [
            f"repro-shard-{lo}-{hi}" for lo, hi in evaluator.plan.bounds
        ]
        evaluator.close()
        assert not any(_pid_exists(pid) for pid in pids)
        assert not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ]
        assert _open_fds() <= fds_before

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_dynamics_identical_across_every_placement(self, shards):
        game = _random_game(21, n=11, alpha=1.5)
        reference = BestResponseDynamics(game).run(max_rounds=60)
        for placement in ("local", "socket"):
            with BestResponseDynamics(
                TopologyGame(game.metric, game.alpha),
                shards=shards,
                shard_placement=placement,
            ) as dynamics:
                result = dynamics.run(max_rounds=60)
            assert result.profile.key() == reference.profile.key()
            assert result.num_moves == reference.num_moves
            assert result.stopped_reason == reference.stopped_reason

    def test_churn_identical_with_socket_placement(self):
        # Local placement at the same shard count is the reference: the
        # per-shard summation order is then identical too, so even the
        # social-cost scalars must match to the last ulp — any deviation
        # is the transport's fault.
        metric = EuclideanMetric.random_uniform(12, dim=2, seed=7)
        with ChurnSimulation(
            metric, alpha=1.0, seed=17, shards=2, shard_placement="local"
        ) as local:
            reference = local.run(epochs=5)
        with ChurnSimulation(
            metric,
            alpha=1.0,
            seed=17,
            shards=2,
            shard_placement="socket",
        ) as sharded:
            result = sharded.run(epochs=5)
        assert result.final_profile.key() == reference.final_profile.key()
        assert result.final_active == reference.final_active
        for got, expected in zip(result.records, reference.records):
            assert (got.moves, got.social_cost) == (
                expected.moves,
                expected.social_cost,
            )

    def test_coordinator_resident_bytes_zero_under_socket_placement(self):
        game = _random_game(23, n=18)
        profile = game.random_profile(0.3, seed=10)
        with ShardedEvaluator(
            game, profile, shards=3, placement="socket"
        ) as evaluator:
            evaluator.peer_costs()
            evaluator.social_cost()
            evaluator.gain_sweep("greedy")
            assert evaluator.stats.distance_resident_peak_bytes == 0
            assert evaluator.stats.distance_block_builds == 0

    def test_no_socket_files_leak(self):
        """Leaving the ``with`` block closes the coordinator's socketpair
        ends, so no socket outlives the evaluator as an open file
        descriptor, and reaps every forked shard.

        This is the context-manager twin of the ``close()`` teardown
        checks in ``test_hostless_placement_forks_one_process_per_shard``.
        """
        fds_before = _open_fds()
        game = _random_game(24, n=8)
        with ShardedEvaluator(
            game,
            game.random_profile(0.3, seed=14),
            shards=2,
            placement="socket",
        ) as evaluator:
            evaluator.social_cost()
            pids = [t._process.pid for t in evaluator.worker_pool._transports]
        assert not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ]
        assert not any(_pid_exists(pid) for pid in pids)
        assert _open_fds() <= fds_before


class TestSocketFailureHandling:
    """A dead worker is a named error, never a hang or a leak."""

    def test_killed_server_raises_named_shard_error(self):
        game = _random_game(29, n=8)
        pool = ShardWorkerPool(ShardPlan.build(game.n, 2), game.distance_matrix)
        try:
            pool.reset(game.empty_profile())
            pool.ping()
            for transport in pool._transports:  # every shard's process
                transport._process.kill()
                transport._process.join()
            with pytest.raises(ShardWorkerError, match="repro-shard-"):
                pool.rows(range(game.n))  # first request after the kill
        finally:
            pool.close()
        assert pool.closed

    def test_close_after_worker_death_reaps_everything(self):
        game = _random_game(30, n=8)
        pool = ShardWorkerPool(ShardPlan.build(game.n, 3), game.distance_matrix)
        pool.reset(game.empty_profile())
        pids = [transport._process.pid for transport in pool._transports]
        pool._transports[1]._process.kill()
        pool._transports[1]._process.join()
        with pytest.raises(ShardWorkerError, match="repro-shard-"):
            pool.ping()
        pool.close()  # survivors stopped, every child reaped
        assert pool.closed
        assert pool.alive_workers() == 0
        assert not any(_pid_exists(pid) for pid in pids)

    def test_pipe_worker_death_still_raises_named_error(self):
        # The pipelined fan-out path must preserve the failure contract
        # when one shard's child dies behind its socket.
        game = _random_game(31, n=8)
        pool = ShardWorkerPool(ShardPlan.build(game.n, 2), game.distance_matrix)
        try:
            pool.reset(game.empty_profile())
            pool._transports[1]._process.kill()
            pool._transports[1]._process.join()
            with pytest.raises(ShardWorkerError, match="shard"):
                pool.rows(range(game.n))
        finally:
            pool.close()
