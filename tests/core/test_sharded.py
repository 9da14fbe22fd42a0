"""Correctness of the sharded evaluator layer.

The :class:`~repro.core.sharded.ShardedEvaluator` must be observationally
equivalent to the unsharded :class:`~repro.core.evaluator.GameEvaluator`:
identical service-cost matrices, identical gain-sweep responses, and
bit-identical dynamics trajectories for every shard count, execution
backend, and store kind — while keeping strictly fewer overlay-distance
bytes resident.  These tests pin all of that, including the churn path
(per-epoch sharded evaluators over shrinking/growing subgames) and the
stats-counter contract the e15 benchmark asserts against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.dynamics import BatchedScheduler, BestResponseDynamics
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.service_store import ArrayStore, SpillStore
from repro.core.sharded import (
    ShardPlan,
    ShardedDistances,
    ShardedEvaluator,
    ShardedStore,
)
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.churn import ChurnSimulation
from repro.simulation.engine import SimulationEngine

from tests.conftest import games_with_profiles

SHARD_COUNTS = (1, 2, 4)


def _random_game(seed: int, n: int, alpha: float = 1.0) -> TopologyGame:
    rng = np.random.default_rng(seed)
    metric = EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2)))
    return TopologyGame(metric, alpha)


def _totals_match(a: float, b: float) -> bool:
    """Equality up to float-summation order (inf-aware)."""
    if a == b:
        return True
    return (
        math.isfinite(a)
        and math.isfinite(b)
        and abs(a - b) <= 1e-12 * max(1.0, abs(b))
    )


def _response_tuples(responses):
    return [
        (r.peer, r.strategy, r.cost, r.current_cost, r.improved)
        for r in responses
    ]


class TestShardPlan:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 32])
    def test_partition_covers_every_peer_once(self, n, k):
        plan = ShardPlan.build(n, k)
        rows = [r for s in range(plan.k) for r in plan.shard_rows(s)]
        assert rows == list(range(n))
        for peer in range(n):
            lo, hi = plan.bounds[plan.owner(peer)]
            assert lo <= peer < hi

    def test_blocks_balanced_within_one_row(self):
        plan = ShardPlan.build(11, 4)
        sizes = [hi - lo for lo, hi in plan.bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_shards_clamped_to_population(self):
        assert ShardPlan.build(3, 8).k == 3
        assert ShardPlan.build(0, 4).k == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build(5, 0)
        with pytest.raises(IndexError):
            ShardPlan.build(5, 2).owner(5)


class TestShardedStore:
    def test_routes_each_key_to_its_owning_substore(self):
        plan = ShardPlan.build(6, 3)
        store = ShardedStore(plan, [ArrayStore() for _ in range(3)])
        for peer in range(6):
            store.put(peer, np.full((5, 6), float(peer)))
        for peer in range(6):
            owner = plan.owner(peer)
            for shard, sub in enumerate(store.stores):
                assert (peer in sub.keys()) == (shard == owner)
            np.testing.assert_array_equal(
                store.get(peer), np.full((5, 6), float(peer))
            )
        assert sorted(store.keys()) == list(range(6))
        store.close()

    def test_substore_count_must_match_plan(self):
        plan = ShardPlan.build(4, 2)
        with pytest.raises(ValueError):
            ShardedStore(plan, [ArrayStore()])

    def test_handles_come_from_the_owning_shard(self):
        plan = ShardPlan.build(4, 2)
        subs = [SpillStore(budget_bytes=1 << 20) for _ in range(2)]
        store = ShardedStore(plan, subs)
        for peer in range(4):
            store.put(peer, np.full((3, 4), float(peer)))
        store.flush()
        for peer in range(4):
            handle = store.handle(peer)
            assert handle is not None
            # Spill handles carry the owning shard's file path.
            assert handle[1] == subs[plan.owner(peer)].path
        store.close()

    def test_chunk_budget_is_the_tightest_substore_budget(self):
        plan = ShardPlan.build(4, 2)
        store = ShardedStore(
            plan,
            [SpillStore(budget_bytes=1 << 20), SpillStore(budget_bytes=1 << 16)],
        )
        assert store.chunk_budget_bytes == 1 << 16
        store.close()
        memory = ShardedStore(plan, [ArrayStore(), ArrayStore()])
        assert memory.chunk_budget_bytes is None
        memory.close()

    def test_bare_store_instance_rejected_by_evaluator(self):
        game = _random_game(0, n=6)
        with pytest.raises(TypeError):
            ShardedEvaluator(game, store=ArrayStore(), shards=2)

    def test_store_factory_builds_one_substore_per_shard(self):
        game = _random_game(0, n=6)
        evaluator = ShardedEvaluator(
            game,
            game.random_profile(0.4, seed=1),
            store=lambda: SpillStore(budget_bytes=1 << 20),
            shards=3,
        )
        assert all(
            isinstance(sub, SpillStore) for sub in evaluator.store.stores
        )
        assert len(evaluator.store.stores) == 3
        evaluator.close()

    def test_migrate_to_shared_preserves_bytes(self):
        plan = ShardPlan.build(4, 2)
        store = ShardedStore(plan, [ArrayStore(), ArrayStore()])
        expected = {
            peer: np.arange(12, dtype=float).reshape(3, 4) + peer
            for peer in range(4)
        }
        for peer, weights in expected.items():
            store.put(peer, weights.copy())
        assert not store.shareable
        migrated = store.migrate_to_shared()
        assert sorted(migrated) == list(range(4))
        assert store.shareable
        for peer, weights in expected.items():
            np.testing.assert_array_equal(store.get(peer), weights)
            assert store.handle(peer) is not None
        store.close()


class TestCostIdentity:
    @given(games_with_profiles(min_n=2, max_n=8))
    @settings(max_examples=20, deadline=None)
    def test_costs_and_distances_match_unsharded(self, game_profile):
        game, profile = game_profile
        reference = GameEvaluator(game, profile)
        expected_dist = reference.overlay_distances()
        expected_costs = reference.peer_costs()
        expected_social = reference.social_cost()
        for shards in SHARD_COUNTS:
            evaluator = ShardedEvaluator(game, profile, shards=shards)
            np.testing.assert_array_equal(
                evaluator.overlay_distances(), expected_dist
            )
            np.testing.assert_array_equal(
                evaluator.peer_costs(), expected_costs
            )
            got = evaluator.social_cost()
            assert got.link_cost == expected_social.link_cost
            assert _totals_match(
                got.stretch_cost, expected_social.stretch_cost
            )
            evaluator.close()

    @given(games_with_profiles(min_n=2, max_n=8))
    @settings(max_examples=20, deadline=None)
    def test_service_costs_bitwise_identical(self, game_profile):
        game, profile = game_profile
        reference = GameEvaluator(game, profile)
        for shards in SHARD_COUNTS:
            evaluator = ShardedEvaluator(game, profile, shards=shards)
            for peer in range(game.n):
                expected = reference.service_costs(peer)
                got = evaluator.service_costs(peer)
                assert got.candidates == expected.candidates
                np.testing.assert_array_equal(got.weights, expected.weights)
            evaluator.close()

    def test_distance_rows_match_unsharded_rows(self):
        game = _random_game(3, n=13)
        profile = game.random_profile(0.3, seed=5)
        reference = GameEvaluator(game, profile)
        evaluator = ShardedEvaluator(game, profile, shards=4)
        wanted = [0, 4, 6, 12, 3]
        np.testing.assert_array_equal(
            evaluator.distance_rows(wanted),
            reference.overlay_distances()[wanted],
        )
        evaluator.close()

    def test_stretches_facade_matches(self):
        game = _random_game(4, n=9)
        profile = game.random_profile(0.5, seed=2)
        reference = GameEvaluator(game, profile)
        evaluator = ShardedEvaluator(game, profile, shards=3)
        np.testing.assert_array_equal(
            evaluator.stretches(), reference.stretches()
        )
        evaluator.close()


class TestGainSweepIdentity:
    @given(games_with_profiles(min_n=2, max_n=7))
    @settings(max_examples=15, deadline=None)
    def test_gain_sweep_matches_unsharded(self, game_profile):
        game, profile = game_profile
        reference = GameEvaluator(game, profile)
        for method in ("exact", "greedy"):
            expected = _response_tuples(reference.gain_sweep(method))
            for shards in SHARD_COUNTS:
                evaluator = ShardedEvaluator(game, profile, shards=shards)
                got = _response_tuples(evaluator.gain_sweep(method))
                assert got == expected
                evaluator.close()

    @given(games_with_profiles(min_n=3, max_n=7))
    @settings(max_examples=15, deadline=None)
    def test_gain_sweep_matches_after_single_peer_rebinds(self, game_profile):
        """Incremental invalidation: join/leave-shaped strategy changes."""
        game, profile = game_profile
        reference = GameEvaluator(game, profile)
        evaluators = [
            ShardedEvaluator(game, profile, shards=shards)
            for shards in SHARD_COUNTS
        ]
        # A peer "leaves" (drops all links), then "joins" back with one
        # link — the strategy shapes churn produces — with sweeps after
        # every rebind exercising the repaired caches.
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
            for evaluator in evaluators:
                got = _response_tuples(
                    evaluator.set_profile(step).gain_sweep("exact")
                )
                assert got == expected
        for evaluator in evaluators:
            evaluator.close()


class TestTrajectoryIdentity:
    def test_dynamics_identical_across_shard_counts(self):
        game = _random_game(7, n=12, alpha=2.0)
        reference = BestResponseDynamics(game).run(max_rounds=80)
        for shards in SHARD_COUNTS:
            result = BestResponseDynamics(
                TopologyGame(game.metric, game.alpha), shards=shards
            ).run(max_rounds=80)
            assert result.profile.key() == reference.profile.key()
            assert result.num_moves == reference.num_moves
            assert result.stopped_reason == reference.stopped_reason

    @pytest.mark.parametrize("store", ["memory", "spill"])
    @pytest.mark.parametrize("make_backend", [SerialBackend, ProcessBackend])
    def test_max_gain_identical_across_backend_store_combos(
        self, store, make_backend
    ):
        game = _random_game(8, n=16, alpha=1.0)
        reference = SimulationEngine(
            game, method="greedy", activation="max-gain"
        ).run(max_rounds=25)
        backend = make_backend()
        evaluator = ShardedEvaluator(
            TopologyGame(game.metric, game.alpha),
            store=store,
            shards=4,
        )
        try:
            report = SimulationEngine(
                evaluator.game,
                method="greedy",
                activation="max-gain",
                evaluator=evaluator,
                backend=backend,
            ).run(max_rounds=25)
            assert report.profile.key() == reference.profile.key()
            assert report.moves == reference.moves
        finally:
            backend.close()
            evaluator.close()

    def test_process_backend_solves_through_sharded_store(self):
        game = _random_game(9, n=14, alpha=1.0)
        reference = SimulationEngine(
            game, method="greedy", activation="batched"
        ).run(max_rounds=12)
        backend = ProcessBackend(workers=2)
        evaluator = ShardedEvaluator(
            TopologyGame(game.metric, game.alpha), shards=3
        )
        try:
            report = SimulationEngine(
                evaluator.game,
                method="greedy",
                activation="batched",
                evaluator=evaluator,
                backend=backend,
            ).run(max_rounds=12)
            assert report.profile.key() == reference.profile.key()
            assert report.moves == reference.moves
            # The auto-migration must have made every shard shareable.
            assert evaluator.store.shareable
        finally:
            backend.close()
            evaluator.close()

    def test_batched_scheduler_identical_with_shards(self):
        game = _random_game(10, n=10, alpha=0.8)
        reference = BestResponseDynamics(
            game, scheduler=BatchedScheduler()
        ).run(max_rounds=40)
        result = BestResponseDynamics(
            TopologyGame(game.metric, game.alpha),
            scheduler=BatchedScheduler(),
            shards=2,
        ).run(max_rounds=40)
        assert result.profile.key() == reference.profile.key()
        assert result.num_moves == reference.num_moves

    def test_shards_and_evaluator_are_mutually_exclusive(self):
        game = _random_game(0, n=6)
        with pytest.raises(ValueError):
            BestResponseDynamics(
                game, evaluator=game.make_evaluator(), shards=2
            )
        with pytest.raises(ValueError):
            SimulationEngine(
                game, evaluator=game.make_evaluator(), shards=2
            )
        with pytest.raises(ValueError):
            BestResponseDynamics(game, shards=0)

    def test_shards_with_non_incremental_rejected(self):
        """incremental=False has no evaluator to shard — fail fast."""
        game = _random_game(0, n=6)
        metric = EuclideanMetric.random_uniform(6, dim=2, seed=0)
        with pytest.raises(ValueError):
            BestResponseDynamics(game, incremental=False, shards=2)
        with pytest.raises(ValueError):
            SimulationEngine(game, incremental=False, shards=2)
        with pytest.raises(ValueError):
            ChurnSimulation(metric, alpha=1.0, incremental=False, shards=2)


class TestChurnIdentity:
    @pytest.mark.parametrize("activation", ["sequential", "batched"])
    def test_churn_identical_with_shards(self, activation):
        metric = EuclideanMetric.random_uniform(18, dim=2, seed=6)
        reference = ChurnSimulation(
            metric, alpha=1.0, seed=13, activation=activation
        ).run(epochs=10)
        sharded = ChurnSimulation(
            metric, alpha=1.0, seed=13, activation=activation, shards=4
        ).run(epochs=10)
        assert sharded.final_profile.key() == reference.final_profile.key()
        assert sharded.final_active == reference.final_active
        for got, expected in zip(sharded.records, reference.records):
            assert (got.moves, got.joins, got.leaves, got.num_active) == (
                expected.moves,
                expected.joins,
                expected.leaves,
                expected.num_active,
            )
            assert _totals_match(got.social_cost, expected.social_cost)

    def test_churn_rejects_bad_shards(self):
        metric = EuclideanMetric.random_uniform(6, dim=2, seed=0)
        with pytest.raises(ValueError):
            ChurnSimulation(metric, alpha=1.0, shards=0)


class TestMemoryBound:
    def test_resident_distance_bytes_bounded_by_shard_fraction(self):
        n, shards = 96, 4
        game = _random_game(11, n=n)
        profile = game.random_profile(0.08, seed=3)
        reference = GameEvaluator(game, profile)
        reference.peer_costs()
        full_bytes = reference.stats.distance_resident_peak_bytes
        assert full_bytes == n * n * 8

        evaluator = ShardedEvaluator(
            game, profile, shards=shards, max_resident_shards=1
        )
        evaluator.peer_costs()
        evaluator.social_cost()
        # Single-peer rebinds keep the bound through repair traffic too.
        current = profile
        for peer in (0, n // 2, n - 1):
            current = current.with_strategy(peer, frozenset({(peer + 1) % n}))
            evaluator.set_profile(current)
            evaluator.social_cost()
        peak = evaluator.stats.distance_resident_peak_bytes
        assert peak <= full_bytes * (1 / shards + 0.15)
        assert evaluator.stats.distance_block_builds >= shards
        assert evaluator.stats.distance_block_releases > 0
        evaluator.close()

    def test_higher_residency_budget_keeps_blocks_warm(self):
        game = _random_game(12, n=24)
        profile = game.random_profile(0.3, seed=1)
        evaluator = ShardedEvaluator(
            game, profile, shards=4, max_resident_shards=4
        )
        evaluator.social_cost()
        builds = evaluator.stats.distance_block_builds
        evaluator.social_cost()
        assert evaluator.stats.distance_block_builds == builds
        assert evaluator.stats.distance_block_releases == 0
        evaluator.close()

    def test_clean_shards_serve_repeat_cost_queries_from_sum_cache(self):
        """An unchanged profile must not rebuild released blocks."""
        game = _random_game(13, n=32)
        profile = game.random_profile(0.2, seed=2)
        reference = GameEvaluator(game, profile)
        evaluator = ShardedEvaluator(
            game, profile, shards=4, max_resident_shards=1
        )
        first_costs = evaluator.peer_costs()
        first_total = evaluator.social_cost()
        builds = evaluator.stats.distance_block_builds
        np.testing.assert_array_equal(
            evaluator.peer_costs(), first_costs
        )
        assert evaluator.social_cost() == first_total
        assert evaluator.stats.distance_block_builds == builds
        # A rebind invalidates the sum caches and results track the
        # unsharded evaluator again.
        changed = profile.with_strategy(1, frozenset({0}))
        evaluator.set_profile(changed)
        reference.set_profile(changed)
        np.testing.assert_array_equal(
            evaluator.peer_costs(), reference.peer_costs()
        )
        assert evaluator.stats.distance_block_builds > builds
        evaluator.close()


class TestFacade:
    def test_unbound_queries_raise(self):
        game = _random_game(1, n=5)
        evaluator = ShardedEvaluator(game, shards=2)
        with pytest.raises(RuntimeError):
            evaluator.social_cost()
        evaluator.close()

    def test_profile_size_mismatch_rejected(self):
        game = _random_game(1, n=5)
        evaluator = ShardedEvaluator(game, shards=2)
        with pytest.raises(ValueError):
            evaluator.set_profile(
                TopologyGame(
                    EuclideanMetric.random_uniform(4, dim=2, seed=0), 1.0
                ).empty_profile()
            )
        evaluator.close()

    def test_invalidate_then_requery(self):
        game = _random_game(2, n=8)
        profile = game.random_profile(0.4, seed=4)
        evaluator = ShardedEvaluator(game, profile, shards=2)
        before = evaluator.peer_costs().copy()
        evaluator.invalidate()
        np.testing.assert_array_equal(evaluator.peer_costs(), before)
        evaluator.close()

    def test_make_evaluator_builds_sharded(self):
        game = _random_game(2, n=8)
        evaluator = game.make_evaluator(shards=3)
        assert isinstance(evaluator, ShardedEvaluator)
        assert evaluator.num_shards == 3
        assert game.make_evaluator().__class__ is GameEvaluator
        evaluator.close()
