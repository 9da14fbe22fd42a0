"""Batched activation rounds: batch APIs, schedulers, and memo skips.

Pins the batch layer introduced on top of the shared evaluator to the
sequential reference paths:

* :func:`~repro.graphs.shortest_paths.blocked_multi_source_distances` and
  :meth:`~repro.core.evaluator.GameEvaluator.batch_service_costs` must be
  *bitwise* identical to their per-graph / per-peer counterparts — the
  block-diagonal stacking may change call counts, never values;
* :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep` must agree with
  a fresh per-peer solve for every peer, for any worker count, across
  sequences of single-peer moves (exercising the dirty-row effect-bound
  memoization);
* singleton-batch schedulers must reproduce the seed engine's
  trajectories byte for byte, and multi-peer batches must follow the
  documented stale-profile commit semantics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import resolve_backend
from repro.core.best_response import (
    _greedy_with_local_search,
    best_response as naive_best_response,
    compute_service_costs,
    greedy_local_search_reference,
)
from repro.core.dynamics import (
    BatchedScheduler,
    BestResponseDynamics,
    FixedOrderScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    scheduler_batches,
)
from repro.core.equilibrium import verify_nash
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.graphs.shortest_paths import (
    blocked_multi_source_distances,
    multi_source_distances,
)
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.ring import RingMetric
from repro.simulation.engine import SimulationEngine


def _random_game(seed: int, n: int, alpha: float = 1.0) -> TopologyGame:
    rng = np.random.default_rng(seed)
    return TopologyGame(
        EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2))), alpha
    )


def _overlay_jobs(game: TopologyGame, profile: StrategyProfile):
    from repro.core.topology import overlay_from_matrix

    overlay = overlay_from_matrix(game.distance_matrix, profile)
    return [
        (
            overlay.copy_without_out_edges(peer),
            [j for j in range(game.n) if j != peer],
        )
        for peer in range(game.n)
    ]


class TestBlockedDijkstra:
    @pytest.mark.parametrize("backend", ["pure", "scipy", "auto"])
    @pytest.mark.parametrize("n", [5, 9])
    def test_matches_per_graph_calls(self, backend, n):
        game = _random_game(3, n)
        profile = game.random_profile(0.3, seed=1)
        jobs = _overlay_jobs(game, profile)
        blocked = blocked_multi_source_distances(jobs, backend=backend)
        for (graph, sources), got in zip(jobs, blocked):
            want = multi_source_distances(graph, sources, backend=backend)
            np.testing.assert_array_equal(got, want)

    def test_chunking_budget_does_not_change_values(self):
        game = _random_game(5, 8)
        profile = game.random_profile(0.4, seed=2)
        jobs = _overlay_jobs(game, profile)
        reference = blocked_multi_source_distances(jobs, backend="scipy")
        for budget in (1, 100, 10_000):
            again = blocked_multi_source_distances(
                jobs, backend="scipy", cell_budget=budget
            )
            for got, want in zip(again, reference):
                np.testing.assert_array_equal(got, want)

    def test_empty_and_singleton_jobs(self):
        game = _random_game(7, 6)
        profile = game.random_profile(0.3, seed=3)
        jobs = _overlay_jobs(game, profile)
        assert blocked_multi_source_distances([], backend="scipy") == []
        graph, _sources = jobs[0]
        empty = blocked_multi_source_distances(
            [(graph, [])], backend="scipy"
        )
        assert empty[0].shape == (0, game.n)
        solo = blocked_multi_source_distances([jobs[1]], backend="scipy")
        np.testing.assert_array_equal(
            solo[0],
            multi_source_distances(jobs[1][0], jobs[1][1], backend="scipy"),
        )

    def test_out_of_range_source_rejected(self):
        game = _random_game(1, 4)
        jobs = _overlay_jobs(game, game.empty_profile())
        graph, _ = jobs[0]
        with pytest.raises(IndexError):
            blocked_multi_source_distances([(graph, [99])])

    def test_mixed_size_jobs_resolve_backend_per_job(self):
        """auto must give each job the backend its solo call would use."""
        small = _random_game(2, 6)
        large = _random_game(2, 64)
        jobs = (
            _overlay_jobs(large, large.random_profile(0.1, seed=1))[:2]
            + _overlay_jobs(small, small.random_profile(0.4, seed=1))[:2]
        )
        blocked = blocked_multi_source_distances(jobs, backend="auto")
        for (graph, sources), got in zip(jobs, blocked):
            want = multi_source_distances(graph, sources, backend="auto")
            np.testing.assert_array_equal(got, want)


class TestBatchServiceCosts:
    def test_full_builds_match_per_peer(self):
        game = _random_game(11, 9)
        profile = game.random_profile(0.35, seed=4)
        batch_ev = GameEvaluator(game, profile)
        solo_ev = GameEvaluator(game, profile)
        batch = batch_ev.batch_service_costs()
        for peer in range(game.n):
            want = solo_ev.service_costs(peer)
            assert batch[peer].candidates == want.candidates
            np.testing.assert_array_equal(batch[peer].weights, want.weights)
        assert batch_ev.stats.service_full_builds == game.n
        assert batch_ev.stats.batch_calls == 1

    def test_repairs_match_per_peer_after_moves(self):
        game = _random_game(13, 8)
        profile = game.random_profile(0.3, seed=5)
        batch_ev = GameEvaluator(game, profile)
        solo_ev = GameEvaluator(game, profile)
        batch_ev.batch_service_costs()
        for peer in range(game.n):
            solo_ev.service_costs(peer)
        moved = profile.with_strategy(0, frozenset({1, 2}))
        batch_ev.set_profile(moved)
        solo_ev.set_profile(moved)
        batch = batch_ev.batch_service_costs()
        for peer in range(game.n):
            want = solo_ev.service_costs(peer)
            np.testing.assert_array_equal(batch[peer].weights, want.weights)

    def test_subset_and_duplicate_peers(self):
        game = _random_game(17, 7)
        profile = game.random_profile(0.3, seed=6)
        evaluator = GameEvaluator(game, profile)
        out = evaluator.batch_service_costs([3, 1, 3])
        assert [s.peer for s in out] == [3, 1, 3]
        assert out[0] is out[2]

    def test_out_of_range_peer_rejected(self):
        game = _random_game(19, 5)
        evaluator = GameEvaluator(game, game.empty_profile())
        with pytest.raises(IndexError):
            evaluator.batch_service_costs([7])


class TestGainSweep:
    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_matches_fresh_per_peer_solves(self, method):
        game = _random_game(23, 8)
        profile = game.random_profile(0.35, seed=7)
        evaluator = GameEvaluator(game, profile)
        sweep = evaluator.gain_sweep(method)
        for peer in range(game.n):
            fresh = naive_best_response(
                game.distance_matrix, profile, peer, game.alpha, method
            )
            assert sweep[peer].strategy == fresh.strategy
            assert sweep[peer].improved == fresh.improved
            assert sweep[peer].cost == pytest.approx(fresh.cost)
            assert sweep[peer].current_cost == pytest.approx(
                fresh.current_cost
            )

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_memoized_sweeps_across_moves(self, method):
        """Sweeps after single-peer moves still agree with fresh solves."""
        game = _random_game(29, 8)
        profile = game.random_profile(0.3, seed=8)
        evaluator = GameEvaluator(game, profile)
        rng = np.random.default_rng(9)
        for _ in range(6):
            sweep = evaluator.set_profile(profile).gain_sweep(method)
            for peer in range(game.n):
                fresh = naive_best_response(
                    game.distance_matrix, profile, peer, game.alpha, method
                )
                assert sweep[peer].strategy == fresh.strategy
                assert sweep[peer].improved == fresh.improved
            mover = int(rng.integers(0, game.n))
            if sweep[mover].improved:
                profile = profile.with_strategy(mover, sweep[mover].strategy)
            else:
                other = (mover + 1) % game.n
                profile = profile.with_strategy(mover, frozenset({other}))

    def test_workers_do_not_change_results(self):
        game = _random_game(31, 10)
        profile = game.random_profile(0.3, seed=10)
        serial = GameEvaluator(game, profile).gain_sweep("greedy")
        for workers in (2, 3):
            backend = resolve_backend("process", workers)
            evaluator = GameEvaluator(game, profile)
            try:
                pooled = evaluator.gain_sweep("greedy", backend=backend)
            finally:
                evaluator.close()
                backend.close()
            assert [r.strategy for r in serial] == [r.strategy for r in pooled]
            assert [r.cost for r in serial] == [r.cost for r in pooled]

    def test_peer_subset_sweep(self):
        game = _random_game(37, 7)
        profile = game.random_profile(0.4, seed=11)
        evaluator = GameEvaluator(game, profile)
        subset = [4, 0, 2]
        sweep = evaluator.gain_sweep("greedy", peers=subset)
        assert [r.peer for r in sweep] == subset

    def test_memo_hits_fire_and_stay_exact(self):
        """The effect-bound skip must fire on a real workload."""
        game = _random_game(41, 16)
        engine = SimulationEngine(game, method="greedy", activation="max-gain")
        engine.run(max_rounds=60)
        stats = game.evaluator.stats
        assert stats.gain_sweeps > 0
        assert stats.response_memo_hits > 0


class TestMemoizedResponseProperty:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 8),
        alpha=st.floats(0.1, 8.0, allow_nan=False, allow_infinity=False),
        method=st.sampled_from(["exact", "greedy"]),
        moves=st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_memo_skip_never_differs_from_fresh_solve(
        self, seed, n, alpha, method, moves
    ):
        """After arbitrary single-peer moves, the (possibly memoized)
        evaluator response equals a from-scratch solve for every peer."""
        game = _random_game(seed, n, alpha)
        profile = game.random_profile(0.4, seed=seed)
        evaluator = GameEvaluator(game, profile)
        rng = np.random.default_rng(seed)
        for token in moves:
            # Prime memos for every peer, then apply one random move.
            for peer in range(n):
                evaluator.set_profile(profile).best_response(peer, method)
            mover = token % n
            targets = [j for j in range(n) if j != mover]
            rng.shuffle(targets)
            size = int(rng.integers(0, min(3, len(targets)) + 1))
            profile = profile.with_strategy(
                mover, frozenset(targets[:size])
            )
            for peer in range(n):
                got = evaluator.set_profile(profile).best_response(
                    peer, method
                )
                fresh = naive_best_response(
                    game.distance_matrix, profile, peer, game.alpha, method
                )
                assert got.strategy == fresh.strategy
                assert got.improved == fresh.improved
                assert got.cost == pytest.approx(fresh.cost, nan_ok=True) or (
                    math.isinf(got.cost) and math.isinf(fresh.cost)
                )


class TestVectorizedGreedy:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 12),
        alpha=st.floats(0.05, 10.0, allow_nan=False, allow_infinity=False),
        density=st.floats(0.0, 0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_solution(self, seed, n, alpha, density):
        """The vectorized greedy finds the same strategy set (and cost)
        as the loop-based reference on random instances."""
        game = _random_game(seed, n, alpha)
        profile = game.random_profile(density, seed=seed)
        peer = seed % n
        service = compute_service_costs(game.distance_matrix, profile, peer)
        if service.num_candidates == 0:
            return
        fast_rows, fast_cost = _greedy_with_local_search(service, alpha)
        ref_rows, ref_cost = greedy_local_search_reference(service, alpha)
        assert set(fast_rows) == set(ref_rows)
        if math.isinf(ref_cost):
            assert math.isinf(fast_cost)
        else:
            assert fast_cost == pytest.approx(ref_cost)

    def test_integer_metric_is_bitwise_identical(self):
        # Dyadic distances sum exactly in any order, so even tie-breaking
        # must agree with the reference loop.
        game = TopologyGame(RingMetric(list(range(8))), alpha=1.0)
        profile = game.random_profile(0.3, seed=2)
        for peer in range(game.n):
            service = compute_service_costs(
                game.distance_matrix, profile, peer
            )
            assert _greedy_with_local_search(
                service, 1.0
            ) == greedy_local_search_reference(service, 1.0)


class TestSchedulerProtocol:
    def test_default_batches_are_singletons(self):
        assert list(RoundRobinScheduler().batches(0, 3)) == [(0,), (1,), (2,)]
        assert list(FixedOrderScheduler([2, 0]).batches(0, 3)) == [(2,), (0,)]

    def test_scheduler_batches_wraps_legacy_order_protocol(self):
        class LegacyOnly:
            def order(self, round_index, n):
                return [1, 0]

        assert list(scheduler_batches(LegacyOnly(), 0, 2)) == [(1,), (0,)]

    def test_batched_scheduler_chunks(self):
        batches = list(BatchedScheduler(batch_size=3).batches(0, 8))
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7]]
        whole = list(BatchedScheduler().batches(0, 5))
        assert whole == [[0, 1, 2, 3, 4]]

    def test_batched_scheduler_custom_order_and_validation(self):
        scheduler = BatchedScheduler(batch_size=2, order=[3, 1, 0, 2])
        assert list(scheduler.batches(0, 4)) == [[3, 1], [0, 2]]
        with pytest.raises(IndexError):
            list(BatchedScheduler(order=[9]).batches(0, 3))
        with pytest.raises(ValueError):
            BatchedScheduler(batch_size=0)

    def test_base_scheduler_requires_order(self):
        with pytest.raises(NotImplementedError):
            Scheduler().order(0, 3)


class TestBatchedDynamics:
    def test_singleton_batches_reproduce_round_robin_exactly(self):
        game_a = _random_game(43, 9, alpha=1.5)
        game_b = _random_game(43, 9, alpha=1.5)
        a = BestResponseDynamics(
            game_a, scheduler=BatchedScheduler(batch_size=1)
        ).run(max_rounds=100)
        b = BestResponseDynamics(game_b).run(max_rounds=100)
        assert a.profile.key() == b.profile.key()
        assert a.steps == b.steps
        assert a.num_moves == b.num_moves
        assert a.stopped_reason == b.stopped_reason
        assert a.moves == b.moves

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_full_batch_rounds_converge_to_nash(self, batch_size):
        game = _random_game(47, 9, alpha=1.5)
        result = BestResponseDynamics(
            game, scheduler=BatchedScheduler(batch_size=batch_size)
        ).run(max_rounds=100)
        assert result.converged
        assert verify_nash(game, result.profile).is_nash

    def test_batch_commits_never_regress(self):
        """Conflict re-checks: every committed move strictly improves."""
        game = _random_game(53, 10, alpha=1.0)
        result = BestResponseDynamics(
            game, scheduler=BatchedScheduler(), record_moves=True
        ).run(max_rounds=100)
        assert result.num_moves > 0
        for move in result.moves:
            assert move.new_cost < move.old_cost

    def test_batched_incremental_matches_reference_path(self):
        game_a = _random_game(59, 8, alpha=1.0)
        game_b = _random_game(59, 8, alpha=1.0)
        a = BestResponseDynamics(
            game_a, scheduler=BatchedScheduler()
        ).run(max_rounds=60)
        b = BestResponseDynamics(
            game_b, scheduler=BatchedScheduler(), incremental=False
        ).run(max_rounds=60)
        assert a.profile.key() == b.profile.key()
        assert a.num_moves == b.num_moves
        assert a.stopped_reason == b.stopped_reason

    def test_converged_batched_run_never_reports_cycle(self):
        # Batch-boundary detection only records *moved* batches, so a
        # run that quiesces must stop as "converged", not "cycle".
        for seed in (47, 53, 59):
            game = _random_game(seed, 9, alpha=1.5)
            result = BestResponseDynamics(
                game, scheduler=BatchedScheduler(batch_size=3)
            ).run(max_rounds=100, detect_cycles=True)
            assert result.stopped_reason == "converged"

    def test_batched_witness_detects_cycle_or_exhausts_rounds(self):
        from repro.constructions.no_nash import build_no_nash_instance

        game = build_no_nash_instance()
        result = BestResponseDynamics(
            game, scheduler=BatchedScheduler()
        ).run(max_rounds=200)
        assert result.stopped_reason in ("cycle", "max_rounds")
        if result.cycle is not None:
            assert result.cycle.period > 0
            assert result.cycle.num_distinct_profiles >= 2

    def test_max_steps_truncates_batches(self):
        game = _random_game(61, 8, alpha=1.0)
        result = BestResponseDynamics(
            game, scheduler=BatchedScheduler()
        ).run(max_steps=5, max_rounds=10)
        assert result.steps <= 5
        assert result.stopped_reason in ("max_steps", "converged")

    def test_truncated_batch_never_claims_convergence(self):
        # A round whose final batch was cut short by max_steps has not
        # activated every peer, so it must stop as "max_steps" even if
        # the truncated prefix happened to make no move.
        game = _random_game(61, 8, alpha=1.0)
        full = BestResponseDynamics(
            game, scheduler=BatchedScheduler()
        ).run(max_rounds=50)
        assert full.converged
        for budget in range(1, full.steps):
            partial = BestResponseDynamics(
                _random_game(61, 8, alpha=1.0),
                scheduler=BatchedScheduler(),
            ).run(max_rounds=50, max_steps=budget)
            if partial.steps < full.steps:
                assert not partial.converged
                assert partial.stopped_reason == "max_steps"

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda: RoundRobinScheduler(),
            lambda: FixedOrderScheduler([4, 2, 0, 1, 3, 5, 6, 7]),
            lambda: RandomScheduler(123),
        ],
        ids=["round-robin", "fixed-order", "seeded-random"],
    )
    def test_singleton_schedulers_identical_to_reference(
        self, make_scheduler
    ):
        """Seed-behavior identity: the refactored engine's singleton
        paths match the from-scratch reference byte for byte."""
        game_a = _random_game(67, 8, alpha=1.5)
        game_b = _random_game(67, 8, alpha=1.5)
        a = BestResponseDynamics(game_a, scheduler=make_scheduler()).run(
            max_rounds=60
        )
        b = BestResponseDynamics(
            game_b, scheduler=make_scheduler(), incremental=False
        ).run(max_rounds=60)
        assert a.profile.key() == b.profile.key()
        assert a.steps == b.steps
        assert a.num_moves == b.num_moves
        assert a.stopped_reason == b.stopped_reason
        assert a.moves == b.moves


class TestEngineBatchPaths:
    def test_batched_activation_policy(self):
        game = _random_game(71, 9, alpha=1.5)
        report = SimulationEngine(game, activation="batched").run(
            max_rounds=100
        )
        assert report.converged
        assert verify_nash(game, report.profile).is_nash

    def test_max_gain_sweep_matches_reference(self):
        game_a = _random_game(73, 12, alpha=1.0)
        game_b = _random_game(73, 12, alpha=1.0)
        a = SimulationEngine(
            game_a, method="greedy", activation="max-gain"
        ).run(max_rounds=80)
        b = SimulationEngine(
            game_b, method="greedy", activation="max-gain", incremental=False
        ).run(max_rounds=80)
        assert a.profile.key() == b.profile.key()
        assert a.moves == b.moves
        assert a.stopped_reason == b.stopped_reason
        assert a.final_cost == pytest.approx(b.final_cost)

    def test_max_gain_workers_identical(self):
        game_a = _random_game(79, 12, alpha=1.0)
        game_b = _random_game(79, 12, alpha=1.0)
        a = SimulationEngine(
            game_a, method="greedy", activation="max-gain"
        ).run(max_rounds=40)
        with SimulationEngine(
            game_b,
            method="greedy",
            activation="max-gain",
            workers=3,
            backend="process",
        ) as engine:
            b = engine.run(max_rounds=40)
        assert a.profile.key() == b.profile.key()
        assert a.moves == b.moves

    def test_unknown_activation_mentions_batched(self):
        game = _random_game(83, 4)
        with pytest.raises(ValueError, match="batched"):
            SimulationEngine(game, activation="bogus").run()


class TestGameBatchQueries:
    def test_best_responses_matches_per_peer(self):
        game = _random_game(89, 8, alpha=1.2)
        profile = game.random_profile(0.3, seed=12)
        sweep = game.best_responses(profile, method="greedy")
        for peer in range(game.n):
            solo = game.best_response(profile, peer, method="greedy")
            assert sweep[peer].strategy == solo.strategy
            assert sweep[peer].improved == solo.improved
