"""Tests for churn simulation and lookup workloads."""

import math

import numpy as np
import pytest

from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.churn import ChurnSimulation
from repro.simulation.lookups import LookupWorkload


@pytest.fixture
def universe():
    return EuclideanMetric.random_uniform(14, dim=2, seed=33)


class TestChurnSimulation:
    def test_deterministic_given_seed(self, universe):
        a = ChurnSimulation(universe, alpha=1.0, seed=5).run(epochs=8)
        b = ChurnSimulation(universe, alpha=1.0, seed=5).run(epochs=8)
        assert a.final_active == b.final_active
        assert a.final_profile == b.final_profile
        assert a.total_moves == b.total_moves

    def test_record_per_epoch(self, universe):
        result = ChurnSimulation(universe, alpha=1.0, seed=1).run(epochs=6)
        assert len(result.records) == 6
        assert [r.epoch for r in result.records] == list(range(6))

    def test_incremental_matches_reference_path(self, universe):
        """The evaluator-backed epochs reproduce the naive path exactly."""
        cached = ChurnSimulation(universe, alpha=1.0, seed=9).run(epochs=10)
        naive = ChurnSimulation(
            universe, alpha=1.0, seed=9, incremental=False
        ).run(epochs=10)
        assert cached.final_active == naive.final_active
        assert cached.final_profile == naive.final_profile
        for got, want in zip(cached.records, naive.records):
            assert (got.epoch, got.num_active, got.joins, got.leaves,
                    got.moves) == (want.epoch, want.num_active, want.joins,
                                   want.leaves, want.moves)
            if math.isinf(want.social_cost):
                assert math.isinf(got.social_cost)
            else:
                assert got.social_cost == pytest.approx(want.social_cost)

    def test_active_count_tracks_joins_and_leaves(self, universe):
        result = ChurnSimulation(
            universe, alpha=1.0, join_prob=0.3, leave_prob=0.1, seed=2
        ).run(epochs=10)
        for record in result.records:
            assert 2 <= record.num_active <= universe.n

    def test_departed_peers_hold_no_links(self, universe):
        result = ChurnSimulation(
            universe, alpha=1.0, join_prob=0.2, leave_prob=0.3, seed=3
        ).run(epochs=10)
        active = set(result.final_active)
        for peer in range(universe.n):
            strategy = result.final_profile.strategy(peer)
            if peer not in active:
                assert strategy == frozenset()
            else:
                assert strategy <= active

    def test_no_churn_reduces_to_convergence(self, universe):
        result = ChurnSimulation(
            universe,
            alpha=1.0,
            join_prob=0.0,
            leave_prob=0.0,
            initial_active=list(range(8)),
            seed=4,
        ).run(epochs=12)
        # With no churn the population is fixed and late epochs are quiet.
        late_moves = sum(r.moves for r in result.records[-3:])
        assert late_moves == 0
        assert math.isfinite(result.mean_cost)

    def test_validation(self, universe):
        with pytest.raises(ValueError, match="join_prob"):
            ChurnSimulation(universe, 1.0, join_prob=1.5)
        with pytest.raises(IndexError):
            ChurnSimulation(universe, 1.0, initial_active=[99])
        with pytest.raises(ValueError, match="universe"):
            ChurnSimulation(EuclideanMetric([[0.0, 0.0]]), 1.0)


class TestLookupWorkload:
    @pytest.fixture
    def game(self, universe):
        return TopologyGame(universe, 1.0)

    def test_pairs_never_self_lookup(self, game):
        workload = LookupWorkload(game, seed=0)
        pairs = workload.sample_pairs(500)
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_uniform_mean_stretch_matches_profile_average(self, game):
        """Empirical stretch under uniform lookups ~ average stretch."""
        profile = game.complete_profile()
        workload = LookupWorkload(game, seed=1)
        stats = workload.run(profile, num_lookups=2000)
        assert stats.mean_stretch == pytest.approx(1.0, abs=1e-9)
        assert stats.delivery_rate == 1.0

    def test_zipf_weights_popular_targets(self, game):
        workload = LookupWorkload(
            game, popularity="zipf", zipf_exponent=2.0, seed=2
        )
        pairs = workload.sample_pairs(4000)
        counts = np.bincount(pairs[:, 1], minlength=game.n)
        # Peer 0 is the most popular target by construction.
        assert counts[0] == counts.max()

    def test_undelivered_lookups_counted(self, game):
        # A profile with an unreachable peer drops some lookups.
        n = game.n
        strategies = [{(i + 1) % n} for i in range(n)]
        strategies[0] = set()  # peer 0 links nowhere
        profile = StrategyProfile(strategies)
        workload = LookupWorkload(game, seed=3)
        stats = workload.run(profile, num_lookups=500)
        assert stats.delivered < stats.num_lookups
        assert 0.0 < stats.delivery_rate < 1.0

    def test_zero_lookups(self, game):
        stats = LookupWorkload(game, seed=4).run(
            game.complete_profile(), num_lookups=0
        )
        assert stats.num_lookups == 0
        assert math.isnan(stats.mean_latency)

    def test_validation(self, game):
        with pytest.raises(ValueError, match="popularity"):
            LookupWorkload(game, popularity="powerlaw")
        with pytest.raises(ValueError, match="num_lookups"):
            LookupWorkload(game, seed=0).sample_pairs(-1)
        with pytest.raises(ValueError, match="peers"):
            LookupWorkload(
                TopologyGame(EuclideanMetric([[0.0, 0.0]]), 1.0)
            )

    def test_deterministic_given_seed(self, game):
        profile = game.complete_profile()
        a = LookupWorkload(game, seed=9).run(profile, 200)
        b = LookupWorkload(game, seed=9).run(profile, 200)
        assert a == b


class TestBatchedChurn:
    """Batched epochs: stale-profile semantics, backend-independent."""

    def test_batched_identical_across_backends(self, universe):
        """Serial and process backends walk one trajectory."""
        from repro.core.backends import ProcessBackend

        runs = {}
        process = ProcessBackend(workers=2)
        try:
            for name, backend in (
                ("serial", None),
                ("process", process),
            ):
                runs[name] = ChurnSimulation(
                    universe,
                    alpha=1.0,
                    seed=4,
                    activation="batched",
                    backend=backend,
                ).run(epochs=6)
        finally:
            process.close()
        assert runs["process"].final_profile == runs["serial"].final_profile
        assert runs["process"].final_active == runs["serial"].final_active
        assert runs["process"].total_moves == runs["serial"].total_moves

    def test_batched_incremental_matches_reference(self, universe):
        cached = ChurnSimulation(
            universe, alpha=1.0, seed=11, activation="batched"
        ).run(epochs=8)
        naive = ChurnSimulation(
            universe,
            alpha=1.0,
            seed=11,
            activation="batched",
            incremental=False,
        ).run(epochs=8)
        assert cached.final_profile == naive.final_profile
        assert cached.final_active == naive.final_active
        assert cached.total_moves == naive.total_moves

    def test_batched_commits_never_regress_costs(self, universe):
        """Every epoch's recorded cost is finite once connected; the
        batched run remains deterministic given the seed."""
        a = ChurnSimulation(
            universe, alpha=1.0, seed=2, activation="batched"
        ).run(epochs=8)
        b = ChurnSimulation(
            universe, alpha=1.0, seed=2, activation="batched"
        ).run(epochs=8)
        assert a.final_profile == b.final_profile
        assert a.total_moves == b.total_moves

    def test_default_sequential_unchanged_by_new_parameters(self, universe):
        """The new knobs default to the historical behavior."""
        legacy = ChurnSimulation(universe, alpha=1.0, seed=6).run(epochs=6)
        explicit = ChurnSimulation(
            universe,
            alpha=1.0,
            seed=6,
            activation="sequential",
            workers=1,
            backend="serial",
        ).run(epochs=6)
        assert explicit.final_profile == legacy.final_profile
        assert explicit.total_moves == legacy.total_moves

    def test_activation_validation(self, universe):
        with pytest.raises(ValueError, match="activation"):
            ChurnSimulation(universe, alpha=1.0, activation="warp")
