"""Cross-layer identity of dynamic (incremental) distance repair.

Companion to ``tests/graphs/test_dynamic_sssp.py``: the row-level
updater is exact, so every evaluator layer that routes repairs through
it — the monolithic distance matrix, local row-block shards, per-process
shard workers, and the raw service-row state — must stay bit-identical
to the scratch-repair evaluator (``dynamic_repair=False``) under random
edge-flip/churn sequences, for any shard count and placement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.core.sharded import ShardedEvaluator
from repro.metrics.euclidean import EuclideanMetric

N = 16


def _game(seed: int = 0) -> TopologyGame:
    rng = np.random.default_rng(seed)
    return TopologyGame(EuclideanMetric(rng.random((N, 2))), alpha=1.0)


def _start_profile() -> StrategyProfile:
    return StrategyProfile(
        [frozenset({(i + 1) % N, (i + 3) % N}) for i in range(N)]
    )


#: A churn sequence: per step, one peer rebinds to a fresh target set.
_churn_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.lists(
            st.integers(min_value=0, max_value=N - 1),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    ),
    min_size=1,
    max_size=8,
)


def _apply_churn(profile: StrategyProfile, steps):
    profiles = []
    for peer, targets in steps:
        strategy = frozenset(t for t in targets if t != peer)
        if not strategy:
            continue
        profile = profile.with_strategy(peer, strategy)
        profiles.append(profile)
    return profiles


def _assert_trajectory_identical(reference: GameEvaluator, evaluator, steps):
    profiles = _apply_churn(_start_profile(), steps)
    for profile in profiles:
        reference.set_profile(profile)
        evaluator.set_profile(profile)
        np.testing.assert_array_equal(
            evaluator.distance_rows(range(N))
            if isinstance(evaluator, ShardedEvaluator)
            else evaluator.overlay_distances(),
            reference.overlay_distances(),
        )
        np.testing.assert_array_equal(
            evaluator.peer_costs(), reference.peer_costs()
        )
        peer = profile.n // 2
        np.testing.assert_array_equal(
            evaluator.service_costs(peer).weights,
            reference.service_costs(peer).weights,
        )


class TestDynamicVsScratch:
    @given(_churn_sequences)
    @settings(max_examples=40, deadline=None)
    def test_unsharded_rows_bit_identical(self, steps):
        game = _game()
        with GameEvaluator(game, _start_profile(), dynamic_repair=False) as (
            reference
        ), GameEvaluator(game, _start_profile()) as dynamic:
            _assert_trajectory_identical(reference, dynamic, steps)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @given(steps=_churn_sequences)
    @settings(max_examples=15, deadline=None)
    def test_local_sharded_rows_bit_identical(self, shards, steps):
        game = _game()
        with GameEvaluator(game, _start_profile(), dynamic_repair=False) as (
            reference
        ), ShardedEvaluator(
            game, _start_profile(), shards=shards, placement="local"
        ) as sharded:
            _assert_trajectory_identical(reference, sharded, steps)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_process_sharded_rows_bit_identical(self, shards):
        # Worker processes are too heavy to fork per hypothesis example;
        # a seeded random churn burst covers the process placement.
        rng = np.random.default_rng(17 + shards)
        steps = [
            (
                int(rng.integers(N)),
                list(
                    int(x)
                    for x in rng.choice(N, size=int(rng.integers(1, 4)), replace=False)
                ),
            )
            for _ in range(12)
        ]
        game = _game()
        with GameEvaluator(game, _start_profile(), dynamic_repair=False) as (
            reference
        ), ShardedEvaluator(
            game, _start_profile(), shards=shards, placement="socket"
        ) as sharded:
            _assert_trajectory_identical(reference, sharded, steps)
            stats = sharded.shard_worker_stats()
            assert len(stats) == shards
            for worker in stats:
                assert "vertices_repaired" in worker
                assert "full_fallbacks" in worker

    def test_scratch_mode_reports_no_repaired_vertices(self):
        game = _game()
        with GameEvaluator(game, _start_profile(), dynamic_repair=False) as (
            evaluator
        ):
            evaluator.overlay_distances()
            profile = evaluator.profile.with_strategy(0, frozenset({2}))
            evaluator.set_profile(profile)
            evaluator.overlay_distances()
            assert evaluator.stats.distance_rows_recomputed > 0
            assert evaluator.stats.distance_vertices_repaired == 0
            assert evaluator.stats.distance_full_fallbacks == 0

    def test_dynamic_mode_reports_repaired_vertices(self):
        game = _game()
        with GameEvaluator(game, _start_profile()) as evaluator:
            evaluator.overlay_distances()
            profile = evaluator.profile.with_strategy(0, frozenset({2}))
            evaluator.set_profile(profile)
            evaluator.overlay_distances()
            stats = evaluator.stats
            assert stats.distance_rows_recomputed > 0
            assert (
                stats.distance_vertices_repaired > 0
                or stats.distance_full_fallbacks > 0
            )
