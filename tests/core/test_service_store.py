"""Service-matrix stores: bit-exact round-trips, shareable handles.

Both store kinds (``memory`` and ``shared``) round-trip matrices
bit-exactly and repair rows in place, so evaluator queries (and whole
dynamics trajectories) are identical whichever store backs the cache;
the shared store's handles let another process attach the same pages.
"""

import math

import numpy as np
import pytest

from repro.core.dynamics import BestResponseDynamics
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.service_store import (
    STORE_SPECS,
    ArrayStore,
    SharedMemoryStore,
    attach_service_weights,
    make_store,
)
from repro.metrics.euclidean import EuclideanMetric


def _game(n=10, alpha=1.0, seed=7):
    return TopologyGame(
        EuclideanMetric.random_uniform(n, dim=2, seed=seed), alpha
    )


def _matrix(seed, shape=(4, 5)):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 9.0, size=shape)
    weights[rng.random(shape) < 0.15] = math.inf
    return weights


ALL_STORES = [ArrayStore, SharedMemoryStore]


class TestRoundTrip:
    @pytest.mark.parametrize("make", ALL_STORES)
    def test_put_get_bitexact(self, make):
        store = make()
        originals = {key: _matrix(key) for key in range(5)}
        for key, weights in originals.items():
            store.put(key, weights.copy())
        for key, weights in originals.items():
            got = store.get(key)
            np.testing.assert_array_equal(got, weights)
            assert not got.flags.writeable
        assert sorted(store.keys()) == list(range(5))
        store.close()

    @pytest.mark.parametrize("make", ALL_STORES)
    def test_write_rows_repairs_in_place(self, make):
        store = make()
        weights = _matrix(1)
        store.put(0, weights.copy())
        fresh = _matrix(99)[[0, 2]]
        store.write_rows(0, [0, 2], fresh)
        expected = weights.copy()
        expected[[0, 2]] = fresh
        np.testing.assert_array_equal(store.get(0), expected)
        store.close()

    @pytest.mark.parametrize("make", ALL_STORES)
    def test_discard_and_clear(self, make):
        store = make()
        for key in range(4):
            store.put(key, _matrix(key))
        store.discard(1)
        store.discard(1)  # idempotent
        assert sorted(store.keys()) == [0, 2, 3]
        store.clear()
        assert store.keys() == []
        assert store.get(0) is None
        store.close()

    def test_make_store_specs(self):
        assert isinstance(make_store("memory"), ArrayStore)
        shared = make_store("shared")
        assert isinstance(shared, SharedMemoryStore)
        shared.close()
        passthrough = ArrayStore()
        assert make_store(passthrough) is passthrough
        with pytest.raises(ValueError, match="unknown service store"):
            make_store("disk")

    def test_removed_spill_spec_is_rejected(self):
        assert STORE_SPECS == ("memory", "shared")
        with pytest.raises(ValueError) as info:
            make_store("spill")
        assert "('memory', 'shared')" in str(info.value)


class TestHandles:
    def test_shared_memory_handle_attaches_same_bytes(self):
        store = SharedMemoryStore()
        weights = _matrix(3)
        store.put(7, weights.copy())
        handle = store.handle(7)
        assert handle[0] == "shm"
        attached = attach_service_weights(handle)
        np.testing.assert_array_equal(attached, weights)
        # In-place repair is visible through the existing attachment.
        fresh = np.zeros((1, weights.shape[1]))
        store.write_rows(7, [1], fresh)
        np.testing.assert_array_equal(attached[1], fresh[0])
        store.close()

    def test_array_store_has_no_handles(self):
        store = ArrayStore()
        store.put(0, _matrix(0))
        assert store.handle(0) is None
        assert not store.shareable

    def test_unknown_handle_kind_rejected(self):
        with pytest.raises(ValueError, match="handle kind"):
            attach_service_weights(("gpu", "x", (1, 1)))

    def test_handles_carry_the_store_generation(self):
        first, second = SharedMemoryStore(), SharedMemoryStore()
        first.put(0, _matrix(0))
        second.put(0, _matrix(0))
        assert isinstance(first.handle(0)[-1], int)
        assert isinstance(second.handle(0)[-1], int)
        assert first.handle(0)[-1] != second.handle(0)[-1]
        first.close()
        second.close()

    def test_attach_cache_cannot_serve_a_dead_stores_mapping(
        self, monkeypatch
    ):
        """Regression: generation-keyed attachment cache.

        When a store is closed and a *new* store's segment reuses the
        same name, a worker's per-process attach cache keyed on the name
        alone would serve the dead incarnation's pages.  The generation
        component of the handle must force a fresh attach.
        """
        from repro.core import service_store

        monkeypatch.setattr(
            service_store, "_segment_name", lambda: "repro_test_stale_name"
        )
        first = SharedMemoryStore()
        matrix_a = np.full((3, 4), 1.0)
        first.put(0, matrix_a)
        handle_a = first.handle(0)
        np.testing.assert_array_equal(
            attach_service_weights(handle_a), matrix_a
        )
        first.close()

        second = SharedMemoryStore()  # same segment name, new backing
        matrix_b = np.full((3, 4), 2.0)
        second.put(0, matrix_b)
        handle_b = second.handle(0)
        assert handle_b[1] == handle_a[1]  # the name really was reused
        assert handle_b[-1] != handle_a[-1]
        np.testing.assert_array_equal(
            attach_service_weights(handle_b), matrix_b
        )
        second.close()


class TestEvaluatorIntegration:
    """The acceptance contract: stores are invisible to the game layer."""

    @pytest.mark.parametrize("store_spec", ["shared"])
    def test_dynamics_trajectory_identical_across_stores(self, store_spec):
        game = _game(n=10)
        reference = BestResponseDynamics(
            game,
            method="greedy",
            evaluator=GameEvaluator(game),
        ).run(max_rounds=40)
        store = make_store(store_spec)
        run = BestResponseDynamics(
            game,
            method="greedy",
            evaluator=GameEvaluator(game, store=store),
        ).run(max_rounds=40)
        assert run.profile.key() == reference.profile.key()
        assert run.num_moves == reference.num_moves
        assert run.stopped_reason == reference.stopped_reason
        store.close()

    def test_memory_store_counts_resident_bytes(self):
        game = _game(n=6)
        evaluator = GameEvaluator(game, game.empty_profile())
        evaluator.batch_service_costs()
        expected = game.n * (game.n - 1) * game.n * 8
        assert evaluator.stats.store_resident_bytes == expected

    def test_eviction_releases_store_entries(self):
        game = _game(n=8)
        evaluator = GameEvaluator(
            game, game.empty_profile(), max_cached_services=3
        )
        for peer in range(game.n):
            evaluator.service_costs(peer)
        assert len(evaluator.store.keys()) <= 3
        assert (
            evaluator.stats.store_resident_bytes
            == sum(evaluator.store.get(k).nbytes for k in evaluator.store.keys())
        )

    def test_sweep_wider_than_cache_cap_still_works(self):
        """A full-population request must not evict its own matrices.

        Regression: with ``max_cached_services < n`` the post-refresh
        eviction used to delete entries the sweep was about to read,
        crashing ``gain_sweep``/``batch_service_costs`` with KeyError —
        exactly at the large-n scale the bounded stores target.
        """
        game = _game(n=10)
        profile = game.random_profile(0.3, seed=4)
        reference = GameEvaluator(game, profile).gain_sweep("greedy")
        capped = GameEvaluator(game, profile, max_cached_services=4)
        assert capped.gain_sweep("greedy") == reference
        services = capped.batch_service_costs()
        assert len(services) == game.n
        for peer, service in enumerate(services):
            want = GameEvaluator(game, profile).service_costs(peer)
            np.testing.assert_array_equal(service.weights, want.weights)
        # The cap re-applies on the next narrower request.
        capped.service_costs(0)
        assert len(capped.store.keys()) <= game.n
