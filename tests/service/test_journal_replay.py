"""Journal replay identity: the service's account is bit-exact.

The contract pinned here is the e19 acceptance criterion: a journaled
service run — random request mix, random coalescing boundaries, stale
commits re-checked inside multi-rebind epochs — replays through the
closed-loop epoch engine to the *identical* trajectory: digest by
digest, move count by move count, social cost by social cost, and the
same final overlay.  Replay identity also holds across execution
harnesses (workers/backend/shards), because the engine's trajectories
are execution-invariant.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.euclidean import EuclideanMetric
from repro.service import (
    ChurnService,
    ReplayMismatch,
    Request,
    ServiceJournal,
    ServiceState,
    WorkloadGenerator,
    WorkloadMix,
    replay_journal,
)


def _metric(n, seed):
    return EuclideanMetric.random_uniform(n, dim=2, seed=seed)


def _run_epochs(state, requests, chunks):
    """Apply ``requests`` in the given chunk sizes (coalescing plan)."""
    cursor = 0
    outcomes = []
    for size in chunks:
        batch = requests[cursor : cursor + size]
        cursor += size
        if batch:
            outcomes.append(state.apply_epoch(batch))
    if cursor < len(requests):
        outcomes.append(state.apply_epoch(requests[cursor:]))
    return outcomes


def _totals_match(a: float, b: float) -> bool:
    """Equality up to float-summation order (inf/nan-aware) — the same
    convention the sharded-evaluator suite pins: trajectories are
    bit-identical across harnesses, cost *totals* may differ only by
    the order terms were added in."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return (
        math.isfinite(a)
        and math.isfinite(b)
        and abs(a - b) <= 1e-12 * max(1.0, abs(b))
    )


def _assert_replay_identical(
    journal, metric, alpha, active, state, *, totals_exact=True, **options
):
    result = replay_journal(
        journal, metric, alpha, initial_active=active, **options
    )
    assert list(result.digests) == [r.digest for r in journal.records]
    assert list(result.moves) == [r.moves for r in journal.records]
    for replayed, recorded in zip(
        result.social_costs, (r.social_cost for r in journal.records)
    ):
        if totals_exact:
            assert replayed == recorded or (
                math.isnan(replayed) and math.isnan(recorded)
            )
        else:
            assert _totals_match(replayed, recorded)
    assert (result.final_active, result.final_strategies) == state.snapshot()
    return result


class TestReplayIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        universe=st.integers(8, 24),
        chunk=st.integers(1, 8),
        count=st.integers(5, 40),
    )
    def test_journaled_run_replays_bit_identically(
        self, seed, universe, chunk, count
    ):
        metric = _metric(universe, seed % 1000)
        active = list(range(max(2, universe // 3)))
        generator = WorkloadGenerator(universe, active, seed)
        requests = generator.take(count)
        chunks = [chunk] * (count // chunk + 1)
        journal = ServiceJournal()
        with ServiceState(
            metric, 2.0, initial_active=active, journal=journal
        ) as state:
            _run_epochs(state, requests, chunks)
            _assert_replay_identical(journal, metric, 2.0, active, state)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_rebind_storms_exercise_stale_commits(self, seed):
        """All-rebind epochs maximize commit conflicts: every response
        past the first is re-checked against a partially committed
        profile, and replay must re-derive identical drops."""
        metric = _metric(12, seed % 997)
        active = list(range(10))
        mix = WorkloadMix(
            join=0.0, leave=0.0, rebind=1.0,
            query_cost=0.0, query_social_cost=0.0,
        )
        generator = WorkloadGenerator(12, active, seed, mix=mix)
        journal = ServiceJournal()
        with ServiceState(
            metric, 1.0, initial_active=active, journal=journal
        ) as state:
            outcomes = _run_epochs(state, generator.take(30), [10, 10, 10])
            # The storm must actually coalesce multiple rebinds.
            assert max(len(r.rebinds) for r in journal.records) > 1
            _assert_replay_identical(journal, metric, 1.0, active, state)
            assert sum(o.moves for o in outcomes) == sum(
                r.moves for r in journal.records
            )

    def test_live_service_journal_replays(self):
        """The future-based front-end journals exactly what it commits,
        whatever epoch boundaries the coalescer happened to pick."""
        metric = _metric(30, seed=4)
        active = list(range(10))
        journal = ServiceJournal()
        state = ServiceState(
            metric, 2.0, initial_active=active, journal=journal
        )
        generator = WorkloadGenerator(30, active, seed=11)
        with ChurnService(state, max_batch=8, max_wait_s=0.01) as service:
            futures = [service.submit(r) for r in generator.take(60)]
            for future in futures:
                try:
                    future.result(timeout=60)
                except Exception:
                    pass  # rejections are legitimate outcomes
            _assert_replay_identical(journal, metric, 2.0, active, state)

    def test_coalesced_and_sequential_runs_both_replay(self):
        """Coalescing may change the trajectory (stale-profile
        semantics) — never replayability."""
        metric = _metric(16, seed=8)
        active = list(range(8))
        requests = WorkloadGenerator(16, active, seed=2).take(24)
        digests = []
        for chunks in ([1] * 24, [6, 6, 6, 6]):
            journal = ServiceJournal()
            with ServiceState(
                metric, 2.0, initial_active=active, journal=journal
            ) as state:
                _run_epochs(state, list(requests), chunks)
                _assert_replay_identical(
                    journal, metric, 2.0, active, state
                )
                digests.append(state.digest())

    @pytest.mark.parametrize(
        "options",
        [
            {"workers": 2, "backend": "process"},
            {"shards": 2},
            {"shards": 2, "shard_placement": "socket"},
        ],
        ids=["process-backend", "sharded-local", "sharded-socket"],
    )
    def test_replay_is_execution_invariant(self, options):
        metric = _metric(14, seed=6)
        active = list(range(8))
        journal = ServiceJournal()
        with ServiceState(
            metric, 2.0, initial_active=active, journal=journal
        ) as state:
            _run_epochs(
                state, WorkloadGenerator(14, active, seed=9).take(20), [5] * 4
            )
            snapshot = state.snapshot()
        result = _assert_replay_identical(
            journal, metric, 2.0, active, state, totals_exact=False, **options
        )
        assert (result.final_active, result.final_strategies) == snapshot

    def test_tampered_digest_raises_replay_mismatch(self):
        metric = _metric(10, seed=1)
        active = list(range(6))
        journal = ServiceJournal()
        with ServiceState(
            metric, 2.0, initial_active=active, journal=journal
        ) as state:
            state.apply_epoch([Request("rebind", p) for p in active])
        payload = journal.to_dict()
        payload["epochs"][0]["digest"] = "0" * 16
        tampered = ServiceJournal.from_dict(payload)
        with pytest.raises(ReplayMismatch, match="epoch 0"):
            replay_journal(tampered, metric, 2.0, initial_active=active)

    def test_save_load_round_trip(self, tmp_path):
        metric = _metric(10, seed=2)
        active = list(range(6))
        journal = ServiceJournal()
        with ServiceState(
            metric, 2.0, initial_active=active, journal=journal
        ) as state:
            state.apply_epoch(
                [Request("join", 8), Request("rebind", 0), Request("leave", 5)]
            )
            state.apply_epoch([Request("rebind", 1)])
        path = tmp_path / "journal.json"
        journal.save(str(path))
        loaded = ServiceJournal.load(str(path))
        assert loaded.to_dict() == journal.to_dict()
        _assert_replay_identical(loaded, metric, 2.0, active, state)

    def test_version_skew_rejected(self):
        with pytest.raises(ValueError, match="journal version"):
            ServiceJournal.from_dict({"version": 99, "epochs": []})

    def test_pure_query_epochs_are_not_journaled(self):
        journal = ServiceJournal()
        with ServiceState(
            _metric(10, seed=3), 2.0, initial_active=range(4),
            journal=journal,
        ) as state:
            state.apply_epoch(
                [Request("query_cost", 0), Request("query_social_cost")]
            )
            assert len(journal) == 0
            state.apply_epoch([Request("rebind", 0)])
            assert len(journal) == 1
