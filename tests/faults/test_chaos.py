"""Chaos smoke: real kills, bounded recovery, zero leaks — fast sizes.

These are scaled-down versions of the drills the e20 benchmark records:
worker SIGKILL under a sharded evaluator, every shard's process
SIGKILLed at once, and a drop-fault service run whose journal must
replay digest-identical once the faults clear.  CI's ``chaos-smoke``
job runs exactly this file.
"""

import pytest

from repro.faults.chaos import (
    ChaosReport,
    server_restart_drill,
    service_chaos_drill,
    worker_kill_drill,
)
from repro.faults.plan import FaultPlan
from repro.metrics.euclidean import EuclideanMetric
from repro.service.journal import ServiceJournal
from repro.service.requests import Request
from repro.service.state import ServiceState

ALPHA = 2.0
N = 12


class TestChaosReport:
    def _report(self, **overrides):
        base = dict(
            name="t",
            epochs=3,
            kills=2,
            recoveries=2,
            recovery_seconds=(0.1, 0.2),
            replay_identical=True,
            results_identical=True,
            leaked_processes=0,
            leaked_fds=0,
            final_cost=1.0,
            notes="",
        )
        base.update(overrides)
        return ChaosReport(**base)

    def test_clean_when_everything_recovered(self):
        assert self._report().clean

    @pytest.mark.parametrize(
        "overrides",
        [
            {"recoveries": 1},  # fewer recoveries than kills
            {"replay_identical": False},
            {"results_identical": False},
            {"leaked_processes": 1},
            {"leaked_fds": 3},
        ],
    )
    def test_dirty_when_anything_leaks_or_diverges(self, overrides):
        assert not self._report(**overrides).clean

    def test_unknown_identity_does_not_fail_clean(self):
        # None means "not applicable for this drill", not a failure.
        assert self._report(replay_identical=None).clean

    def test_as_dict_is_json_shaped(self):
        payload = self._report().as_dict()
        assert payload["name"] == "t"
        assert payload["clean"] is True


class TestWorkerKillDrill:
    def test_recovers_bit_identical_with_zero_leaks(self):
        report = worker_kill_drill(
            n=N, shards=2, sweeps=2, kills=1, seed=0
        )
        assert report.clean, report.as_dict()
        assert report.kills == 1
        assert report.recoveries >= 1
        assert report.results_identical is True
        assert report.leaked_processes == 0
        assert report.leaked_fds == 0
        assert len(report.recovery_seconds) == report.recoveries


class TestServerRestartDrill:
    def test_server_sigkill_restarts_and_recovers(self):
        shards = 3
        report = server_restart_drill(n=N, shards=shards, sweeps=2, seed=0)
        assert report.clean, report.as_dict()
        assert report.kills == shards
        assert report.recoveries == shards
        assert report.results_identical is True
        assert report.leaked_processes == 0
        assert report.leaked_fds == 0


class TestServiceChaosDrill:
    def test_drop_faults_clear_and_journal_replays(self):
        report = service_chaos_drill(
            n=N, shards=2, epochs=4, drop_rate=0.3, fault_window=8, seed=0
        )
        assert report.clean, report.as_dict()
        assert report.replay_identical is True
        assert report.leaked_processes == 0
        assert report.leaked_fds == 0


class TestServiceStateFaultPlan:
    def _digests(self, plan):
        metric = EuclideanMetric.random_uniform(N, dim=2, seed=2)
        journal = ServiceJournal()
        with ServiceState(
            metric,
            ALPHA,
            initial_active=range(N),
            journal=journal,
            shards=2,
            shard_placement="socket",
            fault_plan=plan,
        ) as state:
            for _ in range(2):
                state.apply_epoch(
                    [Request("rebind", peer) for peer in state.active]
                )
        return [record.digest for record in journal.records]

    def test_null_plan_is_bit_identical_to_no_plan(self):
        assert self._digests(None) == self._digests(FaultPlan())

    def test_transport_faults_require_worker_placement(self):
        metric = EuclideanMetric.random_uniform(N, dim=2, seed=2)
        with pytest.raises(ValueError, match="shard_placement"):
            ServiceState(
                metric,
                ALPHA,
                initial_active=range(N),
                fault_plan=FaultPlan(drop_rate=0.5),
            )

    def test_recovery_log_records_pool_recoveries(self):
        metric = EuclideanMetric.random_uniform(N, dim=2, seed=2)
        plan = FaultPlan(seed=0, drop_rate=0.4, max_ops=6)
        with ServiceState(
            metric,
            ALPHA,
            initial_active=range(N),
            shards=2,
            shard_placement="socket",
            fault_plan=plan,
            recovery=8,
        ) as state:
            for _ in range(3):
                state.apply_epoch(
                    [Request("rebind", peer) for peer in state.active]
                )
            events = list(state.recovery_log)
        assert events, "drop faults never triggered a pool recovery"
        for event in events:
            assert event["seconds"] >= 0.0
            assert "reason" in event and "shard" in event
