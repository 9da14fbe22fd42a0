"""E20 benchmark: adversarial scenario suite + chaos recovery times.

PR 9 added ``repro.faults``: adversarial scenario families (Byzantine
peers, transient state corruption, targeted churn), a deterministic
fault-injection layer over the shard transports and the service queue,
and chaos drills that kill real shard worker processes.  This bench
pins the suite's three contracts:

* **Degradation + recovery are measured and deterministic**: the E12
  experiment records social-cost degradation and recovery epochs for
  every family, and running it twice yields bit-identical rows (every
  scenario is a pure function of its seed).
* **Null plan is no plan**: a service run wrapped in the explicit null
  fault plan journals the exact digests of an unwrapped run.
* **Chaos recovery is bounded and leak-free**: worker kills, every
  shard's process SIGKILLed at once, and a drop-fault service run all
  recover — results
  bit-identical, journal replay digest-identical, zero leaked
  processes/fds — and the measured recovery-time distribution is
  recorded.

Results go to ``benchmarks/results/e20.txt`` and, machine-readable,
``benchmarks/results/e20.json`` (the ``e12`` results files belong to
the GameEvaluator bench — the E12 *experiment* is recorded here).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import get_experiment
from repro.faults import (
    NULL_PLAN,
    server_restart_drill,
    service_chaos_drill,
    worker_kill_drill,
)
from repro.service import ServiceJournal, ServiceState
from repro.service.requests import Request
from repro.metrics.euclidean import EuclideanMetric

from benchmarks.conftest import RESULTS_DIR, write_json_results

ALPHA = 2.0
#: Scenario scale for the recorded run (kept modest: the families drive
#: full service epochs and the drills fork real processes).
SCEN_N = 24
SCEN_INSTANCES = 3
DETERMINISM_N = 16


def test_bench_adversarial_families(benchmark):
    """E12 rows recorded; ≥3 families; two runs bit-identical."""
    spec = get_experiment("E12")
    # Persist under e20, not the experiment id: the e12 results slot is
    # already owned by the GameEvaluator perf bench.
    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: spec.run(n=SCEN_N, num_instances=SCEN_INSTANCES),
        rounds=1,
        iterations=1,
    )
    wall_s = time.perf_counter() - start
    assert result.verdict, "an adversarial family failed to re-converge"
    families = {row["family"] for row in result.rows}
    assert len(families) >= 3, f"want >=3 families, got {families}"
    assert all(row["degradation"] >= 1.0 for row in result.rows)

    # Determinism: the whole suite is a pure function of its seeds.
    first = spec.run(n=DETERMINISM_N, num_instances=2)
    second = spec.run(n=DETERMINISM_N, num_instances=2)
    assert first.rows == second.rows, "scenario rows differ across runs"

    _persist(result, wall_s, first.rows == second.rows)


def test_bench_null_plan_identity():
    """The explicit null plan journals bit-identical digests."""
    digests = []
    for plan in (None, NULL_PLAN):
        metric = EuclideanMetric.random_uniform(16, dim=2, seed=7)
        journal = ServiceJournal()
        with ServiceState(
            metric,
            ALPHA,
            initial_active=range(16),
            journal=journal,
            shards=2,
            shard_placement="socket",
            fault_plan=plan,
        ) as state:
            for _ in range(3):
                state.apply_epoch(
                    [Request("rebind", peer) for peer in state.active]
                )
        digests.append([record.digest for record in journal.records])
    assert digests[0] == digests[1], "null fault plan changed trajectories"


def test_bench_chaos_recovery_times():
    """All drills clean; recovery-time distribution recorded."""
    reports = [
        worker_kill_drill(n=16, shards=2, sweeps=3, kills=2),
        server_restart_drill(n=16, shards=2, sweeps=3),
        service_chaos_drill(n=16, shards=2, epochs=5, drop_rate=0.4),
    ]
    for report in reports:
        assert report.clean, f"{report.name} failed: {report.as_dict()}"
        assert report.recoveries >= report.kills

    seconds = sorted(
        value for report in reports for value in report.recovery_seconds
    )
    dist = {
        "count": len(seconds),
        "p50_s": round(float(np.percentile(seconds, 50)), 5),
        "p90_s": round(float(np.percentile(seconds, 90)), 5),
        "max_s": round(max(seconds), 5),
    }

    payload = {
        "name": "e20",
        "title": "Adversarial suite + chaos recovery",
        "chaos": [report.as_dict() for report in reports],
        "recovery_time_distribution": dist,
    }
    write_json_results("e20_chaos", payload)

    lines = ["e20: chaos drill recovery", ""]
    for report in reports:
        lines.append(
            f"{report.name:<22} kills={report.kills} "
            f"recoveries={report.recoveries} "
            f"leaks={report.leaked_processes}p/{report.leaked_fds}fd "
            f"clean={report.clean}"
        )
    lines.append("")
    lines.append(
        f"recovery seconds: n={dist['count']} p50={dist['p50_s']} "
        f"p90={dist['p90_s']} max={dist['max_s']}"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e20_chaos.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))


def _persist(result, wall_s: float, deterministic: bool) -> None:
    """The e20 headline file: scenario metrics + determinism verdict."""
    write_json_results(
        "e20",
        {
            "name": "e20",
            "experiment_id": result.experiment_id,
            "title": result.title,
            "paper_claim": result.paper_claim,
            "verdict": "SUPPORTED" if result.verdict else "NOT SUPPORTED",
            "deterministic_across_runs": deterministic,
            "wall_s": round(wall_s, 4),
            "params": result.params,
            "rows": list(result.rows),
            "notes": list(result.notes),
        },
    )
    text = result.table() + "\n\n" + result.summary() + "\n"
    text += f"\ndeterministic across two runs: {deterministic}\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e20.txt").write_text(text)
