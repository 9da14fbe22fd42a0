"""E14 benchmark: execution backends for gain-sweep solves + store memory.

This bench measures the pluggable execution backends end to end on the
e13 workload shape (max-gain engine, greedy solves):

* ``serial``   — the reference loop;
* ``process``  — persistent process pool attached zero-copy to the
  evaluator's shared-memory service-matrix store, one submission of
  ``ceil(tasks/workers)`` solves per worker per sweep.

plus the **memory ceiling** of the spill store: the same sweep workload
with the resident W-matrix budget capped at a fraction of the full
cache, asserting (via ``EvaluatorStats``) that residency never exceeds
the configured budget while trajectories stay identical.

Trajectory identity and the spill ceiling are asserted; they are
hardware-independent.  The process-over-serial wall-clock ratio is
recorded in the JSON next to the host's usable cores and
``os.cpu_count()``, but not asserted: a single-run ratio on a shared
host is noise-bound, and the layer ledger is where speed is judged.

Results go to ``benchmarks/results/e14.txt`` and, machine-readable,
``benchmarks/results/e14.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.service_store import SpillStore
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine

from benchmarks.conftest import RESULTS_DIR, perf_entry, write_json_results

SEED = 42
ALPHA = 1.0
N_HEADLINE = 128
MAX_ROUNDS = 10
WORKERS = 4
#: Spill budget for the memory-ceiling section, in service matrices.
SPILL_BUDGET_MATRICES = 16


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _game(n: int) -> TopologyGame:
    rng = np.random.default_rng(SEED)
    return TopologyGame(
        EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2))), alpha=ALPHA
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _run_backend(n: int, max_rounds: int, backend, label: str):
    game = _game(n)
    report, wall_s = _timed(
        lambda: SimulationEngine(
            game,
            method="greedy",
            activation="max-gain",
            evaluator=game.make_evaluator(),
            backend=backend,
        ).run(max_rounds=max_rounds)
    )
    return {
        "scenario": f"max-gain(n={n},backend={label})",
        "n": n,
        "backend": label,
        "wall_s": wall_s,
        "moves": report.moves,
        "profile_key": report.profile.key(),
        "final_cost": report.final_cost,
    }


def _backend_comparison(n: int, max_rounds: int):
    process = ProcessBackend(workers=WORKERS)
    try:
        rows = [
            _run_backend(n, max_rounds, SerialBackend(), "serial"),
            _run_backend(n, max_rounds, process, "process"),
        ]
    finally:
        process.close()
    serial = rows[0]
    serial_key = serial["profile_key"]
    for row in rows:
        row["identical"] = (
            row["profile_key"] == serial_key
            and row["moves"] == serial["moves"]
        )
        assert row["identical"], f"{row['scenario']} trajectory diverged"
        row["speedup_vs_serial"] = serial["wall_s"] / row["wall_s"]
        del row["profile_key"]
    return rows


def _memory_ceiling(n: int, max_rounds: int):
    """Spill-store sweep: bounded residency, identical trajectory."""
    matrix_bytes = (n - 1) * n * 8
    budget = SPILL_BUDGET_MATRICES * matrix_bytes
    game = _game(n)
    reference = SimulationEngine(
        game,
        method="greedy",
        activation="max-gain",
        evaluator=game.make_evaluator(),
    ).run(max_rounds=max_rounds)
    spill_game = _game(n)
    evaluator = GameEvaluator(
        spill_game, store=SpillStore(budget_bytes=budget)
    )
    report, wall_s = _timed(
        lambda: SimulationEngine(
            spill_game,
            method="greedy",
            activation="max-gain",
            evaluator=evaluator,
        ).run(max_rounds=max_rounds)
    )
    stats = evaluator.stats
    identical = (
        report.profile.key() == reference.profile.key()
        and report.moves == reference.moves
    )
    assert identical, "spill-store trajectory diverged"
    assert stats.store_resident_bytes <= budget
    assert stats.store_resident_peak_bytes <= budget + matrix_bytes
    row = {
        "scenario": f"spill-ceiling(n={n},budget={SPILL_BUDGET_MATRICES}W)",
        "n": n,
        "backend": "serial+spill",
        "wall_s": wall_s,
        "moves": report.moves,
        "final_cost": report.final_cost,
        "identical": True,
        "budget_bytes": budget,
        "resident_peak_bytes": stats.store_resident_peak_bytes,
        "full_cache_bytes": n * matrix_bytes,
        "promotions": stats.store_promotions,
        "demotions": stats.store_demotions,
    }
    evaluator.close()
    return row


def test_process_backend_smoke():
    """CI-friendly smoke: serial/process identity at n=32."""
    rows = _backend_comparison(32, 6)
    assert all(row["identical"] for row in rows)


def _format_table(rows) -> str:
    header = (
        f"{'scenario':>36}  {'wall_s':>8}  {'vs_serial':>9}  {'moves':>6}  "
        f"identical"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = row.get("speedup_vs_serial")
        speedup_text = f"{speedup:8.2f}x" if speedup else " " * 9
        lines.append(
            f"{row['scenario']:>36}  {row['wall_s']:8.3f}  {speedup_text}  "
            f"{row['moves']:>6}  {row['identical']}"
        )
    return "\n".join(lines)


def test_backend_pool_report(benchmark):
    """Full report: backend sweep at n=128 + spill memory ceiling."""
    cores = _usable_cores()
    rows = _backend_comparison(N_HEADLINE, MAX_ROUNDS)
    ceiling = _memory_ceiling(N_HEADLINE, max_rounds=4)
    process_pool = ProcessBackend(workers=WORKERS)
    try:
        benchmark.pedantic(
            lambda: _run_backend(48, 3, process_pool, "process"),
            rounds=1,
            iterations=1,
        )
    finally:
        process_pool.close()
    process = next(r for r in rows if r["backend"] == "process")
    process_over_serial = process["speedup_vs_serial"]
    text = (
        "E14: Pluggable execution backends (gain-sweep solves) + "
        "service-store memory ceiling\n"
        + _format_table(rows + [ceiling])
        + "\n\nE14: process-pool gain sweeps over a shared-memory store"
        + "\n  claim   : pool workers attach the service-matrix store"
        " zero-copy; trajectories are backend-independent; spill mode"
        " bounds resident W bytes to the budget"
        + "\n  verdict : identity+ceiling asserted"
        + f"\n  note    : process-over-serial {process_over_serial:.2f}x"
        f" at n={N_HEADLINE} greedy, {WORKERS} workers (recorded, not"
        f" asserted; usable cores: {cores}, cpu_count: {os.cpu_count()});"
        f" spill ceiling {ceiling['resident_peak_bytes']} <="
        f" {ceiling['budget_bytes']} + 1 matrix of"
        f" {ceiling['full_cache_bytes']} full-cache bytes\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e14.txt").write_text(text)
    write_json_results(
        "e14",
        {
            "name": "e14",
            "title": (
                "Pluggable execution backends: process-pool gain sweeps "
                "over a shared-memory service-matrix store"
            ),
            "usable_cores": cores,
            "cpu_count": os.cpu_count(),
            "workers": WORKERS,
            "process_over_serial": round(process_over_serial, 3),
            "asserted": ["trajectory identity", "spill ceiling"],
            "memory_ceiling": {
                "budget_bytes": ceiling["budget_bytes"],
                "resident_peak_bytes": ceiling["resident_peak_bytes"],
                "full_cache_bytes": ceiling["full_cache_bytes"],
                "promotions": ceiling["promotions"],
                "demotions": ceiling["demotions"],
                "bounded": True,
            },
            "entries": [
                perf_entry(
                    row["scenario"],
                    row["n"],
                    "greedy",
                    row["wall_s"],
                    row.get("speedup_vs_serial", 1.0),
                    backend=row["backend"],
                    moves=row["moves"],
                    identical=row["identical"],
                )
                for row in rows + [ceiling]
            ],
        },
    )
    print()
    print(text)
