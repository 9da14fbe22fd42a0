"""E16 benchmark: shard worker processes — distributed distance rows.

PR 5 promotes the sharded evaluator's row-block shards to per-shard
*worker processes* (``placement="process"``,
:mod:`repro.core.shard_workers`): each worker owns its distance slice
and serves ``distance_rows`` / O(n/k) stretch reductions over a narrow
request/reply transport, so the coordinator process holds **no**
resident distance block at all.  This bench measures both axes:

* **Memory headline (n=256, k=4)**: the e15 query sequence — peer
  costs, social cost, single-peer rebinds with re-queries, a partial
  gain sweep — under process placement, asserting that (a) the
  coordinator's ``distance_resident_peak_bytes`` stays at **zero** and
  (b) every worker's peak resident block stays at or below ``1/k`` of
  the unsharded matrix plus slack — while every per-row output is
  bit-identical to the unsharded evaluator.
* **Trajectory identity (n=64)**: max-gain greedy dynamics with process
  placement across shard counts, execution backends and stores
  (memory and shared stores, and a solver process pool running
  *alongside* the shard workers) must all walk the unsharded serial
  trajectory exactly.

Both assertions are hardware-independent (stats counters and
trajectory keys, not RSS or wall time), so they are asserted
unconditionally — no honest-skip needed here.  Process placement buys
address-space isolation at the cost of transport round-trips; the JSON
records the measured wall times so that trade-off stays visible.

Results go to ``benchmarks/results/e16.txt`` and, machine-readable,
``benchmarks/results/e16.json`` (schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.core.sharded import ShardedEvaluator
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine

from benchmarks.conftest import RESULTS_DIR, perf_entry, write_json_results

SEED = 42
ALPHA = 1.0
N_HEADLINE = 256
SHARDS_HEADLINE = 4
#: Acceptance ceiling on any single process's peak resident distance
#: bytes, as a fraction of the unsharded matrix: one of k row blocks
#: plus slack for uneven block sizes.
RESIDENT_FRACTION_CEILING = 1 / SHARDS_HEADLINE + 0.05
N_TRAJECTORY = 64
TRAJECTORY_ROUNDS = 8
SWEEP_PEERS = 16
SHARD_COUNTS = (1, 2, 4)


def _game(n: int) -> TopologyGame:
    rng = np.random.default_rng(SEED)
    return TopologyGame(
        EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2))), alpha=ALPHA
    )


def _connected_profile(n: int, extra_links: int = 2) -> StrategyProfile:
    """Ring backbone + seeded random extra links (strongly connected)."""
    rng = np.random.default_rng(SEED + 1)
    strategies = []
    for peer in range(n):
        strategy = {(peer + 1) % n}
        for target in rng.integers(0, n, size=extra_links):
            if target != peer:
                strategy.add(int(target))
        strategies.append(strategy)
    return StrategyProfile(strategies)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _response_tuples(responses):
    return [(r.peer, r.strategy, r.cost, r.improved) for r in responses]


def _memory_workload(evaluator, profile: StrategyProfile):
    """The e15 headline query sequence; returns its observable outputs."""
    n = profile.n
    evaluator.set_profile(profile)
    outputs = [evaluator.peer_costs().copy()]
    evaluator.social_cost()
    current = profile
    for peer in (0, n // 2, n - 1):
        current = current.with_strategy(
            peer, frozenset({(peer + 1) % n, (peer + 7) % n} - {peer})
        )
        evaluator.set_profile(current)
        outputs.append(evaluator.peer_costs().copy())
        evaluator.social_cost()
    sweep = evaluator.gain_sweep("greedy", peers=range(SWEEP_PEERS))
    outputs.append(_response_tuples(sweep))
    return outputs


def _memory_headline(n: int, shards: int):
    """Coordinator/worker resident distance bytes under process placement."""
    profile = _connected_profile(n)
    reference = GameEvaluator(_game(n))
    ref_outputs, ref_wall = _timed(
        lambda: _memory_workload(reference, profile)
    )
    full_bytes = reference.stats.distance_resident_peak_bytes
    assert full_bytes == n * n * 8, "unsharded peak must be the full matrix"

    remote = ShardedEvaluator(_game(n), shards=shards, placement="process")
    try:
        remote_outputs, remote_wall = _timed(
            lambda: _memory_workload(remote, profile)
        )
        coordinator_peak = remote.stats.distance_resident_peak_bytes
        worker_peak = max(
            stats["resident_peak_bytes"]
            for stats in remote.shard_worker_stats()
        )
    finally:
        remote.close()

    for got, expected in zip(remote_outputs, ref_outputs):
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected, "gain-sweep responses diverged"
    coordinator_fraction = coordinator_peak / full_bytes
    worker_fraction = worker_peak / full_bytes
    assert coordinator_peak == 0, (
        f"coordinator held {coordinator_peak} resident distance bytes "
        f"under process placement; expected none"
    )
    assert worker_fraction <= RESIDENT_FRACTION_CEILING, (
        f"worker resident peak {worker_peak} is {worker_fraction:.2%} of "
        f"the unsharded matrix; ceiling {RESIDENT_FRACTION_CEILING:.2%}"
    )
    rows = [
        {
            "scenario": f"distance-memory(n={n},unsharded)",
            "n": n,
            "config": "unsharded",
            "wall_s": ref_wall,
            "resident_peak_bytes": full_bytes,
            "peak_fraction": 1.0,
            "identical": True,
        },
        {
            "scenario": (
                f"distance-memory(n={n},shards={shards},process)"
            ),
            "n": n,
            "config": f"shards={shards},placement=process,coordinator",
            "wall_s": remote_wall,
            "resident_peak_bytes": coordinator_peak,
            "peak_fraction": coordinator_fraction,
            "identical": True,
        },
        {
            "scenario": (
                f"distance-memory(n={n},shards={shards},max-worker)"
            ),
            "n": n,
            "config": f"shards={shards},placement=process,max-worker",
            "wall_s": remote_wall,
            "resident_peak_bytes": worker_peak,
            "peak_fraction": worker_fraction,
            "identical": True,
        },
    ]
    return rows, coordinator_fraction, worker_fraction


def _run_trajectory(game: TopologyGame, evaluator, backend, label: str):
    report, wall_s = _timed(
        lambda: SimulationEngine(
            game,
            method="greedy",
            activation="max-gain",
            evaluator=evaluator,
            backend=backend,
        ).run(max_rounds=TRAJECTORY_ROUNDS)
    )
    return {
        "scenario": f"max-gain(n={game.n},{label})",
        "n": game.n,
        "config": label,
        "wall_s": wall_s,
        "moves": report.moves,
        "profile_key": report.profile.key(),
        "final_cost": report.final_cost,
    }


def _trajectory_matrix(n: int):
    """Process-placement trajectories across k × backend × store."""
    solver_pool = ProcessBackend(workers=2)
    combos = [
        ("unsharded,serial,memory", None, SerialBackend(), "memory"),
        ("process-k=1,serial,memory", 1, SerialBackend(), "memory"),
        ("process-k=2,serial,memory", 2, SerialBackend(), "memory"),
        ("process-k=4,serial,memory", 4, SerialBackend(), "memory"),
        ("process-k=4,serial,shared", 4, SerialBackend(), "shared"),
        ("process-k=2,process,auto-shared", 2, solver_pool, "memory"),
    ]
    rows = []
    try:
        for label, shards, backend, store in combos:
            game = _game(n)
            if shards is None:
                evaluator = game.make_evaluator()
            else:
                evaluator = ShardedEvaluator(
                    game, shards=shards, store=store, placement="process"
                )
            try:
                rows.append(_run_trajectory(game, evaluator, backend, label))
            finally:
                evaluator.close()
    finally:
        solver_pool.close()
    reference_key = rows[0]["profile_key"]
    reference_moves = rows[0]["moves"]
    for row in rows:
        row["identical"] = (
            row["profile_key"] == reference_key
            and row["moves"] == reference_moves
        )
        assert row["identical"], f"{row['scenario']} trajectory diverged"
        del row["profile_key"]
    return rows


def test_shard_workers_smoke():
    """CI-friendly smoke: zero-coordinator-bytes + identity, small n."""
    rows, coordinator_fraction, worker_fraction = _memory_headline(
        96, SHARDS_HEADLINE
    )
    assert coordinator_fraction == 0.0
    assert worker_fraction <= RESIDENT_FRACTION_CEILING
    game = _game(32)
    reference = SimulationEngine(
        game, method="greedy", activation="max-gain",
        evaluator=game.make_evaluator(),
    ).run(max_rounds=6)
    for shards in (1, 2):
        with SimulationEngine(
            _game(32),
            method="greedy",
            activation="max-gain",
            shards=shards,
            shard_placement="process",
        ) as engine:
            report = engine.run(max_rounds=6)
        assert report.profile.key() == reference.profile.key()
        assert report.moves == reference.moves


def _format_table(rows) -> str:
    header = (
        f"{'scenario':>46}  {'wall_s':>8}  {'peak_bytes':>11}  "
        f"{'fraction':>8}  identical"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        peak = row.get("resident_peak_bytes")
        fraction = row.get("peak_fraction")
        lines.append(
            f"{row['scenario']:>46}  {row['wall_s']:8.3f}  "
            f"{peak if peak is not None else '':>11}  "
            f"{f'{fraction:.2%}' if fraction is not None else '':>8}  "
            f"{row['identical']}"
        )
    return "\n".join(lines)


def test_shard_workers_report(benchmark):
    """Full report: n=256 memory headline + n=64 trajectory matrix."""
    memory_rows, coordinator_fraction, worker_fraction = _memory_headline(
        N_HEADLINE, SHARDS_HEADLINE
    )
    trajectory_rows = _trajectory_matrix(N_TRAJECTORY)
    benchmark.pedantic(
        lambda: _memory_headline(96, SHARDS_HEADLINE), rounds=1, iterations=1
    )
    supported = (
        coordinator_fraction == 0.0
        and worker_fraction <= RESIDENT_FRACTION_CEILING
    )
    status = "SUPPORTED" if supported else "NOT SUPPORTED"
    text = (
        "E16: Shard worker processes — distributed distance rows, "
        "zero coordinator residency + trajectory identity\n"
        + _format_table(memory_rows + trajectory_rows)
        + "\n\nE16: per-shard worker processes behind placement=\"process\""
        + "\n  claim   : the coordinator holds 0 resident distance bytes "
        + "and no worker exceeds "
        + f"{RESIDENT_FRACTION_CEILING:.0%} of the unsharded matrix, "
        + "with bit-identical results"
        + f"\n  verdict : {status}"
        + "\n  note    : coordinator fraction "
        + f"{coordinator_fraction:.2%}, max worker fraction "
        f"{worker_fraction:.2%} at n={N_HEADLINE}, k={SHARDS_HEADLINE} "
        f"(ceiling {RESIDENT_FRACTION_CEILING:.0%} = 1/k + slack); "
        f"trajectories identical across k x backend x store at "
        f"n={N_TRAJECTORY}\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e16.txt").write_text(text)
    write_json_results(
        "e16",
        {
            "name": "e16",
            "title": (
                "Shard worker processes: cross-process distance rows "
                "over a narrow transport"
            ),
            "acceptance": {
                "ceiling_fraction": round(RESIDENT_FRACTION_CEILING, 4),
                "coordinator_fraction": round(coordinator_fraction, 4),
                "max_worker_fraction": round(worker_fraction, 4),
                "n": N_HEADLINE,
                "shards": SHARDS_HEADLINE,
                "asserted": True,
                "status": status,
            },
            "entries": [
                perf_entry(
                    row["scenario"],
                    row["n"],
                    "greedy",
                    row["wall_s"],
                    1.0,
                    config=row["config"],
                    identical=row["identical"],
                    **(
                        {
                            "resident_peak_bytes": row["resident_peak_bytes"],
                            "peak_fraction": round(row["peak_fraction"], 4),
                        }
                        if "resident_peak_bytes" in row
                        else {"moves": row["moves"]}
                    ),
                )
                for row in memory_rows + trajectory_rows
            ],
        },
    )
    print()
    print(text)
