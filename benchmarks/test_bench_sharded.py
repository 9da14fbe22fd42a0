"""E15 benchmark: sharded evaluators — distance-memory ceiling + identity.

PR 3 bounded the service-matrix side of the evaluator cache (spill
store); the overlay-distance matrix remained a monolithic ``n^2 x 8``
byte block.  This bench measures the sharded evaluator
(:mod:`repro.core.sharded`) on both axes:

* **Memory headline (n=512, k=4)**: the same query sequence — peer
  costs, social cost, single-peer rebinds with re-queries, and a partial
  gain sweep — on the unsharded and sharded evaluators, asserting via
  ``EvaluatorStats.distance_resident_peak_bytes`` that the sharded peak
  stays at or below ``1/k + slack`` (40% for k=4) of the unsharded
  peak, while every per-row result is bit-identical.
* **Trajectory identity (n=96)**: max-gain greedy dynamics across
  (shards x backend x store) combinations — including a spill store
  budgeted tight enough to actually demote, and a process pool over the
  auto-migrated shared sharded store — must all walk the unsharded
  serial trajectory exactly.

Unlike e14's parallel speedup floor there is no host-dependent
acceptance here: the memory ceiling is a property of the data layout,
so it is asserted unconditionally.  Sharding *costs* recompute (a
released block is rebuilt on its next query); the JSON records the
measured wall times so that trade-off stays visible across PRs.

Results go to ``benchmarks/results/e15.txt`` and, machine-readable,
``benchmarks/results/e15.json`` (schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backends import ProcessBackend, SerialBackend
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.core.service_store import SpillStore
from repro.core.sharded import ShardedEvaluator
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine

from benchmarks.conftest import RESULTS_DIR, perf_entry, write_json_results

SEED = 42
ALPHA = 1.0
N_HEADLINE = 512
SHARDS_HEADLINE = 4
#: Acceptance ceiling on sharded/unsharded peak resident distance bytes:
#: one of k row blocks plus slack for uneven blocks and repair traffic.
RESIDENT_FRACTION_CEILING = 1 / SHARDS_HEADLINE + 0.15
N_TRAJECTORY = 96
TRAJECTORY_ROUNDS = 8
SWEEP_PEERS = 16


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
    """The headline query sequence; returns its observable outputs."""
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
    """Unsharded-vs-sharded peak resident distance bytes at size ``n``."""
    profile = _connected_profile(n)
    game = _game(n)
    reference = GameEvaluator(game)
    ref_outputs, ref_wall = _timed(lambda: _memory_workload(reference, profile))
    ref_peak = reference.stats.distance_resident_peak_bytes
    assert ref_peak == n * n * 8, "unsharded peak must be the full matrix"

    sharded = ShardedEvaluator(
        _game(n), shards=shards, max_resident_shards=1
    )
    sharded_outputs, sharded_wall = _timed(
        lambda: _memory_workload(sharded, profile)
    )
    sharded_peak = sharded.stats.distance_resident_peak_bytes

    for got, expected in zip(sharded_outputs, ref_outputs):
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected, "gain-sweep responses diverged"
    fraction = sharded_peak / ref_peak
    assert fraction <= RESIDENT_FRACTION_CEILING, (
        f"sharded resident peak {sharded_peak} is {fraction:.2%} of "
        f"unsharded {ref_peak}; ceiling {RESIDENT_FRACTION_CEILING:.2%}"
    )
    rows = [
        {
            "scenario": f"distance-memory(n={n},unsharded)",
            "n": n,
            "config": "unsharded",
            "wall_s": ref_wall,
            "resident_peak_bytes": ref_peak,
            "peak_fraction": 1.0,
            "block_builds": reference.stats.distance_full_builds,
            "identical": True,
        },
        {
            "scenario": f"distance-memory(n={n},shards={shards})",
            "n": n,
            "config": f"shards={shards}",
            "wall_s": sharded_wall,
            "resident_peak_bytes": sharded_peak,
            "peak_fraction": fraction,
            "block_builds": sharded.stats.distance_block_builds,
            "identical": True,
        },
    ]
    sharded.close()
    return rows, fraction


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
    """Sharded trajectories across backend/store combos vs unsharded."""
    matrix_bytes = (n - 1) * n * 8
    tight_spill = lambda: SpillStore(budget_bytes=8 * matrix_bytes)
    process = ProcessBackend(workers=2)
    combos = [
        ("unsharded,serial,memory", None, SerialBackend(), "memory"),
        ("shards=2,serial,memory", 2, SerialBackend(), "memory"),
        ("shards=4,serial,memory", 4, SerialBackend(), "memory"),
        ("shards=4,serial,spill", 4, SerialBackend(), tight_spill),
        ("shards=2,process,auto-shared", 2, process, "memory"),
    ]
    rows = []
    try:
        for label, shards, backend, store in combos:
            game = _game(n)
            if shards is None:
                evaluator = game.make_evaluator()
            else:
                evaluator = ShardedEvaluator(game, shards=shards, store=store)
            rows.append(_run_trajectory(game, evaluator, backend, label))
            evaluator.close()
    finally:
        process.close()
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


def test_sharded_smoke():
    """CI-friendly smoke: memory ceiling + identity at reduced sizes."""
    rows, fraction = _memory_headline(128, SHARDS_HEADLINE)
    assert fraction <= RESIDENT_FRACTION_CEILING
    game = _game(32)
    reference = SimulationEngine(
        game, method="greedy", activation="max-gain",
        evaluator=game.make_evaluator(),
    ).run(max_rounds=6)
    for shards in (2, 4):
        sharded_game = _game(32)
        report = SimulationEngine(
            sharded_game,
            method="greedy",
            activation="max-gain",
            shards=shards,
        ).run(max_rounds=6)
        assert report.profile.key() == reference.profile.key()
        assert report.moves == reference.moves


def _format_table(rows) -> str:
    header = (
        f"{'scenario':>42}  {'wall_s':>8}  {'peak_bytes':>11}  "
        f"{'fraction':>8}  identical"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        peak = row.get("resident_peak_bytes")
        fraction = row.get("peak_fraction")
        lines.append(
            f"{row['scenario']:>42}  {row['wall_s']:8.3f}  "
            f"{peak if peak is not None else '':>11}  "
            f"{f'{fraction:.2%}' if fraction is not None else '':>8}  "
            f"{row['identical']}"
        )
    return "\n".join(lines)


def test_sharded_memory_report(benchmark):
    """Full report: n=512 memory headline + n=96 trajectory matrix."""
    memory_rows, fraction = _memory_headline(N_HEADLINE, SHARDS_HEADLINE)
    trajectory_rows = _trajectory_matrix(N_TRAJECTORY)
    benchmark.pedantic(
        lambda: _memory_headline(128, SHARDS_HEADLINE), rounds=1, iterations=1
    )
    status = (
        "SUPPORTED" if fraction <= RESIDENT_FRACTION_CEILING
        else "NOT SUPPORTED"
    )
    text = (
        "E15: Sharded evaluators — resident overlay-distance ceiling + "
        "trajectory identity\n"
        + _format_table(memory_rows + trajectory_rows)
        + "\n\nE15: row-block sharded overlay distances + per-shard stores"
        + "\n  claim   : k=4 shards keep resident distance bytes <= "
        + f"{RESIDENT_FRACTION_CEILING:.0%} of the unsharded evaluator "
        + "with bit-identical results"
        + f"\n  verdict : {status}"
        + f"\n  note    : measured peak fraction {fraction:.2%} at "
        f"n={N_HEADLINE}, k={SHARDS_HEADLINE} (ceiling "
        f"{RESIDENT_FRACTION_CEILING:.0%} = 1/k + slack); trajectories "
        f"identical across shards x backend x store at n={N_TRAJECTORY}\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e15.txt").write_text(text)
    write_json_results(
        "e15",
        {
            "name": "e15",
            "title": (
                "Sharded evaluators: row-block overlay distances and "
                "per-shard service stores"
            ),
            "acceptance": {
                "ceiling_fraction": round(RESIDENT_FRACTION_CEILING, 4),
                "measured_fraction": round(fraction, 4),
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
