"""E17 benchmark: incremental dynamic-SSSP repair — O(affected) rebinds.

PR 6 routes every rebind through a Ramalingam–Reps-style dynamic SSSP
updater (:mod:`repro.graphs.dynamic_sssp`): instead of recomputing each
dirty distance row from scratch, the evaluator replays the net edge
flips since the row was last current and re-settles only the vertices
whose distance actually changed, falling back to a scratch Dijkstra for
a row only when the affected frontier exceeds a fraction of n.  This
bench measures both axes:

* **Churn headline (n=512)**: a sequence of single-peer rebinds, each
  followed by a full ``peer_costs()`` query, run with dynamic repair
  and with ``dynamic_repair=False``, ``HEADLINE_REPEATS`` interleaved
  times each (min-of-k).  Asserts the dynamic path is at least
  ``SPEEDUP_FLOOR``x faster, repairs on average fewer
  than ``REPAIR_RATIO_CEILING`` of the vertices a scratch recompute
  would touch, and produces bit-identical peer costs after every step.
* **Trajectory identity (n=64)**: max-gain greedy dynamics with dynamic
  repair across shard counts, stores, execution backends and shard
  placements must all walk the scratch-repair serial trajectory
  exactly.

The identity and repair-ratio assertions are hardware-independent
(stats counters and trajectory keys); the speedup floor is the one
wall-clock acceptance criterion of this PR and is asserted
unconditionally at the headline size, on the minimum of interleaved
repeats so that one slow timing on a noisy host cannot decide it.

Results go to ``benchmarks/results/e17.txt`` and, machine-readable,
``benchmarks/results/e17.json`` (schema: ``docs/benchmarks.md``).
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
N_HEADLINE = 512
CHURN_ROUNDS = 40
#: Acceptance floor on dynamic-vs-scratch wall-clock speedup (ISSUE.md).
SPEEDUP_FLOOR = 3.0
#: Acceptance ceiling on mean repaired-vertices per recomputed row, as a
#: fraction of n (a scratch recompute always "repairs" all n vertices).
REPAIR_RATIO_CEILING = 0.25
N_TRAJECTORY = 64
TRAJECTORY_ROUNDS = 8
#: Interleaved scratch/dynamic repeats of the headline; each path's time
#: is its minimum (e21's min-of-k method).  A single timing per path
#: read 2.6-2.9x in 2 of 5 runs on a noisy 2-vCPU host whose min-of-7
#: read 3.0-3.3x.
HEADLINE_REPEATS = 7


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


def _churn_moves(n: int, rounds: int):
    """Seeded single-link swaps: (peer, drop-index hint, added target)."""
    rng = np.random.default_rng(SEED + 2)
    return [
        (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n)))
        for _ in range(rounds)
    ]


def _churn_workload(evaluator, profile: StrategyProfile, moves):
    """Apply each single-link rebind, re-query all peer costs."""
    n = profile.n
    evaluator.set_profile(profile)
    evaluator.peer_costs()
    outputs = []
    current = profile
    for peer, drop_hint, added in moves:
        strategy = set(current.strategy(peer))
        strategy.discard(sorted(strategy)[drop_hint % len(strategy)])
        if added != peer:
            strategy.add(added)
        if not strategy:
            strategy = {(peer + 1) % n}
        current = current.with_strategy(peer, frozenset(strategy))
        evaluator.set_profile(current)
        outputs.append(evaluator.peer_costs().copy())
    return outputs


def _churn_headline(n: int, rounds: int, repeats: int = 1):
    """Dynamic vs scratch repair on the churn workload; returns rows.

    The two paths run ``repeats`` times, interleaved so drift in host
    speed hits both alike; each path's wall time is its minimum, and
    every repeat's outputs are compared bit for bit.
    """
    profile = _connected_profile(n)
    moves = _churn_moves(n, rounds)

    scratch_walls, dynamic_walls = [], []
    for _ in range(repeats):
        scratch = GameEvaluator(_game(n), dynamic_repair=False)
        scratch_outputs, wall = _timed(
            lambda: _churn_workload(scratch, profile, moves)
        )
        scratch_walls.append(wall)
        scratch_rows = scratch.stats.distance_rows_recomputed

        dynamic = GameEvaluator(_game(n))
        dynamic_outputs, wall = _timed(
            lambda: _churn_workload(dynamic, profile, moves)
        )
        dynamic_walls.append(wall)
        stats = dynamic.stats
        for got, expected in zip(dynamic_outputs, scratch_outputs):
            np.testing.assert_array_equal(got, expected)

    scratch_wall, dynamic_wall = min(scratch_walls), min(dynamic_walls)
    speedup = scratch_wall / dynamic_wall
    # A scratch recompute touches all n vertices of every dirty row;
    # the ratio is the fraction of that work the updater actually did.
    repair_ratio = stats.distance_vertices_repaired / (
        stats.distance_rows_recomputed * n
    )
    assert stats.distance_rows_recomputed == scratch_rows, (
        "dynamic and scratch paths must process the same dirty rows"
    )
    rows = [
        {
            "scenario": f"churn(n={n},rounds={rounds},scratch)",
            "n": n,
            "config": "dynamic_repair=False",
            "wall_s": scratch_wall,
            "speedup": 1.0,
            "vertices_repaired": 0,
            "full_fallbacks": 0,
            "repair_ratio": 1.0,
            "identical": True,
        },
        {
            "scenario": f"churn(n={n},rounds={rounds},dynamic)",
            "n": n,
            "config": "dynamic_repair=True",
            "wall_s": dynamic_wall,
            "speedup": speedup,
            "vertices_repaired": stats.distance_vertices_repaired,
            "full_fallbacks": stats.distance_full_fallbacks,
            "repair_ratio": repair_ratio,
            "identical": True,
        },
    ]
    return rows, speedup, repair_ratio, stats.distance_full_fallbacks


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
    """Dynamic-repair trajectories across k × store × backend × placement,
    all compared against the scratch-repair serial reference."""
    solver_pool = ProcessBackend(workers=2)
    combos = [
        ("scratch,unsharded,serial,memory", "scratch", SerialBackend(),
         "memory"),
        ("dynamic,unsharded,serial,memory", None, SerialBackend(), "memory"),
        ("dynamic,local-k=1,serial,memory", ("local", 1), SerialBackend(),
         "memory"),
        ("dynamic,local-k=2,serial,memory", ("local", 2), SerialBackend(),
         "memory"),
        ("dynamic,local-k=4,serial,shared", ("local", 4), SerialBackend(),
         "shared"),
        ("dynamic,process-k=2,serial,memory", ("process", 2),
         SerialBackend(), "memory"),
        ("dynamic,process-k=4,process,memory", ("process", 4), solver_pool,
         "memory"),
    ]
    rows = []
    try:
        for label, variant, backend, store in combos:
            game = _game(n)
            if variant == "scratch":
                evaluator = GameEvaluator(game, dynamic_repair=False)
            elif variant is None:
                evaluator = GameEvaluator(game)
            else:
                placement, shards = variant
                evaluator = ShardedEvaluator(
                    game, shards=shards, store=store, placement=placement
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


def test_dynamic_sssp_smoke():
    """CI-friendly smoke: bit-identity + repair ratio, small n."""
    rows, speedup, repair_ratio, _ = _churn_headline(128, 12)
    assert all(row["identical"] for row in rows)
    assert repair_ratio < REPAIR_RATIO_CEILING
    assert speedup > 0.0
    game = _game(32)
    reference = SimulationEngine(
        game, method="greedy", activation="max-gain",
        evaluator=GameEvaluator(game, dynamic_repair=False),
    ).run(max_rounds=6)
    dynamic = SimulationEngine(
        _game(32), method="greedy", activation="max-gain",
        evaluator=GameEvaluator(_game(32)),
    ).run(max_rounds=6)
    assert dynamic.profile.key() == reference.profile.key()
    assert dynamic.moves == reference.moves


def _format_table(rows) -> str:
    header = (
        f"{'scenario':>42}  {'wall_s':>8}  {'speedup':>7}  "
        f"{'repaired':>9}  {'fallbacks':>9}  {'ratio':>7}  identical"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        repaired = row.get("vertices_repaired")
        fallbacks = row.get("full_fallbacks")
        ratio = row.get("repair_ratio")
        speedup = row.get("speedup")
        lines.append(
            f"{row['scenario']:>42}  {row['wall_s']:8.3f}  "
            f"{f'{speedup:.2f}x' if speedup is not None else '':>7}  "
            f"{repaired if repaired is not None else '':>9}  "
            f"{fallbacks if fallbacks is not None else '':>9}  "
            f"{f'{ratio:.4f}' if ratio is not None else '':>7}  "
            f"{row['identical']}"
        )
    return "\n".join(lines)


def test_dynamic_sssp_report(benchmark):
    """Full report: n=512 churn headline + n=64 trajectory matrix."""
    churn_rows, speedup, repair_ratio, fallbacks = _churn_headline(
        N_HEADLINE, CHURN_ROUNDS, repeats=HEADLINE_REPEATS
    )
    trajectory_rows = _trajectory_matrix(N_TRAJECTORY)
    benchmark.pedantic(
        lambda: _churn_headline(128, 8), rounds=1, iterations=1
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"dynamic repair is only {speedup:.2f}x faster than scratch at "
        f"n={N_HEADLINE}; acceptance floor is {SPEEDUP_FLOOR:.0f}x"
    )
    assert repair_ratio < REPAIR_RATIO_CEILING, (
        f"mean repaired-vertices fraction {repair_ratio:.4f} exceeds "
        f"ceiling {REPAIR_RATIO_CEILING}"
    )
    supported = (
        speedup >= SPEEDUP_FLOOR and repair_ratio < REPAIR_RATIO_CEILING
    )
    status = "SUPPORTED" if supported else "NOT SUPPORTED"
    text = (
        "E17: Incremental dynamic-SSSP repair — O(affected) rebinds, "
        "bit-identical to scratch recompute\n"
        + _format_table(churn_rows + trajectory_rows)
        + "\n\nE17: Ramalingam–Reps-style row repair behind every rebind"
        + f"\n  claim   : churn-heavy rebinds run >= {SPEEDUP_FLOOR:.0f}x "
        + "faster than scratch recompute with bit-identical outputs, "
        + f"repairing < {REPAIR_RATIO_CEILING:.0%} of the vertices a "
        + "scratch pass would touch"
        + f"\n  verdict : {status}"
        + f"\n  note    : {speedup:.2f}x at n={N_HEADLINE} over "
        + f"{CHURN_ROUNDS} rebinds (min of {HEADLINE_REPEATS} interleaved "
        + "repeats per path); mean repaired fraction "
        + f"{repair_ratio:.4f}, {fallbacks} full-row fallbacks; "
        + "trajectories identical across k x store x backend x placement "
        + f"at n={N_TRAJECTORY}\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e17.txt").write_text(text)
    write_json_results(
        "e17",
        {
            "name": "e17",
            "title": (
                "Incremental dynamic-SSSP repair: rebinds cost "
                "O(affected), not O(recompute)"
            ),
            "acceptance": {
                "speedup_floor": SPEEDUP_FLOOR,
                "speedup": round(speedup, 2),
                "repair_ratio_ceiling": REPAIR_RATIO_CEILING,
                "repair_ratio": round(repair_ratio, 4),
                "full_fallbacks": fallbacks,
                "n": N_HEADLINE,
                "rounds": CHURN_ROUNDS,
                "asserted": True,
                "status": status,
            },
            "entries": [
                perf_entry(
                    row["scenario"],
                    row["n"],
                    "greedy",
                    row["wall_s"],
                    row.get("speedup", 1.0),
                    config=row["config"],
                    identical=row["identical"],
                    **(
                        {
                            "vertices_repaired": row["vertices_repaired"],
                            "full_fallbacks": row["full_fallbacks"],
                            "repair_ratio": round(row["repair_ratio"], 4),
                        }
                        if "vertices_repaired" in row
                        else {"moves": row["moves"]}
                    ),
                )
                for row in churn_rows + trajectory_rows
            ],
        },
    )
    print()
    print(text)
