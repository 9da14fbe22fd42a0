"""E18 benchmark: multi-host shard fabric — fan-out latency + per-op cost.

Every shard speaks the framed socket protocol of
:mod:`repro.core.transport`, whether it is a **forked** same-host child
on a socketpair (``placement="socket"`` without hosts) or a
**remote** shard served by a :mod:`repro.shard_server`
(here one server process on a Unix socket, reached through
``--shard-hosts``).  Every broadcast is **pipelined**: the pool puts all
``k`` requests on the wire before collecting any reply, so a broadcast
costs one worker's round trip plus the slowest handler instead of ``k``
round trips.  This bench measures:

* **Fan-out speedup** (the headline): the pipelined broadcast at
  ``k=4`` on both placements against ``k × delay``, the least any
  sequential schedule must pay.  Per-request latency is made
  *protocol-bound* with the worker-side latency probe
  (``pool.ping(delay)`` — each worker holds its reply for ``delay``
  seconds, standing in for the cross-host wire latency the socket
  transport exists for; the workers delay concurrently, exactly like
  network RTTs would overlap, while a request-by-request schedule
  sleeps through all ``k`` delays back to back).  Because the delay is
  slept worker-side, the >= 1.5x acceptance floor holds on any host,
  single-core included — it is asserted **unconditionally**.
* **Per-op overhead**: raw (no-probe) per-op wall time for ``ping``
  (pure protocol) and ``rows`` (bulk ndarray frames) on both
  placements: one process per forked shard against all ``k`` shards on
  threads of one server process.  Informational, not asserted —
  same-host numbers say nothing about the cross-host case the server is
  for.
* **Placement identity + residency**: a max-gain engine run under
  socket placement must reproduce local placement's trajectory exactly
  while the coordinator's resident distance bytes stay 0 (the e16
  stats-counter contract, now over a real socket).

Results go to ``benchmarks/results/e18.txt`` and, machine-readable,
``benchmarks/results/e18.json``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.core.game import TopologyGame
from repro.core.shard_workers import ShardWorkerPool
from repro.core.sharded import ShardPlan
from repro.core.transport import SocketTransportFactory, connect_address
from repro.metrics.euclidean import EuclideanMetric
from repro.simulation.engine import SimulationEngine

from benchmarks.conftest import RESULTS_DIR, perf_entry, write_json_results

SEED = 42
ALPHA = 1.0
N = 96
K = 4
#: Worker-side latency probe per request (seconds) for the fan-out
#: section — the stand-in for cross-host wire latency.
PROBE_DELAY_S = 0.002
PROBE_ROUNDS = 20
RAW_ROUNDS = 200
SPEEDUP_FLOOR_PIPELINED = 1.5
ENGINE_ROUNDS = 12


def _game(n: int) -> TopologyGame:
    rng = np.random.default_rng(SEED)
    return TopologyGame(
        EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2))), alpha=ALPHA
    )


@contextlib.contextmanager
def _shard_server():
    """A ``python -m repro.shard_server`` process on a Unix socket."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory(prefix="e18-") as tmpdir:
        address = f"unix:{os.path.join(tmpdir, 'shard.sock')}"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.shard_server", "--listen",
             address, "--quiet"],
            env=env,
        )
        try:
            # Wait until it serves: its start-up must not overlap a
            # measurement.
            connect_address(address, timeout=30.0).close()
            yield address
        finally:
            server.terminate()
            server.wait(timeout=10)


def _pool(
    game: TopologyGame, placement: str, k: int = K, address: str = None
) -> ShardWorkerPool:
    """A pool of forked shards, or of remote ones on ``address``."""
    kwargs = (
        {"transport_factory": SocketTransportFactory([address])}
        if placement == "remote"
        else {}
    )
    pool = ShardWorkerPool(
        ShardPlan.build(game.n, k), game.distance_matrix, **kwargs
    )
    pool.reset(game.empty_profile())
    return pool


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fanout_row(pool: ShardWorkerPool, transport: str) -> dict:
    """Pipelined broadcast under the latency probe vs ``k × delay``."""
    pool.ping()  # warm every stream
    pipelined_s = _best_of(
        lambda: [pool.ping(PROBE_DELAY_S) for _ in range(PROBE_ROUNDS)]
    ) / PROBE_ROUNDS
    # Any schedule that waits for one reply before sending the next
    # request sleeps through every worker's delay: k × delay is a lower
    # bound on its broadcast, before any protocol cost.
    sequential_bound_s = pool.num_workers * PROBE_DELAY_S
    return {
        "transport": transport,
        "k": pool.num_workers,
        "probe_delay_ms": PROBE_DELAY_S * 1e3,
        "pipelined_ms": pipelined_s * 1e3,
        "sequential_bound_ms": sequential_bound_s * 1e3,
        "speedup": sequential_bound_s / pipelined_s,
    }


def _per_op_rows(pool: ShardWorkerPool, transport: str, n: int) -> list:
    """Raw per-op wall time (no probe): protocol + bulk-frame ops."""
    pool.ping()
    ops = {
        "ping": lambda: [pool.ping() for _ in range(RAW_ROUNDS)],
        "rows": lambda: [
            pool.rows(range(n)) for _ in range(RAW_ROUNDS // 10)
        ],
    }
    iterations = {"ping": RAW_ROUNDS, "rows": RAW_ROUNDS // 10}
    return [
        {
            "transport": transport,
            "op": op,
            "us_per_op": _best_of(fn) / iterations[op] * 1e6,
        }
        for op, fn in ops.items()
    ]


def _placement_identity(n: int, max_rounds: int) -> dict:
    """Socket placement: same trajectory, zero coordinator residency."""
    game = _game(n)
    reference = SimulationEngine(
        game,
        method="greedy",
        activation="max-gain",
        shards=K,
        shard_placement="local",
    ).run(max_rounds=max_rounds)
    start = time.perf_counter()
    with SimulationEngine(
        TopologyGame(game.metric, game.alpha),
        method="greedy",
        activation="max-gain",
        shards=K,
        shard_placement="socket",
    ) as engine:
        report = engine.run(max_rounds=max_rounds)
        stats = engine.evaluator.stats
    wall_s = time.perf_counter() - start
    identical = (
        report.profile.key() == reference.profile.key()
        and report.moves == reference.moves
        and report.final_cost == reference.final_cost
    )
    assert identical, "socket placement diverged from local placement"
    assert stats.distance_resident_peak_bytes == 0, (
        "coordinator held resident distance bytes under socket placement"
    )
    return {
        "n": n,
        "k": K,
        "moves": report.moves,
        "wall_s": wall_s,
        "identical": True,
        "coordinator_resident_peak_bytes": 0,
    }


def test_socket_placement_smoke():
    """CI-friendly smoke: forked and remote shards end to end at n=24."""
    game = _game(24)
    with _shard_server() as address:
        with _pool(game, "forked", k=2) as forked, _pool(
            game, "remote", k=2, address=address
        ) as remote:
            forked.ping()
            remote.ping()
            np.testing.assert_array_equal(
                remote.rows(range(game.n)), forked.rows(range(game.n))
            )


def test_shard_fabric_report(benchmark):
    """Full report: fan-out speedup, per-op overhead, placement identity."""
    game = _game(N)
    fanout, per_op = [], []
    with _shard_server() as address:
        for placement in ("forked", "remote"):
            with _pool(game, placement, address=address) as pool:
                fanout.append(_fanout_row(pool, placement))
                per_op.extend(_per_op_rows(pool, placement, game.n))
    identity = benchmark.pedantic(
        lambda: _placement_identity(N, ENGINE_ROUNDS), rounds=1, iterations=1
    )

    forked_ping, remote_ping = (
        next(r for r in per_op if r["transport"] == name and r["op"] == "ping")
        for name in ("forked", "remote")
    )
    remote_overhead_us = remote_ping["us_per_op"] - forked_ping["us_per_op"]

    lines = [
        "E18: Multi-host shard fabric — pipelined fan-out, forked and "
        "remote shards",
        "",
        f"fan-out at k={K} ({PROBE_DELAY_S*1e3:.0f}ms worker-side latency "
        "probe per request):",
    ]
    for row in fanout:
        lines.append(
            f"  {row['transport']:>6}: pipelined {row['pipelined_ms']:6.2f}ms"
            f"  sequential >= {row['sequential_bound_ms']:6.2f}ms (k x delay)"
            f"  speedup >= {row['speedup']:4.2f}x"
        )
    lines.append("")
    lines.append("raw per-op wall time (same host, no probe):")
    for row in per_op:
        lines.append(
            f"  {row['transport']:>6} {row['op']:>5}: "
            f"{row['us_per_op']:8.1f} us/op"
        )
    lines += [
        f"  remote-over-forked ping overhead: {remote_overhead_us:+.1f} us/op",
        "",
        f"placement identity: n={N}, k={K}, {identity['moves']} moves, "
        f"identical={identity['identical']}, coordinator resident peak "
        f"{identity['coordinator_resident_peak_bytes']} bytes",
        "",
        "E18: pipelined fan-out over forked and remote shards",
        "  claim   : broadcasts cost one protocol-bound round trip, under"
        " the k x delay any sequential schedule pays;"
        " socket placement reproduces trajectories exactly with zero"
        " coordinator-resident distance bytes",
        "  verdict : "
        + (
            "SUPPORTED"
            if all(
                r["speedup"] >= SPEEDUP_FLOOR_PIPELINED for r in fanout
            )
            else "NOT SUPPORTED"
        )
        + f" (floor {SPEEDUP_FLOOR_PIPELINED}x, asserted unconditionally)",
    ]
    text = "\n".join(lines) + "\n"

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e18.txt").write_text(text)
    write_json_results(
        "e18",
        {
            "name": "e18",
            "title": (
                "Multi-host shard fabric: forked and remote shards, "
                "pipelined fan-out, shard-side placement identity"
            ),
            "acceptance": {
                "floor": SPEEDUP_FLOOR_PIPELINED,
                "asserted": True,
                "unconditional": (
                    "worker-side latency probe makes broadcasts "
                    "protocol-bound on any host"
                ),
                "baseline": "k x probe delay (lower bound of any "
                "sequential schedule)",
                "measured": {
                    row["transport"]: round(row["speedup"], 3)
                    for row in fanout
                },
            },
            "fanout": [
                {
                    **row,
                    "pipelined_ms": round(row["pipelined_ms"], 4),
                    "sequential_bound_ms": round(row["sequential_bound_ms"], 4),
                    "speedup": round(row["speedup"], 3),
                }
                for row in fanout
            ],
            "per_op_overhead": [
                {**row, "us_per_op": round(row["us_per_op"], 2)}
                for row in per_op
            ],
            "remote_over_forked_ping_us": round(remote_overhead_us, 2),
            "placement_identity": {
                **identity,
                "wall_s": round(identity["wall_s"], 4),
            },
            "entries": [
                perf_entry(
                    f"fanout(k={K},transport={row['transport']})",
                    N,
                    "ping-probe",
                    row["pipelined_ms"] / 1e3,
                    row["speedup"],
                    transport=row["transport"],
                    sequential_bound_ms=round(row["sequential_bound_ms"], 4),
                )
                for row in fanout
            ],
        },
    )
    print()
    print(text)
    for row in fanout:
        assert row["speedup"] >= SPEEDUP_FLOOR_PIPELINED, (
            f"{row['transport']}: pipelined broadcast only "
            f"{row['speedup']:.2f}x under k x delay at k={K} "
            f"(floor {SPEEDUP_FLOOR_PIPELINED}x)"
        )
