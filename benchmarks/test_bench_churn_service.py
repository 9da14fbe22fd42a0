"""E19 benchmark: churn-as-a-service — sustained throughput + tails.

PR 8 added ``repro.service``: an open-loop front-end that coalesces
logically-concurrent ``join``/``leave``/``rebind``/``query_*`` requests
into the batched epochs the evaluator fabric is fast at.  This bench
pins the service's two contracts:

* **Coalescing throughput** (the headline): the live service — bounded
  queue, worker thread, futures — is driven open-loop with a seeded
  request stream at a ``n = 10^4`` universe and ~128 active peers, with
  the coalescer on vs off (request-at-a-time epochs through the same
  machinery).  On the *service mix* (read-mostly, the regime a
  long-running query service lives in) the ≥ 2x floor is asserted
  **unconditionally**: every saved cost is per-epoch work the batch
  shares — evaluator/overlay/stretch setup, one blocked rows-only
  Dijkstra for all of an epoch's cost queries, duplicate-request
  dedupe — so the ratio is batching-bound, not host-bound.  The
  mutation-heavy churn mix is reported alongside with a lower floor:
  at 60% rebinds the wall clock is dominated by per-peer best-response
  solves that coalescing must also run (minus dedupe), so its honest
  gain is structurally smaller.
* **Replay identity**: every run journals its committed epochs, and the
  journal must replay — through the closed-loop epoch engine, on the
  *default* execution harness — to the bit-identical trajectory (digest
  per epoch, move counts, final overlay), whatever harness produced it.
  Asserted for the serial, sharded-local and sharded-socket
  configurations.

Tail latency here is open-loop sojourn time (queue wait + epoch), the
number a service owner actually sees at this offered load.

Results go to ``benchmarks/results/e19.txt`` and, machine-readable,
``benchmarks/results/e19.json``.
"""

from __future__ import annotations

import time

from repro.metrics.euclidean import EuclideanMetric
from repro.service import (
    ChurnService,
    ServiceJournal,
    ServiceState,
    WorkloadGenerator,
    WorkloadMix,
    replay_journal,
)

from benchmarks.conftest import RESULTS_DIR, perf_entry, write_json_results

SEED = 42
ALPHA = 2.0
UNIVERSE = 10_000
NUM_ACTIVE = 128
MAX_BATCH = 32
#: Read-mostly: the steady state of a long-running query service.
SERVICE_MIX = WorkloadMix(
    join=0.05, leave=0.05, rebind=0.20,
    query_cost=0.55, query_social_cost=0.15,
)
#: Mutation-heavy: the churn-storm regime (DEFAULT_MIX of the workload
#: generator), dominated by best-response solves.
CHURN_MIX = WorkloadMix()
HEADLINE_COUNT = 512
CONFIG_COUNT = 160
SPEEDUP_FLOOR_SERVICE_MIX = 2.0
SPEEDUP_FLOOR_CHURN_MIX = 1.2

CONFIGS = [
    ("serial", {}),
    ("sharded-local", {"shards": 2}),
    ("sharded-socket", {"shards": 2, "shard_placement": "socket"}),
]


def _metric():
    return EuclideanMetric.random_uniform(UNIVERSE, dim=2, seed=SEED)


def _requests(count, mix):
    return WorkloadGenerator(
        UNIVERSE, range(NUM_ACTIVE), SEED, mix=mix
    ).take(count)


def _verify_replay(journal, metric, snapshot):
    """The journal must replay bit-identically on the default harness."""
    result = replay_journal(
        journal, metric, ALPHA, initial_active=range(NUM_ACTIVE)
    )
    assert list(result.digests) == [r.digest for r in journal.records]
    assert list(result.moves) == [r.moves for r in journal.records]
    assert (result.final_active, result.final_strategies) == snapshot, (
        "replayed overlay diverged from the live service's final state"
    )


def _live_run(metric, requests, coalesce, **state_options):
    """Open-loop drive of the live service; returns a result row."""
    journal = ServiceJournal()
    state = ServiceState(
        metric,
        ALPHA,
        initial_active=range(NUM_ACTIVE),
        journal=journal,
        **state_options,
    )
    service = ChurnService(
        state,
        max_queue=len(requests) + 8,
        max_batch=MAX_BATCH,
        max_wait_s=0.001,
        coalesce=coalesce,
    )
    done = rejected = 0
    start = time.perf_counter()
    futures = [service.submit(request) for request in requests]
    for future in futures:
        try:
            future.result(timeout=600)
            done += 1
        except Exception:
            rejected += 1  # membership races are legitimate outcomes
    wall_s = time.perf_counter() - start
    stats = service.snapshot_stats()
    snapshot = state.snapshot()
    service.close()
    _verify_replay(journal, metric, snapshot)
    latency = stats["latency_ms"]
    return {
        "coalesce": coalesce,
        "count": len(requests),
        "done": done,
        "rejected": rejected,
        "wall_s": wall_s,
        "rps": len(requests) / wall_s,
        "epochs": stats["epochs"],
        "mean_epoch_size": len(requests) / max(1, stats["epochs"]),
        "p50_ms": {
            kind: latency.get(kind, {}).get("p50_ms", 0.0)
            for kind in ("rebind", "query_cost")
        },
        "p99_ms": {
            kind: latency.get(kind, {}).get("p99_ms", 0.0)
            for kind in ("rebind", "query_cost")
        },
        "journaled_epochs": len(journal),
    }


def _best_live(metric, requests, coalesce, repeats=3, **state_options):
    """Best-of-N live runs (min wall clock), e18's timing convention."""
    rows = [
        _live_run(metric, requests, coalesce, **state_options)
        for _ in range(repeats)
    ]
    return min(rows, key=lambda row: row["wall_s"])


def test_churn_service_smoke():
    """CI-friendly smoke: coalescing + replay identity on a small run."""
    metric = EuclideanMetric.random_uniform(400, dim=2, seed=SEED)
    requests = WorkloadGenerator(400, range(24), SEED).take(60)
    journal = ServiceJournal()
    state = ServiceState(
        metric, ALPHA, initial_active=range(24), journal=journal
    )
    with ChurnService(state, max_batch=16, max_wait_s=0.001) as service:
        futures = [service.submit(r) for r in requests]
        outcomes = 0
        for future in futures:
            try:
                future.result(timeout=120)
                outcomes += 1
            except Exception:
                pass
        assert outcomes > 0
        stats = service.snapshot_stats()
        assert stats["epochs"] < stats["completed"] + stats["failed"]
        result = replay_journal(
            journal, metric, ALPHA, initial_active=range(24)
        )
        assert (result.final_active, result.final_strategies) == (
            state.snapshot()
        )


def test_churn_service_report(benchmark):
    """Full report: coalescing speedups, tails, harness matrix."""
    metric = _metric()
    # Warm-up: the first live run pays one-time costs (imports, scipy
    # workspace allocation, thread spin-up) that belong to neither side.
    _live_run(metric, _requests(96, SERVICE_MIX), True)

    mixes = {}
    for mix_name, mix, floor in (
        ("service", SERVICE_MIX, SPEEDUP_FLOOR_SERVICE_MIX),
        ("churn", CHURN_MIX, SPEEDUP_FLOOR_CHURN_MIX),
    ):
        requests = _requests(HEADLINE_COUNT, mix)
        if mix_name == "service":
            coalesced = benchmark.pedantic(
                lambda: _best_live(metric, requests, True),
                rounds=1,
                iterations=1,
            )
        else:
            coalesced = _best_live(metric, requests, True)
        sequential = _best_live(metric, requests, False)
        speedup = sequential["wall_s"] / coalesced["wall_s"]
        assert speedup >= floor, (
            f"coalescing speedup {speedup:.2f}x under the {mix_name} mix "
            f"is below the {floor}x floor"
        )
        mixes[mix_name] = {
            "floor": floor,
            "speedup": speedup,
            "coalesced": coalesced,
            "sequential": sequential,
        }

    config_rows = []
    config_requests = _requests(CONFIG_COUNT, SERVICE_MIX)
    for name, options in CONFIGS:
        row = _live_run(metric, config_requests, True, **options)
        config_rows.append({"config": name, **row})

    lines = [
        "E19: Churn-as-a-service — open-loop coalescing at "
        f"n={UNIVERSE}, ~{NUM_ACTIVE} active peers",
        "",
        f"coalesced (max_batch={MAX_BATCH}) vs request-at-a-time, "
        f"{HEADLINE_COUNT} open-loop requests:",
    ]
    for mix_name, data in mixes.items():
        on, off = data["coalesced"], data["sequential"]
        lines += [
            f"  {mix_name} mix: {on['rps']:7.1f} req/s coalesced "
            f"({on['epochs']} epochs, mean size "
            f"{on['mean_epoch_size']:.1f})  vs  {off['rps']:7.1f} req/s "
            f"sequential  ->  {data['speedup']:.2f}x "
            f"(floor {data['floor']}x)",
            f"    open-loop sojourn p50/p99 ms  "
            f"query_cost {on['p50_ms']['query_cost']:.1f}/"
            f"{on['p99_ms']['query_cost']:.1f} coalesced, "
            f"{off['p50_ms']['query_cost']:.1f}/"
            f"{off['p99_ms']['query_cost']:.1f} sequential;  "
            f"rebind {on['p50_ms']['rebind']:.1f}/"
            f"{on['p99_ms']['rebind']:.1f} coalesced, "
            f"{off['p50_ms']['rebind']:.1f}/"
            f"{off['p99_ms']['rebind']:.1f} sequential",
        ]
    lines += [
        "",
        "execution-harness matrix (service mix, coalesced, "
        f"{CONFIG_COUNT} requests; every journal replayed bit-identically "
        "on the default harness):",
    ]
    for row in config_rows:
        lines.append(
            f"  {row['config']:>15}: {row['rps']:7.1f} req/s  "
            f"({row['epochs']} epochs, {row['journaled_epochs']} "
            f"journaled, {row['rejected']} rejected)"
        )
    service_speedup = mixes["service"]["speedup"]
    churn_speedup = mixes["churn"]["speedup"]
    supported = (
        service_speedup >= SPEEDUP_FLOOR_SERVICE_MIX
        and churn_speedup >= SPEEDUP_FLOOR_CHURN_MIX
    )
    lines += [
        "",
        "E19: request coalescing for the churn/query service",
        "  claim   : coalesced epochs beat request-at-a-time processing"
        f" >= {SPEEDUP_FLOOR_SERVICE_MIX:.0f}x on the read-mostly service"
        " mix (batching-bound: shared epoch setup, blocked query"
        " pricing, dedupe), and every committed mutation replays"
        " bit-identically from the journal",
        f"  note    : the mutation-heavy churn mix is solver-bound —"
        f" coalescing still wins ({churn_speedup:.2f}x, floor"
        f" {SPEEDUP_FLOOR_CHURN_MIX}x) but best-response solves do not"
        " amortize",
        "  verdict : " + ("SUPPORTED" if supported else "NOT SUPPORTED")
        + f" (service mix {service_speedup:.2f}x, churn mix"
        f" {churn_speedup:.2f}x; floors asserted unconditionally)",
    ]
    text = "\n".join(lines) + "\n"

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e19.txt").write_text(text)
    write_json_results(
        "e19",
        {
            "name": "e19",
            "title": (
                "Churn-as-a-service: open-loop coalescing, backpressure, "
                "sustained throughput"
            ),
            "acceptance": {
                "floors": {
                    "service_mix": SPEEDUP_FLOOR_SERVICE_MIX,
                    "churn_mix": SPEEDUP_FLOOR_CHURN_MIX,
                },
                "asserted": True,
                "unconditional": (
                    "coalescing gains are per-epoch work shared by the "
                    "batch (setup, blocked query pricing, dedupe) — "
                    "batching-bound, not host-bound"
                ),
                "measured": {
                    "service_mix": round(service_speedup, 3),
                    "churn_mix": round(churn_speedup, 3),
                },
                "replay_identity": "verified for every run and config",
            },
            "universe": UNIVERSE,
            "active": NUM_ACTIVE,
            "max_batch": MAX_BATCH,
            "rows": [
                perf_entry(
                    f"{mix_name}-{'coalesced' if which == 'coalesced' else 'sequential'}",
                    UNIVERSE,
                    "greedy",
                    data[which]["wall_s"],
                    data["speedup"] if which == "coalesced" else 1.0,
                    rps=round(data[which]["rps"], 1),
                    epochs=data[which]["epochs"],
                    p50_ms=data[which]["p50_ms"],
                    p99_ms=data[which]["p99_ms"],
                    rejected=data[which]["rejected"],
                )
                for mix_name, data in mixes.items()
                for which in ("coalesced", "sequential")
            ]
            + [
                perf_entry(
                    f"config-{row['config']}",
                    UNIVERSE,
                    "greedy",
                    row["wall_s"],
                    1.0,
                    rps=round(row["rps"], 1),
                    epochs=row["epochs"],
                    journaled_epochs=row["journaled_epochs"],
                )
                for row in config_rows
            ],
        },
    )
    print()
    print(text)
