"""Metric definitions and their computation from a run's records.

``END_TO_END`` are the metrics of an untraced run (``--trace 0``) and
``PER_LAYER`` those of a traced run (``--trace 1``); ``BENCHMARK.json``
lists the same names.  The untraced table also prints the workload's own
named figures (``sweep_cold_s``, ``latency_p99_ms``, ...) with their
sample counts; only the four metrics every workload has are gated.  Times
and rates are given at the nominal host speed of :mod:`probe`, next to
the figures as timed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from probe import NOMINAL_S, stolen_share
from tracing import SPAN_TARGETS
from workloads import GENERATOR_LATE_LIMIT_S, percentile

#: ``(name, unit)``; all four are defined on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graphs.digraph.to_csr.calls", "count"),
    ("graphs.digraph.to_csr.self_ms", "ms"),
    ("graphs.digraph.copy_without_out_edges.self_ms", "ms"),
    ("graphs.shortest_paths.blocked_multi_source_distances.calls", "count"),
    ("graphs.shortest_paths.blocked_multi_source_distances.sources", "count"),
    ("graphs.shortest_paths.blocked_multi_source_distances.self_ms", "ms"),
    ("graphs.shortest_paths.multi_source_distances.self_ms", "ms"),
    ("graphs.dynamic_sssp.repair_block.calls", "count"),
    ("graphs.dynamic_sssp.repair_block.self_ms", "ms"),
    ("graphs.dynamic_sssp.repair_fraction", "fraction"),
    ("graphs.dynamic_sssp.full_fallbacks", "count"),
    ("core.best_response.normalize_service_rows.self_ms", "ms"),
    ("core.best_response.best_response_from_service.calls", "count"),
    ("core.best_response.best_response_from_service.self_ms", "ms"),
    ("core.evaluator.gain_sweep.self_ms", "ms"),
    ("core.evaluator.set_profile.self_ms", "ms"),
    ("core.evaluator.peer_costs.self_ms", "ms"),
    ("core.evaluator.social_cost.self_ms", "ms"),
    ("core.evaluator.strategy_rows_costs.self_ms", "ms"),
    ("core.evaluator.memo_hit_ratio", "fraction"),
    ("core.evaluator.row_reuse_ratio", "fraction"),
    ("core.service_store.resident_peak_bytes", "B"),
    ("core.dynamics.batch_responses.self_ms", "ms"),
    ("core.dynamics.recheck_improvement.calls", "count"),
    ("core.dynamics.recheck_improvement.self_ms", "ms"),
    ("core.dynamics.commit_ratio", "fraction"),
    ("core.shard_workers.round_trips", "count"),
    ("core.shard_workers.rebind.rtt_ms", "ms"),
    ("core.shard_workers.stretch_sums_all.rtt_ms", "ms"),
    ("core.shard_workers.worker_vertices_repaired", "count"),
    ("core.shard_workers.respawns", "count"),
    ("core.transport.frames", "count"),
    ("core.transport.bytes_sent", "B"),
    ("core.transport.bytes_received", "B"),
    ("core.transport.send_frame.self_ms", "ms"),
    ("core.transport.recv_frame.wait_ms", "ms"),
    ("service.service.epochs", "count"),
    ("service.service.epoch_size_mean", "requests"),
    ("service.service.queue_wait_p50_ms", "ms"),
    ("service.service.queue_depth_peak", "requests"),
    ("service.service.generator_late_p99_ms", "ms"),
    ("service.state.apply_epoch.self_ms", "ms"),
    ("service.state.subgame_matrix.self_ms", "ms"),
    ("service.state.rebind_dedupe_ratio", "fraction"),
    ("service.state.rejected_frac", "fraction"),
    ("service.journal.append.self_ms", "ms"),
    ("service.journal.replay_s", "s"),
    ("bench.unattributed_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
)

#: The metric that carries each span's time: its self time, except the
#: frame receive, whose (childless) span is the wait for the reply.
SPAN_METRIC = {
    name: f"{name}.wait_ms" if name == "core.transport.recv_frame" else f"{name}.self_ms"
    for name, _module, _attr in SPAN_TARGETS
}

_SERVE_WRAPPERS = (
    "service.state.apply_epoch", "service.state.subgame_matrix",
    "service.journal.append", "core.dynamics.batch_responses",
    "core.evaluator.gain_sweep", "core.evaluator.set_profile",
    "core.evaluator.social_cost", "core.evaluator.strategy_rows_costs",
    "graphs.shortest_paths.blocked_multi_source_distances",
    "graphs.digraph.to_csr", "graphs.digraph.copy_without_out_edges",
    "core.best_response.normalize_service_rows",
    "core.best_response.best_response_from_service",
)
#: Wrappers (spans or timers) a traced run of each workload must fire.
EXPECTED_WRAPPERS: Dict[str, Tuple[str, ...]] = {
    "sweep": (
        "core.evaluator.gain_sweep", "core.evaluator.set_profile",
        "graphs.digraph.to_csr", "graphs.digraph.copy_without_out_edges",
        "graphs.shortest_paths.blocked_multi_source_distances",
        "graphs.dynamic_sssp.repair_block",
        "core.best_response.normalize_service_rows",
        "core.best_response.best_response_from_service",
    ),
    "churn-socket": (
        "core.evaluator.set_profile", "core.evaluator.peer_costs",
        "core.shard_workers.rebind", "core.shard_workers.stretch_sums_all",
        "core.transport.send_frame", "core.transport.recv_frame",
    ),
    "serve-read": _SERVE_WRAPPERS,
    "serve-churn": _SERVE_WRAPPERS + ("core.dynamics.recheck_improvement",),
}


#: Churn steps per throughput window.
WINDOW = 32


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# untraced run
# ----------------------------------------------------------------------
def host_factor(record, phase: str = "measured") -> float:
    """How much slower than nominal the host ran ``phase`` of the run.

    The probe's mean CPU time over the nominal one gives the speed of the
    cores while they ran; time stolen by the hypervisor during the phase
    (``"measured"`` or ``"setup"``) stretches wall time by a further
    ``1 / (1 - stolen share)``.
    """
    probes = record.samples.get("probe_s", [])
    if not probes:
        return float("nan")
    stolen = min(stolen_share(record.samples.get(f"{phase}_cpu_ticks", [])), 0.9)
    return statistics.fmean(probes) / NOMINAL_S / (1.0 - stolen)


def end_to_end(workload: str, record, startups: Sequence[float], rss_mb: float):
    """Gated metrics plus the table of named figures.

    Every time and rate is reported at the nominal host speed: divided (a
    rate: multiplied) by the run's :func:`host_factor`, so that the
    host's drift, which moves the probe and the program alike, cancels.
    ``setup_s`` is the median start-up (interpreter, imports, warm-up) of
    ``startups`` plus the median instance set-up, normalised with the
    time stolen during set-up.  The closed-loop rates are medians over
    segments (sweep instances, windows of churn steps), not one total
    divided by another.

    Returns ``(metrics, table)``: ``metrics`` maps each
    :data:`END_TO_END` name to its value; ``table`` is a list of
    ``(name, value, raw, unit, samples)`` rows, ``raw`` being the figure
    as timed; a rate's samples are the segments its median was taken
    over.
    """
    samples = record.samples
    factor = host_factor(record)
    table: List[Tuple[str, float, float, str, int]] = []

    def time_row(name, raw, unit, count, factor=factor):
        table.append((name, raw / factor, raw, unit, count))
        return raw / factor

    def rate_row(name, raw, unit, count):
        table.append((name, raw * factor, raw, unit, count))
        return raw * factor

    setup_s = time_row(
        "setup_s", _median(startups) + _median(record.setups_s), "s",
        len(startups) + len(record.setups_s), host_factor(record, "setup"),
    )
    table.append(("peak_rss_mb", rss_mb, rss_mb, "MB", 1))
    failed_frac = record.failed / max(record.attempted, 1)
    table.append(("failed_frac", failed_frac, failed_frac, "fraction", record.attempted))
    if workload == "sweep":
        cold, warm = samples.get("cold_s", []), samples.get("warm_s", [])
        rates = samples.get("rate_ops_s", [])
        time_row("sweep_cold_s", _median(cold), "s", len(cold))
        time_row("sweep_warm_s", _median(warm), "s", len(warm))
        throughput = rate_row("throughput_ops_s", _median(rates), "ops/s", len(rates))
        p50_ms = time_row("latency_p50_ms", _median(warm) * 1e3, "ms", len(warm))
    elif workload == "churn-socket":
        steps = samples.get("step_s", [])
        windows = [steps[i:i + WINDOW] for i in range(0, len(steps) - WINDOW + 1, WINDOW)]
        raw_rate = _median([len(window) / sum(window) for window in windows])
        rate_row("churn_steps_per_s", raw_rate, "steps/s", len(windows))
        throughput = rate_row("throughput_ops_s", raw_rate, "ops/s", len(windows))
        p50_ms = time_row("latency_p50_ms", _median(steps) * 1e3, "ms", len(steps))
        time_row("step_p99_ms", percentile(steps, 99) * 1e3, "ms", len(steps))
    else:
        sojourn, late = samples.get("sojourn_s", []), samples.get("late_s", [])
        done = samples.get("saturation_done", [])
        raw_rate = _ratio(sum(done), sum(samples.get("saturation_s", [])))
        rate_row("throughput_rps", raw_rate, "req/s", int(sum(done)))
        throughput = rate_row("throughput_ops_s", raw_rate, "ops/s", int(sum(done)))
        p50_ms = time_row("latency_p50_ms", _median(sojourn) * 1e3, "ms", len(sojourn))
        # The highest percentile with at least ten samples beyond it.
        tail = min(99, int(100 * (1 - 10 / len(sojourn)))) if len(sojourn) > 20 else 50
        time_row(f"latency_p{tail}_ms", percentile(sojourn, tail) * 1e3, "ms", len(sojourn))
        late_ms = percentile(late, 99) * 1e3
        table.append(("generator_late_p99_ms", late_ms, late_ms, "ms", len(late)))
    probes = samples.get("probe_s", [])
    table.append(("host_factor", factor, factor, "ratio", len(probes)))
    for phase in ("measured", "setup"):
        intervals = samples.get(f"{phase}_cpu_ticks", [])
        stolen = stolen_share(intervals)
        table.append((f"{phase}_stolen_share", stolen, stolen, "fraction", len(intervals)))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50_ms,
    }
    return metrics, table


def generator_lagged(record) -> Optional[str]:
    late = record.samples.get("late_s", [])
    if late and percentile(late, 99) > GENERATOR_LATE_LIMIT_S:
        return (
            f"generator ran {percentile(late, 99) * 1e3:.1f} ms late at p99 "
            f"(limit {GENERATOR_LATE_LIMIT_S * 1e3:.0f} ms): offered load not held"
        )
    return None


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _merge(stats: List[Dict]) -> Dict:
    """Layer stats of several instances: counters summed, peaks maxed."""
    merged: Dict = {"evaluator": {}, "workers": [], "respawns": 0, "n": 0, "peak": 0}
    for item in stats:
        merged["n"] = max(merged["n"], item.get("n", 0))
        merged["workers"] += item.get("workers") or []
        merged["respawns"] += item.get("respawns", 0)
        for key, value in item.get("evaluator", {}).items():
            merged["evaluator"][key] = merged["evaluator"].get(key, 0) + value
        if "service" in item:  # epoch evaluators: totals, not a peak
            merged["queue_depth_peak"] = max(
                merged.get("queue_depth_peak", 0), item["service"]["queue_depth_peak"]
            )
        else:
            merged["peak"] = max(
                merged["peak"], item.get("evaluator", {}).get("store_resident_peak_bytes", 0)
            )
    return merged


def per_layer(workload: str, tracer, record, ctx, stats: List[Dict], overhead: float):
    """Per-layer metrics of a traced run, plus the wall-time identity.

    ``stats`` holds each traced instance's layer stats.  Returns
    ``(metrics, problems)``; ``problems`` lists expected wrappers that
    never fired and spans no metric accounts for.
    """
    spans = tracer.by_name()
    timers = tracer.timers
    counters = tracer.counters
    stats = _merge(stats)

    def calls(name):
        return float(len(spans.get(name, ())))

    def self_ms(name):
        return sum(span.self_ns for span in spans.get(name, ())) / 1e6

    def rtt_ms(name):
        return _median(timers.get(name, [])) / 1e6 if timers.get(name) else 0.0

    evaluator, workers, n = stats["evaluator"], stats["workers"], stats["n"]
    rows = (
        evaluator.get("distance_rows_recomputed", 0)
        + evaluator.get("service_rows_recomputed", 0)
        + sum(w.get("rows_recomputed", 0) for w in workers)
    )
    repaired = evaluator.get("distance_vertices_repaired", 0) + sum(
        w.get("vertices_repaired", 0) for w in workers
    )
    hits, solves = evaluator.get("response_memo_hits", 0), evaluator.get("response_solves", 0)
    reused = evaluator.get("service_rows_reused", 0)
    epochs = [span.meta for span in spans.get("service.state.apply_epoch", ())]
    submitted = ctx.submitted_ns
    waits = [
        (span.start - submitted[index]) / 1e6
        for span in spans.get("service.state.apply_epoch", ())
        for index in span.meta["requests"]
        if index is not None
    ]
    improving = sum(span.meta for span in spans.get("core.dynamics.batch_responses", ()))
    rebinds = sum(meta["rebinds"] for meta in epochs)
    late = record.samples.get("late_s", [])
    peak = max(stats["peak"], counters.get("store_resident_peak_bytes", 0))
    wall_ms = record.measured_s * 1e3
    attributed_ms = sum(span.self_ns for span in tracer.spans) / 1e6
    metrics = {
        "graphs.digraph.to_csr.calls": calls("graphs.digraph.to_csr"),
        "graphs.shortest_paths.blocked_multi_source_distances.calls": calls(
            "graphs.shortest_paths.blocked_multi_source_distances"
        ),
        "graphs.shortest_paths.blocked_multi_source_distances.sources": float(sum(
            span.meta for span in spans.get(
                "graphs.shortest_paths.blocked_multi_source_distances", ())
        )),
        "graphs.dynamic_sssp.repair_block.calls": calls("graphs.dynamic_sssp.repair_block"),
        "graphs.dynamic_sssp.repair_fraction": _ratio(repaired, rows * n),
        "graphs.dynamic_sssp.full_fallbacks": float(
            evaluator.get("distance_full_fallbacks", 0)
            + sum(w.get("full_fallbacks", 0) for w in workers)
        ),
        "core.best_response.best_response_from_service.calls": calls(
            "core.best_response.best_response_from_service"
        ),
        "core.evaluator.memo_hit_ratio": _ratio(hits, hits + solves),
        "core.evaluator.row_reuse_ratio": _ratio(
            reused, reused + evaluator.get("service_rows_recomputed", 0)
        ),
        "core.service_store.resident_peak_bytes": float(peak),
        "core.dynamics.recheck_improvement.calls": calls("core.dynamics.recheck_improvement"),
        "core.dynamics.commit_ratio": _ratio(sum(m["moves"] for m in epochs), improving),
        "core.shard_workers.round_trips": float(counters.get("frames_received", 0)),
        "core.shard_workers.rebind.rtt_ms": rtt_ms("core.shard_workers.rebind"),
        "core.shard_workers.stretch_sums_all.rtt_ms": rtt_ms(
            "core.shard_workers.stretch_sums_all"
        ),
        "core.shard_workers.worker_vertices_repaired": float(
            sum(w.get("vertices_repaired", 0) for w in workers)
        ),
        "core.shard_workers.respawns": float(stats["respawns"]),
        "core.transport.frames": float(
            counters.get("frames_sent", 0) + counters.get("frames_received", 0)
        ),
        "core.transport.bytes_sent": float(counters.get("bytes_sent", 0)),
        "core.transport.bytes_received": float(counters.get("bytes_received", 0)),
        "service.service.epochs": float(len(epochs)),
        "service.service.epoch_size_mean": _ratio(sum(m["size"] for m in epochs), len(epochs)),
        "service.service.queue_wait_p50_ms": _median(waits) if waits else 0.0,
        "service.service.queue_depth_peak": float(stats.get("queue_depth_peak", 0)),
        "service.service.generator_late_p99_ms": percentile(late, 99) * 1e3 if late else 0.0,
        "service.state.rebind_dedupe_ratio": _ratio(
            rebinds - sum(m["distinct_rebinds"] for m in epochs), rebinds
        ),
        "service.state.rejected_frac": _ratio(
            sum(m["rejected"] for m in epochs), sum(m["size"] for m in epochs)
        ),
        "service.journal.replay_s": sum(record.samples.get("replay_s", [])),
        "bench.unattributed_ms": wall_ms - attributed_ms,
        "bench.tracing_overhead": overhead,
    }
    for name, metric in SPAN_METRIC.items():
        metrics[metric] = self_ms(name)

    problems = []
    fired = {name for name in spans} | {name for name, values in timers.items() if values}
    for name in EXPECTED_WRAPPERS[workload]:
        if name not in fired:
            problems.append(f"wrapper {name} never fired")
    unaccounted = set(spans) - set(SPAN_METRIC)
    if unaccounted:
        problems.append(f"spans without a metric: {sorted(unaccounted)}")
    span_total = sum(metrics[SPAN_METRIC[name]] for name in SPAN_METRIC)
    if abs(span_total + metrics["bench.unattributed_ms"] - wall_ms) > 1e-6 * max(wall_ms, 1.0):
        problems.append("layer times plus unattributed time do not sum to the wall time")
    if metrics["bench.unattributed_ms"] < 0:
        problems.append("spans overlap: attributed time exceeds the wall time")
    return metrics, problems
