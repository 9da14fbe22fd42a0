"""The ledger's four workloads: seeded set-up, measured operations, checks.

Every workload runs as a sequence of *instances*.  An instance is built
from a sub-seed of the run's ``--seed`` (set-up, timed on its own), runs
its operations for a share of the run's time budget (the measured
region), is checked for correctness outside the measured region, and is
torn down.  The program receives only the generated inputs.  Between
operations, outside the measured region, every workload runs the host
probe of :mod:`probe`, which the reported times are normalised by.

* ``sweep`` — cold ``gain_sweep(method="greedy")`` on a fresh
  :class:`GameEvaluator`, then max-gain steps (commit the largest-gain
  response, ``set_profile``, sweep again).  Closed loop, one caller.
* ``churn-socket`` — seeded single-link rebinds, each followed by
  ``peer_costs()``, on a two-shard :class:`ShardedEvaluator` whose row
  blocks live in an auto-spawned Unix-socket shard server.  Closed loop.
* ``serve-read`` / ``serve-churn`` — the in-process
  :class:`ChurnService` driven open-loop by one generator thread:
  latency windows of Poisson arrivals at a fixed rate alternate with
  saturation bursts whose whole stream is due at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import math
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.best_response import best_response_from_service, compute_service_costs
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.core.sharded import ShardedEvaluator
from repro.metrics.euclidean import EuclideanMetric
from repro.service import (
    ChurnService,
    ReplayMismatch,
    RequestFailed,
    ServiceJournal,
    ServiceOverloadedError,
    ServiceState,
    WorkloadGenerator,
    WorkloadMix,
    replay_journal,
)

from probe import HostProbe

__all__ = [
    "SIZES", "WORKLOADS", "Context", "Record", "leaked_resources", "percentile",
    "sub_seed",
]

#: Input sizes.  ``full`` is the benchmark; ``toy`` runs every code path
#: in about a second per workload for the ledger's own test.
SIZES: Dict[str, Dict[str, float]] = {
    "full": {
        "sweep_n": 64, "sweep_alpha": 1.5, "sweep_density": 0.05,
        "sweep_warm_steps": 8, "sweep_check_peers": 2,
        "churn_n": 512, "churn_alpha": 1.0, "churn_links": 2,
        "churn_shards": 2, "churn_check_steps": 16,
        "serve_universe": 10_000, "serve_active": 128, "serve_alpha": 2.0,
        "serve_warmup": 16,
    },
    "toy": {
        "sweep_n": 48, "sweep_alpha": 1.5, "sweep_density": 0.1,
        "sweep_warm_steps": 2, "sweep_check_peers": 2,
        "churn_n": 48, "churn_alpha": 1.0, "churn_links": 2,
        "churn_shards": 2, "churn_check_steps": 1_000_000,
        "serve_universe": 400, "serve_active": 48, "serve_alpha": 2.0,
        "serve_warmup": 8,
    },
}

#: Serve traffic.  ``rate`` is the fixed offered rate of the latency
#: phase: about a sixth of the saturation throughput measured on the
#: unmodified code on a 2-core host, which keeps the coalescer about a
#: quarter busy (small epochs cost more per request than saturated
#: ones).  At a quarter of saturation throughput it is ~60% busy, and
#: its queueing turns the host's speed drift into 40% run-to-run
#: spread in the median.  ``capacity`` sizes the saturation phase only.
#: Coalescer settings are the ``repro serve`` defaults.
SERVE_TRAFFIC = {
    "serve-read": {
        "mix": WorkloadMix(
            join=0.05, leave=0.05, rebind=0.20, query_cost=0.55,
            query_social_cost=0.15,
        ),
        "rate": 100.0,
        "capacity": 600.0,
    },
    "serve-churn": {"mix": WorkloadMix(), "rate": 40.0, "capacity": 270.0},
}
SERVE_OPTIONS = {"max_queue": 1024, "max_batch": 64, "max_wait_s": 0.002, "policy": "block"}
#: Share of an instance's budget spent in the latency phase.
LATENCY_SHARE = 0.75
#: Latency windows and saturation bursts per serve instance.
SERVE_CYCLES = 3
#: A run whose generator fell this far behind schedule (p99) is invalid.
GENERATOR_LATE_LIMIT_S = 0.05
#: Longest any one request may take before it counts as timed out.
REQUEST_TIMEOUT_S = 60.0


def sub_seed(seed: int, instance: int, purpose: str) -> int:
    """Deterministic 63-bit seed for one purpose of one instance."""
    digest = hashlib.sha256(f"{seed}/{instance}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _share(total: int, part: int) -> int:
    """Size of piece ``part`` when ``total`` is split into SERVE_CYCLES."""
    return total * (part + 1) // SERVE_CYCLES - total * part // SERVE_CYCLES


def costs_digest(costs: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(costs).tobytes()).hexdigest()


@dataclass
class Record:
    """Everything one run measured, across its instances."""

    setups_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    leaks: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    #: Seconds of the measured region (the ops, not the checks).
    measured_s: float = 0.0

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


class Context:
    """What a workload needs from the harness: sizes, tracer, tampering."""

    def __init__(self, size: str, tracer=None, tamper: str = "none") -> None:
        self.size = SIZES[size]
        self.tracer = tracer
        self.tamper = tamper
        #: id(request) -> (request, position in ``submitted_ns``), read
        #: by the epoch span hook to give each epoch span its request ids.
        #: Holding the request keeps its id from being reused.
        self.request_ids: Dict[int, Tuple[object, int]] = {}
        self.submitted_ns: List[int] = []
        self.probe = HostProbe()

    def probe_host(self, record: Record) -> None:
        """Time the host-speed probe once, outside the measured region."""
        record.add("probe_s", self.probe.sample())

    @contextlib.contextmanager
    def traced(self):
        """Enable the tracer (if any) for one measured section."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False


class Workload:
    """A workload's steps; ``instances`` is how many one run measures
    (``None``: repeat fixed-work instances until the time budget is spent)."""

    instances = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def warmup(self) -> None:
        """One-time work, before any timing, that users pay once per process."""


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    #: Max-gain dynamics are not stationary (early steps cost more), so an
    #: instance is a fixed unit of work and the run repeats instances
    #: until its time budget is spent.
    instances = None

    def setup(self, seed: int, instance: int):
        size = self.ctx.size
        n = int(size["sweep_n"])
        metric = EuclideanMetric.random_uniform(n, seed=sub_seed(seed, instance, "metric"))
        game = TopologyGame(metric, alpha=size["sweep_alpha"])
        profile = StrategyProfile.random(
            n, size["sweep_density"], seed=sub_seed(seed, instance, "profile")
        )
        return {
            "game": game,
            "profile": profile,
            "evaluator": GameEvaluator(game, profile),
            "rng": random.Random(sub_seed(seed, instance, "check")),
            "sweeps": 0,
            "first": True,
        }

    def _check(self, inst, responses, record: Record) -> None:
        """Re-solve a seeded sample of peers from scratch, bit for bit."""
        game, profile = inst["game"], inst["profile"]
        peers = inst["rng"].sample(range(game.n), int(self.ctx.size["sweep_check_peers"]))
        for peer in peers:
            got = responses[peer]
            if self.ctx.tamper == "response" and inst["first"]:
                got = dataclasses.replace(got, cost=float(np.nextafter(got.cost, math.inf)))
            service = compute_service_costs(game.distance_matrix, profile, peer)
            want = best_response_from_service(
                service, profile.strategy(peer), game.alpha, "greedy"
            )
            same = (got.strategy, got.cost, got.current_cost, got.improved) == (
                want.strategy, want.cost, want.current_cost, want.improved
            )
            record.check(
                "sweep.response", same,
                "" if same else f"sweep {inst['sweeps']} peer {peer}: {got} != {want}",
            )
        inst["first"] = False

    def _sweep(self, inst, record: Record, commit) -> Tuple[float, list]:
        evaluator = inst["evaluator"]
        self.ctx.probe_host(record)
        record.attempted += 1
        with self.ctx.traced():
            start = time.perf_counter()
            if commit is not None:
                inst["profile"] = inst["profile"].with_strategy(commit.peer, commit.strategy)
                evaluator.set_profile(inst["profile"])
            responses = evaluator.gain_sweep(method="greedy")
            elapsed = time.perf_counter() - start
        inst["sweeps"] += 1
        record.measured_s += elapsed
        self._check(inst, responses, record)
        return elapsed, responses

    def warmup(self) -> None:
        """One small cold sweep, so first-call costs precede the timing."""
        game = TopologyGame(EuclideanMetric.random_uniform(48, seed=0), alpha=1.5)
        with GameEvaluator(game, StrategyProfile.random(48, 0.1, seed=0)) as evaluator:
            evaluator.gain_sweep(method="greedy")

    def measure(self, inst, record: Record, budget_s: float, plan=None):
        """Cold sweep, then a fixed number of max-gain steps."""
        elapsed, responses = self._sweep(inst, record, None)
        record.add("cold_s", elapsed)
        total, ops = elapsed, 1
        for _step in range(int(self.ctx.size["sweep_warm_steps"])):
            best = max(responses, key=lambda r: r.gain)
            if not best.improved:
                break  # converged: the instance has no warm step left
            elapsed, responses = self._sweep(inst, record, best)
            record.add("warm_s", elapsed)
            total, ops = total + elapsed, ops + 1
        record.add("rate_ops_s", ops / total)
        return plan

    def layer_stats(self, inst) -> Dict:
        return {"evaluator": inst["evaluator"].stats.as_dict(), "n": inst["game"].n}

    def close(self, inst, record: Record) -> None:
        inst["evaluator"].close()


# ----------------------------------------------------------------------
# churn-socket
# ----------------------------------------------------------------------
class ChurnSocketWorkload(Workload):
    """Seeded rebinds are a stationary process: three instances, each
    measured for a third of the budget."""

    #: Steps between host probes: one probe (~8 ms) per four steps
    #: (~15 ms each) samples the host about every 60 ms.
    PROBE_EVERY = 4

    def setup(self, seed: int, instance: int):
        size = self.ctx.size
        n = int(size["churn_n"])
        rng = np.random.default_rng(sub_seed(seed, instance, "inputs"))
        game = TopologyGame(EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2))),
                            alpha=size["churn_alpha"])
        strategies = []
        for peer in range(n):  # the e17 shape: ring plus seeded links
            strategy = {(peer + 1) % n}
            for target in rng.integers(0, n, size=int(size["churn_links"])):
                if target != peer:
                    strategy.add(int(target))
            strategies.append(frozenset(strategy))
        profile = StrategyProfile(strategies)
        evaluator = ShardedEvaluator(
            game, shards=int(size["churn_shards"]), placement="socket"
        )
        try:
            evaluator.set_profile(profile)
            initial = evaluator.peer_costs().copy()  # warm-up: blocks built
        except BaseException:
            evaluator.close()
            raise
        return {
            "game": game,
            "initial": profile,
            "profile": profile,
            "evaluator": evaluator,
            "moves": rng,
            "steps": [],  # (peer, new strategy)
            "digests": [costs_digest(initial)],
            "check_seed": sub_seed(seed, instance, "check"),
        }

    def _next_strategy(self, inst) -> Tuple[int, frozenset]:
        rng, profile = inst["moves"], inst["profile"]
        n = profile.n
        peer, drop, added = (int(v) for v in rng.integers(0, n, size=3))
        strategy = set(profile.strategy(peer))
        strategy.discard(sorted(strategy)[drop % len(strategy)])
        if added != peer:
            strategy.add(added)
        if not strategy:
            strategy = {(peer + 1) % n}
        return peer, frozenset(strategy)

    def measure(self, inst, record: Record, budget_s: float, plan=None):
        """Rebind + ``peer_costs()`` steps for ``budget_s`` (or ``plan`` steps)."""
        evaluator = inst["evaluator"]
        used, steps = 0.0, 0
        while (used < budget_s) if plan is None else (steps < plan):
            if steps % self.PROBE_EVERY == 0:
                self.ctx.probe_host(record)
            peer, strategy = self._next_strategy(inst)
            profile = inst["profile"].with_strategy(peer, strategy)
            record.attempted += 1
            with self.ctx.traced():
                start = time.perf_counter()
                evaluator.set_profile(profile)
                costs = evaluator.peer_costs()
                elapsed = time.perf_counter() - start
            inst["profile"] = profile
            inst["steps"].append((peer, strategy))
            inst["digests"].append(costs_digest(costs))
            record.add("step_s", elapsed)
            record.measured_s += elapsed
            used += elapsed
            steps += 1
        return steps

    def layer_stats(self, inst) -> Dict:
        evaluator = inst["evaluator"]
        pool = evaluator.worker_pool
        return {
            "evaluator": evaluator.stats.as_dict(),
            "workers": evaluator.shard_worker_stats(),
            "respawns": len(pool.recovery_events),
            "n": inst["game"].n,
        }

    def close(self, inst, record: Record) -> None:
        inst["evaluator"].close()
        self._check(inst, record)

    def _check(self, inst, record: Record) -> None:
        """Replay the moves on an in-process scratch evaluator.

        Every move is applied; the costs are compared bit for bit at a
        seeded sample of steps, always including the warm-up and the
        final step (a scratch ``peer_costs()`` after every step would
        cost four times the measured run).
        """
        digests = inst["digests"]
        if self.ctx.tamper == "costs":
            digests = digests[:-1] + ["0" * 64]
        last = len(digests) - 1
        count = min(last, int(self.ctx.size["churn_check_steps"]))
        sample = set(random.Random(inst["check_seed"]).sample(range(1, last + 1), count))
        sample.update({0, last})
        reference = GameEvaluator(inst["game"], dynamic_repair=False)
        try:
            profile = inst["initial"]
            mismatches = []
            for step in range(last + 1):
                if step:
                    peer, strategy = inst["steps"][step - 1]
                    profile = profile.with_strategy(peer, strategy)
                reference.set_profile(profile)
                if step in sample and costs_digest(reference.peer_costs()) != digests[step]:
                    mismatches.append(step)
        finally:
            reference.close()
        record.check(
            "churn.peer_costs", not mismatches,
            f"{len(sample)} of {last + 1} steps compared"
            + (f"; mismatched at steps {mismatches[:5]}" if mismatches else ""),
        )


# ----------------------------------------------------------------------
# serve-read / serve-churn
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    #: Cost per request differs from seed to seed by tens of percent
    #: (the universe's geometry and the request stream), so a run
    #: averages over many short instances.
    instances = 8

    def __init__(self, name: str, ctx: Context) -> None:
        super().__init__(ctx)
        self.traffic = SERVE_TRAFFIC[name]

    def setup(self, seed: int, instance: int):
        size = self.ctx.size
        universe, active = int(size["serve_universe"]), int(size["serve_active"])
        metric = EuclideanMetric.random_uniform(
            universe, dim=2, seed=sub_seed(seed, instance, "metric")
        )
        journal = ServiceJournal()
        state = ServiceState(
            metric, size["serve_alpha"], initial_active=range(active), journal=journal
        )
        service = ChurnService(state, **SERVE_OPTIONS)
        generator = WorkloadGenerator(
            universe, range(active), sub_seed(seed, instance, "requests"),
            mix=self.traffic["mix"],
        )
        inst = {
            "metric": metric,
            "journal": journal,
            "state": state,
            "service": service,
            "generator": generator,
            "arrivals": random.Random(sub_seed(seed, instance, "arrivals")),
        }
        try:
            warmup = [service.submit(r) for r in generator.take(int(size["serve_warmup"]))]
            for future in warmup:
                with contextlib.suppress(RequestFailed):
                    future.result(timeout=REQUEST_TIMEOUT_S)
        except BaseException:
            service.close()
            raise
        return inst

    def _submit(self, inst, record: Record, request, done_ns: list, slot: int):
        self.ctx.request_ids[id(request)] = (request, len(self.ctx.submitted_ns))
        self.ctx.submitted_ns.append(time.perf_counter_ns())
        record.attempted += 1
        try:
            future = inst["service"].submit(request, timeout=REQUEST_TIMEOUT_S)
        except ServiceOverloadedError:
            record.failed += 1  # shed: never admitted
            return None

        def resolved(_future, slot=slot):
            done_ns[slot] = time.perf_counter_ns()

        future.add_done_callback(resolved)
        return future

    def _settle(self, futures, record: Record) -> None:
        for future in futures:
            if future is None:
                continue
            try:
                future.result(timeout=REQUEST_TIMEOUT_S)
            except RequestFailed:
                pass  # a semantic rejection is an answer, not a failure
            except Exception:  # noqa: BLE001 - a timeout or error fails the op
                record.failed += 1

    def plan_for(self, budget_s: float) -> Tuple[int, int]:
        """Request counts of the latency windows and saturation bursts.

        A burst gets at least 48 requests, so that it coalesces into a
        large epoch (stale commits are re-checked only there) even when
        the budget is tiny.
        """
        rate, capacity = self.traffic["rate"], self.traffic["capacity"]
        return (
            max(SERVE_CYCLES, round(rate * budget_s * LATENCY_SHARE)),
            max(48 * SERVE_CYCLES, round(capacity * budget_s * (1.0 - LATENCY_SHARE))),
        )

    def measure(self, inst, record: Record, budget_s: float, plan=None):
        """Alternate latency windows at the fixed rate with saturation bursts.

        The host's speed drifts over seconds, so each phase is split into
        ``SERVE_CYCLES`` pieces spread over the instance rather than run
        as one block.
        """
        latency_count, saturation_count = plan or self.plan_for(budget_s)
        for cycle in range(SERVE_CYCLES):
            # Probes go between phases, while the service is idle.
            self.ctx.probe_host(record)
            self._latency_window(inst, record, _share(latency_count, cycle))
            self.ctx.probe_host(record)
            self._saturation_burst(inst, record, _share(saturation_count, cycle))
        return (latency_count, saturation_count)

    def _latency_window(self, inst, record: Record, count: int) -> None:
        """Poisson arrivals at the fixed rate; sojourn timed from each due time."""
        rate = self.traffic["rate"]
        requests = inst["generator"].take(count)
        offsets, due = [], 0.0
        for _ in requests:
            due += inst["arrivals"].expovariate(rate)
            offsets.append(int(due * 1e9))
        done_ns = [0] * count
        futures = []
        with self.ctx.traced():
            start_ns = time.perf_counter_ns()
            for slot, (request, offset) in enumerate(zip(requests, offsets)):
                wait = (start_ns + offset - time.perf_counter_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                record.add("late_s", (time.perf_counter_ns() - start_ns - offset) / 1e9)
                futures.append(self._submit(inst, record, request, done_ns, slot))
            self._settle(futures, record)
            end_ns = max([start_ns] + done_ns)
        for slot, future in enumerate(futures):
            if future is not None and done_ns[slot]:
                record.add("sojourn_s", (done_ns[slot] - start_ns - offsets[slot]) / 1e9)
        record.measured_s += (end_ns - start_ns) / 1e9

    def _saturation_burst(self, inst, record: Record, count: int) -> None:
        """The whole burst due at once; completions per second of its makespan."""
        requests = inst["generator"].take(count)
        done_ns = [0] * count
        futures = []
        with self.ctx.traced():
            start_ns = time.perf_counter_ns()
            for slot, request in enumerate(requests):
                futures.append(self._submit(inst, record, request, done_ns, slot))
            self._settle(futures, record)
            end_ns = max([start_ns] + done_ns)
        record.add("saturation_s", (end_ns - start_ns) / 1e9)
        record.add("saturation_done", sum(1 for f, d in zip(futures, done_ns) if f is not None and d))
        record.measured_s += (end_ns - start_ns) / 1e9

    def layer_stats(self, inst) -> Dict:
        return {
            "evaluator": inst["state"].evaluator_totals(),
            "service": inst["service"].snapshot_stats(),
        }

    def close(self, inst, record: Record) -> None:
        """Drain and close the service, then replay its journal."""
        snapshot = inst["state"].snapshot()
        inst["service"].close()
        journal = inst["journal"]
        if self.ctx.tamper == "journal" and len(journal):
            payload = journal.to_dict()
            payload["epochs"][len(journal) // 2]["digest"] = "0" * 64
            journal = ServiceJournal.from_dict(payload)
        start = time.perf_counter()
        try:
            result = replay_journal(
                journal, inst["metric"], self.ctx.size["serve_alpha"],
                initial_active=range(int(self.ctx.size["serve_active"])),
            )
        except ReplayMismatch as error:
            record.check("serve.replay", False, str(error))
            return
        finally:
            record.add("replay_s", time.perf_counter() - start)
        replayed = (result.final_active, result.final_strategies)
        record.check(
            "serve.replay", replayed == snapshot,
            f"{len(journal)} epochs digest-identical"
            + ("" if replayed == snapshot else "; final snapshot differs"),
        )


WORKLOADS = {
    "sweep": SweepWorkload,
    "churn-socket": ChurnSocketWorkload,
    "serve-read": lambda ctx: ServeWorkload("serve-read", ctx),
    "serve-churn": lambda ctx: ServeWorkload("serve-churn", ctx),
}


# ----------------------------------------------------------------------
# teardown check
# ----------------------------------------------------------------------
def _children() -> List[int]:
    """Live child processes of this process (from ``/proc``)."""
    me, found = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(stat.split("/")[2]))
    return found


def leaked_resources(tmpdir: str) -> List[str]:
    """Shard servers, socket files and shm segments that outlived a run.

    Anything found is reported and then removed (children are killed and
    reaped), so one leak cannot steal a core from the runs after it.
    """
    leaks = []
    for pid in _children():
        leaks.append(f"child process {pid} still running")
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        while True:
            pid, _status = os.waitpid(-1, os.WNOHANG if not leaks else 0)
            if pid == 0:
                break
    for path in glob.glob(os.path.join(tmpdir, "repro-shard-*.sock")):
        leaks.append(f"socket file {os.path.basename(path)}")
        os.unlink(path)
    for path in glob.glob(f"/dev/shm/repro_{os.getpid()}_*"):
        leaks.append(f"shared-memory segment {os.path.basename(path)}")
        os.unlink(path)
    return leaks


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else float("nan")
