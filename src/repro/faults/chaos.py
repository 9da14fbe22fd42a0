"""Chaos drills: kill real processes, assert bounded recovery.

Where :mod:`repro.faults.scenarios` attacks the *game*, the drills here
attack the *fabric*: they kill actual shard worker processes mid-run —
one at a time, or every shard at once — and assert the three recovery
properties the ROADMAP demands of the service tier:

1. **Bounded recovery** — the run completes, every kill produces a
   worker-recovery event with a measured recovery time, and results are
   **bit-identical** to the undisturbed run (recovery replays protocol
   history; it never approximates).
2. **Digest-identical replay** — a journal written under an active
   fault plan replays clean (no faults, any placement) digest for
   digest: faults may slow epochs down, never change what they commit.
3. **No leaks** — after ``close()`` the drill's process tree and file
   descriptor table are back to their pre-drill size: no orphaned
   workers or sockets.

Each drill returns a :class:`ChaosReport`; ``recovery_seconds`` carries
wall-clock times (the only nondeterministic fields — everything else is
a pure function of the drill parameters).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ChaosReport",
    "server_restart_drill",
    "service_chaos_drill",
    "worker_kill_drill",
]


def _live_children() -> int:
    import multiprocessing

    # join_thread=False children that already exited still linger in
    # active_children() until joined; poke the list twice so finished
    # processes are reaped and only genuinely live ones are counted.
    children = multiprocessing.active_children()
    return sum(1 for child in children if child.is_alive())


def _open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-Linux fallback
        return 0


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one drill, JSON-friendly via :meth:`as_dict`."""

    name: str
    epochs: int
    kills: int
    recoveries: int
    recovery_seconds: Tuple[float, ...]
    replay_identical: Optional[bool]
    results_identical: Optional[bool]
    leaked_processes: int
    leaked_fds: int
    final_cost: float
    notes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        """Every asserted property held."""
        return (
            self.recoveries >= self.kills
            and self.replay_identical is not False
            and self.results_identical is not False
            and self.leaked_processes == 0
            and self.leaked_fds == 0
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "epochs": self.epochs,
            "kills": self.kills,
            "recoveries": self.recoveries,
            "recovery_seconds": list(self.recovery_seconds),
            "replay_identical": self.replay_identical,
            "results_identical": self.results_identical,
            "leaked_processes": self.leaked_processes,
            "leaked_fds": self.leaked_fds,
            "final_cost": self.final_cost,
            "clean": self.clean,
            "notes": list(self.notes),
        }


def _converge_sweeps(game, evaluator, profile, sweeps: int, method: str):
    """``sweeps`` stale-batch epochs with re-checks; returns the profile
    trajectory of per-epoch ``(moves, social_cost)`` plus the final
    profile — the comparable unit both arms of a drill execute."""
    from repro.core.dynamics import batch_responses, recheck_improvement

    trajectory: List[Tuple[int, float]] = []
    for _ in range(sweeps):
        responses = batch_responses(
            game, profile, list(range(game.n)), method, evaluator
        )
        moves = 0
        base = profile
        for response in responses:
            if not response.improved:
                continue
            commit = True
            if profile is not base:
                commit, _old, _new = recheck_improvement(
                    game, profile, response, evaluator
                )
            if commit:
                profile = profile.with_strategy(
                    response.peer, response.strategy
                )
                moves += 1
        cost = evaluator.set_profile(profile).social_cost().total
        trajectory.append((moves, cost))
    return trajectory, profile


def _reference_run(game, profile, sweeps: int, method: str):
    from repro.core.evaluator import GameEvaluator

    with GameEvaluator(game, profile) as evaluator:
        return _converge_sweeps(game, evaluator, profile, sweeps, method)


def _drill_game(n: int, alpha: float, seed: int):
    from repro.core.game import TopologyGame
    from repro.metrics.euclidean import EuclideanMetric

    metric = EuclideanMetric.random_uniform(n, dim=2, seed=seed)
    game = TopologyGame(metric, alpha)
    return game, game.random_profile(0.2, seed=seed)


# ----------------------------------------------------------------------
def worker_kill_drill(
    *,
    n: int = 16,
    alpha: float = 2.0,
    seed: int = 0,
    shards: int = 2,
    sweeps: int = 3,
    kills: int = 2,
    method: str = "greedy",
) -> ChaosReport:
    """Kill shard workers between sweeps; the pool must resurrect them.

    Each kill targets shard ``k % shards`` after sweep ``k``; the next
    request to that shard observes a between-requests death, and the
    recovery policy respawns the worker and replays its protocol
    history.  Results must equal the undisturbed monolithic run bit for
    bit.
    """
    from repro.core.sharded import build_sharded_evaluator

    game, profile = _drill_game(n, alpha, seed)
    expected, _final = _reference_run(game, profile, sweeps, method)

    fds_before = _open_fds()
    procs_before = _live_children()
    evaluator = build_sharded_evaluator(
        game, profile, shards=shards, placement="socket", recovery=True
    )
    notes: List[str] = []
    killed = 0
    try:
        trajectory: List[Tuple[int, float]] = []
        for sweep in range(sweeps):
            step, profile = _converge_sweeps(
                game, evaluator, profile, 1, method
            )
            trajectory.extend(step)
            if killed < kills:
                evaluator.worker_pool.kill_worker(killed % shards)
                killed += 1
        events = list(evaluator.worker_pool.recovery_events)
    finally:
        evaluator.close()
    time.sleep(0.05)  # let killed children finish reaping

    return ChaosReport(
        name="worker-kill[socket]",
        epochs=sweeps,
        kills=killed,
        recoveries=len(events),
        recovery_seconds=tuple(event["seconds"] for event in events),
        replay_identical=None,
        results_identical=trajectory == expected,
        leaked_processes=max(0, _live_children() - procs_before),
        leaked_fds=max(0, _open_fds() - fds_before),
        final_cost=trajectory[-1][1],
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
def server_restart_drill(
    *,
    n: int = 16,
    alpha: float = 2.0,
    seed: int = 0,
    shards: int = 2,
    sweeps: int = 3,
    method: str = "greedy",
) -> ChaosReport:
    """SIGKILL every shard's process at once mid-run.

    Every transport dies together, as when a whole shard host goes
    down; recovery must respawn all ``shards`` workers, replay their
    protocol history, and finish with bit-identical results.
    """
    from repro.core.sharded import build_sharded_evaluator

    game, profile = _drill_game(n, alpha, seed)
    expected, _final = _reference_run(game, profile, sweeps, method)

    fds_before = _open_fds()
    procs_before = _live_children()
    evaluator = build_sharded_evaluator(
        game, profile, shards=shards, placement="socket", recovery=True
    )
    try:
        trajectory: List[Tuple[int, float]] = []
        step, profile = _converge_sweeps(game, evaluator, profile, 1, method)
        trajectory.extend(step)
        pool = evaluator.worker_pool
        for shard in range(pool.num_workers):
            pool.kill_worker(shard)
        step, profile = _converge_sweeps(
            game, evaluator, profile, sweeps - 1, method
        )
        trajectory.extend(step)
        events = list(pool.recovery_events)
    finally:
        evaluator.close()
    time.sleep(0.05)

    return ChaosReport(
        name="server-restart",
        epochs=sweeps,
        kills=shards,
        recoveries=len(events),
        recovery_seconds=tuple(event["seconds"] for event in events),
        replay_identical=None,
        results_identical=trajectory == expected,
        leaked_processes=max(0, _live_children() - procs_before),
        leaked_fds=max(0, _open_fds() - fds_before),
        final_cost=trajectory[-1][1],
    )


# ----------------------------------------------------------------------
def service_chaos_drill(
    *,
    n: int = 16,
    alpha: float = 2.0,
    seed: int = 0,
    shards: int = 2,
    epochs: int = 6,
    drop_rate: float = 0.3,
    fault_window: int = 10,
    method: str = "greedy",
) -> ChaosReport:
    """Run the full service stack under an active fault plan, then
    replay its journal clean.

    Every epoch submits an all-active rebind batch through a
    :class:`~repro.service.state.ServiceState` whose shard transports
    drop requests at ``drop_rate`` (each drop kills the worker's
    connection — a crash, not a hiccup) for each epoch's first
    ``fault_window`` per-site operations, after which the faults clear
    (``FaultPlan.max_ops``) and the recovery policy's retries are
    guaranteed to land.  The journal written under fire must then
    replay **digest-identical** with no fault plan at all: faults are
    performance events, never semantic ones.
    """
    from repro.faults.plan import FaultPlan
    from repro.service.journal import ServiceJournal, replay_journal
    from repro.service.requests import Request
    from repro.service.state import ServiceState
    from repro.metrics.euclidean import EuclideanMetric

    metric = EuclideanMetric.random_uniform(n, dim=2, seed=seed)
    plan = FaultPlan(seed=seed, drop_rate=drop_rate, max_ops=fault_window)

    fds_before = _open_fds()
    procs_before = _live_children()
    journal = ServiceJournal()
    with ServiceState(
        metric,
        alpha,
        initial_active=range(n),
        method=method,
        journal=journal,
        shards=shards,
        shard_placement="socket",
        fault_plan=plan,
        recovery=max(4, shards * epochs),
    ) as state:
        final_cost = float("nan")
        for _ in range(epochs):
            outcome = state.apply_epoch(
                [Request("rebind", peer) for peer in state.active]
            )
            final_cost = outcome.social_cost
        events = list(state.recovery_log)
    time.sleep(0.05)
    leaked_processes = max(0, _live_children() - procs_before)
    leaked_fds = max(0, _open_fds() - fds_before)

    replayed = replay_journal(
        journal, metric, alpha, initial_active=range(n), method=method
    )
    replay_identical = [record.digest for record in journal.records] == list(
        replayed.digests
    )

    return ChaosReport(
        name="service-chaos",
        epochs=epochs,
        kills=len(events),
        recoveries=len(events),
        recovery_seconds=tuple(event["seconds"] for event in events),
        replay_identical=replay_identical,
        results_identical=None,
        leaked_processes=leaked_processes,
        leaked_fds=leaked_fds,
        final_cost=final_cost,
    )
