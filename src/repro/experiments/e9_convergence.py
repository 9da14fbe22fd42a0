"""E9 — extension: generic instances converge; the witness never does.

Section 5 proves *existence* of non-convergent instances, which raises the
practical question the paper leaves open: how common is non-convergence?
This experiment runs exact best-response dynamics over random 2-D
populations across alphas and schedulers and reports convergence rates and
speeds, then contrasts them with the canonical witness (0% convergence,
provable cycles) — evidence that the paper's instability is an engineered
corner case rather than the generic regime, and that the engineered case
is nevertheless real.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.constructions.no_nash import build_no_nash_instance
from repro.core.dynamics import (
    BatchedScheduler,
    BestResponseDynamics,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.core.game import TopologyGame
from repro.experiments.base import ExperimentResult
from repro.metrics.euclidean import EuclideanMetric

__all__ = ["run"]


def _make_scheduler(name: str, seed: int):
    """Scheduler factory shared by the random and witness passes.

    ``"batched"`` runs every round as one logically-concurrent batch
    (stale-profile semantics) — the round-based model of Theorem 5.1's
    asynchronous-dynamics framing.
    """
    if name == "round-robin":
        return RoundRobinScheduler()
    if name == "batched":
        return BatchedScheduler()
    return RandomScheduler(seed)


def run(
    n: int = 8,
    alphas: Sequence[float] = (0.3, 1.0, 4.0),
    num_instances: int = 6,
    schedulers: Sequence[str] = ("round-robin", "random", "batched"),
    max_rounds: int = 150,
    workers: int = 1,
    backend=None,
    shards=None,
    shard_placement=None,
    shard_hosts=None,
) -> ExperimentResult:
    """Convergence statistics on random instances vs the witness.

    ``workers``/``backend`` configure the execution of the batched
    scheduler's concurrent response solves (``"serial"``, ``"process"``
    with a ``workers``-sized pool, or ``"shard"``; no effect on
    singleton schedulers).  Results are identical for every backend —
    with ``"batched"`` among the default schedulers, this experiment is
    the CLI's smoke-test surface for ``--backend process``.  ``shards``
    runs every dynamics pass on a
    :class:`~repro.core.sharded.ShardedEvaluator` with that many
    row-block shards; ``shard_placement="process"`` additionally moves
    each shard's distance block into its own worker process,
    ``shard_placement="socket"`` hosts those workers behind
    :mod:`repro.shard_server` processes (``shard_hosts`` names the
    servers; ``None`` forks the shards on this host) — identical
    results; the CLI's ``--shards`` / ``--shard-placement`` /
    ``--shard-hosts`` smoke surface.
    """
    from repro.core.backends import resolve_backend
    from repro.core.sharded import check_shard_options

    check_shard_options(shards, shard_placement, shard_hosts)
    if shards is not None and shards > n:
        raise ValueError(
            f"shards={shards} exceeds this experiment's population "
            f"n={n}; pass --shards <= {n} (or raise n)"
        )
    solver_backend = resolve_backend(backend, workers)
    rows: List[Dict[str, Any]] = []
    for alpha in alphas:
        for scheduler_name in schedulers:
            outcomes = {"converged": 0, "cycle": 0, "other": 0}
            rounds_used: List[int] = []
            moves_used: List[int] = []
            for seed in range(num_instances):
                metric = EuclideanMetric.random_uniform(n, dim=2, seed=seed)
                game = TopologyGame(metric, alpha)
                scheduler = _make_scheduler(scheduler_name, seed)
                with BestResponseDynamics(
                    game,
                    scheduler=scheduler,
                    record_moves=False,
                    backend=solver_backend,
                    shards=shards,
                    shard_placement=shard_placement,
                    shard_hosts=shard_hosts,
                ) as dynamics:
                    result = dynamics.run(max_rounds=max_rounds)
                if result.converged:
                    outcomes["converged"] += 1
                    rounds_used.append(result.rounds_completed)
                    moves_used.append(result.num_moves)
                elif result.stopped_reason == "cycle":
                    outcomes["cycle"] += 1
                else:
                    outcomes["other"] += 1
            rows.append(
                {
                    "instance": f"random-2d(n={n})",
                    "alpha": alpha,
                    "scheduler": scheduler_name,
                    "converged": outcomes["converged"],
                    "cycled": outcomes["cycle"],
                    "unresolved": outcomes["other"],
                    "mean_rounds": (
                        float(np.mean(rounds_used)) if rounds_used else None
                    ),
                    "mean_moves": (
                        float(np.mean(moves_used)) if moves_used else None
                    ),
                }
            )
    # The engineered witness: never converges.
    witness = build_no_nash_instance()
    witness_cycles = 0
    witness_runs = 0
    for scheduler_name in schedulers:
        for seed in range(num_instances):
            scheduler = _make_scheduler(scheduler_name, seed)
            with BestResponseDynamics(
                witness,
                scheduler=scheduler,
                record_moves=False,
                shards=shards,
                shard_placement=shard_placement,
                shard_hosts=shard_hosts,
            ) as dynamics:
                result = dynamics.run(
                    initial=witness.random_profile(0.4, seed=seed),
                    max_rounds=max_rounds,
                )
            witness_runs += 1
            if result.stopped_reason in ("cycle", "max_rounds"):
                witness_cycles += 1
    rows.append(
        {
            "instance": "no-nash-witness",
            "alpha": witness.alpha,
            "scheduler": "all",
            "converged": witness_runs - witness_cycles,
            "cycled": witness_cycles,
            "unresolved": 0,
            "mean_rounds": None,
            "mean_moves": None,
        }
    )
    random_rows = rows[:-1]
    total_random = sum(
        row["converged"] + row["cycled"] + row["unresolved"]
        for row in random_rows
    )
    total_converged = sum(row["converged"] for row in random_rows)
    mostly_converge = total_converged >= 0.7 * total_random
    witness_never = witness_cycles == witness_runs
    return ExperimentResult(
        experiment_id="E9",
        title="Convergence is generic; the witness never stabilizes",
        paper_claim=(
            "Section 5: non-convergence exists (engineered instances); "
            "the paper does not claim generic instances diverge"
        ),
        rows=tuple(rows),
        verdict=mostly_converge and witness_never,
        notes=(
            f"random instances converged in {total_converged}/"
            f"{total_random} runs; the witness stabilized in 0/"
            f"{witness_runs}",
        ),
        params={
            "n": n,
            "alphas": list(alphas),
            "num_instances": num_instances,
            "schedulers": list(schedulers),
            "workers": workers,
            "backend": solver_backend.name,
            "shards": shards,
            "shard_placement": shard_placement,
            "shard_hosts": list(shard_hosts) if shard_hosts else None,
        },
    )
