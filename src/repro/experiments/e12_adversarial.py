"""E12: selfish overlays re-converge after adversarial perturbation.

The paper's dynamics results (Section 5) are about *honest* selfish
peers: convergence is generic but not guaranteed.  This extension asks
what its overlays do under the fault models the systems literature
cares about — Byzantine peers that lie about or refuse their best
responses, transient corruption of cached state, and targeted crashes
of high-betweenness cut vertices — and measures, for each family, how
far the social cost degrades and how many best-response epochs the
honest dynamics need to re-converge once the faults clear.

Every row is a pure function of ``(family, seed, n, alpha)``: the e20
benchmark runs this experiment twice and asserts bit-identical rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult

__all__ = ["run"]

#: Fields every family reports; rows are restricted to these so the
#: table stays comparable across families.
_ROW_FIELDS = (
    "family",
    "seed",
    "baseline_cost",
    "peak_cost",
    "degradation",
    "disconnected_epochs",
    "recovery_epochs",
    "converged",
)


def run(
    n: int = 24,
    alpha: float = 2.0,
    num_instances: int = 3,
    families: Optional[Sequence[str]] = None,
    max_epochs: int = 40,
    workers: int = 1,
    backend=None,
    shards: Optional[int] = None,
    shard_placement: Optional[str] = None,
    shard_hosts=None,
) -> ExperimentResult:
    """Measure degradation + recovery for every adversarial family.

    ``families`` defaults to all registered ones plus the random-crash
    baseline the targeted-churn attack is compared against.
    """
    from repro.core.backends import resolve_backend
    from repro.core.sharded import check_shard_options
    from repro.faults.scenarios import SCENARIO_FAMILIES, run_scenario

    check_shard_options(shards, shard_placement, shard_hosts)
    if families is None:
        families = tuple(sorted(SCENARIO_FAMILIES)) + ("random-churn",)
    solver_backend = resolve_backend(backend, workers)
    harness: Dict[str, Any] = {
        "backend": solver_backend,
        "shards": shards,
        "shard_placement": shard_placement,
        "shard_hosts": shard_hosts,
    }

    rows: List[Dict[str, Any]] = []
    recovered = 0
    worst: Dict[str, float] = {}
    for family in families:
        name, kwargs = family, {}
        if family == "random-churn":
            name, kwargs = "targeted-churn", {"targeted": False}
        for seed in range(num_instances):
            outcome = run_scenario(
                name,
                n=n,
                alpha=alpha,
                seed=seed,
                max_epochs=max_epochs,
                **kwargs,
                **harness,
            )
            rows.append({key: outcome[key] for key in _ROW_FIELDS})
            if outcome["converged"]:
                recovered += 1
            worst[outcome["family"]] = max(
                worst.get(outcome["family"], 1.0), outcome["degradation"]
            )

    notes = [
        f"{family}: worst degradation {value:.4f}x"
        for family, value in sorted(worst.items())
    ]
    if "targeted-churn" in worst and "random-churn" in worst:
        notes.append(
            "targeted vs random crash degradation: "
            f"{worst['targeted-churn']:.4f}x vs {worst['random-churn']:.4f}x"
        )
    verdict = recovered == len(rows)
    return ExperimentResult(
        experiment_id="E12",
        title="Adversarial degradation and recovery of selfish overlays",
        paper_claim=(
            "Convergence of best-response dynamics is generic (Section 5); "
            "after bounded adversarial perturbation — Byzantine windows, "
            "transient state corruption, targeted churn — honest dynamics "
            "re-converge, and the social-cost excursion is bounded"
        ),
        rows=tuple(rows),
        verdict=verdict,
        notes=tuple(notes),
        params={
            "n": n,
            "alpha": alpha,
            "num_instances": num_instances,
            "families": tuple(families),
            "max_epochs": max_epochs,
            "workers": workers,
            "shards": shards,
            "shard_placement": shard_placement,
            "shard_hosts": tuple(shard_hosts) if shard_hosts else None,
        },
    )
