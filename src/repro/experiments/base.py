"""Experiment framework: structured, replayable paper experiments.

Every figure/lemma/theorem of the paper maps to one experiment module
exposing ``run(**params) -> ExperimentResult``.  Results carry structured
rows (rendered by the benchmark harness and recorded in EXPERIMENTS.md)
plus the paper's claim and the measured verdict, so "does the reproduction
hold?" is a field, not an interpretation.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table

__all__ = ["ExperimentResult", "ExperimentSpec", "HARNESS_PARAMS"]


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        Short id (``"E1"`` ... ``"E9"``).
    title:
        One-line description naming the paper artifact.
    paper_claim:
        What the paper asserts (qualitative shape, not constants).
    rows:
        Structured result rows (one dict per sweep point / case).
    verdict:
        ``True`` when the measured data supports the paper's claim.
    notes:
        Free-form remarks (substitutions, caveats, fitted exponents).
    params:
        The parameters this run used (for replayability).
    """

    experiment_id: str
    title: str
    paper_claim: str
    rows: Tuple[Dict[str, Any], ...]
    verdict: bool
    notes: Tuple[str, ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)

    def table(self, precision: int = 4) -> str:
        """The rows rendered as an aligned text table."""
        return render_table(
            list(self.rows),
            precision=precision,
            title=f"{self.experiment_id}: {self.title}",
        )

    def summary(self) -> str:
        """Claim, verdict and notes as a short text block."""
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"  paper claim : {self.paper_claim}",
            f"  verdict     : {'SUPPORTED' if self.verdict else 'NOT SUPPORTED'}",
        ]
        for note in self.notes:
            lines.append(f"  note        : {note}")
        return "\n".join(lines)


#: Harness-level options the CLI applies to every experiment; these (and
#: only these) are silently dropped for runners that do not accept them.
#: Any other unknown parameter still raises ``TypeError`` as before, so
#: a mistyped override cannot silently run the default workload.
HARNESS_PARAMS = frozenset(
    {
        "workers",
        "backend",
        "shards",
        "shard_placement",
        "shard_hosts",
        "game_family",
        "beta",
    }
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry tying an experiment id to its runner.

    ``paper_artifact`` names the figure/lemma/theorem being reproduced and
    ``bench`` the benchmark file that regenerates it.
    """

    experiment_id: str
    title: str
    paper_artifact: str
    bench: str
    runner: Callable[..., ExperimentResult]

    def run(self, **params) -> ExperimentResult:
        """Run the experiment with the given parameter overrides.

        :data:`HARNESS_PARAMS` options (``workers``, ``backend``, ...)
        are forwarded only to runners whose signature accepts them, so
        individual
        experiments opt in without every runner growing pass-through
        parameters; all other unknown parameters raise ``TypeError``.
        """
        runner = self.runner
        signature = inspect.signature(runner)
        accepts_kwargs = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values()
        )
        if not accepts_kwargs:
            params = {
                key: value
                for key, value in params.items()
                if key in signature.parameters or key not in HARNESS_PARAMS
            }
        return runner(**params)
