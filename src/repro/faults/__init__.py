"""Adversarial scenarios and fault injection for the service/shard fabric.

The package splits "who misbehaves" three ways:

* :mod:`~repro.faults.plan` — :class:`FaultPlan`, the seeded
  deterministic schedule deciding which transport/queue operations are
  dropped, corrupted, delayed, or killed.
* :mod:`~repro.faults.injection` — :class:`FaultyTransport` /
  :class:`FaultyTransportFactory`, the wrapper executing a plan at the
  shard-transport seam (a null plan is bitwise-neutral).
* :mod:`~repro.faults.adversaries` — :class:`PeerPolicy` Byzantine
  hooks: peers that lie about best responses or refuse rebinds.
* :mod:`~repro.faults.corruption` — seeded bit-flips in evaluator
  caches (the self-stabilization transient-fault model).
* :mod:`~repro.faults.scenarios` — the registered adversarial families
  reporting social-cost degradation and recovery time.
* :mod:`~repro.faults.chaos` — drills that kill real shard worker
  processes and assert bit-identical recovery with zero leaks.
"""

from repro.faults.adversaries import (
    ByzantinePolicy,
    HonestPolicy,
    PeerPolicy,
    PolicyDecision,
    apply_policy,
)
from repro.faults.chaos import (
    ChaosReport,
    server_restart_drill,
    service_chaos_drill,
    worker_kill_drill,
)
from repro.faults.corruption import (
    corrupt_overlay_rows,
    corrupt_service_matrices,
    flip_float_bit,
    repair,
)
from repro.faults.injection import (
    INJECTED,
    FaultyTransport,
    FaultyTransportFactory,
    InjectionLog,
)
from repro.faults.plan import FAULT_ACTIONS, NULL_PLAN, FaultPlan
from repro.faults.scenarios import (
    SCENARIO_FAMILIES,
    byzantine_scenario,
    corruption_scenario,
    run_scenario,
    targeted_churn_scenario,
)

__all__ = [
    "ByzantinePolicy",
    "ChaosReport",
    "FAULT_ACTIONS",
    "FaultPlan",
    "FaultyTransport",
    "FaultyTransportFactory",
    "HonestPolicy",
    "INJECTED",
    "InjectionLog",
    "NULL_PLAN",
    "PeerPolicy",
    "PolicyDecision",
    "SCENARIO_FAMILIES",
    "apply_policy",
    "byzantine_scenario",
    "corrupt_overlay_rows",
    "corrupt_service_matrices",
    "corruption_scenario",
    "flip_float_bit",
    "repair",
    "run_scenario",
    "server_restart_drill",
    "service_chaos_drill",
    "targeted_churn_scenario",
    "worker_kill_drill",
]
