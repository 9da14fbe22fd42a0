"""Core of the reproduction: the selfish topology-formation game.

This subpackage implements Section 2 of the paper (model and cost
functions) plus the strategic machinery the results are built on:

* :class:`~repro.core.profile.StrategyProfile` — immutable link choices.
* :class:`~repro.core.game.TopologyGame` — metric + alpha; costs, overlays.
* :mod:`~repro.core.best_response` — exact (branch-and-bound) and heuristic
  responders exploiting the facility-location structure of the game.
* :mod:`~repro.core.equilibrium` — certified Nash verification and
  exhaustive equilibrium search for tiny instances.
* :mod:`~repro.core.dynamics` — best-response dynamics with schedulers and
  sound cycle detection (the paper's Section 5 phenomenon).
* :mod:`~repro.core.social_optimum` / :mod:`~repro.core.anarchy` — optimum
  bracketing and certified Price-of-Anarchy estimates (Section 4).
"""

from repro.core.anarchy import (
    PoAEstimate,
    estimate_price_of_anarchy,
    nash_equilibrium_cost_upper_bound,
    price_of_anarchy_upper_bound,
    sample_equilibria,
)
from repro.core.best_response import (
    BestResponseResult,
    ServiceCosts,
    best_response,
    compute_service_costs,
    find_improving_deviation,
    peer_cost,
    strategy_cost,
)
from repro.core.better_response import (
    BetterResponseDynamics,
    BetterResponseResult,
    find_improving_flip,
    find_improving_flip_naive,
    flip_candidates,
    is_flip_stable,
)
from repro.core.evaluator import EvaluatorStats, GameEvaluator
from repro.core.costs import (
    CostBreakdown,
    individual_costs,
    social_cost,
    stretch_matrix,
)
from repro.core.dynamics import (
    BatchedScheduler,
    BestResponseDynamics,
    CycleInfo,
    DynamicsResult,
    FixedOrderScheduler,
    MoveRecord,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    scheduler_batches,
)
from repro.core.equilibrium import (
    NashCertificate,
    best_response_closure,
    enumerate_profiles,
    find_equilibria_exhaustive,
    verify_nash,
)
from repro.core.exhaustive import (
    ExhaustiveResult,
    decode_profile,
    encode_profile,
    encoded_best_response_dynamics,
    exhaustive_equilibria,
    profile_costs_batch,
)
from repro.core.game import TopologyGame
from repro.core.response_graph import (
    ResponseGraphAnalysis,
    analyze_response_graph,
    best_response_moves,
)
from repro.core.potential import (
    ImprovementCycle,
    WeakAcyclicityReport,
    find_improvement_cycle,
    weak_acyclicity,
)
from repro.core.profile import StrategyProfile
from repro.core.social_optimum import (
    OptimumEstimate,
    candidate_topologies,
    local_search_improve,
    optimum_exact,
    optimum_upper_bound,
    social_cost_lower_bound,
)
from repro.core.backends import (
    ProcessBackend,
    SerialBackend,
    SolverBackend,
    resolve_backend,
)
from repro.core.service_store import (
    ArrayStore,
    ServiceStore,
    SharedMemoryStore,
    SpillStore,
    make_store,
)
from repro.core.sharded import (
    ShardedDistances,
    ShardedEvaluator,
    ShardedStore,
    ShardPlan,
)
from repro.core.topology import build_overlay, overlay_from_matrix

__all__ = [
    "StrategyProfile",
    "TopologyGame",
    "SolverBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "ServiceStore",
    "ArrayStore",
    "SharedMemoryStore",
    "SpillStore",
    "make_store",
    "CostBreakdown",
    "stretch_matrix",
    "individual_costs",
    "social_cost",
    "build_overlay",
    "overlay_from_matrix",
    "BestResponseResult",
    "ServiceCosts",
    "compute_service_costs",
    "strategy_cost",
    "best_response",
    "find_improving_deviation",
    "NashCertificate",
    "verify_nash",
    "enumerate_profiles",
    "find_equilibria_exhaustive",
    "best_response_closure",
    "BestResponseDynamics",
    "DynamicsResult",
    "CycleInfo",
    "MoveRecord",
    "Scheduler",
    "RoundRobinScheduler",
    "FixedOrderScheduler",
    "RandomScheduler",
    "BatchedScheduler",
    "scheduler_batches",
    "OptimumEstimate",
    "social_cost_lower_bound",
    "candidate_topologies",
    "optimum_upper_bound",
    "optimum_exact",
    "local_search_improve",
    "PoAEstimate",
    "estimate_price_of_anarchy",
    "sample_equilibria",
    "nash_equilibrium_cost_upper_bound",
    "price_of_anarchy_upper_bound",
    "ExhaustiveResult",
    "exhaustive_equilibria",
    "encode_profile",
    "decode_profile",
    "profile_costs_batch",
    "encoded_best_response_dynamics",
    "ResponseGraphAnalysis",
    "analyze_response_graph",
    "best_response_moves",
    "ImprovementCycle",
    "find_improvement_cycle",
    "WeakAcyclicityReport",
    "weak_acyclicity",
    "BetterResponseDynamics",
    "BetterResponseResult",
    "flip_candidates",
    "find_improving_flip",
    "find_improving_flip_naive",
    "is_flip_stable",
    "GameEvaluator",
    "EvaluatorStats",
    "ShardPlan",
    "ShardedDistances",
    "ShardedStore",
    "ShardedEvaluator",
    "peer_cost",
]
