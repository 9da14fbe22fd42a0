"""The selfish P2P topology-formation game.

:class:`TopologyGame` bundles a metric space with the trade-off parameter
``alpha`` and exposes the model of Section 2 of the paper: individual and
social costs, stretch matrices, best responses, and Nash verification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core import best_response as br
from repro.core.cost_model import CostModel, resolve_cost_model
from repro.core.costs import CostBreakdown
from repro.core.profile import StrategyProfile
from repro.core.topology import build_overlay
from repro.graphs.digraph import WeightedDigraph
from repro.metrics.base import MetricSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.evaluator import GameEvaluator

__all__ = ["TopologyGame"]


class TopologyGame:
    """The topology game ``(M, alpha)`` of selfish peers in a metric space.

    Parameters
    ----------
    metric:
        The metric space the peers live in (pairwise latencies).
    alpha:
        Relative weight of link-maintenance cost versus stretch cost.
        Larger ``alpha`` means links are more expensive; the paper proves
        the Price of Anarchy grows as ``Theta(min(alpha, n))``.
    cost_model:
        Optional :class:`~repro.core.cost_model.CostModel` adding a
        per-peer term to the paper's cost (must carry the same
        ``alpha``).  ``None`` is the paper's game; an explicit
        :class:`~repro.core.cost_model.UnilateralModel` is bitwise
        identical to ``None``.  Models honor the externality contract
        (the term is independent of each peer's own strategy), so best
        responses and equilibria are model-independent — only the
        accounting surfaces (``social_cost`` / ``individual_costs`` /
        ``cost``) consult the model.

    Examples
    --------
    >>> from repro.metrics import EuclideanMetric
    >>> metric = EuclideanMetric.random_uniform(6, dim=2, seed=7)
    >>> game = TopologyGame(metric, alpha=2.0)
    >>> profile = game.complete_profile()
    >>> game.social_cost(profile).total > 0
    True
    """

    def __init__(
        self,
        metric: MetricSpace,
        alpha: float,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self._metric = metric
        self._alpha = float(alpha)
        self._cost_model = resolve_cost_model(cost_model, self._alpha)
        self._dmat = metric.distance_matrix()
        self._evaluator: Optional["GameEvaluator"] = None

    # ------------------------------------------------------------------
    @property
    def metric(self) -> MetricSpace:
        """The underlying metric space."""
        return self._metric

    @property
    def alpha(self) -> float:
        """The link-cost / stretch-cost trade-off parameter."""
        return self._alpha

    @property
    def cost_model(self) -> Optional[CostModel]:
        """The game's cost model, or ``None`` for the paper's default."""
        return self._cost_model

    @property
    def n(self) -> int:
        """Number of peers."""
        return self._metric.n

    @property
    def distance_matrix(self) -> np.ndarray:
        """Dense metric distance matrix (read-only)."""
        return self._dmat

    def with_alpha(self, alpha: float) -> "TopologyGame":
        """Same metric (and cost-model family), different trade-off."""
        model = self._cost_model
        return TopologyGame(
            self._metric,
            alpha,
            cost_model=None if model is None else model.with_alpha(alpha),
        )

    # ------------------------------------------------------------------
    # Evaluation layer
    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> "GameEvaluator":
        """The game's shared incremental evaluator (lazily created).

        Every cost and best-response query on this game routes through
        this evaluator, so a whole dynamics run — any code path that
        changes one peer's strategy at a time — reuses warm overlay
        distances and service-cost matrices automatically.

        Sharing a cache makes these queries *stateful*: results are
        unchanged, but concurrent queries on one game (threads, or two
        interleaved dynamics runs that want isolated caches) must each
        use their own :meth:`make_evaluator` instead — the shared
        evaluator rebinds and repairs its caches in place and is not
        thread-safe.
        """
        if self._evaluator is None:
            from repro.core.evaluator import GameEvaluator

            self._evaluator = GameEvaluator(self)
        return self._evaluator

    def make_evaluator(
        self,
        profile: Optional[StrategyProfile] = None,
        shards: Optional[int] = None,
        store="memory",
        placement: Optional[str] = None,
        shard_hosts=None,
    ) -> "GameEvaluator":
        """A fresh, independent evaluator (isolated cache).

        ``shards`` switches to a
        :class:`~repro.core.sharded.ShardedEvaluator` with that many
        row-block shards — same interface and identical trajectories,
        with resident overlay-distance memory bounded to roughly
        ``1/shards``; either way the evaluator holds one service store
        (``store`` spec).  ``placement="process"`` additionally moves
        each shard's distance block into its own worker process
        (:mod:`repro.core.shard_workers`), and ``placement="socket"``
        hosts those workers behind :mod:`repro.shard_server` processes
        reached over TCP/Unix sockets (``shard_hosts`` names the
        servers; ``None`` forks the shards on this host, like
        ``"process"``).  Both require ``shards``.
        """
        if shards is not None:
            from repro.core.sharded import build_sharded_evaluator

            return build_sharded_evaluator(
                self,
                profile,
                store=store,
                shards=shards,
                placement=placement,
                shard_hosts=shard_hosts,
            )
        from repro.core.sharded import check_shard_options

        check_shard_options(shards, placement, shard_hosts)
        from repro.core.evaluator import GameEvaluator

        return GameEvaluator(self, profile, store=store)

    # ------------------------------------------------------------------
    # Topologies and costs
    # ------------------------------------------------------------------
    def overlay(self, profile: StrategyProfile) -> WeightedDigraph:
        """The overlay graph ``G[s]`` induced by ``profile`` (fresh copy)."""
        return build_overlay(self._metric, profile)

    def stretches(self, profile: StrategyProfile) -> np.ndarray:
        """Pairwise stretch matrix of the overlay (``inf`` if unreachable)."""
        self._check_profile(profile)
        # Copy: callers historically received a fresh array they may mutate.
        return self.evaluator.set_profile(profile).stretches().copy()

    def individual_costs(self, profile: StrategyProfile) -> np.ndarray:
        """Vector of ``c_i(s)`` for all peers."""
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).peer_costs()

    def cost(self, profile: StrategyProfile, peer: int) -> float:
        """Individual cost ``c_i(s)`` of one peer."""
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).peer_cost(peer)

    def social_cost(self, profile: StrategyProfile) -> CostBreakdown:
        """Social cost ``C(G[s])`` split into link and stretch parts."""
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).social_cost()

    # ------------------------------------------------------------------
    # Strategic reasoning
    # ------------------------------------------------------------------
    def best_response(
        self, profile: StrategyProfile, peer: int, method: str = "exact"
    ) -> br.BestResponseResult:
        """Best (or heuristic) response of ``peer`` against ``profile``."""
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).best_response(peer, method)

    def find_improving_deviation(
        self, profile: StrategyProfile, peer: int
    ) -> Optional[br.BestResponseResult]:
        """Some strictly improving deviation of ``peer``, or None (exact)."""
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).find_improving_deviation(
            peer
        )

    def best_responses(
        self, profile: StrategyProfile, method: str = "exact"
    ) -> list:
        """Every peer's best response against ``profile`` in one sweep.

        Batched counterpart of :meth:`best_response`: one
        :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep` builds all
        service matrices through blocked multi-source Dijkstra, reuses
        memoized responses when the dirty-row effect bound allows, and
        solves the rest.  Results are identical to
        ``[game.best_response(profile, i, method) for i in range(game.n)]``.
        """
        self._check_profile(profile)
        return self.evaluator.set_profile(profile).gain_sweep(method)

    # ------------------------------------------------------------------
    # Convenience profiles
    # ------------------------------------------------------------------
    def empty_profile(self) -> StrategyProfile:
        """Profile with no links."""
        return StrategyProfile.empty(self.n)

    def complete_profile(self) -> StrategyProfile:
        """Profile where everybody links to everybody (stretch 1 overall)."""
        return StrategyProfile.complete(self.n)

    def random_profile(
        self, link_probability: float, seed: Optional[int] = None
    ) -> StrategyProfile:
        """Random profile with the given link density."""
        return StrategyProfile.random(self.n, link_probability, seed)

    # ------------------------------------------------------------------
    def _check_profile(self, profile: StrategyProfile) -> None:
        if profile.n != self.n:
            raise ValueError(
                f"profile has {profile.n} peers but game has {self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        model = "" if self._cost_model is None else f", {self._cost_model!r}"
        return (
            f"TopologyGame(n={self.n}, alpha={self._alpha}, "
            f"metric={type(self._metric).__name__}{model})"
        )
