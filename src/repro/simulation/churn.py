"""Churn: peers joining and leaving while selfish rewiring runs.

The paper's Theorem 5.1 is striking precisely because it holds *without*
churn: "the network may never stabilize, **even in the absence of
churn**."  This module supplies the contrast experiment (E9's extension):
a population where peers arrive and depart lets us measure how much of the
observed instability is environmental versus game-inherent.

The simulation keeps a fixed universe of potential peers (a metric over
``capacity`` points) and an *active set*.  Each epoch: (1) every active
peer plays a best response within the active subgame, (2) a seeded RNG
removes each active peer with probability ``leave_prob`` and activates
inactive ones with probability ``join_prob``.  Joining peers start with a
single link to their nearest active neighbor (the cheap bootstrap real
systems use); links pointing at departed peers are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.best_response import best_response as solve_best_response
from repro.core.dynamics import batch_responses, recheck_improvement
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.metrics.base import MetricSpace
from repro.metrics.matrix import DistanceMatrixMetric

__all__ = ["ChurnEpochRecord", "ChurnResult", "ChurnSimulation"]


@dataclass(frozen=True)
class ChurnEpochRecord:
    """Telemetry of one churn epoch."""

    epoch: int
    num_active: int
    joins: int
    leaves: int
    moves: int
    social_cost: float


@dataclass(frozen=True)
class ChurnResult:
    """Outcome of a churn simulation run."""

    records: Tuple[ChurnEpochRecord, ...]
    final_active: Tuple[int, ...]
    final_profile: StrategyProfile

    @property
    def total_moves(self) -> int:
        return sum(record.moves for record in self.records)

    @property
    def mean_cost(self) -> float:
        finite = [
            r.social_cost for r in self.records if np.isfinite(r.social_cost)
        ]
        return float(np.mean(finite)) if finite else float("nan")


class ChurnSimulation:
    """Selfish rewiring under peer churn.

    Parameters
    ----------
    metric:
        Metric over the full peer universe (``capacity = metric.n``).
    alpha:
        Trade-off parameter of the underlying game.
    join_prob / leave_prob:
        Per-epoch activation/departure probabilities per peer.
    initial_active:
        Initially active peers (default: the first half of the universe).
    seed:
        RNG seed; runs are fully deterministic given the seed.
    method:
        Best-response solver used by active peers.
    incremental:
        Route every epoch's rewiring pass through a shared
        :class:`~repro.core.evaluator.GameEvaluator` over the epoch's
        active subgame (default), so consecutive activations reuse warm
        overlay distances and service matrices; the epoch's social cost
        is then served from the same caches.  Set False for the naive
        from-scratch reference path (validation/benchmarks), matching
        the dynamics/engine convention.
    activation:
        ``"sequential"`` (default) activates the epoch's peers one after
        another, each seeing the previous commits — the historical
        semantics, byte-identical to earlier versions.  ``"batched"``
        runs the whole epoch as one logically-concurrent batch: every
        response is computed against the epoch-start profile in one
        evaluator gain sweep, then committed in order with the same
        stale-profile conflict re-checks as the dynamics engine.
    workers / backend:
        Execution of the batched epoch's independent solves —
        ``"serial"`` (the default), ``"process"`` sized by ``workers``,
        ``"shard"``, or a :class:`~repro.core.backends.SolverBackend`
        instance (resolved once, so a process pool persists across
        epochs).  Epoch trajectories are identical for every backend;
        sequential activation ignores both.
    shards:
        When set, each epoch's evaluator is a
        :class:`~repro.core.sharded.ShardedEvaluator` over the epoch's
        active subgame with that many row-block shards (clamped to the
        epoch's population, so small epochs still work).  Epoch
        trajectories are identical for every shard count.
    shard_placement:
        ``"local"`` (default), ``"process"`` — each epoch's sharded
        evaluator places its distance blocks in per-shard worker
        processes (:mod:`repro.core.shard_workers`), torn down at the
        end of the epoch — or ``"socket"`` — the same workers, behind
        :mod:`repro.shard_server` processes reached over TCP/Unix
        sockets when ``shard_hosts`` is given.  Identical trajectories;
        requires ``shards``.
    shard_hosts:
        Socket placement only: shard-server addresses
        (``"host:port"`` / ``"unix:/path"``) to round-robin each
        epoch's shards across; ``None`` forks the shards on this host.
    peer_policy:
        Optional :class:`~repro.faults.adversaries.PeerPolicy` applied
        to every solved best response before commit (Byzantine
        scenarios).  ``None`` (default) runs the honest code path
        untouched.

    The simulation owns any backend resolved from a spec string, so it
    is a context manager: ``close()`` — or leaving the ``with`` block —
    shuts the process pool down; backend instances remain the caller's.
    """

    def __init__(
        self,
        metric: MetricSpace,
        alpha: float,
        join_prob: float = 0.05,
        leave_prob: float = 0.05,
        initial_active: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        method: str = "greedy",
        incremental: bool = True,
        activation: str = "sequential",
        workers: int = 1,
        backend=None,
        shards: Optional[int] = None,
        shard_placement: Optional[str] = None,
        shard_hosts=None,
        peer_policy=None,
    ) -> None:
        from repro.core.backends import SolverBackend, resolve_backend
        from repro.core.sharded import check_shard_options

        # Owned-resource slots first: close() must be a no-op on an
        # instance whose __init__ died in the validation below.
        self._solver_backend = None
        self._owns_backend = False

        if not 0.0 <= join_prob <= 1.0 or not 0.0 <= leave_prob <= 1.0:
            raise ValueError("join_prob and leave_prob must lie in [0, 1]")
        if metric.n < 2:
            raise ValueError("churn simulation needs a universe of >= 2 peers")
        if activation not in ("sequential", "batched"):
            raise ValueError(
                f"activation must be 'sequential' or 'batched', "
                f"got {activation!r}"
            )
        check_shard_options(shards, shard_placement, shard_hosts)
        if shards is not None:
            if not incremental:
                raise ValueError(
                    "shards requires the incremental evaluator path; "
                    "incremental=False recomputes from scratch and would "
                    "silently ignore the shard count"
                )
        self._shards = shards
        self._shard_placement = shard_placement
        self._shard_hosts = shard_hosts
        self._owns_backend = not isinstance(backend, SolverBackend)
        self._metric = metric
        self._alpha = float(alpha)
        self._join_prob = join_prob
        self._leave_prob = leave_prob
        self._rng = np.random.default_rng(seed)
        self._method = method
        self._incremental = incremental
        self._activation = activation
        #: Byzantine commit hook (:mod:`repro.faults.adversaries`);
        #: ``None`` keeps the honest code path byte-identical.
        self._peer_policy = peer_policy
        self._current_epoch = 0
        self._solver_backend = resolve_backend(backend, workers)
        if initial_active is None:
            initial_active = list(range(max(2, metric.n // 2)))
        self._initial_active = sorted(set(initial_active))
        for peer in self._initial_active:
            if not 0 <= peer < metric.n:
                raise IndexError(f"peer {peer} outside universe")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources (idempotent, failed-init safe): the
        process pool of a backend resolved from a spec string.  Per-epoch
        evaluators are already closed at the end of their epoch."""
        if self._owns_backend and self._solver_backend is not None:
            self._solver_backend.close()

    def __enter__(self) -> "ChurnSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, epochs: int = 50) -> ChurnResult:
        """Run the churn simulation for the given number of epochs."""
        active: List[int] = list(self._initial_active)
        # Strategies over universe indices; inactive peers hold no links.
        strategies: List[Set[int]] = [set() for _ in range(self._metric.n)]
        self._bootstrap(active, strategies)
        records: List[ChurnEpochRecord] = []
        for epoch in range(epochs):
            self._current_epoch = epoch
            moves, cost = self._run_epoch(active, strategies)
            joins, leaves = self._apply_churn(active, strategies)
            records.append(
                ChurnEpochRecord(
                    epoch=epoch,
                    num_active=len(active),
                    joins=joins,
                    leaves=leaves,
                    moves=moves,
                    social_cost=cost,
                )
            )
        profile = StrategyProfile(
            [frozenset(s) for s in strategies]
        )
        return ChurnResult(
            records=tuple(records),
            final_active=tuple(sorted(active)),
            final_profile=profile,
        )

    # ------------------------------------------------------------------
    def _bootstrap(
        self, active: List[int], strategies: List[Set[int]]
    ) -> None:
        """Connect initial peers in a nearest-neighbor chain."""
        dmat = self._metric.distance_matrix()
        for peer in active:
            others = [p for p in active if p != peer]
            if others:
                nearest = min(others, key=lambda p: (dmat[peer, p], p))
                strategies[peer].add(nearest)

    def _subgame(self, active: List[int]):
        """Restricted distance matrix and index maps for the active set."""
        index_of = {peer: k for k, peer in enumerate(active)}
        dmat = self._metric.distance_matrix()[np.ix_(active, active)]
        return dmat, index_of

    def _sub_profile(
        self, active: List[int], strategies: List[Set[int]]
    ) -> StrategyProfile:
        index_of = {peer: k for k, peer in enumerate(active)}
        return StrategyProfile(
            [
                frozenset(
                    index_of[t] for t in strategies[peer] if t in index_of
                )
                for peer in active
            ]
        )

    def _run_epoch(
        self, active: List[int], strategies: List[Set[int]]
    ) -> Tuple[int, float]:
        """One best-response pass over the active peers.

        Returns ``(#moves, social cost)`` of the epoch.  On the default
        incremental path the epoch owns one
        :class:`~repro.core.evaluator.GameEvaluator` over the active
        subgame: each activation is a single-peer strategy change, so
        consecutive responses (and the closing social-cost query) reuse
        warm overlay distances and service matrices instead of rerunning
        Dijkstra from scratch per activation.
        """
        if len(active) < 2:
            return 0, 0.0
        dmat, _ = self._subgame(active)
        sub = self._sub_profile(active, strategies)
        subgame: Optional[TopologyGame] = None
        evaluator: Optional[GameEvaluator] = None
        if self._incremental or self._activation == "batched":
            subgame = TopologyGame(
                DistanceMatrixMetric(dmat, validate=False), self._alpha
            )
        if self._incremental:
            # Shared-memory segments only pay off when the batched epoch
            # actually dispatches to a process pool; sequential epochs
            # never do, whatever backend is configured.
            needs_shared = (
                self._activation == "batched"
                and self._solver_backend.distributed
            )
            store = "shared" if needs_shared else "memory"
            if self._shards is not None:
                from repro.core.sharded import build_sharded_evaluator

                evaluator = build_sharded_evaluator(
                    subgame,
                    sub,
                    store=store,
                    shards=self._shards,
                    placement=self._shard_placement,
                    shard_hosts=self._shard_hosts,
                )
            else:
                evaluator = GameEvaluator(subgame, sub, store=store)
        try:
            return self._rewire_epoch(
                active, strategies, dmat, subgame, sub, evaluator
            )
        finally:
            # The evaluator lives for exactly one epoch (the active set
            # changes afterwards): release its stores — and, under
            # process placement, its shard workers — deterministically
            # instead of leaning on garbage collection.
            if evaluator is not None:
                evaluator.close()

    def _rewire_epoch(
        self,
        active: List[int],
        strategies: List[Set[int]],
        dmat: np.ndarray,
        subgame: Optional[TopologyGame],
        sub: StrategyProfile,
        evaluator: Optional[GameEvaluator],
    ) -> Tuple[int, float]:
        if self._activation == "batched":
            return self._run_epoch_batched(
                active, strategies, dmat, subgame, sub, evaluator
            )
        moves = 0
        for slot, peer in enumerate(active):
            if evaluator is not None:
                response = evaluator.set_profile(sub).best_response(
                    slot, self._method
                )
            else:
                # Reference path: rebuild the subprofile and solve from
                # scratch, exactly as the seed implementation did.
                sub = self._sub_profile(active, strategies)
                response = solve_best_response(
                    dmat, sub, slot, self._alpha, method=self._method
                )
            if self._peer_policy is not None:
                from repro.faults.adversaries import apply_policy

                response, _check = apply_policy(
                    self._peer_policy,
                    peer=peer,
                    slot=slot,
                    epoch=self._current_epoch,
                    response=response,
                    active=active,
                )
                if response is None:
                    continue
            if response.improved:
                strategies[peer] = {active[t] for t in response.strategy}
                moves += 1
                if evaluator is not None:
                    sub = sub.with_strategy(slot, response.strategy)
        if evaluator is not None:
            cost = evaluator.set_profile(sub).social_cost().total
        else:
            from repro.core.costs import social_cost as cost_of

            sub = self._sub_profile(active, strategies)
            cost = cost_of(dmat, sub, self._alpha).total
        return moves, cost

    def _run_epoch_batched(
        self,
        active: List[int],
        strategies: List[Set[int]],
        dmat: np.ndarray,
        subgame: TopologyGame,
        sub: StrategyProfile,
        evaluator: Optional[GameEvaluator],
    ) -> Tuple[int, float]:
        """One epoch as a single logically-concurrent activation batch.

        Mirrors the stale-profile semantics of
        :mod:`repro.core.dynamics`: all responses are computed against
        the epoch-start profile — one evaluator gain sweep dispatched
        through the configured execution backend — then committed in
        slot order, each commit after the first re-checked against the
        live profile and dropped unless it still strictly improves.
        """
        batch = list(range(len(active)))
        responses = batch_responses(
            subgame,
            sub,
            batch,
            self._method,
            evaluator,
            self._solver_backend,
        )
        moves = 0
        base = sub
        for slot, response in zip(batch, responses):
            check = True
            if self._peer_policy is not None:
                from repro.faults.adversaries import apply_policy

                response, check = apply_policy(
                    self._peer_policy,
                    peer=active[slot],
                    slot=slot,
                    epoch=self._current_epoch,
                    response=response,
                    active=active,
                )
            if response is None or not response.improved:
                continue
            if check and sub is not base:
                commit, _old, _new = recheck_improvement(
                    subgame, sub, response, evaluator
                )
                if not commit:
                    continue
            strategies[active[slot]] = {active[t] for t in response.strategy}
            sub = sub.with_strategy(slot, response.strategy)
            moves += 1
        if evaluator is not None:
            cost = evaluator.set_profile(sub).social_cost().total
        else:
            from repro.core.costs import social_cost as cost_of

            cost = cost_of(dmat, sub, self._alpha).total
        return moves, cost

    def _apply_churn(
        self, active: List[int], strategies: List[Set[int]]
    ) -> Tuple[int, int]:
        """Join/leave phase; mutates ``active``/``strategies`` in place."""
        active_set = set(active)
        inactive = [p for p in range(self._metric.n) if p not in active_set]
        leaving = {
            p
            for p in active
            if len(active_set) > 2 and self._rng.random() < self._leave_prob
        }
        # Keep at least two peers alive.
        while len(active_set) - len(leaving) < 2 and leaving:
            leaving.pop()
        joining = [
            p for p in inactive if self._rng.random() < self._join_prob
        ]
        for peer in leaving:
            active_set.discard(peer)
            strategies[peer] = set()
        for holder in active_set:
            strategies[holder] -= leaving
        dmat = self._metric.distance_matrix()
        for peer in joining:
            current = sorted(active_set)
            if current:
                nearest = min(current, key=lambda p: (dmat[peer, p], p))
                strategies[peer] = {nearest}
            active_set.add(peer)
        active[:] = sorted(active_set)
        return len(joining), len(leaving)
