"""The live overlay state behind the churn service.

:class:`ServiceState` owns what :class:`~repro.simulation.churn.
ChurnSimulation` owns — a fixed peer universe, an active set, and the
active peers' strategies — but is driven by *requests* instead of a
seeded churn schedule.  One :meth:`apply_epoch` call processes one
batch of logically-concurrent requests through exactly the machinery a
batched churn epoch uses:

1. **Membership phase** — join/leave requests applied in arrival order
   (joins bootstrap a single link to the nearest active neighbor;
   leaves drop the peer and prune links pointing at it, subject to a
   population floor of 2).
2. **Rebind phase** — all rebind requests run as one logically-
   concurrent activation batch: responses are computed against the
   epoch-start profile in a single evaluator
   :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep` (dispatched
   through the configured execution backend), then committed in order
   with the same stale-profile conflict re-checks as
   :mod:`repro.core.dynamics`.
3. **Query phase** — cost queries answered from the epoch's warm
   evaluator after all commits.

Epoch execution is a deterministic function of (state, batch), which is
what makes the journal (:mod:`repro.service.journal`) a sufficient
account of a run: replaying the journaled batches closed-loop lands on
bit-identical state.  The engine/observer split the ROADMAP calls for
lives here: this module is "what happened"; who asked, and how requests
were coalesced into batches, is the front-end's
(:mod:`repro.service.service`) concern and never influences results —
only throughput.

The universe metric is *never* densified: subgame matrices and
nearest-neighbor lookups go through :func:`subgame_matrix` /
:func:`nearest_active`, which use coordinate-level access (e.g.
:class:`~repro.metrics.euclidean.EuclideanMetric` points) when the
metric offers it.  A service over a 10^4-peer universe therefore costs
O(active^2) per epoch, not O(universe^2) ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dynamics import batch_responses, recheck_improvement
from repro.core.evaluator import GameEvaluator
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.metrics.base import MetricSpace
from repro.metrics.matrix import DistanceMatrixMetric
from repro.service.journal import EpochRecord, ServiceJournal, state_digest
from repro.service.requests import Request, ServiceClosedError

__all__ = [
    "EpochOutcome",
    "ServiceState",
    "nearest_active",
    "subgame_matrix",
]

#: The service never lets the active population drop below this floor —
#: the same invariant churn maintains (a 1-peer overlay has no game).
POPULATION_FLOOR = 2


def subgame_matrix(metric: MetricSpace, active: Sequence[int]) -> np.ndarray:
    """Distance matrix restricted to ``active`` without densifying the
    universe when the metric supports subsetting (Euclidean metrics
    compute exactly the O(active^2) block, bit-identical to the slice
    of the full matrix)."""
    subset = getattr(metric, "subset", None)
    if subset is not None:
        return subset(list(active)).distance_matrix()
    return metric.distance_matrix()[np.ix_(list(active), list(active))]


def nearest_active(
    metric: MetricSpace, peer: int, active: Sequence[int]
) -> int:
    """The active peer nearest to ``peer``; ties break to the lowest id.

    Matches churn's ``min(active, key=lambda p: (d[peer, p], p))`` —
    ``active`` must be sorted ascending, and the coordinate fast path
    performs the same subtract-square-sum-sqrt the cached Euclidean
    matrix does, so the two paths agree bit for bit.
    """
    points = getattr(metric, "points", None)
    if points is not None:
        diff = points[list(active)] - points[peer]
        distances = np.sqrt((diff * diff).sum(axis=-1))
    else:
        distances = metric.distance_matrix()[peer, list(active)]
    return int(active[int(np.argmin(distances))])


@dataclass(frozen=True)
class EpochOutcome:
    """What one :meth:`ServiceState.apply_epoch` call did.

    ``results`` aligns with the input batch: ``(ok, value)`` per
    request — ``value`` is the answer on success (bool for mutations,
    float for queries) and the rejection message when ``ok`` is False.
    ``social_cost`` is NaN for pure-query epochs that asked no social-
    cost question (nothing changed, so nothing new to record).
    """

    epoch: int
    results: Tuple[Tuple[bool, object], ...]
    moves: int
    digest: str
    social_cost: float
    mutations: int


class ServiceState:
    """Request-driven churn state over a fixed peer universe.

    Parameters mirror :class:`~repro.simulation.churn.ChurnSimulation`
    where they overlap (``metric``, ``alpha``, ``initial_active``,
    ``method``, ``workers``/``backend`` — ``workers`` sizes a
    ``"process"`` pool only — ``shards`` and friends); the epoch engine
    is always incremental and always batched — coalescing into batched
    epochs is the service's entire reason to exist.

    The state owns any backend resolved from a spec string and is a
    context manager; ``close()`` is idempotent and safe after a failed
    ``__init__``.
    """

    def __init__(
        self,
        metric: MetricSpace,
        alpha: float,
        *,
        cost_model=None,
        initial_active: Optional[Sequence[int]] = None,
        method: str = "greedy",
        workers: int = 1,
        backend=None,
        shards: Optional[int] = None,
        shard_placement: Optional[str] = None,
        shard_hosts=None,
        journal: Optional[ServiceJournal] = None,
        peer_policy=None,
        fault_plan=None,
        recovery=None,
    ) -> None:
        from repro.core.backends import SolverBackend, resolve_backend
        from repro.core.cost_model import resolve_cost_model
        from repro.core.sharded import check_shard_options

        # Owned-resource slots first: close() must be a no-op on an
        # instance whose __init__ died in validation below.
        self._solver_backend = None
        self._owns_backend = False
        self._closed = False

        if metric.n < POPULATION_FLOOR:
            raise ValueError(
                f"service needs a universe of >= {POPULATION_FLOOR} peers"
            )
        check_shard_options(shards, shard_placement, shard_hosts)
        self._metric = metric
        self._alpha = float(alpha)
        #: Cost model every per-epoch subgame is built with.  Journaled
        #: social costs are model-priced; digests are strategy-only and
        #: model-independent (the externality contract keeps
        #: trajectories identical across conforming models).
        self._cost_model = resolve_cost_model(cost_model, self._alpha)
        if journal is not None and self._cost_model is not None:
            journal.cost_model_spec = self._cost_model.spec()
        self._method = method
        self._shards = shards
        self._shard_placement = shard_placement
        self._shard_hosts = shard_hosts
        self._journal = journal
        #: Byzantine commit hook (:mod:`repro.faults.adversaries`);
        #: ``None`` keeps the honest code path byte-identical.
        self._peer_policy = peer_policy
        #: Transport fault schedule + worker recovery policy, threaded
        #: into every epoch's sharded evaluator (socket placement only).
        if fault_plan is not None and not fault_plan.is_null:
            if shard_placement != "socket":
                raise ValueError(
                    "fault_plan requires shard_placement 'socket' (local "
                    "evaluators have no transports to fault)"
                )
        self._fault_plan = fault_plan
        self._recovery = recovery
        self._owns_backend = not isinstance(backend, SolverBackend)
        self._solver_backend = resolve_backend(backend, workers)

        if initial_active is None:
            initial_active = range(max(POPULATION_FLOOR, metric.n // 2))
        active = sorted(set(int(p) for p in initial_active))
        if len(active) < POPULATION_FLOOR:
            raise ValueError(
                f"need >= {POPULATION_FLOOR} initially active peers, "
                f"got {len(active)}"
            )
        for peer in active:
            if not 0 <= peer < metric.n:
                raise IndexError(f"peer {peer} outside universe")
        self._active: List[int] = active
        self._strategies: List[Set[int]] = [
            set() for _ in range(metric.n)
        ]
        self._epoch = 0
        self._evaluator_totals: Dict[str, int] = {}
        #: Worker-recovery events harvested from each epoch's shard
        #: pool before it is torn down (pools live one epoch); the
        #: chaos harness and the e20 benchmark read recovery-time
        #: distributions from here.
        self.recovery_log: List[Dict[str, object]] = []
        self._bootstrap()

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Nearest-neighbor chain over the initial active set (churn's
        bootstrap, via the subset-friendly nearest lookup)."""
        for peer in self._active:
            others = [p for p in self._active if p != peer]
            if others:
                self._strategies[peer].add(
                    nearest_active(self._metric, peer, others)
                )

    # ------------------------------------------------------------------
    @property
    def n_universe(self) -> int:
        return self._metric.n

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def cost_model(self):
        """The service's cost model (``None`` = the paper's default)."""
        return self._cost_model

    @property
    def epoch(self) -> int:
        """Number of epochs applied so far."""
        return self._epoch

    @property
    def active(self) -> Tuple[int, ...]:
        return tuple(self._active)

    @property
    def journal(self) -> Optional[ServiceJournal]:
        return self._journal

    @property
    def peer_policy(self):
        """The Byzantine commit hook (``None`` = honest fast path)."""
        return self._peer_policy

    @peer_policy.setter
    def peer_policy(self, policy) -> None:
        # Settable so a scenario can arm an attack window mid-run; the
        # journal stays replayable as long as the policy is a
        # deterministic function of (epoch, peer) — replay constructs
        # the state with the same policy and hits the same windows.
        self._peer_policy = policy

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
        """(active peers, their sorted strategies) — the trajectory
        endpoint journal replays are compared against."""
        active = tuple(self._active)
        return active, tuple(
            tuple(sorted(self._strategies[peer])) for peer in active
        )

    def digest(self) -> str:
        return state_digest(self._active, self._strategies)

    def final_profile(self) -> StrategyProfile:
        """Full-universe profile (inactive peers hold no links)."""
        return StrategyProfile(
            [frozenset(s) for s in self._strategies]
        )

    def evaluator_totals(self) -> Dict[str, int]:
        """Evaluator-stats counters accumulated across all epochs."""
        return dict(self._evaluator_totals)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources (idempotent, failed-init safe): the
        process pool of a backend resolved from a spec string.  Epoch
        evaluators are already closed at the end of their epoch."""
        if self._closed:
            return
        self._closed = True
        if self._owns_backend and self._solver_backend is not None:
            self._solver_backend.close()

    def __enter__(self) -> "ServiceState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def apply_epoch(self, requests: Sequence[Request]) -> EpochOutcome:
        """Process one batch of logically-concurrent requests."""
        if self._closed:
            raise ServiceClosedError("service state is closed")
        results: List[Optional[Tuple[bool, object]]] = [None] * len(requests)

        # Phase 1: membership, in arrival order.
        membership: List[Tuple[str, int]] = []
        for index, request in enumerate(requests):
            if request.kind == "join":
                membership.append(("join", request.peer))
                results[index] = self._apply_join(request.peer)
            elif request.kind == "leave":
                membership.append(("leave", request.peer))
                results[index] = self._apply_leave(request.peer)

        # Phase 2: rebinds as one stale-profile activation batch.
        active = self._active
        index_of = {peer: slot for slot, peer in enumerate(active)}
        rebind_peers: List[int] = []
        # One solve per distinct peer; duplicate rebinds in the same
        # epoch share that solve's outcome (they are logically
        # concurrent requests for the same activation).
        slot_requests: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            if request.kind != "rebind":
                continue
            slot = index_of.get(request.peer)
            if slot is None:
                results[index] = (
                    False,
                    f"peer {request.peer} is not active",
                )
                continue
            if slot not in slot_requests:
                rebind_peers.append(request.peer)
                slot_requests[slot] = []
            slot_requests[slot].append(index)

        wants_social = any(
            request.kind == "query_social_cost" for request in requests
        )
        mutations = len(membership) + len(rebind_peers)
        needs_evaluator = bool(slot_requests) or wants_social or any(
            request.kind == "query_cost" for request in requests
        ) or mutations > 0

        moves = 0
        social = float("nan")
        if needs_evaluator:
            dmat = subgame_matrix(self._metric, active)
            sub = self._sub_profile(active, index_of)
            # Scalar model parameters (alpha, beta) are independent of
            # the subset size, so the universe-level model prices every
            # per-epoch subgame directly.
            subgame = TopologyGame(
                DistanceMatrixMetric(dmat, validate=False),
                self._alpha,
                cost_model=self._cost_model,
            )
            evaluator = self._make_evaluator(subgame, sub)
            try:
                if slot_requests:
                    sub, moves = self._rebind_batch(
                        subgame, sub, evaluator, active,
                        slot_requests, results,
                    )
                # Phase 3: queries, answered post-commit.  A cost query
                # is a point read: all of an epoch's distinct query
                # peers are priced through one blocked rows-only pass
                # (no full candidate matrices), so duplicate queries are
                # free and distinct ones share the Dijkstra call.
                evaluator.set_profile(sub)
                if wants_social or mutations > 0:
                    social = evaluator.social_cost().total
                query_slots = sorted(
                    {
                        slot
                        for request in requests
                        if request.kind == "query_cost"
                        and (slot := index_of.get(request.peer)) is not None
                    }
                )
                cost_memo = dict(
                    zip(
                        query_slots,
                        evaluator.strategy_rows_costs(
                            [
                                (slot, sub.strategy(slot))
                                for slot in query_slots
                            ]
                        ),
                    )
                )
                for index, request in enumerate(requests):
                    if request.kind == "query_cost":
                        slot = index_of.get(request.peer)
                        if slot is None:
                            results[index] = (
                                False,
                                f"peer {request.peer} is not active",
                            )
                        else:
                            results[index] = (True, float(cost_memo[slot]))
                    elif request.kind == "query_social_cost":
                        results[index] = (True, float(social))
                self._merge_stats(evaluator)
            finally:
                # Epoch evaluators live for exactly one epoch — the
                # active set may change next batch.
                evaluator.close()

        digest = self.digest()
        outcome = EpochOutcome(
            epoch=self._epoch,
            results=tuple(results),
            moves=moves,
            digest=digest,
            social_cost=social,
            mutations=mutations,
        )
        if self._journal is not None and mutations > 0:
            self._journal.append(
                EpochRecord(
                    epoch=self._epoch,
                    membership=tuple(membership),
                    rebinds=tuple(rebind_peers),
                    digest=digest,
                    moves=moves,
                    social_cost=social,
                )
            )
        self._epoch += 1
        return outcome

    # ------------------------------------------------------------------
    def _apply_join(self, peer: int) -> Tuple[bool, object]:
        if not 0 <= peer < self._metric.n:
            return False, f"peer {peer} outside universe [0, {self._metric.n})"
        if peer in set(self._active):
            return True, False  # already active: idempotent no-op
        current = self._active  # sorted; join sees earlier joins/leaves
        if current:
            target = nearest_active(self._metric, peer, current)
            self._strategies[peer] = {target}
        self._active.append(peer)
        self._active.sort()
        return True, True

    def _apply_leave(self, peer: int) -> Tuple[bool, object]:
        if peer not in set(self._active):
            return True, False  # already gone: idempotent no-op
        if len(self._active) - 1 < POPULATION_FLOOR:
            return (
                False,
                f"leave of peer {peer} would drop the active population "
                f"below the floor of {POPULATION_FLOOR}",
            )
        self._active.remove(peer)
        self._strategies[peer] = set()
        for holder in self._active:
            self._strategies[holder].discard(peer)
        return True, True

    def _sub_profile(
        self, active: Sequence[int], index_of: Dict[int, int]
    ) -> StrategyProfile:
        return StrategyProfile(
            [
                frozenset(
                    index_of[t]
                    for t in self._strategies[peer]
                    if t in index_of
                )
                for peer in active
            ]
        )

    def _make_evaluator(
        self, subgame: TopologyGame, sub: StrategyProfile
    ) -> GameEvaluator:
        # Shared-memory segments only pay off when the batch actually
        # dispatches to a process pool (same reasoning as churn).
        store = "shared" if self._solver_backend.distributed else "memory"
        # Epoch evaluators live for exactly one epoch over a small
        # subgame: every row they repair was dirtied moments ago by this
        # epoch's own commits, and at this scale the vectorized scratch
        # rebuild beats the per-row dynamic updater (whose win is large
        # matrices with small affected frontiers).  Row values are
        # bitwise identical either way, so trajectories don't move.
        if self._shards is not None:
            from repro.core.sharded import build_sharded_evaluator

            return build_sharded_evaluator(
                subgame,
                sub,
                store=store,
                shards=self._shards,
                placement=self._shard_placement,
                shard_hosts=self._shard_hosts,
                dynamic_repair=False,
                fault_plan=self._fault_plan,
                recovery=self._recovery,
            )
        return GameEvaluator(subgame, sub, store=store, dynamic_repair=False)

    def _rebind_batch(
        self,
        subgame: TopologyGame,
        sub: StrategyProfile,
        evaluator: GameEvaluator,
        active: Sequence[int],
        slot_requests: Dict[int, List[int]],
        results: List[Optional[Tuple[bool, object]]],
    ) -> Tuple[StrategyProfile, int]:
        """One logically-concurrent activation batch with stale-commit
        re-checks; fills ``results`` for every rebind request."""
        slots = list(slot_requests)
        responses = batch_responses(
            subgame,
            sub,
            slots,
            self._method,
            evaluator,
            self._solver_backend,
        )
        moves = 0
        base = sub
        for slot, response in zip(slots, responses):
            check = True
            if self._peer_policy is not None:
                from repro.faults.adversaries import apply_policy

                response, check = apply_policy(
                    self._peer_policy,
                    peer=active[slot],
                    slot=slot,
                    epoch=self._epoch,
                    response=response,
                    active=active,
                )
            moved = False
            if response is not None and response.improved:
                commit = True
                if check and sub is not base:
                    commit, _old, _new = recheck_improvement(
                        subgame, sub, response, evaluator
                    )
                if commit:
                    peer = active[slot]
                    self._strategies[peer] = {
                        active[t] for t in response.strategy
                    }
                    sub = sub.with_strategy(slot, response.strategy)
                    moves += 1
                    moved = True
            for index in slot_requests[slot]:
                results[index] = (True, moved)
        return sub, moves

    def _merge_stats(self, evaluator: GameEvaluator) -> None:
        pool = getattr(evaluator, "worker_pool", None)
        if pool is not None and pool.recovery_events:
            self.recovery_log.extend(pool.recovery_events)
        for key, value in evaluator.stats.as_dict().items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self._evaluator_totals[key] = (
                self._evaluator_totals.get(key, 0) + value
            )
