"""Sharded evaluators: split the peer space so no one holds O(n^2) rows.

:class:`~repro.core.evaluator.GameEvaluator` caps the reproduction at
roughly 10^4 peers because one object owns the full ``n x n`` overlay
distance matrix.  This module shards that matrix:

* :class:`ShardPlan` partitions the peers into ``k`` contiguous
  *row blocks*.  Row-block layout matters: the evaluator's incremental
  invalidation is per *source row* (a peer changing strategy dirties the
  rows of every source that reaches it), so each dirtied row belongs to
  exactly one shard and repair work never crosses shard boundaries.
* :class:`ShardedDistances` gives every shard its slice of the overlay
  distance matrix, built lazily, with one block resident at a time, so
  resident distance bytes stay near ``n^2/k * 8`` instead of
  ``n^2 * 8``.  Cross-shard queries go through the narrow
  :meth:`ShardedDistances.rows` interface, which assembles copies of the
  requested rows from their owning shards.
* :class:`ShardedEvaluator` is a drop-in
  :class:`~repro.core.evaluator.GameEvaluator` facade over those blocks
  — and, with ``placement="process"`` or ``"socket"``, places each
  shard's distance block in its own worker process
  (:mod:`repro.core.shard_workers`) so the coordinator holds no block
  at all.  Strategic queries (``service_costs``, ``best_response``,
  ``gain_sweep``, ``find_improving_flip``) are inherited unchanged, and
  so is the one service store that holds the per-peer service matrices,
  so dynamics trajectories are **identical** to the unsharded evaluator
  for every shard count, execution backend, and store kind.  Cost
  queries (``social_cost``, ``peer_costs``) stream shard by shard
  instead of materializing the full stretch matrix.

Exactness
---------

Per-row quantities are bitwise identical to the unsharded evaluator:
each distance row is produced by the same per-source Dijkstra whichever
shard owns it, and row reductions (``peer_costs``) reduce over one row
at a time.  The one caveat is the social cost's *scalar* stretch total:
the sharded evaluator sums per-block partial sums, which may differ from
the unsharded full-matrix ``stretch.sum()`` in the last floating-point
ulp (summation order).  Strategic queries never consume that scalar, so
trajectories are unaffected; tests compare it with a 1e-12 relative
tolerance.

The trade-off being bought: a released (non-resident) shard block must
be rebuilt in full on its next query — local sharding spends recompute
to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.costs import CostBreakdown, stretch_from_distance_rows
from repro.core.evaluator import GameEvaluator
from repro.core.profile import StrategyProfile
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.shortest_paths import multi_source_distances

__all__ = [
    "ShardPlan",
    "ShardedDistances",
    "ShardedEvaluator",
    "check_shard_options",
    "build_sharded_evaluator",
]


def check_shard_options(
    shards: Optional[int],
    placement: Optional[str] = None,
    shard_hosts: Optional[Sequence[str]] = None,
) -> None:
    """Validate the shard options every sharded entry point shares.

    Fails fast with the same messages everywhere (dynamics, engine,
    churn, the service state, ``make_evaluator`` and
    :class:`ShardedEvaluator` itself) so a bad combination — a placement
    without shards, hosts without socket placement — dies at
    construction instead of deep inside :class:`ShardPlan`.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if placement is not None:
        from repro.core.shard_workers import PLACEMENT_SPECS

        if placement not in PLACEMENT_SPECS:
            raise ValueError(
                f"unknown shard placement {placement!r}; expected one of "
                f"{PLACEMENT_SPECS}"
            )
        if shards is None:
            raise ValueError(
                "shard_placement requires shards= (there is nothing to "
                "place without a shard count)"
            )
    if shard_hosts is not None and len(list(shard_hosts)) > 0:
        if placement != "socket":
            raise ValueError(
                "shard_hosts requires shard_placement='socket' (hosts "
                "name the shard servers socket placement connects to)"
            )
        from repro.core.transport import parse_address

        for host in shard_hosts:
            parse_address(host)  # fail fast on malformed specs


def build_sharded_evaluator(
    game,
    profile: Optional[StrategyProfile] = None,
    *,
    shards: int,
    placement: Optional[str] = None,
    shard_hosts: Optional[Sequence[str]] = None,
    store="memory",
    dynamic_repair: bool = True,
    fault_plan=None,
    recovery=None,
) -> "ShardedEvaluator":
    """A :class:`ShardedEvaluator` from optional shard options.

    ``None`` placement means the class default — the one spot where the
    callers' "not configured" convention is translated, so every layer
    (dynamics, engine, churn, ``make_evaluator``) builds identical
    evaluators from identical flags.
    """
    return ShardedEvaluator(
        game,
        profile,
        store=store,
        shards=shards,
        placement="local" if placement is None else placement,
        shard_hosts=shard_hosts,
        dynamic_repair=dynamic_repair,
        fault_plan=fault_plan,
        recovery=recovery,
    )


@dataclass(frozen=True)
class ShardPlan:
    """Partition of peers ``0..n-1`` into ``k`` contiguous row blocks.

    Blocks are balanced to within one row (``n % k`` shards get the
    extra row, lowest-indexed first).  :meth:`owner` maps a peer to its
    shard in O(1) arithmetic — no lookup table to keep resident.
    """

    n: int
    k: int
    bounds: Tuple[Tuple[int, int], ...]

    @staticmethod
    def build(n: int, shards: int) -> "ShardPlan":
        """A plan for ``n`` peers; ``shards`` is clamped to ``[1, n]``.

        Clamping (rather than raising) keeps ``shards=4`` usable on the
        tiny epoch subgames churn produces: a 3-peer epoch simply runs
        with 3 singleton shards.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        k = max(1, min(int(shards), n)) if n > 0 else 1
        base, extra = divmod(n, k) if n > 0 else (0, 0)
        bounds: List[Tuple[int, int]] = []
        lo = 0
        for index in range(k):
            hi = lo + base + (1 if index < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return ShardPlan(n=n, k=k, bounds=tuple(bounds))

    def owner(self, peer: int) -> int:
        """Index of the shard whose row block contains ``peer``."""
        if not 0 <= peer < self.n:
            raise IndexError(f"peer {peer} out of range [0, {self.n})")
        base, extra = divmod(self.n, self.k)
        pivot = extra * (base + 1)
        if peer < pivot:
            return peer // (base + 1)
        return extra + (peer - pivot) // base

    def shard_rows(self, shard: int) -> range:
        """The global row ids owned by ``shard``."""
        lo, hi = self.bounds[shard]
        return range(lo, hi)


class ShardedDistances:
    """Row-block shards of the overlay distance matrix, one resident.

    Each shard owns rows ``[lo, hi)``; a shard's block is built lazily
    by one multi-source Dijkstra over its own sources and repaired
    row-incrementally when :meth:`mark_dirty` touched it.  One block is
    resident at a time: a query for another shard first *releases* the
    resident block (counted in ``stats.distance_block_releases``), and a
    released block is rebuilt in full on its next query.

    Residency is observable through the evaluator's stats counters:
    ``distance_resident_bytes`` / ``distance_resident_peak_bytes`` move
    with every build and release, ``distance_block_builds`` counts full
    block (re)builds, and ``distance_rows_recomputed`` counts repaired
    rows exactly as on the unsharded evaluator.

    When a :class:`~repro.graphs.dynamic_sssp.RowRepairer` is supplied
    (the evaluator's, sharing its flip log), dirty rows of the resident
    block are patched in place O(affected) instead of re-solved, from
    the flip-log cursor the block was last brought up to date at.
    """

    def __init__(
        self,
        plan: ShardPlan,
        backend: str,
        stats,
        repairer=None,
    ) -> None:
        self._plan = plan
        self._backend = backend
        self._stats = stats
        self._repairer = repairer
        #: Index of the resident shard (``None`` when no block is held),
        #: with its block, its dirty global rows and its flip-log cursor.
        self._resident: Optional[int] = None
        self._block: Optional[np.ndarray] = None
        self._dirty: Set[int] = set()
        self._cursor = 0

    def reset(self) -> None:
        """Release the resident block (full invalidation)."""
        self._release(count=False)

    def mark_dirty(self, affected: Set[int]) -> None:
        """Record the dirtied global rows of the resident block.

        Rows of other shards are ignored: a non-resident block is
        rebuilt in full anyway, so tracking its dirt would be wasted.
        """
        if self._resident is None:
            return
        lo, hi = self._plan.bounds[self._resident]
        self._dirty.update(row for row in affected if lo <= row < hi)

    def block(self, shard: int, overlay: WeightedDigraph) -> np.ndarray:
        """The clean, resident row block of ``shard`` (builds/repairs).

        Treat the returned array as read-only; it is released (and
        later rebuilt) by a subsequent call for another shard.
        """
        lo, hi = self._plan.bounds[shard]
        if shard != self._resident:
            # Release *before* building so the peak is one block, never
            # two (the e15 memory target counts this transient).
            self._release()
            self._block = multi_source_distances(
                overlay, list(range(lo, hi)), backend=self._backend
            )
            self._resident = shard
            if self._repairer is not None:
                self._cursor = self._repairer.head
            self._stats.distance_block_builds += 1
            self._stats.account_distance(self._block.nbytes)
        elif self._dirty:
            rows = sorted(self._dirty)
            if self._repairer is not None:
                repaired, fallbacks = self._repairer.repair_block(
                    self._block,
                    [row - lo for row in rows],
                    rows,
                    overlay,
                    self._cursor,
                )
                self._cursor = self._repairer.head
                self._stats.distance_vertices_repaired += repaired
                self._stats.distance_full_fallbacks += fallbacks
            else:
                fresh = multi_source_distances(
                    overlay, rows, backend=self._backend
                )
                self._block[[row - lo for row in rows]] = fresh
            self._stats.distance_rows_recomputed += len(rows)
            self._dirty = set()
        return self._block

    def rows(
        self, peers: Sequence[int], overlay: WeightedDigraph
    ) -> np.ndarray:
        """Copies of the requested distance rows, in ``peers`` order.

        The narrow cross-shard query interface: rows are gathered shard
        by shard (so one block is alive at a time during assembly) into
        a fresh caller-owned array.
        """
        peers = list(peers)
        out = np.empty((len(peers), self._plan.n), dtype=np.float64)
        by_shard: Dict[int, List[int]] = {}
        for position, peer in enumerate(peers):
            by_shard.setdefault(self._plan.owner(peer), []).append(position)
        for shard in sorted(by_shard):
            block = self.block(shard, overlay)
            lo, _hi = self._plan.bounds[shard]
            for position in by_shard[shard]:
                out[position] = block[peers[position] - lo]
        return out

    def _release(self, count: bool = True) -> None:
        if self._resident is None:
            return
        self._stats.account_distance(-self._block.nbytes)
        self._resident = None
        self._block = None
        self._dirty = set()
        if count:
            self._stats.distance_block_releases += 1


class ShardedEvaluator(GameEvaluator):
    """Drop-in :class:`GameEvaluator` whose state is sharded ``k`` ways.

    Parameters (beyond the base class)
    ----------------------------------
    shards:
        Number of row-block shards ``k`` (clamped to ``[1, n]``, see
        :meth:`ShardPlan.build`).  Peer ``p``'s distance row lives in
        shard ``plan.owner(p)``; its service matrix lives in the one
        service store, as on the base class.
    placement:
        Where the distance row blocks live: ``"local"`` (default — in
        this process, one block resident at a time, so peak resident
        distance bytes stay near ``n^2/k * 8``),
        ``"process"`` — one long-lived worker process per shard
        (:class:`~repro.core.shard_workers.ShardWorkerPool`) serving
        ``distance_rows`` and O(n/k) stretch reductions over a narrow
        request/reply transport, so the coordinator process holds *no*
        distance blocks at all — or ``"socket"``, which without
        ``shard_hosts`` is the same thing (one forked child per shard
        behind a :class:`~repro.core.transport.SocketTransport`) and
        with them connects each shard to a standalone
        :mod:`repro.shard_server` instead.
        Strategic queries are identical in every placement (they never
        touch the distance layer); cost queries stream the same
        per-shard reductions, computed from the same bytes.
    shard_hosts:
        Socket placement only: ``"host:port"`` / ``"unix:/path"``
        addresses of running shard servers; shards round-robin across
        them.  ``None`` (default) forks the shards on this host, so no
        external setup is needed.
    dynamic_repair:
        Inherited switch (see :class:`~repro.core.evaluator.
        GameEvaluator`): when True the resident row blocks — local ones
        here, per-worker ones under process placement — are patched in
        place by the incremental updater instead of re-solved.

    Everything else — the caching/invalidation contract, the gain-sweep
    batch APIs, the memo effect bound, backend dispatch — is inherited.
    Trajectory identity with the unsharded evaluator holds for every
    ``(shards, backend, store)`` combination because strategic queries
    are functions of the per-peer service matrices alone, and stores
    only move bytes.  See the module docstring for the one scalar
    (social-cost stretch total) that may differ in the last ulp.
    """

    def __init__(
        self,
        game,
        profile: Optional[StrategyProfile] = None,
        backend: str = "auto",
        max_cached_services: int = 512,
        store="memory",
        shards: int = 2,
        placement: str = "local",
        shard_hosts: Optional[Sequence[str]] = None,
        dynamic_repair: bool = True,
        fault_plan=None,
        recovery=None,
    ) -> None:
        # Owned-resource slots first: close() must be a no-op on an
        # instance whose __init__ died in the validation below.
        self._shard_dist: Optional[ShardedDistances] = None
        self._worker_pool = None

        check_shard_options(shards, placement, shard_hosts)
        if fault_plan is not None and not fault_plan.is_null:
            if placement not in ("process", "socket"):
                raise ValueError(
                    "fault_plan requires a worker placement ('process' or "
                    "'socket'); local placement has no transports to fault"
                )
        plan = ShardPlan.build(game.n, shards)
        self._plan = plan
        self._placement = placement
        #: Per-shard ``(stretch row sums, stretch total)`` — the O(n/k)
        #: reductions cost queries need — so repeat queries on an
        #: unchanged profile touch no distance blocks at all.  ``None``
        #: entries are stale (dirtied rows or a reset).
        self._shard_sums: List[Optional[Tuple[np.ndarray, float]]] = []
        super().__init__(
            game,
            profile=None,
            backend=backend,
            max_cached_services=max_cached_services,
            store=store,
            dynamic_repair=dynamic_repair,
        )
        if placement in ("process", "socket"):
            from repro.core.shard_workers import ShardWorkerPool
            from repro.core.transport import (
                SocketTransport,
                SocketTransportFactory,
            )

            # A shard differs only in how its socket is obtained:
            # connect to a listed host, or fork a same-host child.
            factory = (
                SocketTransportFactory(shard_hosts)
                if shard_hosts
                else SocketTransport.forked
            )
            if fault_plan is not None and not fault_plan.is_null:
                from repro.faults.injection import FaultyTransportFactory

                factory = FaultyTransportFactory(factory, fault_plan)
            self._worker_pool = ShardWorkerPool(
                plan,
                game.distance_matrix,
                backend,
                transport_factory=factory,
                dynamic_repair=dynamic_repair,
                recovery=recovery,
            )
        else:
            self._shard_dist = ShardedDistances(
                plan, backend, self.stats, repairer=self._repairer
            )
        self._shard_sums = [None] * plan.k
        if profile is not None:
            self.set_profile(profile)

    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        """The row-block partition this evaluator runs under."""
        return self._plan

    @property
    def num_shards(self) -> int:
        return self._plan.k

    @property
    def placement(self) -> str:
        """Where the blocks live: ``"local"``/``"process"``/``"socket"``."""
        return self._placement

    @property
    def worker_pool(self):
        """The shard worker pool (``None`` under local placement)."""
        return self._worker_pool

    def _resolve_solver_backend(self, backend):
        """Bind the ``"shard"`` backend spec to this evaluator's pool.

        Drivers resolve backends at construction time, before any
        evaluator (or worker pool) exists, so a
        :class:`~repro.core.shard_workers.ShardSolverBackend` arrives
        unbound; binding per sweep also keeps it correct across the
        per-epoch evaluators churn builds.
        """
        from repro.core.backends import resolve_backend

        resolved = resolve_backend(backend)
        if getattr(resolved, "wants_tasks", False):
            if self._worker_pool is None:
                raise ValueError(
                    "backend 'shard' routes solves to shard workers; "
                    "build the evaluator with shard_placement 'process' "
                    "or 'socket'"
                )
            resolved.bind_pool(self._worker_pool)
        return resolved

    def shard_worker_stats(self) -> Optional[List[Dict[str, int]]]:
        """Per-worker distance counters, or ``None`` under local placement.

        The process-placement counterpart of the ``distance_*`` fields
        of :class:`~repro.core.evaluator.EvaluatorStats` (which stay 0
        on this evaluator's coordinator side — no block is ever resident
        here): one dict per shard worker with ``block_builds``,
        ``rows_recomputed``, ``vertices_repaired``, ``full_fallbacks``,
        ``resident_bytes`` and ``resident_peak_bytes``.
        """
        if self._worker_pool is None:
            return None
        return self._worker_pool.worker_stats()

    # ------------------------------------------------------------------
    # Distance layer: sharded instead of monolithic
    # ------------------------------------------------------------------
    def _reset(self, profile: StrategyProfile) -> None:
        super()._reset(profile)
        if self._shard_dist is not None:
            self._shard_dist.reset()
        if self._worker_pool is not None:
            # The model spec rides the reset broadcast so shard-side
            # solves price with the coordinator's cost model (the
            # respawn replay re-sends it; the socket init handshake is
            # untouched).
            model = self._cost_model
            self._worker_pool.reset(
                profile, None if model is None else model.spec()
            )
        self._shard_sums = [None] * self._plan.k

    def _rebind_single(self, peer: int, profile: StrategyProfile) -> None:
        super()._rebind_single(peer, profile)
        if self._worker_pool is not None:
            # Ship only (peer, new targets); every worker re-derives the
            # affected rows from its own overlay with the same BFS the
            # coordinator just ran, so the dirty sets agree exactly.
            self._worker_pool.rebind(peer, profile.strategy(peer))

    def _mark_distance_dirty(self, affected: Set[int]) -> None:
        if self._shard_dist is not None:
            self._shard_dist.mark_dirty(affected)
        # Sum caches go stale for *every* affected row's shard — also
        # for non-resident blocks, whose dirt the distance manager
        # ignores (they rebuild in full anyway).
        if self._shard_sums:
            for shard in {self._plan.owner(row) for row in affected}:
                self._shard_sums[shard] = None

    def distance_rows(self, peers: Sequence[int]) -> np.ndarray:
        """Overlay-distance rows for ``peers`` (fresh, caller-owned).

        The narrow cross-shard interface: each row is served by its
        owning shard (built or repaired on demand).  Under local
        placement one block is alive at a time while gathering; under
        worker placements the rows come back over the
        worker transport and the coordinator holds no block at all.
        Values are bitwise identical to the same rows of the unsharded
        :meth:`~repro.core.evaluator.GameEvaluator.overlay_distances`.
        """
        if self._worker_pool is not None:
            return self._worker_pool.rows(peers)
        return self._shard_dist.rows(peers, self.overlay)

    def overlay_distances(self) -> np.ndarray:
        """Full matrix, assembled across shards — facade compatibility.

        Materializes all ``n^2`` entries transiently (defeating the
        resident-memory bound for the duration of the call); sharded
        code paths should prefer :meth:`distance_rows` or the streaming
        cost queries below.
        """
        return self.distance_rows(range(self._n))

    def stretches(self) -> np.ndarray:
        """Full stretch matrix — facade compatibility, not cached.

        Like :meth:`overlay_distances` this is transiently O(n^2);
        :meth:`social_cost` / :meth:`peer_costs` stream per shard and
        should be preferred.
        """
        from repro.core.costs import stretch_from_distances

        return stretch_from_distances(self._dmat, self.overlay_distances())

    def _stretch_block(self, shard: int) -> np.ndarray:
        """Stretch rows of one shard (bitwise-identical row values)."""
        lo, hi = self._plan.bounds[shard]
        block = self._shard_dist.block(shard, self.overlay)
        return stretch_from_distance_rows(
            self._dmat[lo:hi], block, range(lo, hi)
        )

    def _shard_stretch_sums(self, shard: int) -> Tuple[np.ndarray, float]:
        """``(row sums, total)`` of one shard's stretch block (cached).

        The reductions are computed from the full block exactly as the
        streaming queries always did, then kept as an O(n/k) vector +
        scalar so clean shards answer repeat cost queries without
        rebuilding released distance blocks.
        """
        cached = self._shard_sums[shard]
        if cached is None:
            if self._worker_pool is not None:
                cached = self._worker_pool.stretch_sums(shard)
            else:
                stretch = self._stretch_block(shard)
                cached = (stretch.sum(axis=1), float(stretch.sum()))
            self._shard_sums[shard] = cached
        return cached

    def _prefetch_stretch_sums(self) -> None:
        """Refill every stale shard-sum cache in one pipelined fan-out.

        Worker placements only: a full cost query after a reset/rebind
        needs all ``k`` reductions anyway, and one broadcast overlaps
        the workers' block builds instead of serializing them.
        """
        if self._worker_pool is None:
            return
        stale = [
            shard
            for shard in range(self._plan.k)
            if self._shard_sums[shard] is None
        ]
        if not stale:
            return
        for shard, sums in self._worker_pool.stretch_sums_all(stale).items():
            self._shard_sums[shard] = sums

    def social_cost(self) -> CostBreakdown:
        """Social cost, streamed one shard block at a time.

        The stretch total is accumulated per block (served from the
        per-shard sum cache when clean), so at most one distance block
        is resident during the query.  The scalar may differ from the unsharded evaluator's
        full-matrix sum in the last ulp (summation order); see the
        module docstring.
        """
        profile = self.profile
        self._prefetch_stretch_sums()
        stretch_total = 0.0
        for shard in range(self._plan.k):
            stretch_total += self._shard_stretch_sums(shard)[1]
        extra = 0.0
        if self._cost_model is not None:
            extra = self._cost_model.social_extra(profile)
        return CostBreakdown(
            link_cost=self._alpha * profile.num_links,
            stretch_cost=stretch_total,
            extra_cost=extra,
        )

    def peer_costs(self) -> np.ndarray:
        """Individual costs ``c_i(s)``, streamed one shard at a time.

        Row sums reduce over one stretch row at a time, so every entry
        is bitwise identical to the unsharded evaluator's (and is
        served from the per-shard sum cache when the shard is clean).
        """
        profile = self.profile
        degrees = np.array(
            [profile.out_degree(i) for i in range(self._n)], dtype=float
        )
        if self._n == 0:
            return degrees
        self._prefetch_stretch_sums()
        sums = np.concatenate(
            [
                self._shard_stretch_sums(shard)[0]
                for shard in range(self._plan.k)
            ]
        )
        costs = self._alpha * degrees + sums
        if self._cost_model is not None:
            term = self._cost_model.per_peer_term(profile)
            if term is not None:
                costs = costs + term
        return costs

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._shard_dist is not None:
            self._shard_dist.reset()
        if self._worker_pool is not None:
            self._worker_pool.close()
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = self._profile is not None
        return (
            f"ShardedEvaluator(n={self._n}, alpha={self._alpha}, "
            f"shards={self._plan.k}, placement={self._placement!r}, "
            f"bound={bound}, cached_services={len(self._service)})"
        )
