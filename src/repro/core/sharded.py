"""Sharded evaluators: split the peer space so no one holds O(n^2) rows.

:class:`~repro.core.evaluator.GameEvaluator` caps the reproduction at
roughly 10^4 peers because one object owns the full ``n x n`` overlay
distance matrix.  PR 3 already budgets the *service-matrix* side of the
cache (:class:`~repro.core.service_store.SpillStore`); this module shards
the remaining monolith — the distance matrix itself — and, with it, the
service-store budget:

* :class:`ShardPlan` partitions the peers into ``k`` contiguous
  *row blocks*.  Row-block layout matters: the evaluator's incremental
  invalidation is per *source row* (a peer changing strategy dirties the
  rows of every source that reaches it), so each dirtied row belongs to
  exactly one shard and repair work never crosses shard boundaries.
* :class:`ShardedDistances` gives every shard its slice of the overlay
  distance matrix, built lazily and bounded globally: at most
  ``max_resident_shards`` row blocks are held in RAM at once (LRU), so
  resident distance bytes stay near ``n^2/k * 8`` instead of ``n^2 * 8``.
  Cross-shard queries go through the narrow :meth:`ShardedDistances.rows`
  interface, which assembles copies of the requested rows from their
  owning shards.
* :class:`ShardedStore` gives every shard its own
  :class:`~repro.core.service_store.ServiceStore` (and therefore its own
  byte budget) and routes each peer's ``W`` matrix — including the
  zero-copy :meth:`~repro.core.service_store.ServiceStore.handle`
  descriptors that process-pool workers attach — to the owning shard's
  store.
* :class:`ShardedEvaluator` is a drop-in
  :class:`~repro.core.evaluator.GameEvaluator` facade wiring the two
  together — and, with ``placement="process"``, placing each shard's
  distance block in its own worker process
  (:mod:`repro.core.shard_workers`) so the coordinator holds no block
  at all.  Strategic queries (``service_costs``, ``best_response``,
  ``gain_sweep``, ``find_improving_flip``) are inherited unchanged — they
  are functions of the per-peer service matrices, which the sharded store
  serves bit-identically — so dynamics trajectories are **identical** to
  the unsharded evaluator for every shard count, execution backend, and
  store kind.  Cost queries (``social_cost``, ``peer_costs``) stream
  shard by shard instead of materializing the full stretch matrix.

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
be rebuilt in full on its next query — sharding spends recompute to
bound memory, exactly like the spill store does for ``W`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.costs import CostBreakdown, stretch_from_distance_rows
from repro.core.evaluator import GameEvaluator
from repro.core.profile import StrategyProfile
from repro.core.service_store import (
    ServiceStore,
    SharedMemoryStore,
    make_store,
)
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.shortest_paths import multi_source_distances

__all__ = [
    "ShardPlan",
    "ShardedDistances",
    "ShardedStore",
    "ShardedEvaluator",
    "check_shard_options",
    "build_sharded_evaluator",
]


def check_shard_options(
    shards: Optional[int],
    placement: Optional[str] = None,
    max_resident_shards: Optional[int] = None,
    shard_hosts: Optional[Sequence[str]] = None,
) -> None:
    """Validate the shard-tuning knobs shared by dynamics/engine/churn.

    Fails fast with the same messages everywhere so a bad combination —
    a placement without shards, a nonsensical residency budget — dies at
    construction instead of deep inside :class:`ShardPlan` or being
    silently clamped.
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
    if max_resident_shards is not None:
        if max_resident_shards < 1:
            raise ValueError(
                f"max_resident_shards must be >= 1, got {max_resident_shards}"
            )
        if shards is None:
            raise ValueError(
                "max_resident_shards requires shards= (it budgets the "
                "resident row blocks of a sharded evaluator)"
            )
        if shards is not None and max_resident_shards > shards:
            raise ValueError(
                f"max_resident_shards ({max_resident_shards}) cannot "
                f"exceed shards ({shards})"
            )


def build_sharded_evaluator(
    game,
    profile: Optional[StrategyProfile] = None,
    *,
    shards: int,
    placement: Optional[str] = None,
    max_resident_shards: Optional[int] = None,
    shard_hosts: Optional[Sequence[str]] = None,
    store="memory",
    dynamic_repair: bool = True,
    fault_plan=None,
    recovery=None,
) -> "ShardedEvaluator":
    """A :class:`ShardedEvaluator` from the optional driver-level knobs.

    ``None`` placement/residency mean the class defaults — the one spot
    where the drivers' "not configured" convention is translated, so
    every layer (dynamics, engine, churn, ``make_evaluator``) builds
    identical evaluators from identical flags.
    """
    check_shard_options(shards, placement, max_resident_shards, shard_hosts)
    return ShardedEvaluator(
        game,
        profile,
        store=store,
        shards=shards,
        max_resident_shards=(
            1 if max_resident_shards is None else max_resident_shards
        ),
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
    """Row-block shards of the overlay distance matrix, LRU-bounded.

    Each shard owns rows ``[lo, hi)``; a shard's block is built lazily
    by one multi-source Dijkstra over its own sources and repaired
    row-incrementally when :meth:`mark_dirty` touched it.  At most
    ``max_resident`` blocks are resident at once — older blocks are
    *released* (dropped, counted in ``stats.distance_block_releases``)
    and rebuilt in full on their next query.

    Residency is observable through the evaluator's stats counters:
    ``distance_resident_bytes`` / ``distance_resident_peak_bytes`` move
    with every build and release, ``distance_block_builds`` counts full
    block (re)builds, and ``distance_rows_recomputed`` counts repaired
    rows exactly as on the unsharded evaluator.

    When a :class:`~repro.graphs.dynamic_sssp.RowRepairer` is supplied
    (the evaluator's, sharing its flip log), dirty rows of resident
    blocks are patched in place O(affected) instead of re-solved; each
    block keeps its own flip-log cursor so blocks repaired at different
    times each replay exactly the flips they missed.
    """

    def __init__(
        self,
        plan: ShardPlan,
        backend: str,
        stats,
        max_resident: int = 1,
        repairer=None,
    ) -> None:
        if max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1, got {max_resident}"
            )
        self._plan = plan
        self._backend = backend
        self._stats = stats
        self._max_resident = min(plan.k, int(max_resident))
        self._blocks: List[Optional[np.ndarray]] = [None] * plan.k
        self._dirty: List[Set[int]] = [set() for _ in range(plan.k)]
        self._repairer = repairer
        self._cursors: List[int] = [0] * plan.k
        #: Resident shards in least-recently-used-first order (dict
        #: insertion order, same O(1) trick as the spill store's LRU).
        self._lru: Dict[int, None] = {}

    def reset(self) -> None:
        """Release every block (full invalidation)."""
        for shard in range(self._plan.k):
            self._release(shard, count=False)
        self._lru.clear()

    def mark_dirty(self, affected: Set[int]) -> None:
        """Route dirtied global rows to their owning shards.

        Rows of non-resident blocks are ignored: a released block is
        rebuilt in full anyway, so tracking its dirt would be wasted.
        """
        for row in affected:
            shard = self._plan.owner(row)
            if self._blocks[shard] is not None:
                self._dirty[shard].add(row)

    def block(self, shard: int, overlay: WeightedDigraph) -> np.ndarray:
        """The clean, resident row block of ``shard`` (builds/repairs).

        Treat the returned array as read-only; it may be released (and
        later rebuilt) by a subsequent call for another shard.
        """
        block = self._blocks[shard]
        lo, hi = self._plan.bounds[shard]
        if block is None:
            # Make room *before* building so the peak is max_resident
            # blocks, never max_resident + 1 (the e15 memory target
            # counts this transient).
            while len(self._lru) >= self._max_resident:
                self._release(next(iter(self._lru)))
            block = multi_source_distances(
                overlay, list(range(lo, hi)), backend=self._backend
            )
            self._blocks[shard] = block
            self._dirty[shard] = set()
            if self._repairer is not None:
                self._cursors[shard] = self._repairer.head
            self._stats.distance_block_builds += 1
            self._account(block.nbytes)
        elif self._dirty[shard]:
            rows = sorted(self._dirty[shard])
            if self._repairer is not None:
                repaired, fallbacks = self._repairer.repair_block(
                    block,
                    [row - lo for row in rows],
                    rows,
                    overlay,
                    self._cursors[shard],
                )
                self._cursors[shard] = self._repairer.head
                self._stats.distance_vertices_repaired += repaired
                self._stats.distance_full_fallbacks += fallbacks
            else:
                fresh = multi_source_distances(
                    overlay, rows, backend=self._backend
                )
                block[[row - lo for row in rows]] = fresh
            self._stats.distance_rows_recomputed += len(rows)
            self._dirty[shard] = set()
        self._touch(shard)
        return block

    def rows(
        self, peers: Sequence[int], overlay: WeightedDigraph
    ) -> np.ndarray:
        """Copies of the requested distance rows, in ``peers`` order.

        The narrow cross-shard query interface: rows are gathered shard
        by shard (so at most ``max_resident`` blocks are alive during
        assembly) into a fresh caller-owned array.
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

    def resident_blocks(self) -> int:
        """Number of row blocks currently held in RAM."""
        return len(self._lru)

    # -- residency ------------------------------------------------------
    def _touch(self, shard: int) -> None:
        self._lru.pop(shard, None)
        self._lru[shard] = None

    def _release(self, shard: int, count: bool = True) -> None:
        block = self._blocks[shard]
        if block is None:
            return
        self._account(-block.nbytes)
        self._blocks[shard] = None
        self._dirty[shard] = set()
        self._lru.pop(shard, None)
        if count:
            self._stats.distance_block_releases += 1

    def _account(self, delta: int) -> None:
        self._stats.account_distance(delta)


class ShardedStore(ServiceStore):
    """A service store routing each peer to its shard's sub-store.

    Every shard owns an independent
    :class:`~repro.core.service_store.ServiceStore` — so ``k`` spill
    stores each enforce their *own* byte budget, and handles returned by
    :meth:`handle` point process-pool workers directly at the owning
    shard's segment or spill-file window.  The wrapper adds routing
    only; bytes still move through the sub-stores unchanged, so the
    bit-exact round-trip contract of the store layer is preserved.
    """

    name = "sharded"

    def __init__(self, plan: ShardPlan, stores: Sequence[ServiceStore]):
        super().__init__()
        if len(stores) != plan.k:
            raise ValueError(
                f"plan has {plan.k} shards but {len(stores)} stores given"
            )
        self._plan = plan
        self._stores: List[ServiceStore] = list(stores)

    def _sub(self, key: int) -> ServiceStore:
        return self._stores[self._plan.owner(key)]

    # -- aggregate capabilities ----------------------------------------
    @property
    def shareable(self) -> bool:  # type: ignore[override]
        return all(store.shareable for store in self._stores)

    @property
    def stable_backing(self) -> bool:  # type: ignore[override]
        return all(store.stable_backing for store in self._stores)

    @property
    def chunk_budget_bytes(self) -> Optional[int]:  # type: ignore[override]
        """Tightest sub-store budget (a bulk chunk may land in one shard)."""
        budgets = [
            store.chunk_budget_bytes
            for store in self._stores
            if store.chunk_budget_bytes is not None
        ]
        return min(budgets) if budgets else None

    # -- lifecycle ------------------------------------------------------
    def bind_stats(self, stats) -> None:
        super().bind_stats(stats)
        for store in self._stores:
            store.bind_stats(stats)

    def close(self) -> None:
        for store in self._stores:
            store.close()

    # -- data plane (pure routing) -------------------------------------
    def put(self, key: int, weights: np.ndarray) -> np.ndarray:
        return self._sub(key).put(key, weights)

    def get(self, key: int) -> Optional[np.ndarray]:
        return self._sub(key).get(key)

    def write_rows(
        self, key: int, rows: Sequence[int], values: np.ndarray
    ) -> np.ndarray:
        return self._sub(key).write_rows(key, rows, values)

    def discard(self, key: int) -> None:
        self._sub(key).discard(key)

    def clear(self) -> None:
        for store in self._stores:
            store.clear()

    def keys(self) -> List[int]:
        return [key for store in self._stores for key in store.keys()]

    def handle(self, key: int) -> Optional[Tuple]:
        return self._sub(key).handle(key)

    def flush(self, keys: Optional[Sequence[int]] = None) -> None:
        if keys is None:
            for store in self._stores:
                store.flush()
            return
        by_shard: Dict[int, List[int]] = {}
        for key in keys:
            by_shard.setdefault(self._plan.owner(key), []).append(key)
        for shard, shard_keys in by_shard.items():
            self._stores[shard].flush(shard_keys)

    def resident_bytes(self) -> int:
        return sum(store.resident_bytes() for store in self._stores)

    # -- process sharing ------------------------------------------------
    def migrate_to_shared(self) -> List[int]:
        """Replace non-shareable sub-stores with shared-memory ones.

        Per-shard counterpart of the evaluator's store auto-migration
        for distributed backends: only shards whose store cannot hand
        out cross-process handles are migrated (one copy of their warm
        entries).  Returns the keys that moved to a new backing, so the
        caller can drop any views pinned to the retired buffers.
        """
        migrated: List[int] = []
        for shard, old in enumerate(self._stores):
            if old.shareable:
                continue
            new = SharedMemoryStore()
            new.bind_stats(self.stats)
            for key in old.keys():
                new.put(key, old.get(key))
                old.discard(key)
                migrated.append(key)
            old.close()
            self._stores[shard] = new
        return migrated

    @property
    def stores(self) -> Tuple[ServiceStore, ...]:
        """The per-shard sub-stores (read-mostly; for tests/diagnostics)."""
        return tuple(self._stores)


def _sharded_store(plan: ShardPlan, store) -> ShardedStore:
    """One sub-store per shard from a spec string / factory / instance."""
    if isinstance(store, ShardedStore):
        if len(store.stores) != plan.k:
            raise ValueError(
                f"sharded store has {len(store.stores)} sub-stores but the "
                f"plan needs {plan.k}"
            )
        return store
    if isinstance(store, ServiceStore):
        raise TypeError(
            "a single ServiceStore instance cannot back a sharded "
            "evaluator (each shard needs its own budget); pass a spec "
            'string ("memory"/"shared"/"spill"), a zero-argument factory '
            "returning fresh stores, or a ShardedStore"
        )
    if callable(store):
        subs = [store() for _ in range(plan.k)]
        for sub in subs:
            if not isinstance(sub, ServiceStore):
                raise TypeError(
                    f"store factory returned {type(sub).__name__}, "
                    f"expected a ServiceStore"
                )
        return ShardedStore(plan, subs)
    return ShardedStore(plan, [make_store(store) for _ in range(plan.k)])


class ShardedEvaluator(GameEvaluator):
    """Drop-in :class:`GameEvaluator` whose state is sharded ``k`` ways.

    Parameters (beyond the base class)
    ----------------------------------
    shards:
        Number of row-block shards ``k`` (clamped to ``[1, n]``, see
        :meth:`ShardPlan.build`).  Peer ``p``'s distance row and service
        matrix both live in shard ``plan.owner(p)``.
    store:
        Per-shard service store: a spec string (each shard gets its own
        fresh store of that kind — so ``"spill"`` means ``k``
        independent budgets), a zero-argument factory (called once per
        shard; use ``lambda: SpillStore(budget_bytes=...)`` for custom
        budgets), or a pre-built :class:`ShardedStore`.  A bare
        :class:`~repro.core.service_store.ServiceStore` instance is
        rejected: one shared arena would silently collapse the
        per-shard budgets this class exists to provide.
    max_resident_shards:
        How many distance row blocks may be RAM-resident at once
        (default 1 — peak resident distance bytes ~ ``n^2/k * 8``).
        Local placement only: a shard worker process always holds
        exactly its own block, which *is* the per-process bound.
    placement:
        Where the distance row blocks live: ``"local"`` (default — in
        this process, LRU-bounded by ``max_resident_shards``),
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
        max_resident_shards: int = 1,
        placement: str = "local",
        shard_hosts: Optional[Sequence[str]] = None,
        dynamic_repair: bool = True,
        fault_plan=None,
        recovery=None,
    ) -> None:
        from repro.core.shard_workers import PLACEMENT_SPECS

        # Owned-resource slots first: close() must be a no-op on an
        # instance whose __init__ died in the validation below.
        self._shard_dist: Optional[ShardedDistances] = None
        self._worker_pool = None

        if placement not in PLACEMENT_SPECS:
            raise ValueError(
                f"unknown shard placement {placement!r}; expected one of "
                f"{PLACEMENT_SPECS}"
            )
        if shard_hosts and placement != "socket":
            raise ValueError(
                "shard_hosts requires shard_placement='socket' (hosts "
                "name the shard servers socket placement connects to)"
            )
        if fault_plan is not None and not fault_plan.is_null:
            if placement not in ("process", "socket"):
                raise ValueError(
                    "fault_plan requires a worker placement ('process' or "
                    "'socket'); local placement has no transports to fault"
                )
        if max_resident_shards < 1:
            raise ValueError(
                f"max_resident_shards must be >= 1, got {max_resident_shards}"
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
            store=_sharded_store(plan, store),
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
                plan,
                backend,
                self.stats,
                max_resident_shards,
                repairer=self._repairer,
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
        placement only ``max_resident_shards`` blocks are alive while
        gathering; under process placement the rows come back over the
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
        per-shard sum cache when clean), so at most
        ``max_resident_shards`` distance blocks are resident during the
        query.  The scalar may differ from the unsharded evaluator's
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
    # Store layer: per-shard migration for distributed backends
    # ------------------------------------------------------------------
    def _ensure_shareable_store(self) -> None:
        if self._store.shareable:
            return
        for peer in self._store.migrate_to_shared():
            entry = self._service.get(peer)
            if entry is not None:
                entry.service = None  # view points at the retired buffer

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
