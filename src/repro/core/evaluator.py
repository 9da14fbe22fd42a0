"""Shared incremental evaluation layer for the topology game.

Every strategic question this library asks — individual and social costs,
Nash verification, best responses, and the O(n^2) single-link flips of
better-response dynamics — is a function of two expensive artifacts:

* the all-pairs distance matrix of the overlay ``G[s]``, and
* per-peer *service-cost* matrices ``W_i`` (see
  :mod:`repro.core.best_response`), where ``W_i[u, j]`` prices reaching
  target ``j`` through first hop ``u`` in ``H_i = G[s]`` minus ``i``'s
  out-edges.

Historically each layer recomputed these from scratch: ``social_cost``
rebuilt the overlay and reran all-pairs Dijkstra, and
``find_improving_flip`` ran one Dijkstra *per candidate flip* —
O(n^3 log n) work per activation.  :class:`GameEvaluator` memoizes both
artifacts against a bound :class:`~repro.core.profile.StrategyProfile`
and keeps them warm across an entire dynamics run.

Caching / invalidation contract
-------------------------------

The evaluator is bound to one profile at a time via :meth:`set_profile`.
Queries (:meth:`social_cost`, :meth:`peer_costs`, :meth:`service_costs`,
:meth:`best_response`, :meth:`find_improving_flip`, ...) are pure with
respect to the bound profile and populate caches lazily.

When ``set_profile`` receives a profile that differs from the bound one
in **exactly one** peer's strategy (the shape every dynamics step
produces), invalidation is incremental and exploits two structural facts:

1. Changing peer ``p``'s out-edges cannot change any distance *from* a
   node ``u`` that cannot reach ``p``: a path from ``u`` visits ``p``
   only if ``u`` reaches ``p``, and reachability *to* ``p`` is itself
   independent of ``p``'s out-edges.  So only rows of the overlay
   distance matrix (and of cached ``W_i``) whose source reaches ``p``
   are dirtied; all other rows are reused verbatim.  Dirty rows are
   recomputed lazily by a multi-source Dijkstra over just those sources,
   which is bitwise identical to a full recompute because per-source
   runs are independent.
2. ``W_p`` is built on ``H_p = G[s]`` minus ``p``'s own out-edges, so it
   is *entirely unaffected* by ``p`` changing strategy and survives the
   move untouched.  This is why a whole better-response activation needs
   at most one fresh multi-source Dijkstra.

Any other rebind (multi-peer diff, different ``n``) resets all caches.
Mutating a profile object is impossible (profiles are immutable).  Cached
service matrices are handed out with their ``weights`` arrays marked
read-only (they are live cache entries, repaired in place on rebinds);
:attr:`overlay` is the one mutable object exposed and callers must treat
it as read-only.

The batch flip API (:meth:`find_improving_flip`) scores every drop, add
and swap of a peer from its single ``W`` matrix with numpy reductions —
no per-candidate shortest-path work at all — turning better-response
activation from O(n^3 log n) into O(n^2)-ish amortized work.

Batched activation rounds
-------------------------

Two batch APIs serve whole scheduler rounds of logically-concurrent
activations.  :meth:`batch_service_costs` builds/repairs many peers'
service matrices through one block-diagonal multi-source Dijkstra
(:func:`~repro.graphs.shortest_paths.blocked_multi_source_distances`,
which chunks internally) — values are bitwise identical to the
per-peer calls, only the call count changes.  :meth:`gain_sweep` returns
every peer's current best response from one such pass plus a *response
memo*: each repair accumulates, per target column, an upper bound on how
much any strategy's column minimum can have decreased (``dec_cum``), and
:meth:`best_response` returns the memoized response without re-solving
whenever the matrix is bit-identical (sound for any deterministic
solver) or — for exact methods — the effect bound proves the stored
optimum cannot have been overtaken.  ``gain_sweep(backend=...)``
dispatches the remaining (independent, read-only) solver calls to an
execution backend; results are identical for every backend.

The evaluator rebinds and repairs caches in place and is **not**
thread-safe across concurrent queries; the process pools driven by
``gain_sweep`` are safe because all cache mutation happens before and
after the dispatch.

Service stores and execution backends
-------------------------------------

Where the cached ``W`` matrices *live* is pluggable
(:mod:`repro.core.service_store`): the default ``store="memory"`` keeps
plain ndarrays, and ``store="shared"`` moves every matrix into a
:mod:`multiprocessing.shared_memory` segment.  Stores move bytes
without changing them, so every query is bit-identical across stores.

How a sweep's response solves *execute* is equally pluggable
(:mod:`repro.core.backends`): ``gain_sweep(backend=...)`` accepts
``"serial"``/``"process"`` or a
:class:`~repro.core.backends.SolverBackend` instance.  The process
backend requires (and auto-migrates to) a shareable store: pool workers
receive ``(store_handle, peer, strategy, alpha, method)`` tasks and
attach the store's segments directly — the matrices are never pickled,
and in-place repairs between sweeps are visible to long-lived workers
through the shared mappings.  All backends run the same pure solver on
the same bytes, so trajectories are identical for any backend and any
pool size.

For populations where even the ``n x n`` overlay-distance matrix is too
large to hold, :class:`~repro.core.sharded.ShardedEvaluator` partitions
the overlay-distance rows into row-block shards behind this same
interface; its service matrices live in one store, as here (see
``docs/architecture.md`` for the full walkthrough).

Equivalence with the naive paths: candidate enumeration order and
tie-breaking mirror the reference implementations, and the two agree
exactly whenever no two candidates are *mathematically* tied.  The
cached and naive paths accumulate floating-point sums in different
orders (``min_u (d(i,u) + d_H(u,j))`` versus a single Dijkstra over
``G``), so on degenerate instances with exactly tied candidates — e.g.
coincident peers — the two may break the tie differently.  Both picks
are then optimal and of equal cost, but dynamics trajectories can
diverge; the trajectory-identity guarantee holds for instances without
such ties (random Euclidean/ring instances in particular).
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.backends import resolve_backend
from repro.core.best_response import (
    BestResponseResult,
    ServiceCosts,
    best_response_from_service,
    improvement_tolerance,
    improving_deviation_from_service,
    normalize_service_rows,
    service_cost_rows,
    service_costs_from_overlay,
    strategy_cost,
)
from repro.core.costs import (
    CostBreakdown,
    individual_costs_from_stretch,
    social_cost_from_stretch,
    stretch_from_distances,
)
from repro.core.profile import StrategyProfile
from repro.core.service_store import SharedMemoryStore, make_store
from repro.core.topology import overlay_from_matrix
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.dynamic_sssp import RowRepairer
from repro.graphs.reachability import reverse_reachable
from repro.graphs.shortest_paths import (
    blocked_multi_source_distances,
    multi_source_distances,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.game import TopologyGame

__all__ = ["EvaluatorStats", "GameEvaluator"]

_RELATIVE_TOLERANCE = 1e-9


@dataclass
class EvaluatorStats:
    """Counters describing how much work the caches saved.

    ``service_rows_reused`` counts candidate rows served from cache when a
    service matrix was revalidated; ``service_rows_recomputed`` counts the
    rows that actually went back through Dijkstra.  ``response_memo_hits``
    counts best-response queries answered from the memoized response (the
    dirty-row effect bound proved the response cannot have changed), while
    ``response_solves`` counts queries that went to the solver.
    ``batch_calls`` counts :meth:`GameEvaluator.batch_service_costs`
    invocations that issued at least one blocked Dijkstra.

    The ``store_*`` counters are maintained by the bound service store
    (:mod:`repro.core.service_store`): ``store_resident_bytes`` /
    ``store_resident_peak_bytes`` track the bytes of cached matrices
    right now / at the high-water mark.

    The ``distance_resident_*`` counters track the RAM held by cached
    overlay-distance rows right now / at the high-water mark: the full
    ``n x n`` matrix for :class:`GameEvaluator`, the one resident row
    block for :class:`~repro.core.sharded.ShardedEvaluator` (which
    also counts ``distance_block_builds`` / ``distance_block_releases``
    — full rebuilds and evictions of one shard's row block; both stay 0
    on the unsharded evaluator).

    Under dynamic repair (``dynamic_repair=True``, the default) dirty
    rows are patched in place by :mod:`repro.graphs.dynamic_sssp` rather
    than re-solved: ``distance_vertices_repaired`` counts the vertices
    actually recomputed or decreased across all repaired rows (overlay
    and raw service rows alike), and ``distance_full_fallbacks`` counts
    rows whose affected frontier blew the fallback threshold and went
    back through scratch Dijkstra.  ``distance_rows_recomputed`` keeps
    its historical meaning — dirty rows brought up to date — whichever
    path repaired them.  ``service_dirty_noncandidates`` counts dirty
    sources dropped from service repairs because they are not candidate
    rows of that matrix (only the peer itself can be dropped this way;
    anything else would be an invalidation-coverage bug).
    """

    full_resets: int = 0
    incremental_rebinds: int = 0
    service_full_builds: int = 0
    service_cache_hits: int = 0
    service_rows_recomputed: int = 0
    service_rows_reused: int = 0
    service_partial_repairs: int = 0
    service_dirty_noncandidates: int = 0
    distance_full_builds: int = 0
    distance_rows_recomputed: int = 0
    distance_vertices_repaired: int = 0
    distance_full_fallbacks: int = 0
    distance_block_builds: int = 0
    distance_block_releases: int = 0
    distance_resident_bytes: int = 0
    distance_resident_peak_bytes: int = 0
    batch_calls: int = 0
    gain_sweeps: int = 0
    response_solves: int = 0
    response_memo_hits: int = 0
    store_resident_bytes: int = 0
    store_resident_peak_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def account_distance(self, delta: int) -> None:
        """Move resident overlay-distance bytes by ``delta`` (track peak).

        Shared by the unsharded evaluator (full-matrix builds/resets)
        and the sharded distance manager (block builds/releases) so the
        peak semantics the e15 benchmark asserts on live in one place.
        """
        self.distance_resident_bytes += delta
        if self.distance_resident_bytes > self.distance_resident_peak_bytes:
            self.distance_resident_peak_bytes = self.distance_resident_bytes


@dataclass
class _ResponseMemo:
    """A solved response, reusable while the effect bound holds.

    ``cost`` is the solver's achieved value for ``strategy`` against the
    service matrix as it stood when the memo was stored; the entry's
    ``dec_cum``/``changed_since_memo`` trackers measure how far the matrix
    has drifted since then.
    """

    method: str
    strategy: FrozenSet[int]
    cost: float


@dataclass
class _ServiceEntry:
    """Cache bookkeeping for one peer's service matrix.

    The matrix *bytes* live in the evaluator's service store; the entry
    holds the candidate row order plus dirtiness/memo state.  ``service``
    is a cached :class:`ServiceCosts` view over the store's backing
    array, rebuilt whenever that array is replaced.
    """

    candidates: Tuple[int, ...]
    service: Optional[ServiceCosts] = None
    dirty: Set[int] = field(default_factory=set)
    #: Per-target cumulative upper bound on how much the column minimum of
    #: *any* strategy can have decreased across repairs since the memo was
    #: stored (sum over repairs of max over repaired rows of the positive
    #: part of ``old - new``).  Reset whenever a fresh response is memoized.
    dec_cum: Optional[np.ndarray] = None
    #: True when any repair since the memo actually changed a weight.
    changed_since_memo: bool = False
    memo: Optional[_ResponseMemo] = None
    #: Raw ``d_H`` rows backing the weights (dynamic-repair state): row
    #: ``k`` holds distances from ``candidates[k]`` on ``H_peer``.  The
    #: normalization is not float-invertible, so incremental service
    #: repair patches these and re-normalizes.  ``None`` when dynamic
    #: repair is off.
    raw: Optional[np.ndarray] = None
    #: Flip-log cursor the ``raw`` rows are current with.
    cursor: int = 0
    #: Pre-change bytes of each weights row changed since the memo was
    #: stored, keyed by row index.  When every such row is byte-identical
    #: to its recorded state again, the whole matrix is bit-identical to
    #: memo time and the memo is reusable for any method (the dirty-row
    #: *slice* digest — the full-matrix comparison it replaces almost
    #: never fired at n >= 64 because one row always drifted).
    memo_rows: Dict[int, bytes] = field(default_factory=dict)


class GameEvaluator:
    """Memoizing evaluator bound to one game and one profile at a time.

    Parameters
    ----------
    game:
        The :class:`~repro.core.game.TopologyGame` to evaluate.
    profile:
        Optional initial profile to bind (default: bind lazily on first
        :meth:`set_profile`).
    backend:
        Shortest-path backend forwarded to the Dijkstra layer (not to be
        confused with the *solver execution* backend of
        :meth:`gain_sweep`).
    max_cached_services:
        Upper bound on the number of per-peer service matrices kept warm
        (each is an ``(n-1) x n`` float matrix).  Oldest entries are
        evicted first.
    store:
        Where cached service matrices live: ``"memory"`` (default,
        plain ndarrays), ``"shared"`` (shared-memory segments, required
        for — and auto-migrated to by — the process solver backend), or
        any :class:`~repro.core.service_store.ServiceStore` instance.
    dynamic_repair:
        When True (default), dirty distance rows are patched in place by
        the incremental updater of :mod:`repro.graphs.dynamic_sssp`
        (O(affected) per rebind) instead of re-running a full per-source
        Dijkstra; results are bitwise identical either way.  ``False``
        keeps the scratch repair path (reference/benchmark baseline).
    """

    def __init__(
        self,
        game: "TopologyGame",
        profile: Optional[StrategyProfile] = None,
        backend: str = "auto",
        max_cached_services: int = 512,
        store="memory",
        dynamic_repair: bool = True,
    ) -> None:
        self._game = game
        self._dmat = game.distance_matrix
        self._alpha = game.alpha
        # The cost model only touches the accounting surfaces
        # (social_cost / peer_costs / peer_cost) and the memo digest:
        # per the externality contract in repro.core.cost_model, its
        # per-peer term is constant w.r.t. each peer's own strategy, so
        # every solve path below prices with the scalar alpha and stays
        # exact for any conforming model.
        self._cost_model = game.cost_model
        self._n = game.n
        self._backend = backend
        self._max_cached = max(1, int(max_cached_services))
        self._profile: Optional[StrategyProfile] = None
        self._overlay: Optional[WeightedDigraph] = None
        self._dist: Optional[np.ndarray] = None
        self._dist_dirty: Set[int] = set()
        self._stretch: Optional[np.ndarray] = None
        self._service: Dict[int, _ServiceEntry] = {}
        self._repairer: Optional[RowRepairer] = (
            RowRepairer(backend) if dynamic_repair else None
        )
        self._dist_cursor = 0
        self.stats = EvaluatorStats()
        self._store = make_store(store)
        self._store.bind_stats(self.stats)
        # Safety net mirroring the backend _shutdown pattern: if this
        # evaluator is abandoned without close() — a test failure
        # mid-run, a CLI Ctrl-C — the store still gets closed at GC or
        # interpreter exit, keeping shm segments out of /dev/shm.  The
        # one-element cell tracks store migrations so the *current*
        # store is the one closed.
        self._store_cell: List = [self._store]
        self._store_finalizer = weakref.finalize(
            self, GameEvaluator._close_stores, self._store_cell
        )
        if profile is not None:
            self.set_profile(profile)

    @staticmethod
    def _close_stores(cell: List) -> None:
        for store in cell:
            store.close()

    # ------------------------------------------------------------------
    # Binding and invalidation
    # ------------------------------------------------------------------
    @property
    def game(self) -> "TopologyGame":
        return self._game

    @property
    def profile(self) -> StrategyProfile:
        """The currently bound profile (raises if none is bound)."""
        if self._profile is None:
            raise RuntimeError("no profile bound; call set_profile() first")
        return self._profile

    @property
    def overlay(self) -> WeightedDigraph:
        """The overlay ``G[s]`` of the bound profile.  Treat as read-only."""
        if self._overlay is None:
            self._overlay = overlay_from_matrix(self._dmat, self.profile)
        return self._overlay

    def set_profile(self, profile: StrategyProfile) -> "GameEvaluator":
        """Bind ``profile``, invalidating incrementally when possible.

        Returns ``self`` so calls can be chained into queries.
        """
        if profile.n != self._n:
            raise ValueError(
                f"profile has {profile.n} peers but game has {self._n}"
            )
        old = self._profile
        if old is None:
            self._reset(profile)
            return self
        if profile is old:
            return self
        changed = [
            i
            for i in range(self._n)
            if profile.strategy(i) != old.strategy(i)
        ]
        if not changed:
            self._profile = profile
            return self
        if len(changed) == 1:
            self._rebind_single(changed[0], profile)
        else:
            self._reset(profile)
        return self

    def invalidate(self) -> None:
        """Drop every cache (the bound profile, if any, is kept)."""
        if self._profile is not None:
            self._reset(self._profile)
            self.stats.full_resets -= 1  # reset() counts; manual call is free

    def _reset(self, profile: StrategyProfile) -> None:
        self._profile = profile
        self._overlay = None
        if self._dist is not None:
            self._account_distance(-self._dist.nbytes)
        self._dist = None
        self._dist_dirty = set()
        self._stretch = None
        self._service = {}
        self._store.clear()
        if self._repairer is not None:
            # Every maintained row block is gone, so the flip log has no
            # remaining consumer; drop it (and the stale reverse index).
            self._repairer.reset()
        self._dist_cursor = 0
        self.stats.full_resets += 1

    def _rebind_single(self, peer: int, profile: StrategyProfile) -> None:
        """Incremental rebind after ``peer`` alone changed strategy."""
        overlay = self.overlay  # materialized against the *old* profile
        # Sources whose rows may change = nodes that reach `peer`.  Edges
        # into `peer` are identical in the old and new overlay, so the
        # reverse reachability computed here is valid for both.
        new_out = {
            j: float(self._dmat[peer, j]) for j in profile.strategy(peer)
        }
        if self._repairer is not None:
            # One call splices the overlay, logs the flip for the row
            # repairers, and answers reachability from the maintained
            # reverse index in O(affected edges).
            affected = self._repairer.apply_rebind(overlay, peer, new_out)
        else:
            affected = reverse_reachable(overlay, peer)
            # Splice the overlay in place: only `peer`'s out-edges differ.
            overlay.remove_out_edges(peer)
            for j, w in new_out.items():
                overlay.add_edge(peer, j, w)
        self._mark_distance_dirty(affected)
        self._stretch = None
        for i, entry in self._service.items():
            if i == peer:
                continue  # H_peer excludes peer's out-edges: fully valid.
            entry.dirty |= affected - {i}
        self._profile = profile
        self.stats.incremental_rebinds += 1

    def _mark_distance_dirty(self, affected: Set[int]) -> None:
        """Record that the distance rows in ``affected`` may have changed.

        Hook point for subclasses that keep overlay distances somewhere
        other than the monolithic ``_dist`` matrix (the sharded
        evaluator routes the dirty rows to their owning shards here).
        """
        if self._dist is not None:
            self._dist_dirty |= affected

    def _account_distance(self, delta: int) -> None:
        """Track resident overlay-distance bytes (and their peak)."""
        self.stats.account_distance(delta)

    # ------------------------------------------------------------------
    # Distances, stretches, costs
    # ------------------------------------------------------------------
    def overlay_distances(self) -> np.ndarray:
        """All-pairs overlay distance matrix (cached, row-incremental)."""
        if self._dist is None:
            self._dist = multi_source_distances(
                self.overlay, list(range(self._n)), backend=self._backend
            )
            self._dist_dirty = set()
            self._dist_cursor = self._log_head()
            self.stats.distance_full_builds += 1
            self._account_distance(self._dist.nbytes)
        elif self._dist_dirty:
            rows = sorted(self._dist_dirty)
            if self._repairer is not None:
                repaired, fallbacks = self._repairer.repair_block(
                    self._dist, rows, rows, self.overlay, self._dist_cursor
                )
                self._dist_cursor = self._repairer.head
                self.stats.distance_vertices_repaired += repaired
                self.stats.distance_full_fallbacks += fallbacks
            else:
                fresh = multi_source_distances(
                    self.overlay, rows, backend=self._backend
                )
                self._dist[rows] = fresh
            self.stats.distance_rows_recomputed += len(rows)
            self._dist_dirty = set()
            self._stretch = None
        return self._dist

    def _log_head(self) -> int:
        """Current flip-log head (0 when dynamic repair is off)."""
        return 0 if self._repairer is None else self._repairer.head

    def stretches(self) -> np.ndarray:
        """Pairwise stretch matrix of the bound profile (cached)."""
        if self._stretch is None or self._dist_dirty:
            self._stretch = stretch_from_distances(
                self._dmat, self.overlay_distances()
            )
        return self._stretch

    def social_cost(self) -> CostBreakdown:
        """Social cost ``C(G[s])`` of the bound profile."""
        breakdown = social_cost_from_stretch(
            self.stretches(), self.profile, self._alpha
        )
        if self._cost_model is not None:
            extra = self._cost_model.social_extra(self.profile)
            if extra:
                breakdown = CostBreakdown(
                    breakdown.link_cost, breakdown.stretch_cost, extra
                )
        return breakdown

    def peer_costs(self) -> np.ndarray:
        """Vector of individual costs ``c_i(s)`` for all peers."""
        costs = individual_costs_from_stretch(
            self.stretches(), self.profile, self._alpha
        )
        if self._cost_model is not None:
            term = self._cost_model.per_peer_term(self.profile)
            if term is not None:
                costs = costs + term
        return costs

    def peer_cost(self, peer: int) -> float:
        """Individual cost of one peer, served from its service matrix."""
        service = self.service_costs(peer)
        cost = strategy_cost(
            service, sorted(self.profile.strategy(peer)), self._alpha
        )
        if self._cost_model is not None:
            term = self._cost_model.per_peer_term(self.profile)
            if term is not None:
                cost = cost + float(term[peer])
        return cost

    # ------------------------------------------------------------------
    # Service-cost matrices
    # ------------------------------------------------------------------
    def service_costs(
        self, peer: int, rows: Optional[Sequence[int]] = None
    ) -> ServiceCosts:
        """The service-cost matrix ``W`` of ``peer`` (cached, row-repaired).

        The returned object is a view over the *live* cache entry: its
        ``weights`` array is marked read-only (mutating it would poison
        every query routed through this evaluator) and may be repaired in
        place by a later :meth:`set_profile`.  Copy it if you need a
        snapshot.

        ``rows`` narrows the freshness guarantee: only those candidate
        rows are guaranteed repaired; other dirty rows may stay stale
        (and stay *marked* dirty, so a later unrestricted call repairs
        them).  Callers that read a known handful of rows — the
        stale-commit re-check reads the committed and proposed links
        only — skip re-solving the rest of a heavily dirtied matrix.
        Repaired row values are bitwise identical either way; the hint
        only defers work.  (Entries holding dynamic-repair state are
        repaired in full regardless: their flip-log cursor is shared by
        the whole matrix, so a partial catch-up would corrupt it.)
        """
        if not 0 <= peer < self._n:
            raise IndexError(f"peer {peer} out of range [0, {self._n})")
        entry = self._service.get(peer)
        if entry is None:
            entry = self._build_service(peer)
            self._evict_services(protect={peer})
        elif entry.dirty:
            if rows is not None and entry.raw is None:
                self._repair_service_rows(peer, entry, rows)
            else:
                self._repair_service(peer, entry)
        else:
            self.stats.service_cache_hits += 1
        return self._entry_service(peer, entry)

    def strategy_rows_cost(self, peer: int, strategy: Sequence[int]) -> float:
        """Cost of ``strategy`` for ``peer`` from a rows-only build.

        Prices exactly the strategy's link rows — one multi-source
        Dijkstra from ``|strategy|`` sources over the stripped overlay —
        instead of building or repairing ``peer``'s full candidate
        matrix; the service cache is neither consulted nor touched.
        Row values go through the same :func:`service_cost_rows` +
        :func:`strategy_cost` pipeline as the cached path, so the result
        is bitwise identical to
        ``strategy_cost(self.service_costs(peer), strategy, alpha)``.
        The service front-end answers ``query_cost`` through this: a
        query is a point read and must not pay for (or perturb) the
        solver-grade cache.
        """
        return self.strategy_rows_costs([(peer, strategy)])[0]

    def strategy_rows_costs(
        self, items: Sequence[Tuple[int, Sequence[int]]]
    ) -> List[float]:
        """Batched :meth:`strategy_rows_cost`: one blocked Dijkstra pass.

        All ``(peer, strategy)`` point reads of an epoch share one
        :func:`blocked_multi_source_distances` call (which guarantees
        per-job results bitwise identical to the unbatched path), so a
        query-heavy batch prices every strategy for a handful of scipy
        calls instead of one stripped-overlay Dijkstra per peer.
        """
        prepared = [
            (peer, sorted(set(strategy))) for peer, strategy in items
        ]
        jobs = []
        if self._n > 1:
            overlay = self.overlay
            jobs = [
                (overlay.copy_without_out_edges(peer), links)
                for peer, links in prepared
                if links
            ]
        dist_blocks = iter(
            blocked_multi_source_distances(jobs, backend=self._backend)
        )
        costs = []
        for peer, links in prepared:
            k = len(links)
            if self._n == 1:
                costs.append(self._alpha * k)
            elif k == 0:
                costs.append(math.inf)
            else:
                weights = normalize_service_rows(
                    self._dmat, peer, links, next(dist_blocks)
                )
                costs.append(
                    self._alpha * k + float(weights.min(axis=0).sum())
                )
        return costs

    def _entry_service(self, peer: int, entry: _ServiceEntry) -> ServiceCosts:
        """A :class:`ServiceCosts` view over the store's current backing."""
        backing = self._store.get(peer)
        service = entry.service
        if service is None or service.weights is not backing:
            service = entry.service = ServiceCosts(
                peer, entry.candidates, backing
            )
        return service

    def _build_service(self, peer: int) -> _ServiceEntry:
        """Build one peer's matrix from scratch (keeping raw ``d_H`` rows
        as dynamic-repair state when that mode is on)."""
        candidates = tuple(j for j in range(self._n) if j != peer)
        if not candidates:
            service = service_costs_from_overlay(
                self._dmat, self.overlay, peer, self._backend
            )
            return self._admit_service(
                peer, service.candidates, service.weights
            )
        stripped = self.overlay.copy_without_out_edges(peer)
        dist_h = multi_source_distances(
            stripped, list(candidates), backend=self._backend
        )
        weights = normalize_service_rows(self._dmat, peer, candidates, dist_h)
        return self._admit_service(peer, candidates, weights, raw=dist_h)

    def _keep_raw(self) -> bool:
        """Whether service entries keep raw ``d_H`` repair state: exactly
        when dynamic repair is on."""
        return self._repairer is not None

    def _admit_service(
        self,
        peer: int,
        candidates: Sequence[int],
        weights: np.ndarray,
        raw: Optional[np.ndarray] = None,
    ) -> _ServiceEntry:
        self._store.put(peer, weights)
        entry = _ServiceEntry(
            candidates=tuple(candidates), dec_cum=np.zeros(self._n)
        )
        if raw is not None and self._keep_raw():
            entry.raw = raw
            entry.cursor = self._log_head()
        self._service[peer] = entry
        self.stats.service_full_builds += 1
        return entry

    def _repair_sources(self, entry: _ServiceEntry) -> List[int]:
        """Consume ``entry.dirty``, returning the candidate rows to rebuild."""
        row_of = {c: k for k, c in enumerate(entry.candidates)}
        sources = sorted(c for c in entry.dirty if c in row_of)
        dropped = len(entry.dirty) - len(sources)
        if dropped:
            # Only the matrix's own peer is a legitimate non-candidate;
            # the counter keeps invalidation coverage observable.
            self.stats.service_dirty_noncandidates += dropped
        entry.dirty = set()
        return sources

    def _repair_service(self, peer: int, entry: _ServiceEntry) -> None:
        sources = self._repair_sources(entry)
        if not sources:
            self.stats.service_cache_hits += 1
            return
        if entry.raw is not None:
            self._repair_service_dynamic(peer, entry, sources)
            return
        stripped = self.overlay.copy_without_out_edges(peer)
        fresh = service_cost_rows(
            self._dmat, stripped, peer, sources, self._backend
        )
        self._install_rows(peer, entry, sources, fresh)

    def _repair_service_rows(
        self, peer: int, entry: _ServiceEntry, rows: Sequence[int]
    ) -> None:
        """Repair only the dirty rows among ``rows`` (scratch entries).

        The rest of ``entry.dirty`` is left intact for a later
        unrestricted repair.  Splitting a repair into batches only makes
        the effect bound more conservative (``dec_cum`` accumulates one
        max-drop per install), so memo correctness is preserved.
        """
        row_of = {c: k for k, c in enumerate(entry.candidates)}
        wanted = set(rows)
        sources = sorted(
            c for c in entry.dirty if c in wanted and c in row_of
        )
        if not sources:
            self.stats.service_cache_hits += 1
            return
        entry.dirty.difference_update(sources)
        self.stats.service_partial_repairs += 1
        stripped = self.overlay.copy_without_out_edges(peer)
        fresh = service_cost_rows(
            self._dmat, stripped, peer, sources, self._backend
        )
        self._install_rows(peer, entry, sources, fresh)

    def _repair_service_dynamic(
        self, peer: int, entry: _ServiceEntry, sources: List[int]
    ) -> None:
        """Patch the entry's raw ``d_H`` rows in place, then re-normalize.

        The flips at ``peer`` itself are excluded (``H_peer`` never held
        its out-edges), and normalization of the repaired raw rows runs
        through the same :func:`normalize_service_rows` as every build
        path, so the installed weights are bitwise identical to a
        scratch repair.
        """
        row_of = {c: k for k, c in enumerate(entry.candidates)}
        positions = [row_of[c] for c in sources]
        repaired, fallbacks = self._repairer.repair_block(
            entry.raw,
            positions,
            sources,
            self.overlay,
            entry.cursor,
            exclude=peer,
        )
        entry.cursor = self._repairer.head
        self.stats.distance_vertices_repaired += repaired
        self.stats.distance_full_fallbacks += fallbacks
        fresh = normalize_service_rows(
            self._dmat, peer, sources, entry.raw[positions]
        )
        self._install_rows(peer, entry, sources, fresh)

    def _install_rows(
        self,
        peer: int,
        entry: _ServiceEntry,
        sources: Sequence[int],
        fresh: np.ndarray,
    ) -> None:
        """Write repaired rows in place and advance the effect bound."""
        row_of = {c: k for k, c in enumerate(entry.candidates)}
        rows = [row_of[c] for c in sources]
        old = self._store.get(peer)[rows]  # fancy indexing: a snapshot copy
        self._store.write_rows(peer, rows, fresh)
        self.stats.service_rows_recomputed += len(rows)
        self.stats.service_rows_reused += len(entry.candidates) - len(rows)
        if np.array_equal(old, fresh):
            return
        if entry.memo is not None:
            # Remember each changed row's memo-time bytes: if every such
            # row later matches its recorded bytes again, the matrix is
            # bit-identical to memo time (the slice digest behind
            # _memo_slice_intact).
            changed = ~np.all(old == fresh, axis=1)
            for k, row in enumerate(rows):
                if changed[k]:
                    entry.memo_rows.setdefault(row, old[k].tobytes())
        with np.errstate(invalid="ignore"):
            drop = old - fresh
        drop[np.isnan(drop)] = 0.0  # inf - inf: still unreachable, no drop
        np.maximum(drop, 0.0, out=drop)
        if entry.dec_cum is None:
            entry.dec_cum = np.zeros(self._n)
        entry.dec_cum += drop.max(axis=0)
        entry.changed_since_memo = True

    def batch_service_costs(
        self, peers: Optional[Sequence[int]] = None
    ) -> List[ServiceCosts]:
        """Service matrices for many peers from blocked Dijkstra calls.

        Missing matrices are built in full and dirty ones repaired, but
        instead of one shortest-path call per peer the underlying
        multi-source runs are stacked into a block-diagonal graph and
        answered by :func:`~repro.graphs.shortest_paths.
        blocked_multi_source_distances` — a handful of scipy calls per
        scheduler round.  Results (weights, cache bookkeeping, stats
        semantics) are identical to calling :meth:`service_costs` once
        per peer; only the call count changes.
        """
        self.profile  # raises unless a profile is bound
        peers = list(range(self._n)) if peers is None else list(peers)
        self._batch_refresh(peers)
        return [
            self._entry_service(peer, self._service[peer]) for peer in peers
        ]

    def _batch_refresh(self, peers: Sequence[int]) -> None:
        """Build/repair many peers' matrices via blocked Dijkstra.

        Write-only core of :meth:`batch_service_costs`: everything lands
        in the service store without materializing result views.

        The requested peers are protected from eviction: a request for
        more matrices than ``max_cached_services`` legitimately needs
        them all alive at once, so the cap bounds the cache *between*
        requests, not within one (the pre-store code had the same
        transient overshoot, just implicitly).
        """
        requested = set(peers)
        jobs: List[Tuple[int, str, List[int]]] = []
        for peer in dict.fromkeys(peers):
            if not 0 <= peer < self._n:
                raise IndexError(f"peer {peer} out of range [0, {self._n})")
            entry = self._service.get(peer)
            if entry is None:
                if self._n <= 1:
                    self.service_costs(peer)
                    continue
                candidates = [j for j in range(self._n) if j != peer]
                jobs.append((peer, "build", candidates))
            elif entry.dirty:
                sources = self._repair_sources(entry)
                if not sources:
                    self.stats.service_cache_hits += 1
                elif entry.raw is not None:
                    # Dynamic entries repair O(affected) rows in place —
                    # cheaper than joining the blocked Dijkstra pass.
                    self._repair_service_dynamic(peer, entry, sources)
                else:
                    jobs.append((peer, "repair", sources))
            else:
                self.stats.service_cache_hits += 1
        if not jobs:
            return
        overlay = self.overlay
        dist_blocks = blocked_multi_source_distances(
            [
                (overlay.copy_without_out_edges(peer), sources)
                for peer, _kind, sources in jobs
            ],
            backend=self._backend,
        )
        for (peer, kind, sources), dist_h in zip(jobs, dist_blocks):
            weights = normalize_service_rows(self._dmat, peer, sources, dist_h)
            if kind == "build":
                self._admit_service(peer, tuple(sources), weights, raw=dist_h)
            else:
                self._install_rows(peer, self._service[peer], sources, weights)
        self.stats.batch_calls += 1
        self._evict_services(protect=requested)

    def _evict_services(self, protect: Optional[Set[int]] = None) -> None:
        """Evict oldest entries past the cap, sparing ``protect``.

        Callers protect the peers of the in-flight request so a sweep
        wider than ``max_cached_services`` cannot evict matrices it is
        about to read (or hand to pool workers); the cache shrinks back
        on the next, narrower request.
        """
        if len(self._service) <= self._max_cached:
            return
        protect = protect or set()
        for peer in list(self._service):
            if len(self._service) <= self._max_cached:
                break
            if peer in protect:
                continue
            del self._service[peer]
            self._store.discard(peer)

    # ------------------------------------------------------------------
    # Strategic queries
    # ------------------------------------------------------------------
    #: Methods whose memoized response may be reused under the effect
    #: bound (they return a true optimum, so "no strategy can have
    #: overtaken it" is provable).  Heuristic methods reuse memos only
    #: when the matrix is bit-identical (the solver is deterministic).
    _EXACT_METHODS = ("exact", "brute")

    def best_response(
        self, peer: int, method: str = "exact"
    ) -> BestResponseResult:
        """Best (or heuristic) response of ``peer`` from the cached ``W``.

        Responses are memoized per peer: when the dirty-row effect bound
        proves the stored response cannot have been overtaken (see
        :meth:`_memoized_response`), the solver is skipped entirely and
        the memo is re-validated against the peer's current strategy.
        """
        service = self.service_costs(peer)
        cached = self._memoized_response(peer, method)
        if cached is not None:
            return cached
        response = best_response_from_service(
            service, self.profile.strategy(peer), self._alpha, method
        )
        self._store_memo(peer, response)
        return response

    def gain_sweep(
        self,
        method: str = "exact",
        peers: Optional[Sequence[int]] = None,
        backend=None,
    ) -> List[BestResponseResult]:
        """Every peer's current best response (and gain) in one pass.

        The sweep (1) refreshes all requested service matrices through
        one blocked-Dijkstra pass (:meth:`batch_service_costs` core),
        (2) answers peers whose memoized response provably survived from
        the memo, and (3) dispatches only the remaining peers to the
        response solver through an execution backend
        (:mod:`repro.core.backends`): in the calling thread (serial) or
        a process pool attached to the shared service store.  The
        per-peer solves are independent pure functions of their service
        matrices, so results are identical for any backend and pool
        size.

        ``backend`` accepts a :class:`~repro.core.backends.SolverBackend`
        instance or a spec string (``"serial"``/``"process"``); ``None``
        solves serially.  A process backend requires a shareable store —
        a plain in-memory store is migrated to shared memory once, then
        workers attach it zero-copy.

        Returns results in ``peers`` order (default: all peers).  This is
        the engine behind the max-gain activation policy and multi-peer
        scheduler batches: one sub-round of logically-concurrent
        activations costs one blocked build plus the solves the effect
        bound could not skip.
        """
        backend = resolve_backend(backend)
        profile = self.profile
        peers = list(range(self._n)) if peers is None else list(peers)
        if backend.distributed:
            self._ensure_shareable_store()
        self._batch_refresh(peers)
        self.stats.gain_sweeps += 1
        results: Dict[int, BestResponseResult] = {}
        to_solve: List[int] = []
        for peer in peers:
            if peer in results:
                continue
            cached = self._memoized_response(peer, method)
            if cached is not None:
                results[peer] = cached
            else:
                to_solve.append(peer)

        alpha = self._alpha

        def solve(peer: int) -> BestResponseResult:
            return best_response_from_service(
                self._entry_service(peer, self._service[peer]),
                profile.strategy(peer),
                alpha,
                method,
            )

        make_task = None
        if backend.distributed and to_solve:

            def make_task(peer: int):
                handle = self._store.handle(peer)
                if handle is None:  # pragma: no cover - store contract
                    raise RuntimeError(
                        f"store {self._store.name!r} produced no "
                        f"handle for peer {peer}"
                    )
                return (
                    handle,
                    peer,
                    tuple(profile.strategy(peer)),
                    alpha,
                    method,
                )

        solved = backend.run_solves(to_solve, solve, make_task)
        for peer, response in zip(to_solve, solved):
            self._store_memo(peer, response)
            results[peer] = response
        return [results[peer] for peer in peers]

    def _ensure_shareable_store(self) -> None:
        """Migrate the service store to shared memory if it cannot hand
        out cross-process handles (one-time copy of the warm cache)."""
        if self._store.shareable:
            return
        old = self._store
        new = SharedMemoryStore()
        new.bind_stats(self.stats)
        for peer in old.keys():
            new.put(peer, old.get(peer))
            old.discard(peer)
            entry = self._service.get(peer)
            if entry is not None:
                entry.service = None  # view points at the retired buffer
        old.close()
        self._store = new
        self._store_cell[0] = new  # the finalizer must close the live store

    def _memoized_response(
        self, peer: int, method: str
    ) -> Optional[BestResponseResult]:
        """The stored response, iff it provably equals a fresh solve.

        Two sound reuse conditions, checked against a *clean* (repaired)
        service matrix:

        * the matrix is bit-identical to when the memo was stored — any
          deterministic solver returns the same strategy.  Checked via
          the dirty-row *slice* digest: ``entry.memo_rows`` records the
          memo-time bytes of every row changed since the memo, so the
          matrix is provably identical exactly when each recorded row
          matches its bytes again (the ``changed_since_memo`` flag alone
          almost never cleared at n >= 64 — one drifted row anywhere
          killed the memo for good); or
        * for exact methods, the effect bound holds: every repair
          accumulated a per-target upper bound ``dec_cum[j]`` on how much
          any strategy's column minimum can have dropped, so for every
          strategy ``S``, ``f_new(S) >= f_old(S) - sum_j dec_cum[j] >=
          old_opt - delta``.  When the memoized strategy's freshly
          recomputed cost is ``<= old_opt - delta`` it is still optimal.

        Either way the memo is re-scored against the peer's *current*
        strategy (tolerance and status-quo tie-breaking mirror
        :func:`~repro.core.best_response.best_response_from_service`), so
        the result matches a fresh solve exactly on instances without
        mathematically tied optima (the module-docstring caveat).
        """
        entry = self._service.get(peer)
        if entry is None or entry.dirty:
            return None
        memo = entry.memo
        if memo is None or memo.method != method:
            return None
        if not entry.candidates:
            return None
        service = self._entry_service(peer, entry)
        if not entry.changed_since_memo:
            opt_cost = memo.cost
        elif self._memo_slice_intact(entry, service.weights):
            opt_cost = memo.cost
        else:
            if method not in self._EXACT_METHODS:
                return None
            delta = float(entry.dec_cum.sum())
            if not math.isfinite(delta):
                return None
            opt_cost = strategy_cost(
                service, sorted(memo.strategy), self._alpha
            )
            if not opt_cost <= memo.cost - delta:
                return None
        current = sorted(self.profile.strategy(peer))
        current_cost = strategy_cost(service, current, self._alpha)
        self.stats.response_memo_hits += 1
        if opt_cost < current_cost - improvement_tolerance(current_cost):
            return BestResponseResult(
                peer, memo.strategy, opt_cost, current_cost, True, method
            )
        return BestResponseResult(
            peer, frozenset(current), current_cost, current_cost, False, method
        )

    @staticmethod
    def _memo_slice_intact(
        entry: _ServiceEntry, weights: np.ndarray
    ) -> bool:
        """True when every row changed since the memo has changed *back*.

        ``entry.memo_rows`` holds the memo-time bytes of exactly the rows
        that drifted; if each matches the live matrix again, the whole
        matrix is bit-identical to memo time (rows never recorded never
        changed), so the drift trackers are reset and the memo revived.
        Raw bytes are compared — not hashes — so a collision can never
        revive a stale memo.
        """
        if not entry.memo_rows:
            return False
        for row, blob in entry.memo_rows.items():
            if weights[row].tobytes() != blob:
                return False
        entry.memo_rows.clear()
        entry.changed_since_memo = False
        if entry.dec_cum is not None:
            entry.dec_cum[:] = 0.0
        return True

    def _store_memo(self, peer: int, response: BestResponseResult) -> None:
        entry = self._service.get(peer)
        self.stats.response_solves += 1
        if entry is None:  # evicted between build and solve
            return
        entry.memo = _ResponseMemo(
            response.method, response.strategy, response.cost
        )
        if entry.dec_cum is None:
            entry.dec_cum = np.zeros(self._n)
        entry.dec_cum[:] = 0.0
        entry.changed_since_memo = False
        entry.memo_rows.clear()

    def find_improving_deviation(
        self, peer: int
    ) -> Optional[BestResponseResult]:
        """Some strictly improving deviation of ``peer``, or None (exact)."""
        service = self.service_costs(peer)
        return improving_deviation_from_service(
            service, self.profile.strategy(peer), self._alpha
        )

    def peer_cost_key(self, peer: int) -> Tuple[int, float]:
        """Lexicographic cost key ``(unreachable targets, finite part)``.

        Matches the ordering used by better-response dynamics: reaching
        more peers dominates any finite saving (plain float comparison is
        useless through the infinite-cost regime).
        """
        service = self.service_costs(peer)
        strategy = self.profile.strategy(peer)
        minima = self._strategy_minima(service, strategy)
        return self._key_of(minima, len(strategy))

    def _strategy_minima(
        self, service: ServiceCosts, strategy
    ) -> np.ndarray:
        if len(strategy) == 0 or service.num_candidates == 0:
            minima = np.full(self._n, math.inf)
            minima[service.peer] = 0.0
            return minima
        row_of = {c: k for k, c in enumerate(service.candidates)}
        rows = [row_of[s] for s in strategy]
        return service.weights[rows].min(axis=0)

    def _key_of(self, minima: np.ndarray, size: int) -> Tuple[int, float]:
        infinite = np.isinf(minima)
        finite_sum = float(np.where(infinite, 0.0, minima).sum())
        return int(infinite.sum()), self._alpha * size + finite_sum

    # ------------------------------------------------------------------
    # Batch flip evaluation
    # ------------------------------------------------------------------
    def find_improving_flip(
        self, peer: int
    ) -> Optional[Tuple[StrategyProfile, float]]:
        """Best single-link flip of ``peer`` scored from one ``W`` matrix.

        Vectorized replacement for the naive per-candidate-Dijkstra path
        (:func:`repro.core.better_response.find_improving_flip_naive`):
        drops use a columnwise top-2 reduction over the current strategy's
        rows, adds/swaps a single ``np.minimum`` against the cached rows.
        Candidate enumeration order and tie-breaking mirror the naive
        implementation, so trajectories are preserved on instances
        without mathematically tied candidates (see the module docstring
        for the degenerate-tie caveat).
        """
        profile = self.profile
        service = self.service_costs(peer)
        if service.num_candidates == 0:
            return None
        weights = service.weights
        alpha = self._alpha
        n = self._n
        current = profile.strategy(peer)
        row_of = {c: k for k, c in enumerate(service.candidates)}
        # Candidate enumeration mirrors flip_candidates(): drops in the
        # strategy's iteration order, adds in ascending peer order, swaps
        # as (old in strategy order) x (new in ascending order).
        members = list(current)
        adds = [
            j for j in range(n) if j != peer and j not in current
        ]
        member_rows = [row_of[j] for j in members]
        add_rows = [row_of[j] for j in adds]

        empty_minima = np.full(n, math.inf)
        empty_minima[peer] = 0.0
        if member_rows:
            chosen = weights[member_rows]
            cur_min = chosen.min(axis=0)
        else:
            chosen = None
            cur_min = empty_minima
        current_key = self._key_of(cur_min, len(members))

        # minima over the strategy minus each single member (top-2 trick).
        if chosen is None:
            drop_minima = np.zeros((0, n))
        elif len(member_rows) == 1:
            drop_minima = empty_minima[None, :]
        else:
            part = np.partition(chosen, 1, axis=0)
            second = part[1]
            argmin = chosen.argmin(axis=0)
            drop_minima = np.where(
                argmin[None, :] == np.arange(len(member_rows))[:, None],
                second[None, :],
                cur_min[None, :],
            )

        blocks: List[np.ndarray] = []
        sizes: List[int] = []
        if member_rows:
            blocks.append(drop_minima)
            sizes.extend([len(members) - 1] * len(members))
        if add_rows:
            blocks.append(np.minimum(cur_min[None, :], weights[add_rows]))
            sizes.extend([len(members) + 1] * len(adds))
        if member_rows and add_rows:
            add_block = weights[add_rows]
            for t in range(len(members)):
                blocks.append(np.minimum(drop_minima[t][None, :], add_block))
                sizes.extend([len(members)] * len(adds))
        if not blocks:
            return None
        stacked = np.vstack(blocks)
        infinite = np.isinf(stacked)
        unreachable = infinite.sum(axis=1)
        finite = np.where(infinite, 0.0, stacked).sum(axis=1)
        finite += alpha * np.asarray(sizes, dtype=float)

        cur_u, cur_f = current_key
        tolerance = _RELATIVE_TOLERANCE * max(1.0, abs(cur_f))
        best_index = -1
        best_key: Optional[Tuple[int, float]] = None
        u_list = unreachable.tolist()
        f_list = finite.tolist()
        for index, (u, f) in enumerate(zip(u_list, f_list)):
            if u > cur_u:
                continue
            if u == cur_u and f >= cur_f - tolerance:
                continue
            key = (u, f)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        if best_index < 0:
            return None
        strategy = self._flip_strategy(current, members, adds, best_index)
        gain = (
            math.inf if best_key[0] < cur_u else cur_f - best_key[1]
        )
        return profile.with_strategy(peer, strategy), gain

    @staticmethod
    def _flip_strategy(current, members, adds, index):
        """Reconstruct the flip at ``index`` of the enumeration order.

        Strategy sets are built with the same set operations as
        ``flip_candidates`` so the resulting frozensets iterate in the
        same order (cycle-detection keys and later flip enumerations then
        match the naive path bit for bit).
        """
        m, a = len(members), len(adds)
        if index < m:
            return current - {members[index]}
        index -= m
        if index < a:
            return current | {adds[index]}
        index -= a
        old = members[index // a]
        new = adds[index % a]
        return (current - {old}) | {new}

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The bound service store (read-mostly; see its module docs)."""
        return self._store

    def close(self) -> None:
        """Release the service store's buffers (shared-memory segments).

        Idempotent, and optional — the evaluator's finalizer (and each
        store's own) closes the buffers at garbage collection or
        interpreter exit — but deterministic teardown keeps shared-
        memory segments out of ``/dev/shm`` between runs.  An evaluator
        may keep serving queries after ``close()``: the stores re-arm
        their cleanup on the next write.  Safe on an instance whose
        ``__init__`` failed before the store was made.
        """
        self._service = {}
        store = getattr(self, "_store", None)
        if store is not None:
            store.close()

    def __enter__(self) -> "GameEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = self._profile is not None
        return (
            f"GameEvaluator(n={self._n}, alpha={self._alpha}, "
            f"bound={bound}, cached_services={len(self._service)})"
        )
