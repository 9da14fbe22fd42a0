"""Incremental repair of maintained shortest-path distance rows.

Under churn the hot path of the evaluator stack is not the solves — it is
distance repair.  Every rebind splices one peer's out-edges and dirties all
rows whose source reaches that peer, and the seed implementation re-ran a
*full* per-source Dijkstra for each dirty row even when the flip changed a
handful of distances.  This module repairs rows in place, Ramalingam–Reps
style: identify the vertices whose distance is actually invalidated by the
deleted edges (phase A), then re-settle exactly those plus any vertices
improved by the inserted edges with a Dijkstra seeded from the intact
frontier (phase B).  Work is O(affected vertices and their edges), with a
from-scratch fallback when the affected set exceeds a fraction of ``n`` so
the worst case never regresses past one ordinary Dijkstra.

Bit-identity contract
---------------------
Every distance either backend computes is the left-folded float64 sum of
weights along some shortest path, and the value stored is the minimum of
those folded sums over all paths.  The repair computes the same fold over
the same paths, so repaired rows are **bitwise identical** to a
from-scratch :func:`repro.graphs.shortest_paths.multi_source_distances`
on the current graph — the property-based suite in
``tests/graphs/test_dynamic_sssp.py`` asserts exactly this.

Zero-weight edges (distinct peers at the same metric point) make naive
support checks unsound: a tight cycle of zero-weight edges can certify
itself.  Phase A therefore processes candidates in old-distance order and
only accepts a supporter ``u`` of ``v`` when ``dist[u] + w == dist[v]``
and either ``dist[u] < dist[v]`` with ``u`` settled-unaffected, or ``u``
was itself already *kept* at the same distance (or is the source).  Pops
are non-decreasing and pushes are dist-monotone, so keep decisions are
final and the certification chain is always grounded outside the
candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.digraph import WeightedDigraph
from repro.graphs.reachability import ReverseIndex
from repro.graphs.shortest_paths import multi_source_distances

__all__ = [
    "DEFAULT_FALLBACK_FRACTION",
    "NetFlip",
    "FlipLog",
    "repair_row",
    "RowRepairer",
]

#: Fraction of ``n`` the phase-A affected frontier may reach before a row
#: repair abandons incremental mode and falls back to scratch Dijkstra.
#: Beyond this point the repair does comparable work to a rebuild anyway,
#: and the fallback re-batches all such rows into one multi-source call.
DEFAULT_FALLBACK_FRACTION = 0.25


@dataclass(frozen=True)
class NetFlip:
    """Net effect of one peer's out-edge splices since a log cursor.

    ``old`` is the peer's successor map at the cursor, ``removed`` /
    ``added`` the edge lists whose deletion + insertion turns ``old`` into
    the peer's *current* successor map.  A weight change contributes to
    both lists.  Peers whose out-edges returned to their cursor-time state
    produce no flip at all.
    """

    peer: int
    old: Mapping[int, float]
    removed: Tuple[Tuple[int, float], ...]
    added: Tuple[Tuple[int, float], ...]


class FlipLog:
    """Append-only log of single-peer out-edge splices.

    Each maintained structure (the evaluator's dense row block, every
    resident shard block, every service entry's raw rows) keeps a cursor
    into this log; :meth:`net_flips` turns the suffix past a cursor into
    the batched :class:`NetFlip` list its repair needs.  The log is
    cleared only when every consumer is rebuilt from scratch.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[int, Tuple[Tuple[int, float], ...]]] = []

    @property
    def head(self) -> int:
        """Cursor value pointing just past the newest entry."""
        return len(self._entries)

    def record(self, peer: int, old_out: Mapping[int, float]) -> None:
        """Log that ``peer``'s out-edges changed away from ``old_out``."""
        self._entries.append((peer, tuple(old_out.items())))

    def clear(self) -> None:
        """Drop all entries (every consumer must rebuild, cursors reset)."""
        self._entries.clear()

    def net_flips(
        self, cursor: int, graph: WeightedDigraph, exclude: int = -1
    ) -> List[NetFlip]:
        """Batched per-peer net flips between ``cursor`` and the head.

        ``graph`` must be the *current* overlay: the earliest logged
        out-edge map per peer is diffed against the peer's live successor
        map, so intermediate states of a peer rebound several times are
        never replayed.  ``exclude`` drops that peer's flips entirely —
        the masked graph ``H_i`` never contained ``i``'s out-edges, so
        ``i``'s rebinds cannot affect rows maintained over ``H_i``.
        """
        if cursor >= len(self._entries):
            return []
        earliest: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for peer, old_items in self._entries[cursor:]:
            if peer == exclude:
                continue
            earliest.setdefault(peer, old_items)
        flips: List[NetFlip] = []
        for peer, old_items in earliest.items():
            old = dict(old_items)
            new = graph.successors(peer)
            removed = tuple(
                (t, w) for t, w in old.items() if new.get(t) != w
            )
            added = tuple(
                (t, w) for t, w in new.items() if old.get(t) != w
            )
            if removed or added:
                flips.append(NetFlip(peer, old, removed, added))
        return flips


def repair_row(
    dist: np.ndarray,
    graph: WeightedDigraph,
    preds: ReverseIndex,
    flips: Sequence[NetFlip],
    source: int,
    exclude: int = -1,
    max_affected: Optional[int] = None,
) -> Optional[int]:
    """Repair one maintained distance row in place after a flip batch.

    ``dist`` must hold exact distances from ``source`` on the pre-flip
    graph (current graph with each flip's ``added`` edges removed and
    ``old`` edges restored); ``graph``/``preds`` are the current graph and
    its maintained reverse index.  ``exclude >= 0`` masks that node's
    out-edges, i.e. the row lives on ``H_exclude`` (flips at the excluded
    peer must already be filtered out by the caller).

    Returns the number of vertices whose distance was recomputed or
    decreased, or ``None`` when phase A found more than ``max_affected``
    invalidated vertices — in that case ``dist`` is untouched and the
    caller should rebuild the row from scratch.
    """
    inf = math.inf
    succ = graph._rows()  # successor maps, indexed directly in the loops
    # -- classify the flip batch against this row -----------------------
    seeds: Set[int] = set()
    inserts: List[Tuple[int, int, float]] = []
    old_out: Dict[int, Mapping[int, float]] = {}
    for flip in flips:
        dp = dist[flip.peer]
        if dp == inf:
            # The source never reached this peer, so no shortest path used
            # its out-edges; inserts can still create new paths below.
            for t, w in flip.added:
                inserts.append((flip.peer, t, w))
            continue
        old_out[flip.peer] = flip.old
        for t, w in flip.removed:
            if t != source and dp + w == dist[t]:
                seeds.add(t)
        for t, w in flip.added:
            inserts.append((flip.peer, t, w))
    if not seeds and not inserts:
        return 0

    # -- phase A: invalidated-vertex identification in distance order ---
    # A popped candidate is *kept* when some predecessor still certifies
    # its old distance, otherwise it joins ``affected`` and its tight
    # successors (over its OLD out-edges when it was itself flipped)
    # become candidates.  See the module docstring for why dist-ordered
    # processing with the strict-supporter rule is sound under zero
    # weights.
    affected: Set[int] = set()
    kept: Set[int] = set()
    heap: List[Tuple[float, int]] = [(float(dist[t]), t) for t in seeds]
    heapify(heap)
    while heap:
        dv, v = heappop(heap)
        if v in affected or v in kept:
            continue
        supported = False
        for u, w in preds.predecessors(v).items():
            if u == exclude or u in affected:
                continue
            du = dist[u]
            if du + w != dv:
                continue
            if du < dv or u in kept or u == source:
                supported = True
                break
        if supported:
            kept.add(v)
            continue
        affected.add(v)
        if max_affected is not None and len(affected) > max_affected:
            return None
        if v == exclude:
            continue  # the masked graph has no out-edges at ``exclude``
        out = old_out.get(v)
        successors = out if out is not None else succ[v]
        for x, w in successors.items():
            if x == source or x in affected or x in kept:
                continue
            if dv + w == dist[x]:
                heappush(heap, (float(dist[x]), x))

    # -- phase B: re-settle affected + insert-driven decreases ----------
    heap = []
    if affected:
        for v in affected:
            dist[v] = inf
        for v in affected:
            best = inf
            for u, w in preds.predecessors(v).items():
                if u == exclude:
                    continue
                cand = dist[u] + w
                if cand < best:
                    best = cand
            if best < inf:
                heappush(heap, (float(best), v))
    for p, t, w in inserts:
        dp = dist[p]
        if dp < inf:
            cand = dp + w
            if cand < dist[t]:
                heappush(heap, (float(cand), t))
    decreased = 0
    while heap:
        d, v = heappop(heap)
        if not d < dist[v]:
            continue
        if v not in affected:
            decreased += 1
        dist[v] = d
        if v == exclude:
            continue
        for x, w in succ[v].items():
            nd = d + w
            if nd < dist[x]:
                heappush(heap, (nd, x))
    return len(affected) + decreased


def _touched_rows(
    block: np.ndarray,
    positions: Sequence[int],
    sources: Sequence[int],
    flips: Sequence[NetFlip],
) -> np.ndarray:
    """Which rows ``block[positions[k]]`` a flip batch can change.

    Row ``k`` is untouched when no removed edge ``p -> t`` is tight on
    it (``dist[p] + w == dist[t]`` with ``dist[p]`` finite and ``t`` not
    the row's source) and no added edge strictly improves it
    (``dist[p] + w < dist[t]``).  :func:`repair_row` then finds no seed
    and pushes no insert: it returns 0 and leaves the row as it is.
    The test runs the same float64 additions and comparisons as
    :func:`repair_row`, vectorized over the rows.
    """
    rows = np.asarray(positions, dtype=np.intp)
    row_sources = np.asarray(sources, dtype=np.intp)
    touched = np.zeros(len(rows), dtype=bool)
    for flip in flips:
        dp = block[rows, flip.peer]
        finite = dp < math.inf
        for t, w in flip.removed:
            tight = dp + w == block[rows, t]
            touched |= finite & tight & (row_sources != t)
        for t, w in flip.added:
            touched |= dp + w < block[rows, t]
    return touched


class RowRepairer:
    """Flip log + reverse index + repair driver over one mutable overlay.

    One instance lives beside each mutable overlay (the evaluator's, and
    one per shard-worker process).  :meth:`apply_rebind` is the single
    mutation entry point: it records the splice in the shared
    :class:`FlipLog`, keeps the :class:`ReverseIndex` in lockstep, and
    answers the invalidation query from the maintained index instead of a
    fresh O(E) reversed-BFS.  :meth:`repair_block` then brings any block
    of maintained rows up to date from that block's log cursor.
    """

    def __init__(
        self,
        backend: str = "auto",
        fallback_fraction: float = DEFAULT_FALLBACK_FRACTION,
    ) -> None:
        self._backend = backend
        self._fraction = float(fallback_fraction)
        self._log = FlipLog()
        self._rindex: Optional[ReverseIndex] = None

    @property
    def head(self) -> int:
        """Current flip-log head (store as a cursor after any rebuild)."""
        return self._log.head

    @property
    def reverse_index(self) -> Optional[ReverseIndex]:
        """The maintained reverse index (None before the first rebind)."""
        return self._rindex

    def reset(self) -> None:
        """Forget all state; callers must rebuild rows and reset cursors."""
        self._log.clear()
        self._rindex = None

    def apply_rebind(
        self,
        overlay: WeightedDigraph,
        peer: int,
        new_out: Mapping[int, float],
    ) -> Set[int]:
        """Splice ``peer``'s out-edges to ``new_out`` and log the flip.

        Returns the set of sources whose rows the rebind can affect (the
        reverse-reachable set of ``peer`` on the pre-splice overlay),
        computed from the maintained index in O(affected edges).
        """
        if self._rindex is None:
            self._rindex = ReverseIndex(overlay)
        affected = self._rindex.reverse_reachable(peer)
        old_out = dict(overlay.successors(peer))
        overlay.remove_out_edges(peer)
        for target, weight in new_out.items():
            overlay.add_edge(peer, target, weight)
        self._rindex.splice(peer, old_out, overlay.successors(peer))
        self._log.record(peer, old_out)
        return affected

    def repair_block(
        self,
        block: np.ndarray,
        positions: Sequence[int],
        sources: Sequence[int],
        overlay: WeightedDigraph,
        cursor: int,
        exclude: int = -1,
    ) -> Tuple[int, int]:
        """Repair ``block[positions[k]]`` as distances from ``sources[k]``.

        Rows are repaired in place against the flips logged since
        ``cursor``; rows :func:`_touched_rows` clears are skipped, and
        rows whose affected frontier exceeds the fallback threshold are
        rebuilt together in one batched multi-source Dijkstra.  Returns
        ``(vertices_repaired, full_fallbacks)``.
        """
        flips = self._log.net_flips(cursor, overlay, exclude)
        if not flips:
            return 0, 0
        preds = self._rindex
        assert preds is not None  # flips imply at least one apply_rebind
        max_affected = max(4, int(self._fraction * overlay.num_nodes))
        repaired = 0
        fallback: List[int] = []
        touched = _touched_rows(block, positions, sources, flips)
        for k in np.flatnonzero(touched).tolist():
            pos = positions[k]
            result = repair_row(
                block[pos],
                overlay,
                preds,
                flips,
                sources[k],
                exclude=exclude,
                max_affected=max_affected,
            )
            if result is None:
                fallback.append(k)
            else:
                repaired += result
        if fallback:
            graph = (
                overlay
                if exclude < 0
                else overlay.copy_without_out_edges(exclude)
            )
            fresh = multi_source_distances(
                graph,
                [sources[k] for k in fallback],
                backend=self._backend,
            )
            for row, k in enumerate(fallback):
                block[positions[k]] = fresh[row]
        return repaired, len(fallback)
