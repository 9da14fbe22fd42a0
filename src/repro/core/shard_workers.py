"""Shard *worker processes*: distance row blocks served across processes.

:class:`~repro.core.sharded.ShardedEvaluator` (PR 4) bounds one
process's resident overlay-distance memory, but all ``k`` row-block
shards still live in a single address space.  This module promotes each
shard to a **long-lived worker process** that owns its distance slice —
the next rung toward populations whose overlay state cannot fit any one
process:

* Each worker holds its own copy of the bound profile's overlay and
  builds/repairs its ``[lo, hi)`` distance row block with the *same*
  updater the in-process :class:`~repro.core.sharded.ShardedDistances`
  uses — full builds are per-source Dijkstra runs, and dirty rows are
  patched in place by the incremental dynamic-SSSP repairer
  (:mod:`repro.graphs.dynamic_sssp`) unless the pool was built with
  ``dynamic_repair=False``.  Either path computes each distance as the
  same folded float64 sum, so the bytes are identical wherever (and
  however) they are computed.
* The cross-shard interface stays narrow (the communication-efficiency
  discipline of distributed self-stabilizing protocols): shards exchange
  only the ``distance_rows`` they are asked for and O(n/k) stretch
  *reductions* — never whole matrices.  A single-peer rebind ships just
  ``(peer, new_targets)``; every worker re-derives the affected rows
  from its own overlay with the same reverse-reachability BFS the
  coordinator runs, so no row set crosses the wire either.
* The transport is abstracted behind :class:`ShardTransport`, and one
  implementation fills it:
  :class:`~repro.core.transport.SocketTransport` with the framed codec
  of :mod:`repro.core.transport`.  A same-host shard is a forked child
  process serving one end of a socketpair; with ``shard_hosts`` a shard
  connects to a standalone :mod:`repro.shard_server` instead, so shards
  can leave the coordinator's host entirely.
* Broadcast fan-out is **pipelined**: the pool sends a broadcast
  (``reset``/``rebind``/``sums``/``stats``) to all ``k`` transports
  before collecting any reply, so a round trip costs one worker's
  latency instead of ``k`` of them; replies are collected in shard
  order, so results cannot depend on which worker answers first.

Message protocol (one request/reply pair per call, strictly ordered per
worker):

=============  =======================================  ==============
request        payload                                  reply payload
=============  =======================================  ==============
``"reset"``    strategies (tuple of target tuples)      ``None``
``"rebind"``   ``(peer, targets)``                      ``None``
``"rows"``     global row ids owned by this shard       ``(m, n)`` array
``"sums"``     —                                        ``(row sums, total)``
``"stats"``    —                                        counter dict
``"ping"``     optional ``delay_s`` latency probe       ``"pong"``
``"stop"``     —                                        ``None`` (exits)
=============  =======================================  ==============

Replies are ``("ok", payload)`` or ``("error", traceback_text)``; the
coordinator re-raises the latter as :class:`ShardWorkerError`.

Lifecycle: same-host workers are daemonic and the pool registers a
``weakref.finalize`` safety net (mirroring the backend ``_shutdown``
pattern in :mod:`repro.core.backends`), so an abandoned pool — a test
failure mid-run, a CLI Ctrl-C — still tears its processes down at
garbage collection or interpreter exit; :meth:`ShardWorkerPool.close`
is the deterministic, idempotent path.
"""

from __future__ import annotations

import time
import traceback
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import stretch_from_distance_rows
from repro.core.profile import StrategyProfile
from repro.core.sharded import ShardPlan
from repro.core.topology import overlay_from_matrix
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.dynamic_sssp import RowRepairer
from repro.graphs.reachability import reverse_reachable
from repro.graphs.shortest_paths import multi_source_distances

__all__ = [
    "ShardWorkerError",
    "ShardTransport",
    "RecoveryPolicy",
    "ShardWorkerPool",
    "PLACEMENT_SPECS",
]

#: ``placement=`` spec strings accepted by the sharded evaluator (and
#: therefore by the ``--shard-placement`` CLI flag).  ``"socket"``
#: without ``shard_hosts`` forks one child per shard on a socketpair;
#: with them it connects each shard to a running
#: :mod:`repro.shard_server` instead.
PLACEMENT_SPECS = ("local", "socket")


class ShardWorkerError(RuntimeError):
    """A shard worker failed while serving a request (traceback inside)."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """One shard's state machine, running inside the worker process.

    Mirrors the in-process :class:`~repro.core.sharded.ShardedDistances`
    semantics for a single always-resident block: built lazily by one
    multi-source Dijkstra over the shard's own sources, repaired
    row-incrementally after rebinds, dirt ignored while the block is
    unbuilt (it will be built in full anyway).
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        dmat: np.ndarray,
        backend: str,
        dynamic: bool = True,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.dmat = dmat
        self.backend = backend
        self.overlay: Optional[WeightedDigraph] = None
        self.block: Optional[np.ndarray] = None
        self.dirty: set = set()
        self.sums: Optional[Tuple[np.ndarray, float]] = None
        self.repairer: Optional[RowRepairer] = (
            RowRepairer(backend) if dynamic else None
        )
        self.cursor = 0
        self.block_builds = 0
        self.rows_recomputed = 0
        self.vertices_repaired = 0
        self.full_fallbacks = 0
        self.resident_peak_bytes = 0

    # -- profile sync ---------------------------------------------------
    def reset(self, strategies: Sequence[Tuple[int, ...]]) -> None:
        profile = StrategyProfile([frozenset(s) for s in strategies])
        self.overlay = overlay_from_matrix(self.dmat, profile)
        self.block = None
        self.dirty = set()
        self.sums = None
        if self.repairer is not None:
            self.repairer.reset()
        self.cursor = 0

    def rebind(self, peer: int, targets: Tuple[int, ...]) -> None:
        overlay = self._require_overlay()
        # Same invariant as the coordinator's incremental rebind: edges
        # *into* peer are identical before and after the splice, so the
        # reverse reachability computed on the old overlay is valid for
        # both — and identical to the coordinator's affected set (the
        # maintained reverse index answers the same query as the BFS,
        # just in O(affected edges)).
        new_out = {j: float(self.dmat[peer, j]) for j in targets}
        if self.repairer is not None:
            affected = self.repairer.apply_rebind(overlay, peer, new_out)
        else:
            # The coordinator's reachability function, shared (not
            # duplicated): worker dirty sets agree with the coordinator's
            # because both sides call the same code.
            affected = reverse_reachable(overlay, peer)
            overlay.remove_out_edges(peer)
            for j, w in new_out.items():
                overlay.add_edge(peer, j, w)
        mine = {row for row in affected if self.lo <= row < self.hi}
        if mine:
            self.sums = None
            if self.block is not None:
                self.dirty |= mine

    # -- queries --------------------------------------------------------
    def _require_overlay(self) -> WeightedDigraph:
        if self.overlay is None:
            raise RuntimeError("no profile bound; send a 'reset' first")
        return self.overlay

    def clean_block(self) -> np.ndarray:
        overlay = self._require_overlay()
        if self.block is None:
            self.block = multi_source_distances(
                overlay, list(range(self.lo, self.hi)), backend=self.backend
            )
            self.dirty = set()
            if self.repairer is not None:
                self.cursor = self.repairer.head
            self.block_builds += 1
            self.resident_peak_bytes = max(
                self.resident_peak_bytes, self.block.nbytes
            )
        elif self.dirty:
            rows = sorted(self.dirty)
            if self.repairer is not None:
                repaired, fallbacks = self.repairer.repair_block(
                    self.block,
                    [row - self.lo for row in rows],
                    rows,
                    overlay,
                    self.cursor,
                )
                self.cursor = self.repairer.head
                self.vertices_repaired += repaired
                self.full_fallbacks += fallbacks
            else:
                fresh = multi_source_distances(
                    overlay, rows, backend=self.backend
                )
                self.block[[row - self.lo for row in rows]] = fresh
            self.rows_recomputed += len(rows)
            self.dirty = set()
        return self.block

    def rows(self, wanted: Sequence[int]) -> np.ndarray:
        block = self.clean_block()
        return block[[row - self.lo for row in wanted]].copy()

    def stretch_sums(self) -> Tuple[np.ndarray, float]:
        # Bitwise identical to ShardedEvaluator._shard_stretch_sums:
        # same stretch rows, same reduction order, same bytes.
        if self.sums is None:
            block = self.clean_block()
            stretch = stretch_from_distance_rows(
                self.dmat[self.lo : self.hi], block, range(self.lo, self.hi)
            )
            self.sums = (stretch.sum(axis=1), float(stretch.sum()))
        return self.sums

    def stats(self) -> Dict[str, int]:
        return {
            "shard_rows": self.hi - self.lo,
            "block_builds": self.block_builds,
            "rows_recomputed": self.rows_recomputed,
            "vertices_repaired": self.vertices_repaired,
            "full_fallbacks": self.full_fallbacks,
            "resident_bytes": 0 if self.block is None else self.block.nbytes,
            "resident_peak_bytes": self.resident_peak_bytes,
        }


def serve_request(state: _WorkerState, message: Tuple) -> Tuple[Tuple, bool]:
    """Serve one protocol request against ``state``.

    Returns ``(reply, stop)`` where ``reply`` is the ``("ok", payload)``
    / ``("error", traceback)`` pair to put on the wire and ``stop``
    signals an orderly shutdown.  Called by the one worker loop,
    :func:`repro.core.transport.serve_connection`, which shard-server
    threads and forked same-host shards both run.
    """
    kind = message[0]
    try:
        if kind == "stop":
            return ("ok", None), True
        if kind == "reset":
            reply = state.reset(message[1])
        elif kind == "rebind":
            reply = state.rebind(message[1], message[2])
        elif kind == "rows":
            reply = state.rows(message[1])
        elif kind == "sums":
            reply = state.stretch_sums()
        elif kind == "stats":
            reply = state.stats()
        elif kind == "ping":
            # Optional latency probe: ``("ping", delay_s)`` holds the
            # reply for ``delay_s`` seconds worker-side.  Stands in for
            # cross-host wire latency in fan-out benchmarks (each shard
            # delays concurrently, so pipelined broadcasts overlap it)
            # and for stall-injection in liveness tests.
            if len(message) > 1 and message[1]:
                time.sleep(float(message[1]))
            reply = "pong"
        else:
            raise ValueError(f"unknown shard-worker request {kind!r}")
        return ("ok", reply), False
    except Exception:  # noqa: BLE001 - forwarded to the coordinator
        return ("error", traceback.format_exc()), False


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ShardTransport:
    """One ordered request/reply channel to a shard worker.

    The seam between :class:`ShardWorkerPool` and the wire:
    :class:`~repro.core.transport.SocketTransport` fills it for every
    placement, and :mod:`repro.faults.injection` wraps it to inject
    faults, without touching the pool or the evaluator.

    ``request`` is split into :meth:`send` / :meth:`recv` halves so the
    pool can *pipeline* a broadcast — send to every worker, then collect
    every reply — instead of serializing ``k`` full round trips.
    """

    def send(self, message: Tuple) -> None:
        """Put one request on the wire without waiting for its reply."""
        raise NotImplementedError

    def recv(self):
        """Block for the next pending reply's payload (or raise)."""
        raise NotImplementedError

    def request(self, message: Tuple):
        """Send ``message``, block for the reply payload (or raise)."""
        self.send(message)
        return self.recv()

    def kill(self) -> None:
        """Kill the worker abruptly, without a ``stop`` (chaos drills)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the channel (and any owned worker) down; idempotent."""

    @property
    def alive(self) -> bool:
        """Whether the far side is still expected to answer."""
        return False


class RecoveryPolicy:
    """How a pool responds to a dead shard worker.

    ``max_restarts_per_shard`` bounds how many times any one shard may
    be respawned over the pool's lifetime — recovery is for transient
    faults, not for masking a worker that is crash-looping on its own
    input.  Respawn rebuilds the worker from the pool's mirrored profile
    history (one ``reset`` plus the rebinds since), so the replacement
    answers every query with the same bytes the dead worker would have.
    """

    __slots__ = ("max_restarts_per_shard",)

    def __init__(self, max_restarts_per_shard: int = 3) -> None:
        if max_restarts_per_shard < 1:
            raise ValueError(
                f"max_restarts_per_shard must be >= 1, "
                f"got {max_restarts_per_shard}"
            )
        self.max_restarts_per_shard = int(max_restarts_per_shard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoveryPolicy(max_restarts_per_shard={self.max_restarts_per_shard})"


def _coerce_recovery(recovery) -> Optional[RecoveryPolicy]:
    if recovery is None or recovery is False:
        return None
    if recovery is True:
        return RecoveryPolicy()
    if isinstance(recovery, RecoveryPolicy):
        return recovery
    if isinstance(recovery, int):
        return RecoveryPolicy(max_restarts_per_shard=recovery)
    raise TypeError(
        f"recovery must be None, bool, int or RecoveryPolicy, "
        f"got {type(recovery).__name__}"
    )


class ShardWorkerPool:
    """One long-lived worker per shard, serving the distance row blocks.

    The pool is the coordinator-side face of worker placement: it
    routes :meth:`rows` requests to the owning shards (assembling the
    reply in ``peers`` order, exactly like
    :meth:`~repro.core.sharded.ShardedDistances.rows`), broadcasts
    profile syncs, and collects per-worker stats.  All methods are
    synchronous and ordered per worker, so a ``rows`` request can never
    overtake the ``rebind`` that dirtied it.

    With a :class:`RecoveryPolicy` (``recovery=``), a worker that dies
    is respawned through the same transport factory and rebuilt from
    the pool's mirrored profile history; the failed request is then
    retried once on the replacement.  Every protocol mutation is
    idempotent (``reset`` replaces the overlay, ``rebind`` splices to an
    absolute target set) and every query is pure, so the retry cannot
    double-apply state regardless of where the original died.  Each
    recovery appends to :attr:`recovery_events` (shard, reason, wall
    seconds) — the raw samples behind the e20 recovery distributions.
    Without a policy (the default) failures propagate exactly as before.
    """

    def __init__(
        self,
        plan: ShardPlan,
        dmat: np.ndarray,
        backend: str = "auto",
        transport_factory=None,
        dynamic_repair: bool = True,
        recovery=None,
    ) -> None:
        if transport_factory is None:
            # Deferred import: the transport module imports this one.
            from repro.core.transport import SocketTransport

            transport_factory = SocketTransport.forked
        self._plan = plan
        self._n = plan.n
        self._factory = transport_factory
        self._dmat = dmat
        self._backend = backend
        self._dynamic = dynamic_repair
        self._recovery = _coerce_recovery(recovery)
        self._respawns_left = [
            0 if self._recovery is None
            else self._recovery.max_restarts_per_shard
            for _ in range(plan.k)
        ]
        #: Mirror of the profile history since the last reset, enough to
        #: rebuild any worker from scratch: the reset strategies plus
        #: every rebind since, in order.  Updated *before* the broadcast
        #: so an in-flight mutation is already part of the replay.
        self._last_reset: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._rebinds: List[Tuple[int, Tuple[int, ...]]] = []
        #: One dict per successful recovery: ``{"shard", "reason",
        #: "seconds", "replayed"}`` in occurrence order.
        self.recovery_events: List[Dict[str, object]] = []
        transports: List[ShardTransport] = []
        try:
            for shard in range(plan.k):
                lo, hi = plan.bounds[shard]
                transports.append(
                    transport_factory(lo, hi, dmat, backend, dynamic_repair)
                )
        except Exception:
            ShardWorkerPool._shutdown(transports)
            raise
        self._transports = transports
        self._finalizer = weakref.finalize(
            self, ShardWorkerPool._shutdown, transports
        )

    @staticmethod
    def _shutdown(transports: List[ShardTransport]) -> None:
        for transport in transports:
            transport.close()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (idempotent; also runs via the finalizer)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def num_workers(self) -> int:
        return len(self._transports)

    def alive_workers(self) -> int:
        """How many workers still answer (for tests/diagnostics)."""
        return sum(1 for transport in self._transports if transport.alive)

    def kill_worker(self, shard: int) -> None:
        """Kill one shard's worker outright (chaos drills).

        SIGKILL for a same-host shard's child, abrupt stream teardown
        for a remote one, so recovery faces a genuine crash, not an
        orderly stop.
        """
        self._transports[shard].kill()

    # -- profile sync ---------------------------------------------------
    def reset(self, profile: StrategyProfile) -> None:
        """Rebuild every worker's overlay from scratch (full rebind)."""
        strategies = tuple(
            tuple(sorted(profile.strategy(peer)))
            for peer in range(profile.n)
        )
        self._last_reset = strategies
        self._rebinds = []
        self._broadcast(("reset", strategies))

    def rebind(self, peer: int, targets) -> None:
        """Splice one peer's new out-edges into every worker's overlay."""
        targets = tuple(sorted(targets))
        if self._last_reset is not None:
            self._rebinds.append((int(peer), targets))
        self._broadcast(("rebind", peer, targets))

    def ping(self, delay: float = 0.0) -> None:
        """One no-op round trip to every worker (liveness / latency).

        ``delay`` holds each worker's reply for that many seconds — a
        stand-in for cross-host wire latency: the workers delay
        concurrently, so the pipelined broadcast pays it once where any
        sequential schedule would pay it ``k`` times.
        """
        self._broadcast(("ping", float(delay)) if delay else ("ping",))

    # -- recovery -------------------------------------------------------
    def _respawn(self, shard: int) -> ShardTransport:
        """Replace a dead shard worker and rebuild its mirrored state.

        The old transport is torn down, a replacement comes from the
        same factory (a fresh child for a same-host shard, a fresh
        connection for a remote one), and the pool's mirrored
        profile history — one ``reset`` plus every rebind since, in
        order — is replayed so the new worker's overlay is byte-for-byte
        the state the dead one held.  Raises :class:`ShardWorkerError`
        if the replacement itself fails during replay.
        """
        old = self._transports[shard]
        try:
            old.close()
        except Exception:  # noqa: BLE001 - it was already dying
            pass
        lo, hi = self._plan.bounds[shard]
        fresh = self._factory(
            lo, hi, self._dmat, self._backend, self._dynamic
        )
        try:
            if self._last_reset is not None:
                fresh.request(("reset", self._last_reset))
                for peer, targets in self._rebinds:
                    fresh.request(("rebind", peer, targets))
        except ShardWorkerError:
            fresh.close()
            raise
        # In-place: the finalizer holds this *list*, so the replacement
        # is reaped at shutdown exactly like the transport it replaces.
        self._transports[shard] = fresh
        return fresh

    def _recover(self, shard: int, message: Tuple, error: ShardWorkerError):
        """Respawn ``shard`` and retry ``message`` once per budget unit.

        Safe for every protocol message: mutations are idempotent and
        already mirrored (so respawn replay + retry converge on the same
        state), queries are pure.  Returns the retried reply or raises
        the original error when the budget is spent or replacements keep
        dying.
        """
        while self._respawns_left[shard] > 0:
            self._respawns_left[shard] -= 1
            started = time.monotonic()
            try:
                fresh = self._respawn(shard)
                reply = fresh.request(message)
            except ShardWorkerError:
                continue
            self.recovery_events.append(
                {
                    "shard": shard,
                    "reason": str(error).splitlines()[0],
                    "seconds": time.monotonic() - started,
                    "replayed": (
                        0 if self._last_reset is None
                        else 1 + len(self._rebinds)
                    ),
                }
            )
            return reply
        raise error

    def _exchange(self, requests: Sequence[Tuple[int, Tuple]]):
        """Run one request per listed shard, replies in list order.

        Pipelined: every request goes on the wire before any reply is
        collected, so the wall-clock cost is one worker's round trip plus
        the slowest handler — not the sum of ``k`` round trips.  When a worker fails mid-exchange the remaining streams
        are still drained (each transport sees a complete send/recv pair
        or is dead); the failed shards then go through recovery (respawn
        + one retry each) when the pool has a :class:`RecoveryPolicy`,
        and the first unrecovered error is re-raised.
        """
        failed: List[Tuple[int, int, Tuple, ShardWorkerError]] = []
        pending: List[Optional[int]] = []
        for position, (shard, message) in enumerate(requests):
            try:
                self._transports[shard].send(message)
                pending.append(shard)
            except ShardWorkerError as error:
                failed.append((position, shard, message, error))
                pending.append(None)
        replies: List = []
        for position, shard in enumerate(pending):
            if shard is None:
                replies.append(None)
                continue
            try:
                replies.append(self._transports[shard].recv())
            except ShardWorkerError as error:
                failed.append(
                    (position, shard, requests[position][1], error)
                )
                replies.append(None)
        for position, shard, message, error in failed:
            replies[position] = self._recover(shard, message, error)
        return replies

    def _broadcast(self, message: Tuple):
        return self._exchange(
            [(shard, message) for shard in range(len(self._transports))]
        )

    # -- data plane -----------------------------------------------------
    def rows(self, peers: Sequence[int]) -> np.ndarray:
        """The requested distance rows, gathered from their owner shards.

        Returns a fresh caller-owned ``(len(peers), n)`` array in
        ``peers`` order; only the requested rows cross the transport,
        and the per-shard requests fan out pipelined.
        """
        peers = list(peers)
        out = np.empty((len(peers), self._n), dtype=np.float64)
        by_shard: Dict[int, List[int]] = {}
        for position, peer in enumerate(peers):
            if not 0 <= peer < self._n:
                raise IndexError(f"peer {peer} out of range [0, {self._n})")
            by_shard.setdefault(self._plan.owner(peer), []).append(position)
        shards = sorted(by_shard)
        replies = self._exchange(
            [
                (
                    shard,
                    (
                        "rows",
                        [peers[position] for position in by_shard[shard]],
                    ),
                )
                for shard in shards
            ]
        )
        for shard, fetched in zip(shards, replies):
            for row, position in enumerate(by_shard[shard]):
                out[position] = fetched[row]
        return out

    def stretch_sums(self, shard: int) -> Tuple[np.ndarray, float]:
        """One shard's ``(stretch row sums, stretch total)`` reductions.

        O(n/k) + O(1) values over the wire — the block itself never
        leaves the worker.
        """
        return self._exchange([(shard, ("sums",))])[0]

    def stretch_sums_all(
        self, shards: Optional[Sequence[int]] = None
    ) -> Dict[int, Tuple[np.ndarray, float]]:
        """The ``sums`` reductions of several shards, fanned out at once.

        The cost-query prefetch path: after a reset/rebind every shard's
        sum cache is stale, and collecting all of them in one pipelined
        broadcast overlaps the k workers' block builds.
        """
        shards = (
            list(range(self._plan.k)) if shards is None else sorted(shards)
        )
        replies = self._exchange([(shard, ("sums",)) for shard in shards])
        return dict(zip(shards, replies))

    def worker_stats(self) -> List[Dict[str, int]]:
        """Per-worker counters (builds, repairs, resident block bytes)."""
        return self._broadcast(("stats",))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardWorkerPool(k={self._plan.k}, n={self._n}, "
            f"closed={self.closed})"
        )
