"""Pluggable execution backends for independent best-response solves.

A gain sweep (:meth:`repro.core.evaluator.GameEvaluator.gain_sweep`)
ends in a batch of *independent, read-only* solver calls — one
facility-location solve per peer against that peer's service matrix.
How those calls execute is a deployment decision, not a game-theoretic
one, so it lives behind a tiny protocol:

:class:`SerialBackend`
    Plain loop in the calling thread (the default; byte-identical to
    the pre-backend engine).
:class:`ProcessBackend`
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` whose
    workers *attach* to the evaluator's shareable
    :mod:`~repro.core.service_store` (shared-memory segments) and
    solve against the parent's pages directly — tasks
    carry ``(store_handle, peer, strategy, profile_digest)``, never the
    ``W`` matrix itself, so dispatch cost is independent of ``n``.
``"shard"``
    :class:`~repro.core.shard_workers.ShardSolverBackend` ships each
    solve to the shard worker that owns the peer.

Every backend runs the same pure function
(:func:`~repro.core.best_response.best_response_from_service`) on the
same bytes, so results — and therefore dynamics trajectories — are
identical across backends and worker counts.  The test-suite pins this.

Backends are resolved once per driver (:func:`resolve_backend`) so the
pools persist across sweeps; ``close()`` (or garbage collection) tears
the pools down.  ``workers`` sizes the process pool only: it is the one
backend that runs solves concurrently.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.best_response import (
    BestResponseResult,
    ServiceCosts,
    best_response_from_service,
)
from repro.core.service_store import attach_service_weights

__all__ = [
    "SolverBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "BACKEND_SPECS",
]

#: ``--backend`` spec strings accepted by :func:`resolve_backend`.
#: ``"shard"`` routes solves to shard worker processes/servers (see
#: :class:`~repro.core.shard_workers.ShardSolverBackend`) and needs a
#: sharded evaluator with ``shard_placement`` ``"process"``/``"socket"``.
BACKEND_SPECS = ("serial", "process", "shard")

#: A picklable solve task: ``(store_handle, peer, strategy, alpha,
#: method, profile_digest)``.  The digest identifies which bound profile
#: the strategy (and the attached matrix's bytes) belong to — pure
#: observability/debugging metadata; the solve is a function of the
#: other fields alone.
SolveTask = Tuple[Tuple, int, Tuple[int, ...], float, str, int]


class SolverBackend:
    """Execution policy for a batch of independent response solves.

    :meth:`run_solves` receives the peers to solve, a ``solve_local``
    closure (solves one peer in this process against the evaluator's
    caches) and a ``make_task`` closure (builds the picklable
    :data:`SolveTask` for one peer, attaching a store handle).  In-
    process backends use ``solve_local``; distributed ones use
    ``make_task``.  Results come back in ``peers`` order.
    """

    name = "serial"
    #: True when solves cross process boundaries, i.e. the evaluator
    #: must expose its service matrices through a shareable store.
    distributed = False
    #: True when the backend consumes ``make_task`` tuples but sources
    #: the matrices itself (shard-side solves): the evaluator skips its
    #: local service build/refresh for dispatched peers and no store
    #: handle is attached to the tasks.
    wants_tasks = False

    def run_solves(
        self,
        peers: Sequence[int],
        solve_local: Callable[[int], BestResponseResult],
        make_task: Optional[Callable[[int], SolveTask]] = None,
    ) -> List[BestResponseResult]:
        return [solve_local(peer) for peer in peers]

    def close(self) -> None:
        """Release pool resources (no-op for poolless backends)."""


class SerialBackend(SolverBackend):
    """Solve in the calling thread — the reference execution order."""

    name = "serial"


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
#: Worker-side cache of candidate tuples; every service matrix built by
#: the evaluator prices all first hops, so candidates are always
#: ``(0..n-1) - {peer}`` and need not travel with the task.
_CANDIDATE_CACHE: Dict[Tuple[int, int], Tuple[int, ...]] = {}


def _candidates_of(peer: int, n: int) -> Tuple[int, ...]:
    key = (peer, n)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is None:
        cached = tuple(j for j in range(n) if j != peer)
        _CANDIDATE_CACHE[key] = cached
    return cached


def solve_service_tasks(tasks: Sequence[SolveTask]) -> List[BestResponseResult]:
    """Pool-worker entry point: attach each matrix, solve, return.

    One call solves one worker's share of a sweep.  The matrix bytes
    never cross the pipe — only the handles do; the worker maps the
    owner's shared-memory segment (cached per process) and runs the
    same pure solver the serial backend runs.
    """
    results = []
    for handle, peer, strategy, alpha, method, _digest in tasks:
        weights = attach_service_weights(handle)
        service = ServiceCosts(
            peer, _candidates_of(peer, weights.shape[1]), weights
        )
        results.append(best_response_from_service(service, strategy, alpha, method))
    return results


class ProcessBackend(SolverBackend):
    """Process-pool solves over a shared-memory service-matrix store.

    Workers receive :data:`SolveTask` tuples and attach the evaluator's
    store (see module docstring).  The pool is created lazily on first
    use — with the ``fork`` start method where available, so workers
    inherit the parent's imports — and persists across sweeps; in-place
    matrix repairs between sweeps are visible to the workers through the
    shared mappings without any re-dispatch.
    """

    name = "process"
    distributed = True

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        self._pool = None
        self._finalizer: Optional[weakref.finalize] = None

    def _executor(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
            self._finalizer = weakref.finalize(
                self, ProcessBackend._shutdown, self._pool
            )
        return self._pool

    @staticmethod
    def _shutdown(pool) -> None:
        # wait=True: close() returns only once every worker has exited.
        pool.shutdown(wait=True, cancel_futures=True)

    def run_solves(
        self,
        peers: Sequence[int],
        solve_local: Callable[[int], BestResponseResult],
        make_task: Optional[Callable[[int], SolveTask]] = None,
    ) -> List[BestResponseResult]:
        if len(peers) <= 1:
            # Pool round-trips cost more than a singleton solve; results
            # are identical either way (same pure function, same bytes).
            return [solve_local(peer) for peer in peers]
        if make_task is None:
            raise RuntimeError(
                "ProcessBackend needs store-handle tasks; the evaluator "
                "must expose a shareable service store"
            )
        tasks = [make_task(peer) for peer in peers]
        # Per-sweep batching: ceil(tasks / workers) consecutive tasks per
        # submission puts every worker's share in one round trip, which
        # amortizes the per-task executor/pickle overhead that dominates
        # small-n sweeps.  The solves stay independent pure functions,
        # so grouping cannot change any result.
        share = -(-len(tasks) // self.workers)
        shares = [tasks[lo : lo + share] for lo in range(0, len(tasks), share)]
        return [
            result
            for solved in self._executor().map(solve_service_tasks, shares)
            for result in solved
        ]

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._pool = None
            self._finalizer = None


# ----------------------------------------------------------------------
def resolve_backend(spec, workers: int = 1) -> SolverBackend:
    """Normalize a backend spec into a :class:`SolverBackend` instance.

    ``spec`` is ``None`` (serial), one of :data:`BACKEND_SPECS`, or a
    :class:`SolverBackend` instance, which passes through unchanged.
    ``workers`` sizes the ``"process"`` pool and nothing else: asking
    for ``workers > 1`` with any other spec raises :class:`ValueError`
    instead of quietly running serial.
    """
    if int(workers) > 1 and spec != "process":
        raise ValueError(
            f"workers={workers} sizes a process pool, but the backend is "
            f"{getattr(spec, 'name', spec or 'serial')!r}; pass "
            f"backend='process' "
            f"(or leave workers at 1)"
        )
    if isinstance(spec, SolverBackend):
        return spec
    if spec is None or spec == "serial":
        return SerialBackend()
    if spec == "process":
        return ProcessBackend(max(2, workers))
    if spec == "shard":
        # Deferred import: shard_workers imports this module.  The
        # instance starts unbound; the sharded evaluator binds its live
        # worker pool per sweep (drivers resolve backends before any
        # evaluator exists).
        from repro.core.shard_workers import ShardSolverBackend

        return ShardSolverBackend()
    raise ValueError(
        f"unknown solver backend {spec!r}; expected one of {BACKEND_SPECS}, "
        f"None, or a SolverBackend instance"
    )
