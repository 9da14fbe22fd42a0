"""Storage arenas for per-peer service-cost matrices.

The :class:`~repro.core.evaluator.GameEvaluator` keeps up to
``max_cached_services`` warm ``W`` matrices — each an ``(n-1) x n``
float64 block.  Process-pool solvers need workers to read ``W`` without
pickling megabytes per task, so a :class:`ServiceStore` owns the backing
buffers of those matrices and decouples *where the bytes live* from the
evaluator's cache bookkeeping.  There are two kinds:

* :class:`ArrayStore` (``"memory"``) — plain process-private ndarrays
  (the default).
* :class:`SharedMemoryStore` (``"shared"``) — one
  :mod:`multiprocessing.shared_memory` segment per matrix.
  :meth:`~ServiceStore.handle` descriptors let pool workers attach the
  segment by name and solve against the *same pages* the parent
  repaired in place — zero-copy, no ``W`` pickling.

Stores only move bytes; they never change them.  Both round-trip
matrices bit-exactly, so evaluator results (and dynamics trajectories)
are identical whichever store backs the cache — the property the store
test-suite pins.  Every evaluator, sharded or not, holds exactly one
store.

The evaluator binds its :class:`~repro.core.evaluator.EvaluatorStats` to
the store (:meth:`~ServiceStore.bind_stats`) so the resident byte count
and its high-water mark are observable through the usual counters.
"""

from __future__ import annotations

import itertools
import os
import uuid
import weakref
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ServiceStore",
    "ArrayStore",
    "SharedMemoryStore",
    "attach_service_weights",
    "make_store",
]

#: ``store=`` spec strings accepted by :func:`make_store` (and therefore
#: by the evaluator constructors).
STORE_SPECS = ("memory", "shared")

#: Monotone id stamped into every shared store's handles (and bumped
#: when a closed store is re-armed), so a worker's attachment cache can
#: never serve a mapping from a *previous* store whose segment happened
#: to reuse the same name — the cache key is ``(handle kind, name,
#: shape, generation)``, and two different backings never share a
#: generation.
_GENERATIONS = itertools.count(1)


def _new_stats() -> SimpleNamespace:
    """Standalone counter namespace (field names match EvaluatorStats)."""
    return SimpleNamespace(
        store_resident_bytes=0,
        store_resident_peak_bytes=0,
    )


class ServiceStore:
    """Base class: a keyed arena of read-only float matrices.

    The evaluator is the only writer; all mutation goes through
    :meth:`put` (whole matrix) and :meth:`write_rows` (repair), and both
    return the backing array, which stays the same buffer until the key
    is put again or discarded.  Returned arrays are always marked
    read-only.
    """

    #: Whether :meth:`handle` can describe entries to another process.
    shareable = False
    name = "base"

    def __init__(self) -> None:
        self.stats = _new_stats()

    # -- lifecycle ------------------------------------------------------
    def bind_stats(self, stats) -> None:
        """Route the store's counters into ``stats`` (EvaluatorStats)."""
        for field in vars(_new_stats()):
            setattr(stats, field, getattr(stats, field, 0))
        self.stats = stats

    def close(self) -> None:
        """Release every buffer (shared-memory segments included)."""

    # -- data plane -----------------------------------------------------
    def put(self, key: int, weights: np.ndarray) -> np.ndarray:
        """Ingest a full matrix for ``key``; returns the backing array."""
        raise NotImplementedError

    def get(self, key: int) -> Optional[np.ndarray]:
        """Current backing array of ``key`` (None when absent)."""
        raise NotImplementedError

    def write_rows(
        self, key: int, rows: Sequence[int], values: np.ndarray
    ) -> np.ndarray:
        """Overwrite ``rows`` of ``key`` in place; returns the backing."""
        raise NotImplementedError

    def discard(self, key: int) -> None:
        """Drop ``key`` (no-op when absent)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry, keeping reusable buffers where possible."""
        raise NotImplementedError

    def keys(self) -> List[int]:
        raise NotImplementedError

    # -- process sharing ------------------------------------------------
    def handle(self, key: int) -> Optional[Tuple]:
        """Picklable zero-copy descriptor of ``key`` for pool workers.

        ``None`` means this store cannot share the entry across process
        boundaries (the evaluator then migrates to a shareable store).
        """
        return None

    # -- accounting -----------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes of the matrices the store currently holds."""
        return 0

    def _account_resident(self, delta: int) -> None:
        stats = self.stats
        stats.store_resident_bytes += delta
        if stats.store_resident_bytes > stats.store_resident_peak_bytes:
            stats.store_resident_peak_bytes = stats.store_resident_bytes


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _write_rows_inplace(
    array: np.ndarray, rows: Sequence[int], values: np.ndarray
) -> None:
    array.setflags(write=True)
    try:
        array[list(rows)] = values
    finally:
        array.setflags(write=False)


class ArrayStore(ServiceStore):
    """Plain in-process ndarrays — the default, zero-overhead store."""

    shareable = False
    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[int, np.ndarray] = {}

    def put(self, key: int, weights: np.ndarray) -> np.ndarray:
        # Takes ownership of ``weights`` (the evaluator hands over freshly
        # built arrays), so the default store adds zero copies.
        array = np.ascontiguousarray(weights, dtype=np.float64)
        old = self._data.get(key)
        self._data[key] = _read_only(array)
        self._account_resident(
            array.nbytes - (old.nbytes if old is not None else 0)
        )
        return array

    def get(self, key: int) -> Optional[np.ndarray]:
        return self._data.get(key)

    def write_rows(
        self, key: int, rows: Sequence[int], values: np.ndarray
    ) -> np.ndarray:
        array = self._data[key]
        _write_rows_inplace(array, rows, values)
        return array

    def discard(self, key: int) -> None:
        array = self._data.pop(key, None)
        if array is not None:
            self._account_resident(-array.nbytes)

    def clear(self) -> None:
        for key in list(self._data):
            self.discard(key)

    def close(self) -> None:
        self.clear()

    def keys(self) -> List[int]:
        return list(self._data)

    def resident_bytes(self) -> int:
        return sum(a.nbytes for a in self._data.values())


# ----------------------------------------------------------------------
# Shared-memory store
# ----------------------------------------------------------------------
def _segment_name() -> str:
    return f"repro_{os.getpid()}_{uuid.uuid4().hex[:12]}"


class SharedMemoryStore(ServiceStore):
    """One ``multiprocessing.shared_memory`` segment per matrix.

    Pool workers attach segments by name (:func:`attach_service_weights`)
    and read the exact pages the parent writes — repairs between sweeps
    are visible to long-lived workers without any re-send.  Segments of
    evicted entries are kept on a same-size freelist (every matrix of one
    evaluator has identical shape) so steady-state eviction costs no
    ``shm_open`` churn.
    """

    shareable = True
    name = "shared"

    def __init__(self) -> None:
        super().__init__()
        from multiprocessing import shared_memory  # lazy: import cost

        self._shm_mod = shared_memory
        self._generation = next(_GENERATIONS)
        #: key -> (segment, array view, shape)
        self._data: Dict[int, Tuple] = {}
        self._free: Dict[int, List] = {}  # nbytes -> [segments]
        self._finalizer = weakref.finalize(
            self, SharedMemoryStore._release, self._data, self._free
        )

    def _ensure_open(self) -> None:
        """Re-arm the cleanup finalizer after a close-then-reuse.

        ``weakref.finalize`` fires at most once: without this, a store
        that is written to again after :meth:`close` would allocate
        fresh segments with a *dead* finalizer — exactly the silent
        ``/dev/shm`` leak the safety net exists to prevent.  Re-opening
        also advances the store's generation, so any stale worker
        attachments keyed to the closed incarnation cannot be served.
        """
        if not self._finalizer.alive:
            self._generation = next(_GENERATIONS)
            self._finalizer = weakref.finalize(
                self, SharedMemoryStore._release, self._data, self._free
            )

    @staticmethod
    def _release(data: Dict, free: Dict) -> None:
        for segment, _array, _shape in data.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        data.clear()
        for segments in free.values():
            for segment in segments:
                try:
                    segment.close()
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        free.clear()

    def close(self) -> None:
        self._account_resident(-self.resident_bytes())
        self._finalizer()

    def _segment_for(self, nbytes: int):
        pool = self._free.get(nbytes)
        if pool:
            return pool.pop()
        return self._shm_mod.SharedMemory(
            name=_segment_name(), create=True, size=nbytes
        )

    def put(self, key: int, weights: np.ndarray) -> np.ndarray:
        self._ensure_open()
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        old = self._data.get(key)
        if old is not None and old[0].size >= weights.nbytes > 0:
            segment = old[0]
        else:
            if old is not None:
                self._retire(old[0])
                self._account_resident(-old[1].nbytes)
            segment = self._segment_for(max(1, weights.nbytes))
        array = np.ndarray(
            weights.shape, dtype=np.float64, buffer=segment.buf
        )
        array.setflags(write=True)
        array[...] = weights
        self._data[key] = (segment, _read_only(array), weights.shape)
        if old is not None and old[0] is segment:
            self._account_resident(array.nbytes - old[1].nbytes)
        else:
            self._account_resident(array.nbytes)
        return array

    def get(self, key: int) -> Optional[np.ndarray]:
        entry = self._data.get(key)
        return None if entry is None else entry[1]

    def write_rows(
        self, key: int, rows: Sequence[int], values: np.ndarray
    ) -> np.ndarray:
        array = self._data[key][1]
        _write_rows_inplace(array, rows, values)
        return array

    def discard(self, key: int) -> None:
        entry = self._data.pop(key, None)
        if entry is not None:
            self._retire(entry[0])
            self._account_resident(-entry[1].nbytes)

    def _retire(self, segment) -> None:
        self._free.setdefault(segment.size, []).append(segment)

    def clear(self) -> None:
        for key in list(self._data):
            self.discard(key)

    def keys(self) -> List[int]:
        return list(self._data)

    def resident_bytes(self) -> int:
        # Shared pages are counted as resident: they live in this host's
        # memory even though children map them too.
        return sum(entry[1].nbytes for entry in self._data.values())

    def handle(self, key: int) -> Optional[Tuple]:
        entry = self._data.get(key)
        if entry is None:
            return None
        segment, _array, shape = entry
        return ("shm", segment.name, tuple(shape), self._generation)


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------
#: Per-process cache of attached segments, keyed by the whole handle so
#: long-lived pool workers attach each segment once.  Each value pins
#: the SharedMemory object next to its array view, so the mapping
#: outlives the tasks (ndarrays cannot hold arbitrary attributes).
_ATTACHMENTS: Dict[Tuple, Tuple[np.ndarray, object]] = {}
_ATTACHMENT_CAP = 1024


def attach_service_weights(handle: Tuple) -> np.ndarray:
    """Materialize a read-only weights view from a store handle.

    Runs inside pool workers: ``("shm", name, shape, generation)``
    attaches the named shared-memory segment.  Attachments are cached
    per process, so repeated tasks against the same matrix touch no
    syscalls — and because the mapping is shared, in-place repairs by
    the owner are visible here without re-attaching.

    The cache key is the *whole* handle including the owning store's
    generation: a segment name can be reused by a later store after the
    original was closed, and a name-only key would then serve the dead
    incarnation's mapping — bytes from a buffer the owner has already
    retired.  A new generation forces a fresh attach.

    Resource-tracker note: pool workers inherit the owner's tracker
    (multiprocessing ships the tracker fd to fork *and* spawn children),
    so the attach-side ``register`` is an idempotent no-op and the
    owner's eventual ``unlink`` balances the books — no unregister hack
    is needed here, and adding one would double-unregister.
    """
    if handle[0] != "shm":
        raise ValueError(f"unknown service-store handle kind {handle[0]!r}")
    _kind, segment_name, shape, _generation = handle
    key = tuple(handle)
    cached = _ATTACHMENTS.get(key)
    if cached is not None:
        return cached[0]
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=segment_name)
    array = np.ndarray(shape, dtype=np.float64, buffer=segment.buf)
    array.setflags(write=False)
    # FIFO per-entry eviction: dict order makes the oldest attachment —
    # most likely a segment its owner has already retired — the first
    # to go, so a long-lived worker cannot pin unbounded unlinked
    # segments, and hot recent entries survive the cap.
    while len(_ATTACHMENTS) >= _ATTACHMENT_CAP:
        _old_array, old_segment = _ATTACHMENTS.pop(next(iter(_ATTACHMENTS)))
        try:
            old_segment.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    _ATTACHMENTS[key] = (array, segment)
    return array


# ----------------------------------------------------------------------
def make_store(spec) -> ServiceStore:
    """Build a store from a spec string (``"memory"`` | ``"shared"``) or
    pass a :class:`ServiceStore` instance through."""
    if isinstance(spec, ServiceStore):
        return spec
    if spec == "memory":
        return ArrayStore()
    if spec == "shared":
        return SharedMemoryStore()
    raise ValueError(
        f"unknown service store {spec!r}; expected one of {STORE_SPECS} "
        f"or a ServiceStore instance"
    )
