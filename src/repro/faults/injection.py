"""Fault injection at the shard-transport seam.

:class:`FaultyTransport` wraps any
:class:`~repro.core.shard_workers.ShardTransport` and consults a
:class:`~repro.faults.plan.FaultPlan` once per request (at ``send``
time, keyed by a per-site operation counter), so the schedule is a pure
function of the plan seed and the request sequence:

* ``delay`` — hold the request, then pass it through unchanged.
* ``drop`` — never put it on the wire; tear the channel down and raise
  the *between-requests* death the pool's recovery path understands.
* ``corrupt`` — let the request run, collect the real reply, then
  discard it and report a *mid-request* death (the reply bytes cannot
  be trusted, exactly as if the frame had been damaged in flight).
* ``kill`` — kill the worker behind the transport for real (SIGKILL
  of a same-host shard's child, abrupt close of a remote shard's
  stream), so recovery exercises the genuine EOF and respawn
  machinery, not a simulation of it.

:class:`FaultyTransportFactory` wraps a transport factory (the
``transport_factory`` seam of
:class:`~repro.core.shard_workers.ShardWorkerPool`), naming each
produced transport's site ``"shard-<lo>-<hi>"`` and keeping one shared
:class:`InjectionLog` for assertions.  Per-site operation counters live
in the *factory*, so a respawned shard's replacement transport resumes
its site's schedule instead of replaying the ops (and faults) the dead
one already consumed.  Under the null plan both wrappers are
pass-throughs: same requests, same replies, same bytes.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Optional, Tuple

from repro.core.shard_workers import ShardTransport, ShardWorkerError
from repro.faults.plan import FaultPlan

__all__ = ["FaultyTransport", "FaultyTransportFactory", "InjectionLog"]

#: Marker prefixed to every injected failure, so tests (and operators)
#: can tell an injected fault from an organic one at a glance.
INJECTED = "[fault-injection]"


class InjectionLog:
    """Thread-safe counters of what a plan actually injected."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def count(self, action: str, site: str) -> None:
        with self._lock:
            self._counts[action] = self._counts.get(action, 0) + 1
            key = f"{action}@{site}"
            self._counts[key] = self._counts.get(key, 0) + 1

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def total(self, action: Optional[str] = None) -> int:
        with self._lock:
            if action is not None:
                return self._counts.get(action, 0)
            return sum(
                count
                for key, count in self._counts.items()
                if "@" not in key
            )


class FaultyTransport(ShardTransport):
    """A shard transport with a fault plan between caller and wire."""

    def __init__(
        self,
        inner: ShardTransport,
        plan: FaultPlan,
        site: str,
        log: Optional[InjectionLog] = None,
        ops: Optional["itertools.count"] = None,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._site = site
        self._log = log if log is not None else InjectionLog()
        #: The site's op sequence; shared (via the factory) across the
        #: transports that successively serve this site.
        self._ops = ops if ops is not None else itertools.count()
        #: Set when an injected send-side fault consumed the request:
        #: the far side never saw it, so there is no reply to collect.
        self._pending_fault: Optional[str] = None

    @property
    def name(self) -> str:
        return getattr(self._inner, "name", self._site)

    @property
    def site(self) -> str:
        return self._site

    @property
    def log(self) -> InjectionLog:
        return self._log

    # ------------------------------------------------------------------
    def send(self, message: Tuple) -> None:
        op = next(self._ops)
        action = self._plan.action(self._site, op)
        if action == "delay":
            self._log.count("delay", self._site)
            if self._plan.delay_s > 0:
                time.sleep(self._plan.delay_s)
            action = None
        if action is None:
            self._inner.send(message)
            return
        self._log.count(action, self._site)
        if action == "drop":
            # The request never reaches the wire: semantically the
            # worker died *between* requests (its state never saw this
            # message), which is what makes a post-respawn retry safe.
            self._pending_fault = "drop"
            self._inner.close()
            raise ShardWorkerError(
                f"{INJECTED} dropped request to shard worker {self.name} "
                f"(op {op}): worker died between requests"
            )
        if action == "kill":
            self._pending_fault = "kill"
            self._inner.kill()
            raise ShardWorkerError(
                f"{INJECTED} killed shard worker {self.name} (op {op}): "
                f"worker died between requests"
            )
        # "corrupt": the request runs, but the reply will be ruined.
        self._pending_fault = "corrupt"
        self._inner.send(message)

    def recv(self):
        fault, self._pending_fault = self._pending_fault, None
        if fault == "corrupt":
            # Drain the real reply to keep the stream ordered, then
            # refuse to deliver it — and tear the channel down, because
            # a transport that returned garbage cannot be trusted for
            # the next strictly-ordered exchange either.
            try:
                self._inner.recv()
            except ShardWorkerError:
                pass
            self._inner.close()
            raise ShardWorkerError(
                f"{INJECTED} corrupted reply from shard worker "
                f"{self.name}: worker died mid-request"
            )
        if fault is not None:  # pragma: no cover - send already raised
            raise ShardWorkerError(
                f"{INJECTED} no reply pending from {self.name} after "
                f"injected {fault}"
            )
        return self._inner.recv()

    def request(self, message: Tuple):
        self.send(message)
        return self.recv()

    @property
    def alive(self) -> bool:
        return self._inner.alive

    def kill(self) -> None:
        """Expose the inner kill for chaos drills that bypass the plan."""
        self._inner.kill()

    def close(self) -> None:
        self._inner.close()


class FaultyTransportFactory:
    """Wrap a transport factory so every produced transport injects.

    Drop-in for the ``transport_factory`` seam of
    :class:`~repro.core.shard_workers.ShardWorkerPool`; under the null
    plan every produced transport is still wrapped but never injects,
    and the pool's behavior is bitwise identical to the bare factory.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        log: Optional[InjectionLog] = None,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self.log = log if log is not None else InjectionLog()
        self._site_ops: Dict[str, "itertools.count"] = {}
        self._lock = threading.Lock()

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def __call__(
        self,
        lo: int,
        hi: int,
        dmat,
        backend: str = "auto",
        dynamic: bool = True,
    ) -> FaultyTransport:
        transport = self._inner(lo, hi, dmat, backend, dynamic)
        site = f"shard-{lo}-{hi}"
        with self._lock:
            ops = self._site_ops.setdefault(site, itertools.count())
        return FaultyTransport(transport, self._plan, site, self.log, ops)
