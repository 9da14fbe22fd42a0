"""Span tracer for the layer ledger, installed from outside the program.

The library carries no instrumentation of its own, so the ledger wraps
each layer's public boundary functions where they are *imported*: a
function bound by name into several modules (``from ... import f``) is
replaced in every ``repro`` module whose namespace holds it, and a method
is replaced on its class and on every subclass that overrides it.

* A **span** wrapper pushes onto a per-thread stack and records name,
  start and end (ns), parent span and optional metadata.  A span's self
  time is its duration minus the durations of its direct children, so
  the self times of all spans plus the time outside any span add up to
  the traced wall time exactly.
* A **timer** wrapper records call durations without joining the stack
  (round-trip times of calls whose inner frames are already spans).
* A **counter** wrapper only counts (frames and their encoded bytes).

Wrappers cost one attribute check while tracing is disabled, and they
are removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "SPAN_TARGETS", "TIMER_TARGETS"]

#: ``(span name, home module, attribute)`` of every boundary wrapped as a
#: span.  Only functions called at most ~10^4 times per run belong here:
#: ``RowRepairer.repair_block``, not the per-row ``repair_row``.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.digraph.to_csr", "repro.graphs.digraph", "WeightedDigraph.to_csr"),
    (
        "graphs.digraph.copy_without_out_edges",
        "repro.graphs.digraph",
        "WeightedDigraph.copy_without_out_edges",
    ),
    (
        "graphs.shortest_paths.blocked_multi_source_distances",
        "repro.graphs.shortest_paths",
        "blocked_multi_source_distances",
    ),
    (
        "graphs.shortest_paths.multi_source_distances",
        "repro.graphs.shortest_paths",
        "multi_source_distances",
    ),
    (
        "graphs.dynamic_sssp.repair_block",
        "repro.graphs.dynamic_sssp",
        "RowRepairer.repair_block",
    ),
    (
        "core.best_response.normalize_service_rows",
        "repro.core.best_response",
        "normalize_service_rows",
    ),
    (
        "core.best_response.best_response_from_service",
        "repro.core.best_response",
        "best_response_from_service",
    ),
    ("core.evaluator.gain_sweep", "repro.core.evaluator", "GameEvaluator.gain_sweep"),
    ("core.evaluator.set_profile", "repro.core.evaluator", "GameEvaluator.set_profile"),
    ("core.evaluator.peer_costs", "repro.core.evaluator", "GameEvaluator.peer_costs"),
    ("core.evaluator.social_cost", "repro.core.evaluator", "GameEvaluator.social_cost"),
    (
        "core.evaluator.strategy_rows_costs",
        "repro.core.evaluator",
        "GameEvaluator.strategy_rows_costs",
    ),
    ("core.dynamics.batch_responses", "repro.core.dynamics", "batch_responses"),
    ("core.dynamics.recheck_improvement", "repro.core.dynamics", "recheck_improvement"),
    ("core.transport.send_frame", "repro.core.transport", "send_frame"),
    ("core.transport.recv_frame", "repro.core.transport", "recv_frame"),
    ("service.state.apply_epoch", "repro.service.state", "ServiceState.apply_epoch"),
    ("service.state.subgame_matrix", "repro.service.state", "subgame_matrix"),
    ("service.journal.append", "repro.service.journal", "ServiceJournal.append"),
)

#: Round-trip timers: the frames inside these calls are spans already.
TIMER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.shard_workers.rebind", "repro.core.shard_workers", "ShardWorkerPool.rebind"),
    (
        "core.shard_workers.stretch_sums_all",
        "repro.core.shard_workers",
        "ShardWorkerPool.stretch_sums_all",
    ),
)


class Span:
    """One call into a layer: name, ns bounds, parent, child time."""

    __slots__ = ("name", "start", "end", "parent", "child_ns", "thread", "meta")

    def __init__(self, name: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0
        self.end = 0
        self.child_ns = 0
        self.meta = None

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Holds spans, timers and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.timers: Dict[str, List[int]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: Span name -> hook(span, args, result) run before the span
        #: closes (metadata such as source counts and request ids).
        self.hooks: Dict[str, Callable] = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                hook = tracer.hooks.get(name)
                if hook is not None:
                    hook(span, args, result)
                return result
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                tracer.spans.append(span)

        return traced

    def timer_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.timers[name].append(time.perf_counter_ns() - start)

        return timed

    def frame_counters(self, encode_frame: Callable, read_frame: Callable):
        """Counting stand-ins for the transport's frame codec entry points.

        ``encode_frame`` is what ``send_frame`` calls, so sent bytes are
        the encoded frame length; received bytes are counted at the
        ``read`` callable ``recv_frame`` hands to ``read_frame``.
        """
        tracer = self

        @functools.wraps(encode_frame)
        def counted_encode(value):
            frame = encode_frame(value)
            if tracer.enabled:
                tracer.counters["frames_sent"] += 1
                tracer.counters["bytes_sent"] += len(frame)
            return frame

        @functools.wraps(read_frame)
        def counted_read(read):
            if not tracer.enabled:
                return read_frame(read)

            def counting(count):
                chunk = read(count)
                tracer.counters["bytes_received"] += len(chunk)
                return chunk

            value = read_frame(counting)
            tracer.counters["frames_received"] += 1
            return value

        return counted_encode, counted_read

    def peak_probe(self, close: Callable) -> Callable:
        """Record an evaluator's peak store bytes as it closes.

        Service epochs build and close one evaluator each, and the
        service only keeps their counters summed, so the peak is read
        here.
        """
        tracer = self

        @functools.wraps(close)
        def probed(evaluator, *args, **kwargs):
            if tracer.enabled:
                peak = evaluator.stats.store_resident_peak_bytes
                if peak > tracer.counters["store_resident_peak_bytes"]:
                    tracer.counters["store_resident_peak_bytes"] = peak
            return close(evaluator, *args, **kwargs)

        return probed

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install_function(self, module_name: str, attr: str, make) -> int:
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        sites = 0
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, replacement)
                    sites += 1
        return sites

    def _install_method(self, module_name: str, attr: str, make) -> int:
        class_name, method = attr.split(".")
        root = getattr(sys.modules[module_name], class_name)
        sites = 0
        pending = [root]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if method in cls.__dict__:
                self._patch(cls, method, make(cls.__dict__[method]))
                sites += 1
        return sites

    def install(self) -> None:
        """Wrap every target at every import site.

        Every ``repro`` module the workload reaches must already be
        imported: a module imported later would keep the unwrapped name.
        """
        import repro.core.transport as transport

        targets = [(t, self.span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self.timer_wrapper) for t in TIMER_TARGETS]
        for (name, module_name, attr), kind in targets:
            make = functools.partial(kind, name)
            install = self._install_method if "." in attr else self._install_function
            if not install(module_name, attr, make):
                raise RuntimeError(f"no import site found for {module_name}.{attr}")
        encode, read = self.frame_counters(transport.encode_frame, transport.read_frame)
        self._install_function("repro.core.transport", "encode_frame", lambda _f: encode)
        self._install_function("repro.core.transport", "read_frame", lambda _f: read)
        self._install_method("repro.core.evaluator", "GameEvaluator.close", self.peak_probe)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------
    def by_name(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped

    def dump(self) -> List[list]:
        """Spans as ``[id, name, start_ns, end_ns, parent_id, thread, meta]``."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            [
                ids[id(span)],
                span.name,
                span.start,
                span.end,
                ids.get(id(span.parent)) if span.parent is not None else None,
                span.thread,
                span.meta,
            ]
            for span in self.spans
        ]
