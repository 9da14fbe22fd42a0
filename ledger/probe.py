"""Host-speed probe: a fixed piece of reference work timed between operations.

The 2-vCPU hosts the ledger runs on change speed by 1.4-1.9x for seconds
to minutes at a time: their cores run slower (CPU time stretches as much
as wall time) and the hypervisor steals time.  The probe is a heap-based
Dijkstra in pure Python on a fixed graph, work no change to the program
can alter.  Workloads run it between measured operations, outside the
measured region, so that it samples the host throughout a run.  The
report's host factor is the run's mean probe time over
:data:`NOMINAL_S`, divided by one minus the :func:`stolen_share` of
:func:`cpu_ticks` deltas taken around the measured region.

Pure-Python graph search was chosen by calibration: with the sweep and
churn-socket workloads repeating fixed work while the host's speed
varied 1.6-1.9x, their time moved with this probe's CPU time with a
log-log slope of 0.93 and 1.01 (correlation 0.96), while a NumPy min-plus
product, a SciPy ``csgraph`` Dijkstra and a plain Python loop slowed
only 1/1.2-1/1.6 as much as the program did.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Dict, List, Tuple

__all__ = ["NOMINAL_S", "HostProbe", "cpu_ticks", "stolen_share"]

#: Probe time on an unloaded host of the class the ledger was tuned on
#: (2 vCPUs of a 2.1 GHz Xeon): a host factor of 1.0.
NOMINAL_S = 0.008
#: Graph size and search sources of one probe.
_NODES = 300
_SOURCES = range(0, _NODES, 14)


class HostProbe:
    """Times one fixed unit of reference work per :meth:`sample` call."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {
            u: [(rng.randrange(_NODES), rng.random()) for _ in range(5)] for u in range(_NODES)
        }

    def _work(self) -> float:
        total = 0.0
        for source in _SOURCES:
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in self._adjacency[u]:
                    if d + w < dist.get(v, math.inf):
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            total += sum(dist.values())
        return total

    def sample(self) -> float:
        """Run the reference work once; returns the CPU time it took.

        CPU time of the calling thread, not wall time: a service thread
        finishing an epoch, or a shard server, may hold the interpreter
        lock or the core for part of the probe, and that wait says
        nothing about the host's speed.  Stolen time is read separately
        (:func:`cpu_ticks`).
        """
        start = time.thread_time()
        self._work()
        return time.thread_time() - start


def cpu_ticks() -> List[Tuple[int, int]]:
    """``(stolen, busy)`` clock ticks of each CPU since boot.

    ``busy`` counts the ticks a CPU ran (user, system, interrupts);
    ``stolen`` those it wanted to run but the hypervisor gave to other
    guests.  Empty where ``/proc/stat`` is missing.
    """
    ticks = []
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                name, *values = line.split()
                if not name.startswith("cpu"):
                    break
                if name == "cpu":
                    continue
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, values[:8])
                ticks.append((steal, user + nice + system + irq + softirq))
    except (OSError, ValueError):
        return []
    return ticks


def stolen_share(intervals: List[List[Tuple[int, int]]]) -> float:
    """Share of the busy CPUs' time stolen over ``intervals``.

    Each interval holds the per-CPU ``(stolen, busy)`` tick deltas of
    :func:`cpu_ticks`.  A CPU's share is stolen / (busy + stolen), and
    CPUs are weighted by their busy ticks: an idle vCPU accrues stolen
    ticks on its wake-ups (1-2 a second on the hosts the ledger was tuned
    on, with almost no busy ticks), which would otherwise count against
    the CPU doing the work.
    """
    weighted = busy_total = 0.0
    for interval in intervals:
        for stolen, busy in interval:
            if busy + stolen:
                weighted += busy * stolen / (busy + stolen)
                busy_total += busy
    return weighted / busy_total if busy_total else 0.0
