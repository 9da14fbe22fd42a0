"""Reachability checks on weighted digraphs.

A strategy profile only has finite social cost when every peer can reach
every other peer over the overlay, so connectivity checks appear in cost
computation fast paths, equilibrium search pruning, and validation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Set

import numpy as np

from repro.graphs.digraph import WeightedDigraph

__all__ = [
    "reachable_from",
    "reverse_reachable",
    "is_strongly_connected",
    "all_pairs_reachable",
    "ReverseIndex",
]


def reachable_from(graph: WeightedDigraph, source: int) -> Set[int]:
    """Set of nodes reachable from ``source`` (including itself)."""
    if not 0 <= source < graph.num_nodes:
        raise IndexError(f"source {source} out of range")
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def reverse_reachable(graph: WeightedDigraph, target: int) -> Set[int]:
    """Set of nodes with a directed path *to* ``target`` (including it).

    A csgraph breadth-first search from ``target`` over the transpose of
    the graph's cached CSR.  The search runs on unit weights, so an edge
    of weight zero (coincident peers) is followed like any other.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    if not 0 <= target < graph.num_nodes:
        raise IndexError(f"target {target} out of range")
    csr = graph._cached_csr()
    structure = csr_matrix(
        (np.ones(csr.nnz), csr.indices, csr.indptr), shape=csr.shape
    )
    order = breadth_first_order(
        structure.T, target, directed=True, return_predecessors=False
    )
    return set(order.tolist())


def is_strongly_connected(graph: WeightedDigraph) -> bool:
    """True if every node reaches every other node.

    Checked with two BFS traversals (forward and on the reversed graph),
    which is sufficient for strong connectivity.
    """
    n = graph.num_nodes
    if n <= 1:
        return True
    if len(reachable_from(graph, 0)) != n:
        return False
    return len(reachable_from(graph.reversed(), 0)) == n


def all_pairs_reachable(graph: WeightedDigraph) -> bool:
    """Alias of :func:`is_strongly_connected`, named for the cost model.

    The social cost of a topology is finite exactly when this holds.
    """
    return is_strongly_connected(graph)


class ReverseIndex:
    """Maintained predecessor adjacency of a mutable overlay.

    Rebind invalidation needs "which sources reach the flipped peer?", and
    the dynamic-SSSP repairer needs "who are ``v``'s predecessors?".  Both
    used to rebuild a reversed adjacency from scratch — O(E) per rebind —
    even though a rebind only splices one node's out-edges.  This index
    keeps the reversed adjacency alive across rebinds: a splice costs
    O(degree change) and a reverse-reachability query walks only the edges
    of its answer set, so invalidation is O(affected edges).

    The index is only valid for the graph it was built from, updated via
    :meth:`splice` in lockstep with every mutation of that graph.
    """

    __slots__ = ("_num_nodes", "_preds")

    def __init__(self, graph: WeightedDigraph) -> None:
        n = graph.num_nodes
        self._num_nodes = n
        self._preds: List[Dict[int, float]] = [{} for _ in range(n)]
        for u, v, w in graph.edges():
            self._preds[v][u] = w

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the indexed graph."""
        return self._num_nodes

    def predecessors(self, v: int) -> Mapping[int, float]:
        """Read-only view of ``v``'s predecessor -> weight mapping."""
        return self._preds[v]

    def splice(
        self,
        peer: int,
        old_out: Mapping[int, float],
        new_out: Mapping[int, float],
    ) -> None:
        """Replace ``peer``'s out-edges: ``old_out`` -> ``new_out``."""
        preds = self._preds
        for target in old_out:
            if target not in new_out:
                preds[target].pop(peer, None)
        for target, weight in new_out.items():
            preds[target][peer] = weight

    def reverse_reachable(self, target: int) -> Set[int]:
        """Nodes with a directed path to ``target`` (including itself)."""
        preds = self._preds
        seen = {target}
        stack = [target]
        while stack:
            node = stack.pop()
            for u in preds[node]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen
