"""A compact weighted directed graph.

Nodes are the integers ``0..n-1``.  A graph holds up to two views of
the same edges: per-node successor dictionaries (what constructions,
mutations and the pure-Python algorithms walk) and a CSR matrix (what
scipy's csgraph routines read).  The CSR is built once per graph
version by :meth:`WeightedDigraph.to_csr`, cached on the graph, and
dropped by every mutator.

The game layer prices every move through ``H_i``, the overlay without
peer ``i``'s out-edges.  :meth:`WeightedDigraph.copy_without_out_edges`
makes it from the parent's CSR by cutting row ``i``'s slice out of the
arrays, with no walk over the edges in Python; the copy's successor
dictionaries are unpacked from its CSR only when a pure-Python consumer
asks for them.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["WeightedDigraph"]

Edge = Tuple[int, int, float]


class WeightedDigraph:
    """A directed graph on nodes ``0..n-1`` with float edge weights.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are implicit; only edges are stored.

    Notes
    -----
    Edge weights must be non-negative (they are metric distances in this
    library).  Adding an edge that already exists overwrites its weight.
    At least one of the two edge views (``_succ``, ``_csr``) is always
    present; a mutation materializes ``_succ`` and drops ``_csr``.
    """

    __slots__ = ("_num_nodes", "_succ", "_num_edges", "_csr")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = num_nodes
        self._succ: Optional[List[Dict[int, float]]] = [
            {} for _ in range(num_nodes)
        ]
        self._num_edges = 0
        self._csr = None

    def _rows(self) -> List[Dict[int, float]]:
        """The successor dictionaries, unpacked from the CSR on first use.

        Each row keeps its CSR entry order, which is the insertion order
        of the graph the CSR was built from.
        """
        succ = self._succ
        if succ is None:
            csr = self._csr
            bounds = csr.indptr.tolist()
            targets = csr.indices.tolist()
            weights = csr.data.tolist()
            succ = self._succ = [
                dict(zip(targets[start:end], weights[start:end]))
                for start, end in zip(bounds, bounds[1:])
            ]
        return succ

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges currently in the graph."""
        return self._num_edges

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedDigraph(num_nodes={self._num_nodes}, "
            f"num_edges={self._num_edges})"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._num_nodes:
            raise IndexError(f"node {u} out of range [0, {self._num_nodes})")

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add (or overwrite) the directed edge ``u -> v``."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if weight < 0:
            raise ValueError(f"edge weight must be >= 0, got {weight}")
        succ = self._rows()
        if v not in succ[u]:
            self._num_edges += 1
        succ[u][v] = float(weight)
        self._csr = None

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``u -> v`` (KeyError if absent)."""
        self._check_node(u)
        del self._rows()[u][v]
        self._num_edges -= 1
        self._csr = None

    def remove_out_edges(self, u: int) -> None:
        """Remove every out-edge of node ``u``."""
        self._check_node(u)
        succ = self._rows()
        self._num_edges -= len(succ[u])
        succ[u] = {}
        self._csr = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``u -> v`` exists."""
        self._check_node(u)
        return v in self._rows()[u]

    def weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``u -> v`` (KeyError if absent)."""
        self._check_node(u)
        return self._rows()[u][v]

    def successors(self, u: int) -> Mapping[int, float]:
        """Read-only view of ``u``'s successor -> weight mapping."""
        self._check_node(u)
        return self._rows()[u]

    def out_degree(self, u: int) -> int:
        """Number of out-edges of node ``u``."""
        self._check_node(u)
        return len(self._rows()[u])

    def in_degree(self, u: int) -> int:
        """Number of in-edges of node ``u`` (computed, O(E))."""
        self._check_node(u)
        return sum(1 for succ in self._rows() if u in succ)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(u, v, weight)`` triples."""
        for u, succ in enumerate(self._rows()):
            for v, w in succ.items():
                yield (u, v, w)

    # ------------------------------------------------------------------
    # Copies and converters
    # ------------------------------------------------------------------
    def _bare_copy(self, num_edges: int, csr) -> "WeightedDigraph":
        """A graph on the same nodes holding only the CSR view ``csr``."""
        clone = WeightedDigraph.__new__(WeightedDigraph)
        clone._num_nodes = self._num_nodes
        clone._succ = None
        clone._num_edges = num_edges
        clone._csr = csr
        return clone

    def copy(self) -> "WeightedDigraph":
        """Return an independent copy of the graph.

        The cached CSR, if any, is shared: its arrays are read-only and
        a mutation of either graph only drops that graph's reference.
        """
        clone = self._bare_copy(self._num_edges, self._csr)
        if self._succ is not None:
            clone._succ = [dict(succ) for succ in self._succ]
        return clone

    def copy_without_out_edges(self, u: int) -> "WeightedDigraph":
        """Copy of the graph with all out-edges of ``u`` removed.

        This is the graph ``H`` used by best-response computations: a
        shortest path from ``u`` never revisits ``u``, so distances from any
        first-hop candidate are evaluated in ``H``.  The copy is the
        parent's CSR with row ``u``'s slice cut out of the index and
        weight arrays (O(n + m) array work, no Python edge walk); its
        successor dictionaries are built only if something asks for them.
        """
        self._check_node(u)
        csr = self._cached_csr()
        start, end = int(csr.indptr[u]), int(csr.indptr[u + 1])
        indptr = csr.indptr.copy()
        indptr[u + 1 :] -= end - start
        indices = np.concatenate((csr.indices[:start], csr.indices[end:]))
        data = np.concatenate((csr.data[:start], csr.data[end:]))
        return self._bare_copy(
            len(indices), _frozen_csr(self._num_nodes, indptr, indices, data)
        )

    def reversed(self) -> "WeightedDigraph":
        """Return the graph with every edge direction flipped."""
        rev = WeightedDigraph(self._num_nodes)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        return rev

    def to_csr(self):
        """The graph as a ``scipy.sparse.csr_matrix`` for csgraph routines.

        Built once per graph version and cached until the next mutation.
        Row ``u`` lists ``u``'s successors in insertion order; an edge of
        weight zero (two peers at the same metric point) is a stored
        entry, so csgraph treats it as an edge.  The matrix is shared
        with copies of the graph, so its arrays are read-only.
        """
        csr = self._csr
        if csr is None:
            succ = self._succ
            n, m = self._num_nodes, self._num_edges
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(
                np.fromiter(map(len, succ), dtype=np.int32, count=n),
                out=indptr[1:],
            )
            indices = np.fromiter(
                chain.from_iterable(succ), dtype=np.int32, count=m
            )
            data = np.fromiter(
                chain.from_iterable(map(dict.values, succ)),
                dtype=np.float64,
                count=m,
            )
            csr = self._csr = _frozen_csr(n, indptr, indices, data)
        return csr

    def _cached_csr(self):
        """The CSR of this graph version, calling :meth:`to_csr` only on
        a miss: the graph package reads through here, so ``to_csr`` runs
        once per graph version."""
        csr = self._csr
        return csr if csr is not None else self.to_csr()

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` with ``weight`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._num_nodes))
        g.add_weighted_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[Edge]
    ) -> "WeightedDigraph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples."""
        graph = cls(num_nodes)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and self._rows() == other._rows()
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("WeightedDigraph is mutable and unhashable")


def _frozen_csr(n: int, indptr, indices, data):
    """An ``n x n`` CSR matrix over read-only int32/float64 arrays.

    int32 indices are what csgraph computes with, so its routines use
    the arrays as they are instead of converting them per call.
    """
    from scipy.sparse import csr_matrix

    for array in (indptr, indices, data):
        array.flags.writeable = False
    return csr_matrix((data, indices, indptr), shape=(n, n))
