"""Oracles for the graph layer's CSR path.

These are the constructions the array-native overlay replaced, kept
as references that the properties in ``test_csr_oracles.py`` pin the
production path against:

* :func:`coo_csr` builds a graph's CSR from Python lists of edge
  triples through scipy's COO constructor (columns sorted per row).
* :func:`without_out_edges` builds ``H_i`` as a dictionary-level copy
  with row ``i`` left out.
* :func:`block_diag_distances` answers blocked multi-source Dijkstra
  jobs with chunks stacked by :func:`scipy.sparse.block_diag`.
* :func:`reverse_reachable_bfs` finds the nodes that reach a target
  with a Python BFS over a predecessor list built from every edge.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np
from scipy.sparse import block_diag, csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.graphs.digraph import WeightedDigraph
from repro.graphs.shortest_paths import (
    AUTO_SCIPY_THRESHOLD,
    BLOCK_CELL_BUDGET,
    _block_chunks,
    multi_source_distances,
)


def coo_csr(graph: WeightedDigraph) -> csr_matrix:
    """The graph's CSR, from list-built COO triples."""
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for u, v, w in graph.edges():
        rows.append(u)
        cols.append(v)
        data.append(w)
    n = graph.num_nodes
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def without_out_edges(graph: WeightedDigraph, peer: int) -> WeightedDigraph:
    """``H_peer`` rebuilt edge by edge from ``graph``'s successor maps."""
    return WeightedDigraph.from_edges(
        graph.num_nodes,
        [(u, v, w) for u, v, w in graph.edges() if u != peer],
    )


def edge_set(csr) -> Set[tuple]:
    """``{(row, col, weight)}`` of a CSR's stored entries (zeros included)."""
    indptr = csr.indptr.tolist()
    cols = csr.indices.tolist()
    weights = csr.data.tolist()
    return {
        (row, cols[k], weights[k])
        for row in range(csr.shape[0])
        for k in range(indptr[row], indptr[row + 1])
    }


def block_diag_distances(
    jobs: Sequence[tuple],
    backend: str = "auto",
    cell_budget: int = BLOCK_CELL_BUDGET,
) -> List[np.ndarray]:
    """Blocked multi-source Dijkstra over ``block_diag``-stacked chunks.

    Jobs below :data:`AUTO_SCIPY_THRESHOLD` nodes under ``"auto"`` (and
    all jobs under ``"pure"``) run the pure-Python Dijkstra one by one;
    the rest are stacked per budget-bounded chunk, COO-built CSR blocks
    joined by :func:`scipy.sparse.block_diag`.
    """
    out: List = [None] * len(jobs)
    stacked = []
    for index, (graph, sources) in enumerate(jobs):
        scipy_job = backend == "scipy" or (
            backend == "auto" and graph.num_nodes >= AUTO_SCIPY_THRESHOLD
        )
        if scipy_job:
            stacked.append(index)
        else:
            out[index] = multi_source_distances(
                graph, list(sources), backend="pure"
            )
    order = iter(stacked)
    for chunk in _block_chunks([jobs[i] for i in stacked], cell_budget):
        mats = [coo_csr(graph) for graph, _sources in chunk]
        offsets = np.cumsum([0] + [m.shape[0] for m in mats])
        sources = np.concatenate(
            [
                np.asarray(list(job_sources), dtype=np.intp) + offsets[k]
                for k, (_graph, job_sources) in enumerate(chunk)
            ]
        )
        if sources.size == 0:
            for graph, _sources in chunk:
                out[next(order)] = np.zeros((0, graph.num_nodes))
            continue
        dist = dijkstra(
            block_diag(mats, format="csr"), directed=True, indices=sources
        )
        dist = np.atleast_2d(np.asarray(dist, dtype=float))
        row = 0
        for k, (_graph, job_sources) in enumerate(chunk):
            num = len(job_sources)
            block = dist[row : row + num, offsets[k] : offsets[k + 1]]
            out[next(order)] = np.ascontiguousarray(block)
            row += num
    return out


def reverse_reachable_bfs(graph: WeightedDigraph, target: int) -> Set[int]:
    """All nodes with a path *to* ``target`` (including ``target``)."""
    preds: List[List[int]] = [[] for _ in range(graph.num_nodes)]
    for u, v, _w in graph.edges():
        preds[v].append(u)
    seen = {target}
    frontier = [target]
    while frontier:
        node = frontier.pop()
        for u in preds[node]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen
