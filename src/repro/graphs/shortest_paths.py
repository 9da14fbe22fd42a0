"""Shortest-path distances on weighted digraphs.

Two interchangeable backends compute Dijkstra distances:

* ``"pure"`` — a heap-based pure-Python implementation.  It is the reference
  implementation: dependency-free, easy to audit, and fast enough for the
  small graphs that dominate unit tests and exact equilibrium verification.
* ``"scipy"`` — ``scipy.sparse.csgraph.dijkstra`` on a CSR matrix.  It
  vectorizes multi-source queries, which is exactly the shape of the
  best-response computation (distances from *every* candidate first hop).

``backend="auto"`` picks pure Python for small graphs (where CSR conversion
overhead dominates) and scipy above :data:`AUTO_SCIPY_THRESHOLD` nodes.
The two backends are cross-validated by property-based tests.

Unreachable nodes get distance ``math.inf``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import WeightedDigraph

__all__ = [
    "AUTO_SCIPY_THRESHOLD",
    "BLOCK_CELL_BUDGET",
    "single_source_distances",
    "multi_source_distances",
    "blocked_multi_source_distances",
    "all_pairs_distances",
]

#: Node count at which ``backend="auto"`` switches from pure Python to scipy.
AUTO_SCIPY_THRESHOLD = 48

_BACKENDS = ("auto", "pure", "scipy")


def _validate_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")


def _resolve_backend(backend: str, num_nodes: int) -> str:
    if backend == "auto":
        return "scipy" if num_nodes >= AUTO_SCIPY_THRESHOLD else "pure"
    return backend


def _dijkstra_pure(graph: WeightedDigraph, source: int) -> np.ndarray:
    """Heap-based Dijkstra from ``source``; returns a dense distance row."""
    n = graph.num_nodes
    succ = graph._rows()
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    visited = [False] * n
    heap: List[tuple] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v, w in succ[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def _dijkstra_scipy(
    graph: WeightedDigraph, sources: Sequence[int]
) -> np.ndarray:
    """scipy csgraph Dijkstra from multiple sources; returns a matrix."""
    from scipy.sparse.csgraph import dijkstra

    result = dijkstra(
        graph._cached_csr(), directed=True, indices=list(sources)
    )
    return np.atleast_2d(np.asarray(result, dtype=float))


def single_source_distances(
    graph: WeightedDigraph, source: int, backend: str = "auto"
) -> np.ndarray:
    """Distances from ``source`` to every node (``inf`` when unreachable)."""
    _validate_backend(backend)
    if not 0 <= source < graph.num_nodes:
        raise IndexError(f"source {source} out of range")
    resolved = _resolve_backend(backend, graph.num_nodes)
    if resolved == "pure":
        return _dijkstra_pure(graph, source)
    return _dijkstra_scipy(graph, [source])[0]


def multi_source_distances(
    graph: WeightedDigraph,
    sources: Sequence[int],
    backend: str = "auto",
) -> np.ndarray:
    """Distance matrix ``D[k, j]`` from ``sources[k]`` to node ``j``.

    This is the workhorse of exact best response: for a responding peer the
    candidate first hops are (almost) all other peers, and the service cost
    of candidate ``u`` for target ``j`` needs ``d_H(u, j)`` for every pair.
    """
    _validate_backend(backend)
    for s in sources:
        if not 0 <= s < graph.num_nodes:
            raise IndexError(f"source {s} out of range")
    if len(sources) == 0:
        return np.zeros((0, graph.num_nodes))
    resolved = _resolve_backend(backend, graph.num_nodes)
    if resolved == "pure":
        return np.vstack([_dijkstra_pure(graph, s) for s in sources])
    return _dijkstra_scipy(graph, sources)


#: Upper bound on rows x columns of one blocked Dijkstra result matrix.
#: Chunks of :func:`blocked_multi_source_distances` are sized so the dense
#: scipy output stays below this many float64 cells (8 MB at 2**20).  The
#: output of a chunk of ``B`` blocks is dense over all ``n * B`` columns,
#: so every extra block inflates the result rows of every other block;
#: measured on n=128 service workloads, small chunks beat both one giant
#: call (quadratic fill cost) and fully solo calls (per-call overhead).
BLOCK_CELL_BUDGET = 2**20


def _block_chunks(jobs, budget: int):
    """Greedily split ``(graph, sources)`` jobs into budget-bounded chunks.

    A chunk of ``B`` blocks with ``S`` total sources produces a dense
    ``S x (n * B)`` scipy result; chunks grow while that stays within
    ``budget`` cells (every chunk holds at least one job regardless).
    """
    chunk: List[tuple] = []
    total_sources = 0
    total_cols = 0
    for job in jobs:
        graph, sources = job
        n = graph.num_nodes
        grown_sources = total_sources + len(sources)
        # The dense output spans every block's columns, so the column
        # total must sum each block's own node count (mixed-size jobs
        # would otherwise blow the budget silently).
        grown_cells = grown_sources * (total_cols + n)
        if chunk and grown_cells > budget:
            yield chunk
            chunk, total_sources, total_cols = [], 0, 0
        chunk.append(job)
        total_sources += len(sources)
        total_cols += n
    if chunk:
        yield chunk


def _block_diagonal(graphs: Sequence[WeightedDigraph]):
    """One block-diagonal CSR matrix of ``graphs``, by offset arithmetic.

    Block ``k``'s column indices shift by the node count of the blocks
    before it and its row pointers by their edge count; the weights and
    the order of entries within each row are the block's own.
    """
    from scipy.sparse import csr_matrix

    mats = [graph._cached_csr() for graph in graphs]
    indptr_parts, index_parts = [], []
    nodes = edges = 0
    for mat in mats:
        indptr_parts.append(mat.indptr[:-1] + edges)
        index_parts.append(mat.indices + nodes)
        nodes += mat.shape[0]
        edges += mat.nnz
    indptr_parts.append(np.array([edges], dtype=np.int32))
    return csr_matrix(
        (
            np.concatenate([mat.data for mat in mats]),
            np.concatenate(index_parts),
            np.concatenate(indptr_parts),
        ),
        shape=(nodes, nodes),
    )


def blocked_multi_source_distances(
    jobs: Sequence[tuple],
    backend: str = "auto",
    cell_budget: int = BLOCK_CELL_BUDGET,
) -> List[np.ndarray]:
    """Distance matrices for many ``(graph, sources)`` jobs at once.

    Stacks the job graphs into one block-diagonal CSR matrix and answers
    every job with a single :func:`scipy.sparse.csgraph.dijkstra` call per
    budget-bounded chunk.  Blocks share no edges, and scipy runs each
    source independently, so every returned matrix is bitwise identical
    to ``multi_source_distances(graph, sources, backend)`` on that job
    alone — batching changes call count, never values.  The backend is
    resolved against the *per-job* node count for exactly that reason:
    below :data:`AUTO_SCIPY_THRESHOLD` the per-job pure path is both
    faster and what the unbatched caller would have used.

    This is the primitive behind
    :meth:`repro.core.evaluator.GameEvaluator.batch_service_costs`: one
    scheduler round's worth of service-matrix builds and dirty-row
    repairs becomes a handful of scipy calls instead of one per peer.
    """
    _validate_backend(backend)
    if not jobs:
        return []
    for graph, sources in jobs:
        for s in sources:
            if not 0 <= s < graph.num_nodes:
                raise IndexError(f"source {s} out of range")
    # Resolve per job (not from jobs[0]): a mixed-size job list must give
    # each graph exactly the backend its unbatched call would have used.
    out: List[Optional[np.ndarray]] = [None] * len(jobs)
    blocked: List[Tuple[int, tuple]] = []
    for index, (graph, sources) in enumerate(jobs):
        if _resolve_backend(backend, graph.num_nodes) == "scipy":
            blocked.append((index, (graph, sources)))
        else:
            out[index] = multi_source_distances(
                graph, list(sources), backend="pure"
            )
    if len(blocked) == 1:  # a lone block gains nothing from stacking
        index, (graph, sources) = blocked.pop()
        out[index] = multi_source_distances(
            graph, list(sources), backend="scipy"
        )
    if blocked:
        from scipy.sparse.csgraph import dijkstra

        indices = iter([index for index, _job in blocked])
        for chunk in _block_chunks(
            [job for _index, job in blocked], cell_budget
        ):
            graphs = [graph for graph, _sources in chunk]
            offsets = np.cumsum([0] + [graph.num_nodes for graph in graphs])
            stacked_sources = np.concatenate(
                [
                    np.asarray(list(sources), dtype=np.intp) + offsets[k]
                    for k, (_graph, sources) in enumerate(chunk)
                ]
            )
            if stacked_sources.size == 0:
                for graph, _sources in chunk:
                    out[next(indices)] = np.zeros((0, graph.num_nodes))
                continue
            dist = dijkstra(
                _block_diagonal(graphs),
                directed=True,
                indices=stacked_sources,
            )
            dist = np.atleast_2d(np.asarray(dist, dtype=float))
            row = 0
            for k, (_graph, sources) in enumerate(chunk):
                num = len(sources)
                block = dist[row : row + num, offsets[k] : offsets[k + 1]]
                out[next(indices)] = np.ascontiguousarray(block)
                row += num
    return out


def all_pairs_distances(
    graph: WeightedDigraph, backend: str = "auto"
) -> np.ndarray:
    """All-pairs distance matrix ``D[i, j]`` (``inf`` when unreachable)."""
    _validate_backend(backend)
    n = graph.num_nodes
    if n == 0:
        return np.zeros((0, 0))
    return multi_source_distances(graph, list(range(n)), backend=backend)


def shortest_path(
    graph: WeightedDigraph, source: int, target: int
) -> Optional[List[int]]:
    """Return one shortest path ``[source, ..., target]`` or None.

    Used by diagnostics and the DOT/ASCII renderers; distances used by the
    cost model go through the dense routines above instead.
    """
    if not 0 <= source < graph.num_nodes:
        raise IndexError(f"source {source} out of range")
    if not 0 <= target < graph.num_nodes:
        raise IndexError(f"target {target} out of range")
    n = graph.num_nodes
    dist = [math.inf] * n
    prev = [-1] * n
    dist[source] = 0.0
    visited = [False] * n
    heap: List[tuple] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        if u == target:
            break
        for v, w in graph.successors(u).items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heappush(heap, (nd, v))
    if math.isinf(dist[target]):
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path
