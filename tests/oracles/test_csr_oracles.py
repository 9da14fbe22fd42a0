"""The CSR path against its oracles, bit for bit.

Random overlays carry zero-weight edges (coincident peers), rows with no
out-edges and weights whose float sums depend on association order
(``0.1 + 0.2 != 0.3``), at sizes on both sides of
:data:`AUTO_SCIPY_THRESHOLD`.  Properties:

* every ``copy_without_out_edges(i)`` has the edges of the dict-level
  ``H_i`` and gives the same distances, for every backend;
* every block of ``blocked_multi_source_distances`` equals the
  ``block_diag`` oracle's, down to a cell budget of 1;
* after random ``add_edge`` / ``remove_edge`` / ``remove_out_edges``
  sequences ``to_csr()`` holds exactly the current edges, and copies
  taken earlier keep theirs;
* CSR reverse reachability returns the oracle BFS's set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.graphs import (
    block_diag_distances,
    coo_csr,
    edge_set,
    reverse_reachable_bfs,
    without_out_edges,
)
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.reachability import reverse_reachable
from repro.graphs.shortest_paths import (
    AUTO_SCIPY_THRESHOLD,
    BLOCK_CELL_BUDGET,
    blocked_multi_source_distances,
    multi_source_distances,
)

#: Weights that make float sums order-sensitive, plus exact zeros.
_WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.5)

sizes = st.one_of(
    st.integers(1, 12),
    st.integers(AUTO_SCIPY_THRESHOLD - 3, AUTO_SCIPY_THRESHOLD + 12),
)
seeds = st.integers(0, 2**32 - 1)
backends = st.sampled_from(["auto", "pure", "scipy"])


def _overlay(n: int, seed: int) -> WeightedDigraph:
    """Random out-degrees 0..4, about a fifth of the rows left empty."""
    rng = np.random.default_rng(seed)
    graph = WeightedDigraph(n)
    for u in range(n):
        if rng.random() < 0.2:
            continue
        for v in rng.integers(0, n, size=int(rng.integers(0, 5))):
            if v != u:
                if rng.random() < 0.5:
                    weight = float(rng.choice(_WEIGHTS))
                else:
                    weight = float(rng.random())
                graph.add_edge(u, int(v), weight)
    return graph


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestMaskedCopy:
    @given(n=sizes, seed=seeds, pick=st.integers(0, 10**6), backend=backends)
    def test_distances_match_dict_copy(self, n, seed, pick, backend):
        graph = _overlay(n, seed)
        peer = pick % n
        masked = graph.copy_without_out_edges(peer)
        oracle = without_out_edges(graph, peer)
        assert edge_set(masked.to_csr()) == edge_set(coo_csr(oracle))
        assert masked == oracle
        sources = list(range(n))
        got = multi_source_distances(masked, sources, backend=backend)
        want = block_diag_distances([(oracle, sources)], backend)[0]
        _assert_bitwise(got, want)

    @given(
        n=sizes, seed=seeds, picks=st.lists(st.integers(0, 10**6), max_size=3)
    )
    def test_masks_compose(self, n, seed, picks):
        graph = _overlay(n, seed)
        masked, oracle = graph, graph
        for pick in picks:
            masked = masked.copy_without_out_edges(pick % n)
            oracle = without_out_edges(oracle, pick % n)
        assert masked == oracle
        assert masked.num_edges == oracle.num_edges
        assert edge_set(masked.to_csr()) == edge_set(coo_csr(oracle))

    def test_zero_weight_edges_are_kept(self):
        graph = WeightedDigraph.from_edges(
            3, [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 1.0)]
        )
        masked = graph.copy_without_out_edges(2)
        assert masked.to_csr().nnz == 2
        dist = multi_source_distances(masked, [0], backend="scipy")
        np.testing.assert_array_equal(dist, [[0.0, 0.0, 0.0]])


class TestBlockedDistances:
    @settings(max_examples=60)
    @given(
        job_sizes=st.lists(sizes, min_size=1, max_size=5),
        seed=seeds,
        budget=st.sampled_from([1, 64, 4096, BLOCK_CELL_BUDGET]),
        backend=backends,
    )
    def test_blocks_match_block_diag_oracle(
        self, job_sizes, seed, budget, backend
    ):
        rng = np.random.default_rng(seed)
        jobs, oracle_jobs = [], []
        for k, n in enumerate(job_sizes):
            graph = _overlay(n, seed + k)
            peer = int(rng.integers(n))
            count = int(rng.integers(0, n + 1))
            sources = sorted(
                int(s) for s in rng.choice(n, size=count, replace=False)
            )
            jobs.append((graph.copy_without_out_edges(peer), sources))
            oracle_jobs.append((without_out_edges(graph, peer), sources))
        got = blocked_multi_source_distances(
            jobs, backend=backend, cell_budget=budget
        )
        want = block_diag_distances(oracle_jobs, backend, cell_budget=budget)
        assert len(got) == len(want)
        for block, expected in zip(got, want):
            _assert_bitwise(block, expected)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "clear", "copy", "mask", "csr"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(_WEIGHTS),
    ),
    max_size=40,
)


class TestMutations:
    @given(n=st.integers(2, 20), seed=seeds, ops=_OPS)
    def test_csr_tracks_mutations_and_copies_stay_put(self, n, seed, ops):
        graph = _overlay(n, seed)
        model = {u: dict(graph.successors(u)) for u in range(n)}

        def model_edges(skip=-1):
            return {
                (u, v, w)
                for u, row in model.items()
                if u != skip
                for v, w in row.items()
            }

        snapshots = []
        for op, a, b, weight in ops:
            u, v = a % n, b % n
            if op == "add" and u != v:
                graph.add_edge(u, v, weight)
                model[u][v] = weight
            elif op == "remove" and v in model[u]:
                graph.remove_edge(u, v)
                del model[u][v]
            elif op == "clear":
                graph.remove_out_edges(u)
                model[u] = {}
            elif op == "copy":
                snapshots.append((graph.copy(), model_edges()))
            elif op == "mask":
                masked = graph.copy_without_out_edges(u)
                snapshots.append((masked, model_edges(skip=u)))
            elif op == "csr":
                graph.to_csr()  # cache it, so the next mutation must drop it
            fresh = WeightedDigraph.from_edges(n, model_edges())
            assert edge_set(graph.to_csr()) == edge_set(coo_csr(fresh))
            assert graph.num_edges == len(model_edges())
        for copy, expected in snapshots:
            assert edge_set(copy.to_csr()) == expected
            assert set(copy.edges()) == expected

    def test_mutating_a_copy_leaves_the_shared_csr_alone(self):
        graph = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        csr = graph.to_csr()
        clone = graph.copy()
        clone.add_edge(2, 0, 3.0)
        assert graph.to_csr() is csr
        assert edge_set(csr) == {(0, 1, 1.0), (1, 2, 2.0)}
        assert edge_set(clone.to_csr()) == {
            (0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)
        }

    def test_cached_arrays_are_read_only(self):
        csr = WeightedDigraph.from_edges(2, [(0, 1, 1.0)]).to_csr()
        with pytest.raises(ValueError):
            csr.data[0] = 5.0


class TestReverseReachability:
    @given(n=sizes, seed=seeds, pick=st.integers(0, 10**6))
    def test_matches_python_bfs(self, n, seed, pick):
        graph = _overlay(n, seed)
        target = pick % n
        assert reverse_reachable(graph, target) == reverse_reachable_bfs(
            graph, target
        )
        masked = graph.copy_without_out_edges(target)
        assert reverse_reachable(masked, target) == reverse_reachable_bfs(
            masked, target
        )

    def test_zero_weight_edges_count(self):
        graph = WeightedDigraph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])
        assert reverse_reachable(graph, 2) == {0, 1, 2}
