"""Tests for the graph families in :mod:`repro.graphs.generators`."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs.build import from_edges, from_networkx
from repro.graphs.properties import is_bipartite, is_connected
from repro.graphs.spectral import adjacency_matrix, lambda_second


class TestComplete:
    def test_structure(self):
        graph = generators.complete(6)
        assert graph.n_vertices == 6
        assert graph.n_edges == 15
        assert graph.regular_degree == 5

    def test_minimum_size(self):
        with pytest.raises(GraphConstructionError):
            generators.complete(1)


class TestCycleAndPath:
    def test_cycle(self):
        graph = generators.cycle(7)
        assert graph.regular_degree == 2
        assert graph.n_edges == 7
        assert is_connected(graph)

    def test_cycle_parity_bipartiteness(self):
        assert is_bipartite(generators.cycle(8))
        assert not is_bipartite(generators.cycle(9))

    def test_cycle_min_size(self):
        with pytest.raises(GraphConstructionError):
            generators.cycle(2)

    def test_path(self):
        graph = generators.path(5)
        assert graph.n_edges == 4
        assert graph.degree(0) == 1
        assert graph.degree(2) == 2

    def test_star(self):
        graph = generators.star(6)
        assert graph.degree(0) == 5
        assert all(graph.degree(leaf) == 1 for leaf in range(1, 6))


class TestCompleteBipartite:
    def test_structure(self):
        graph = generators.complete_bipartite(2, 3)
        assert graph.n_vertices == 5
        assert graph.n_edges == 6
        assert is_bipartite(graph)

    def test_regular_iff_balanced(self):
        assert generators.complete_bipartite(3, 3).is_regular
        assert not generators.complete_bipartite(2, 3).is_regular


class TestPetersen:
    def test_structure(self):
        graph = generators.petersen()
        assert graph.n_vertices == 10
        assert graph.n_edges == 15
        assert graph.regular_degree == 3
        assert is_connected(graph)
        assert not is_bipartite(graph)

    def test_no_triangles(self):
        graph = generators.petersen()
        for u in range(10):
            for v in graph.neighbors(u):
                for w in graph.neighbors(int(v)):
                    if w != u:
                        assert not graph.has_edge(u, int(w))


class TestHypercube:
    def test_structure(self):
        graph = generators.hypercube(4)
        assert graph.n_vertices == 16
        assert graph.regular_degree == 4
        assert graph.n_edges == 32
        assert is_bipartite(graph)
        assert is_connected(graph)

    def test_adjacency_is_bit_flips(self):
        graph = generators.hypercube(3)
        for u in range(8):
            for v in graph.neighbors(u):
                assert bin(u ^ int(v)).count("1") == 1

    def test_min_dimension(self):
        with pytest.raises(GraphConstructionError):
            generators.hypercube(0)


class TestTorus:
    def test_2d(self):
        graph = generators.torus((4, 5))
        assert graph.n_vertices == 20
        assert graph.regular_degree == 4
        assert is_connected(graph)

    def test_3d(self):
        graph = generators.torus((3, 3, 3))
        assert graph.n_vertices == 27
        assert graph.regular_degree == 6

    def test_1d_is_cycle(self):
        torus = generators.torus((7,))
        cycle = generators.cycle(7)
        assert torus.n_edges == cycle.n_edges
        assert torus.regular_degree == 2

    def test_odd_sides_not_bipartite(self):
        assert not is_bipartite(generators.torus((5, 5)))

    def test_even_sides_bipartite(self):
        assert is_bipartite(generators.torus((4, 4)))

    def test_rejects_side_two(self):
        with pytest.raises(GraphConstructionError, match=">= 3"):
            generators.torus((2, 5))


class TestGrid:
    def test_structure(self):
        graph = generators.grid((3, 4))
        assert graph.n_vertices == 12
        assert graph.n_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert is_connected(graph)
        assert not graph.is_regular

    def test_corner_degree(self):
        graph = generators.grid((3, 3))
        assert graph.degree(0) == 2
        assert graph.degree(4) == 4  # centre


class TestCirculant:
    def test_degree(self):
        graph = generators.circulant(10, (1, 2))
        assert graph.regular_degree == 4

    def test_half_offset_gives_matching(self):
        graph = generators.circulant(10, (1, 5))
        assert graph.regular_degree == 3

    def test_connected(self):
        assert is_connected(generators.circulant(12, (1, 3)))

    def test_rejects_bad_offsets(self):
        with pytest.raises(GraphConstructionError, match="offsets"):
            generators.circulant(10, (6,))
        with pytest.raises(GraphConstructionError, match="offsets"):
            generators.circulant(10, (0,))

    def test_cycle_equivalence(self):
        assert generators.circulant(9, (1,)).n_edges == generators.cycle(9).n_edges


class TestClosedFormCsr:
    """complete/cycle/path/star build CSR directly, identical to the edge-list path."""

    @pytest.mark.parametrize(
        "family,edges",
        [
            ("complete", lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]),
            ("cycle", lambda n: [(u, (u + 1) % n) for u in range(n)]),
            ("path", lambda n: [(u, u + 1) for u in range(n - 1)]),
            ("star", lambda n: [(0, leaf) for leaf in range(1, n)]),
        ],
    )
    @pytest.mark.parametrize("n", [3, 4, 9, 64])
    def test_bit_identical_to_from_edges(self, family, edges, n):
        graph = getattr(generators, family)(n)
        reference = from_edges(n, edges(n), name=f"{family}(n={n})")
        assert graph.name == reference.name
        for mine, theirs in ((graph.indptr, reference.indptr), (graph.indices, reference.indices)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("family", ["complete", "path", "star"])
    def test_two_vertices(self, family):
        graph = getattr(generators, family)(2)
        assert graph.n_edges == 1 and graph.has_edge(0, 1)


def _triangles(graph) -> float:
    adjacency = adjacency_matrix(graph, sparse=True)
    return float((adjacency @ adjacency).multiply(adjacency).sum() / 6)


class TestRandomRegular:
    def test_structure(self):
        graph = generators.random_regular(50, 3, seed=0)
        assert graph.n_vertices == 50
        assert graph.regular_degree == 3
        assert is_connected(graph)

    @pytest.mark.parametrize("r", [3, 8, 32, 62, 63])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simple_regular_connected(self, r, seed):
        # r > n/2 (62, 63) goes through the complement sampler.
        graph = generators.random_regular(64, r, seed=seed)
        sources = np.repeat(np.arange(64), graph.degrees)
        keys = sources * 64 + graph.indices
        assert graph.n_vertices == 64
        assert graph.regular_degree == r
        assert not np.any(sources == graph.indices)
        assert np.unique(keys).size == keys.size
        assert is_connected(graph)

    def test_deterministic_given_seed(self):
        a = generators.random_regular(30, 4, seed=5)
        b = generators.random_regular(30, 4, seed=5)
        assert a == b
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_usually_differ(self):
        a = generators.random_regular(30, 4, seed=1)
        b = generators.random_regular(30, 4, seed=2)
        assert a != b

    def test_parity_rejected(self):
        with pytest.raises(GraphConstructionError, match="even"):
            generators.random_regular(7, 3)
        with pytest.raises(GraphConstructionError, match="even"):
            generators.random_regular(9, 5)

    def test_degree_bounds(self):
        for n, r in ((5, 5), (6, 7), (6, 0)):
            with pytest.raises(GraphConstructionError):
                generators.random_regular(n, r)

    def test_builds_without_networkx_or_stdlib_random(self, monkeypatch):
        expected = generators.random_regular(128, 5, seed=3)
        monkeypatch.setitem(sys.modules, "networkx", None)
        monkeypatch.setitem(sys.modules, "random", None)
        assert generators.random_regular(128, 5, seed=3) == expected
        assert generators.random_regular(40, 30, seed=3).regular_degree == 30

    def test_matches_networkx_sampler_in_distribution(self):
        """Mean λ and mean triangle count over 200 seeds at rr(200, 4) agree
        with networkx's pairing sampler within 4 standard errors."""
        nx = pytest.importorskip("networkx")
        ours, theirs = [], []
        for seed in range(200):
            graph = generators.random_regular(200, 4, seed=seed)
            ours.append((lambda_second(graph), _triangles(graph)))
            nx_seed = seed
            sample = nx.random_regular_graph(4, 200, seed=nx_seed)
            while not nx.is_connected(sample):  # ours is conditioned on connectivity
                nx_seed += 10_000
                sample = nx.random_regular_graph(4, 200, seed=nx_seed)
            reference = from_networkx(sample)
            theirs.append((lambda_second(reference), _triangles(reference)))
        ours_array, theirs_array = np.array(ours), np.array(theirs)
        standard_error = np.sqrt(
            ours_array.var(axis=0, ddof=1) / 200 + theirs_array.var(axis=0, ddof=1) / 200
        )
        gap = np.abs(ours_array.mean(axis=0) - theirs_array.mean(axis=0))
        assert np.all(gap < 4 * standard_error), (gap, standard_error)


class TestRingOfCliques:
    def test_structure(self):
        graph = generators.ring_of_cliques(4, 5)
        assert graph.n_vertices == 20
        assert is_connected(graph)
        # Each clique contributes C(5,2)=10 edges plus one bridge.
        assert graph.n_edges == 4 * 10 + 4

    def test_min_cliques(self):
        with pytest.raises(GraphConstructionError):
            generators.ring_of_cliques(2, 3)


class TestBarbell:
    def test_structure(self):
        graph = generators.barbell(4, 2)
        assert graph.n_vertices == 10
        assert is_connected(graph)
        assert graph.n_edges == 2 * 6 + 3

    def test_no_path(self):
        graph = generators.barbell(3, 0)
        assert graph.n_vertices == 6
        assert graph.has_edge(0, 3)


class TestBinaryTree:
    def test_structure(self):
        graph = generators.binary_tree(3)
        assert graph.n_vertices == 15
        assert graph.n_edges == 14
        assert is_connected(graph)
        assert is_bipartite(graph)

    def test_leaf_degrees(self):
        graph = generators.binary_tree(2)
        assert graph.degree(0) == 2
        assert all(graph.degree(leaf) == 1 for leaf in range(3, 7))


class TestErdosRenyi:
    def test_edge_count_concentration(self):
        graph = generators.erdos_renyi(100, 0.3, seed=1)
        expected = 0.3 * 100 * 99 / 2
        assert abs(graph.n_edges - expected) < 5 * np.sqrt(expected)

    def test_p_zero_and_one(self):
        assert generators.erdos_renyi(10, 0.0, seed=0).n_edges == 0
        assert generators.erdos_renyi(10, 1.0, seed=0).n_edges == 45

    def test_connected_flag(self):
        graph = generators.erdos_renyi(40, 0.3, seed=2, connected=True)
        assert is_connected(graph)

    def test_invalid_p(self):
        with pytest.raises(GraphConstructionError, match="\\[0, 1\\]"):
            generators.erdos_renyi(10, 1.5)
