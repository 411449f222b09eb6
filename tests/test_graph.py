"""Bitmask graph core: constructors, set operations, builders."""

import random
import tracemalloc

import pytest

from bindex.codec import edge_list_decode, graph6_decode, graph6_encode
from bindex.constructions import (
    bipartite_extremal_D,
    bipartite_extremal_K,
    family_general,
    general_extremal,
)
from bindex.graph import (
    BipartitionSpec,
    DomainError,
    Graph,
    bits,
    complete,
    complete_bipartite,
    disjoint_union,
    double_nested,
    join,
    mask_of,
    vertices_of,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(0, [])
    with pytest.raises(DomainError):
        Graph(4097, [0] * 4097)
    with pytest.raises(DomainError):
        Graph(1, [1])  # self-loop
    with pytest.raises(DomainError):
        Graph(2, [0b10, 0])  # asymmetric
    with pytest.raises(DomainError):
        Graph(2, [0b100, 0])  # bit past n
    with pytest.raises(DomainError):
        Graph(3, [0, 0])  # length mismatch


def test_from_edges_validation():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 3)])
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
    assert g.edge_count() == 2  # duplicate edge collapses


def test_neighborhood():
    p3 = path(3)
    assert p3.neighborhood(0b101) == 0b010
    assert p3.neighborhood(0b010) == 0b101
    c5 = cycle(5)
    assert c5.neighborhood(mask_of([0, 2])) == mask_of([1, 3, 4])
    assert c5.neighborhood(0) == 0


def test_degree_edges_has_edge():
    c5 = cycle(5)
    assert [c5.degree(v) for v in range(5)] == [2] * 5
    assert sorted(c5.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert c5.has_edge(0, 4) and not c5.has_edge(0, 2)


def test_independence():
    c5 = cycle(5)
    assert c5.is_independent(mask_of([0, 2]))
    assert not c5.is_independent(mask_of([0, 1]))
    assert c5.is_independent(0)
    k3 = complete(3)
    for s in (0b011, 0b101, 0b110, 0b111):
        assert not k3.is_independent(s)


def test_components_and_connectivity():
    g = disjoint_union(complete(3), complete(2))
    assert g.components() == [0b111, 0b11000]
    assert not g.is_connected()
    assert cycle(4).is_connected()
    assert g.isolated_vertices() == 0
    h = disjoint_union(complete(1), complete(2))
    assert h.isolated_vertices() == 0b001
    two = disjoint_union(complete(1), complete(1))
    assert two.n == 2 and two.edge_count() == 0
    # (r+1)K_1 by folding, r = 2
    k1s = disjoint_union(two, complete(1))
    assert k1s.isolated_vertices() == 0b111
    assert k1s.components() == [0b001, 0b010, 0b100]


def test_bipartition():
    x, y = complete_bipartite(7, 2).bipartition()
    assert x == (1 << 7) - 1 and y == 0b11 << 7
    assert cycle(5).bipartition() is None
    assert complete(3).bipartition() is None
    x, y = disjoint_union(path(2), path(2)).bipartition()
    assert x == 0b0101 and y == 0b1010  # least vertex of each component in X


def test_complete_builders():
    k4 = complete(4)
    assert k4.edge_count() == 6 and all(k4.degree(v) == 3 for v in range(4))
    k72 = complete_bipartite(7, 2)
    assert k72.edge_count() == 14
    assert complete_bipartite(1, 1) == complete(2)
    assert k4.is_complete() and complete(1).is_complete()
    assert complete_bipartite(1, 1).is_complete()
    assert not k72.is_complete() and not cycle(4).is_complete()
    assert not disjoint_union(complete(1), complete(1)).is_complete()
    with pytest.raises(DomainError):
        complete(0)
    with pytest.raises(DomainError):
        complete_bipartite(0, 3)


def test_join_shapes():
    assert join(complete(1), complete(1)) == complete(2)
    g = join(complete(1), disjoint_union(complete(2), complete(1)))
    assert g.n == 4 and g.edge_count() == 4
    assert join(complete(2), complete(3)) == complete(5)


def test_join_edge_count_random():
    rng = random.Random(1009)
    for _ in range(50):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        g1 = Graph(n1, _random_adj(rng, n1))
        g2 = Graph(n2, _random_adj(rng, n2))
        j = join(g1, g2)
        assert j.edge_count() == g1.edge_count() + g2.edge_count() + n1 * n2


def _random_adj(rng, n):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def test_bipartition_spec_validation():
    with pytest.raises(DomainError):
        BipartitionSpec((), ())
    with pytest.raises(DomainError):
        BipartitionSpec((2, 1), (3,))
    with pytest.raises(DomainError):
        BipartitionSpec((2, 0), (1, 1))
    spec = BipartitionSpec((2, 3), (1, 2))
    assert spec.h == 2 and spec.p == 5 and spec.q == 3 and spec.n == 8
    assert spec.blocks() == (0b11, 0b11100, 0b100000, 0b11000000)


def test_double_nested_small():
    g = double_nested(BipartitionSpec((2, 3), (1, 2)))
    assert g.n == 8 and g.edge_count() == 9
    # first X block sees both Y blocks, second only the first Y block
    assert g.adj[0] == mask_of([5, 6, 7])
    assert g.adj[2] == mask_of([5])
    assert g.bipartition() is not None
    assert g.is_connected()
    g2 = double_nested(BipartitionSpec((4, 3), (1, 3)))
    assert g2.n == 11 and g2.edge_count() == 19


def test_double_nested_edge_sum_random():
    rng = random.Random(7)
    for _ in range(100):
        h = rng.randint(1, 3)
        ps = tuple(rng.randint(1, 3) for _ in range(h))
        qs = tuple(rng.randint(1, 3) for _ in range(h))
        g = double_nested(BipartitionSpec(ps, qs))
        want = sum(ps[i] * sum(qs[: h - i]) for i in range(h))
        assert g.edge_count() == want
        assert g.bipartition() is not None


def test_graph_equality_and_hash():
    assert cycle(4) == cycle(4)
    assert cycle(4) != path(4)
    assert len({cycle(4), cycle(4), path(4)}) == 2


def _revalidates(g):
    """The public, fully checked constructor accepts g's adjacency as is."""
    return Graph(g.n, list(g.adj)) == g


def _construction_grid():
    for r in range(1, 4):
        for n in range(r + 3, 21):
            yield bipartite_extremal_K(n, r).graph
            if n >= r + 4:
                yield general_extremal(n, r).graph
            for t1 in range(2, (n - 3) // (r + 1) + 1):
                yield family_general(n, r, t1).graph
            if n >= r + 5:
                yield bipartite_extremal_D(n, r, "ceil").graph
                yield bipartite_extremal_D(n, r, "floor").graph


def test_builders_pass_public_validation():
    # the builders skip the per-edge checks; their output must not need them
    grid = list(_construction_grid())
    assert len(grid) > 250
    for g in grid:
        assert _revalidates(g)
    for n in range(1, 21):
        assert _revalidates(complete(n))
        for q in range(1, 21 - n):
            assert _revalidates(complete_bipartite(n, q))
    rng = random.Random(2029)
    for _ in range(200):
        h = rng.randint(1, 4)
        spec = BipartitionSpec(
            tuple(rng.randint(1, 4) for _ in range(h)),
            tuple(rng.randint(1, 4) for _ in range(h)),
        )
        assert _revalidates(double_nested(spec))
    for _ in range(100):
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        g1, g2 = Graph(n1, _random_adj(rng, n1)), Graph(n2, _random_adj(rng, n2))
        assert _revalidates(join(g1, g2))
        assert _revalidates(disjoint_union(g1, g2))
        n = n1 + n2
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.2]
        assert _revalidates(Graph.from_edges(n, edges))
        assert _revalidates(graph6_decode(graph6_encode(g1)))


def test_public_constructor_rejects_corrupted_builder_output():
    for g in (complete(6), complete_bipartite(3, 4), double_nested(BipartitionSpec((2, 3), (1, 2)))):
        adj = list(g.adj)
        u, v = next(g.edges())
        one_way = list(adj)
        one_way[u] &= ~(1 << v)
        with pytest.raises(DomainError, match="asymmetric"):
            Graph(g.n, one_way)
        looped = list(adj)
        looped[u] |= 1 << u
        with pytest.raises(DomainError, match="self-loop"):
            Graph(g.n, looped)
        wide = list(adj)
        wide[u] |= 1 << g.n
        with pytest.raises(DomainError, match="bits >= n"):
            Graph(g.n, wide)
    with pytest.raises(DomainError):
        Graph._trusted(0, [])
    with pytest.raises(DomainError):
        Graph._trusted(4097, [0] * 4097)


def test_vertex_cap_refuses_before_allocating():
    # each builder checks the cap before it allocates: complete(20000)
    # needs 54 MB of rows, K_{5e6,5e6} 162 MB and the header "10^7 0" 80 MB
    big, small = complete(4000), complete(97)
    builds = [
        lambda: Graph(10**7, []),
        lambda: Graph._trusted(10**7, []),
        lambda: Graph.from_edges(10**7, []),
        lambda: edge_list_decode("10000000 0\n"),
        lambda: complete(20000),
        lambda: complete_bipartite(5 * 10**6, 5 * 10**6),
        lambda: disjoint_union(big, small),
        lambda: join(big, small),
        lambda: double_nested(BipartitionSpec((10**7,), (1,))),
        lambda: family_general(20000, 1, 1),
    ]
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^vertex count \d+ outside 1\.\.4096$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
