"""Components, connectivity and bipartition against networkx, and at n = 4096."""

import random
import time

import pytest

from bindex.graph import Graph, complete_bipartite

nx = pytest.importorskip("networkx")


def _gnp(n, p, rng):
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


def _bipartite_sample(n, p, rng):
    """A random graph with every edge across a random 2-colouring."""
    colour = [rng.random() < 0.5 for _ in range(n)]
    pairs = [(i, j) for j in range(n) for i in range(j) if colour[i] != colour[j]]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < p])


def _samples():
    rng = random.Random(20261019)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55):
        for p in (0.02, 0.08, 0.2, 0.5, 0.9):
            for _ in range(4):
                yield _gnp(n, p, rng)
                yield _bipartite_sample(n, p, rng)


def _oracle(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _mask(vertices):
    return sum(1 << v for v in vertices)


def test_walks_match_networkx():
    bipartite = 0
    for g in _samples():
        h = _oracle(g)
        comps = sorted((_mask(c) for c in nx.connected_components(h)), key=lambda m: m & -m)
        assert g.components() == comps
        assert g.is_connected() == nx.is_connected(h)
        got = g.bipartition()
        if not nx.is_bipartite(h):
            assert got is None
            continue
        bipartite += 1
        # the 2-colouring of a component is unique once its least vertex is in X
        colour = nx.bipartite.color(h)
        x = 0
        for comp in comps:
            least = (comp & -comp).bit_length() - 1
            x |= _mask(v for v in range(g.n) if comp >> v & 1 and colour[v] == colour[least])
        assert got == (x, g.mask_all ^ x)
        assert g.is_independent(x) and g.is_independent(g.mask_all ^ x)
    assert bipartite > 200


def test_walks_at_the_vertex_cap_are_linear():
    """Each walk reads every adjacency row once: well under 0.5 s at n = 4096."""
    path = Graph.from_edges(4096, [(i, i + 1) for i in range(4095)])
    even = sum(1 << v for v in range(0, 4096, 2))
    kk = complete_bipartite(2048, 2048)
    cases = [
        (path.components, [path.mask_all]),
        (path.is_connected, True),
        (path.bipartition, (even, path.mask_all ^ even)),
        (kk.bipartition, ((1 << 2048) - 1, kk.mask_all ^ ((1 << 2048) - 1))),
    ]
    for call, expected in cases:
        t0 = time.perf_counter()
        got = call()
        elapsed = time.perf_counter() - t0
        assert got == expected
        assert elapsed < 0.5, (call, elapsed)
