"""Dinic max flow: values, warm restarts and the smallest min-cut side."""

import random

from bindex.maxflow import Dinic


def _random_network(rng, n, arcs):
    net = Dinic(n)
    edges = []
    for _ in range(arcs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            c = rng.randint(0, 6)
            edges.append((u, v, c))
            net.add_edge(u, v, c)
    return net, edges


def _cut_oracle(n, edges):
    """(min cut value, smallest source side) by scanning every s-side set."""
    best = None
    for side in range(1 << n):
        if not side & 1 or side & 2:  # source 0 inside, sink 1 outside
            continue
        value = sum(c for u, v, c in edges if side >> u & 1 and not side >> v & 1)
        if best is None or value < best[0]:
            best = (value, side)
        elif value == best[0]:
            best = (value, best[1] & side)
    return best


def test_flow_and_source_side_match_cut_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 8)
        net, edges = _random_network(rng, n, rng.randint(0, 16))
        value, side = _cut_oracle(n, edges)
        assert net.maxflow(0, 1) == value
        assert net.source_side(0) == [v for v in range(n) if side >> v & 1]


def test_warm_restart_after_capacity_changes():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(2, 8)
        net, edges = _random_network(rng, n, rng.randint(1, 16))
        flow = net.maxflow(0, 1)
        # raise some capacities: the flow stays feasible and augments further
        for i, (u, v, c) in enumerate(edges):
            if rng.random() < 0.4:
                extra = rng.randint(1, 4)
                net.cap[2 * i] += extra
                edges[i] = (u, v, c + extra)
        flow += net.maxflow(0, 1)
        value, side = _cut_oracle(n, edges)
        assert flow == value
        assert net.source_side(0) == [v for v in range(n) if side >> v & 1]

