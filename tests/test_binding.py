"""Exact binding number, threshold decision, binding sets, toughness."""

import functools
import gc
import hashlib
import operator
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import pytest

from bindex import binding as binding_module
from bindex.binding import (
    BindingResult,
    _better,
    _binding_sets_many,
    _lex_key,
    _threshold_plan,
    _ThresholdNetwork,
    binding_below_threshold,
    binding_number_bruteforce,
    binding_number_flow,
    binding_sets_all,
    toughness_bruteforce,
)
from bindex.constructions import (
    bipartite_extremal_D,
    bipartite_extremal_K,
    family_general,
    general_extremal,
)
from bindex.maxflow import Dinic
from bindex.graph import (
    DomainError,
    Graph,
    LimitError,
    complete,
    complete_bipartite,
    disjoint_union,
    double_nested,
    join,
    mask_of,
    vertices_of,
    BipartitionSpec,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _random_graph(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def _brute_oracle(g):
    """(b(G), witness, binding sets) by the pure-Python subset loop.

    The loop the numpy scan replaced: N(S) is the union of a table over
    the low 12 vertices and one over the rest. Same rule: least ratio,
    then least |S|, then lex-least vertex tuple (_better), over every
    nonempty S with N(S) != V; the binding sets come in vertex-tuple order.
    """
    n, full, adj = g.n, g.mask_all, g.adj
    k = min(n, 12)

    def table(bits, shift):
        ns = [0] * (1 << bits)
        for m in range(1, 1 << bits):
            ns[m] = ns[m & (m - 1)] | adj[(m & -m).bit_length() - 1 + shift]
        return ns

    low, high = table(k, 0), table(n - k, k)
    bn, bd, bm = n, 1, 0  # worse than any singleton (deg <= n-1)
    sets = []
    for hi, hnb in enumerate(high):
        for lo, lnb in enumerate(low):
            m, nb = hi << k | lo, hnb | lnb
            if m == 0 or nb == full:
                continue
            num, den = nb.bit_count(), m.bit_count()
            if num * bd < bn * den:
                sets = []
            if num * bd <= bn * den:
                sets.append(m)
            if _better(num, den, m, bn, bd, bm):
                bn, bd, bm = num, den, m
    return Fraction(bn, bd), bm, sorted(sets, key=vertices_of)


def _labeled_graphs(n):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if code >> k & 1])


def test_scan_matches_oracle_on_all_graphs_to_n6():
    for n in range(1, 7):
        for g in _labeled_graphs(n):
            r = binding_number_bruteforce(g)
            b, witness, sets = _brute_oracle(g)
            assert (r.value, r.witness) == (b, witness), (n, g.adj)
            assert binding_sets_all(g) == sets, (n, g.adj)


def test_scan_matches_oracle_on_seeded_graphs():
    rng = random.Random(5101)
    for n in range(7, 19):
        for _ in range(60 if n <= 12 else 4):
            g = _random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.8, 0.95)))
            r = binding_number_bruteforce(g)
            b, witness, sets = _brute_oracle(g)
            assert (r.value, r.witness) == (b, witness), (n, g.adj)
            if n <= 12:
                assert binding_sets_all(g) == sets, (n, g.adj)


def test_scan_matches_oracle_across_high_blocks():
    # n > 14: blocks of 2^14 sets, 128 of them at n = 21; in K_15, C_16,
    # K_17 and C_18 the sets of least rank lie in several blocks
    rng = random.Random(5102)
    graphs = [_random_graph(rng, 21, p) for p in (0.2, 0.6)]
    for g in graphs:
        r = binding_number_bruteforce(g)
        assert (r.value, r.witness) == _brute_oracle(g)[:2], g.adj
    for g in (complete(15), cycle(16), complete(17), cycle(18)):
        r = binding_number_bruteforce(g)
        b, witness, sets = _brute_oracle(g)
        assert (r.value, r.witness) == (b, witness), g.adj
        assert binding_sets_all(g) == sets, g.adj
        assert len({s >> binding_module._LOW_BITS for s in sets}) > 1, g.adj


def _sets_of_stack(graphs):
    listed = list(_binding_sets_many(graphs))
    assert [g for g, _ in listed] == list(graphs)
    return [sets for _, sets in listed]


def test_binding_sets_many_matches_oracle_on_all_graphs_to_n5():
    for n in range(1, 6):
        graphs = list(_labeled_graphs(n))
        expected = [_brute_oracle(g)[2] for g in graphs]
        assert _sets_of_stack(graphs) == expected, n
        assert [binding_sets_all(g) for g in graphs] == expected, n


@pytest.mark.parametrize("n", range(6, binding_module._LOW_BITS + 1))
def test_binding_sets_many_straddles_the_block_capacity(n):
    # up to 2^(_LOW_BITS - n) graphs share a block: one short of it, and one over
    rng = random.Random(5200 + n)
    per_block = 1 << (binding_module._LOW_BITS - n)
    for size in (per_block - 1, per_block + 1):
        graphs = [
            _random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.8, 0.95)))
            for _ in range(size)
        ]
        expected = [_brute_oracle(g)[2] for g in graphs]
        assert _sets_of_stack(graphs) == expected, (n, size)
        assert [binding_sets_all(g) for g in graphs] == expected, (n, size)


def test_binding_sets_many_one_graph_per_block_beyond_the_capacity():
    # from n = _LOW_BITS + 1 on a graph fills 2^(n - _LOW_BITS) blocks alone
    rng = random.Random(5217)
    for n in range(binding_module._LOW_BITS + 1, 21):
        graphs = [_random_graph(rng, n, p) for p in ((0.2, 0.7) if n <= 18 else (0.3,))]
        expected = [_brute_oracle(g)[2] for g in graphs]
        assert _sets_of_stack(graphs) == expected, n
        assert [binding_sets_all(g) for g in graphs] == expected, n


def test_lex_key_orders_sets_as_vertices_of():
    every = list(range(1, 1 << 10))  # every nonempty set for n <= 10
    assert sorted(every, key=_lex_key) == sorted(every, key=vertices_of)
    rng = random.Random(5230)
    for _ in range(200):
        sets = [rng.randrange(1, 1 << 20) for _ in range(rng.randint(2, 40))]
        # prefixes and near neighbours of a set, the cases a numeric order gets wrong
        s = sets[0]
        sets += [s & ((1 << rng.randint(1, 20)) - 1) or 1, s | 1 << rng.randrange(20), s ^ 1]
        assert sorted(sets, key=_lex_key) == sorted(sets, key=vertices_of)
    assert sorted([(1 << 20) - 1, 1 << 19, 1], key=_lex_key) == [1, (1 << 20) - 1, 1 << 19]


def test_binding_sets_many_rejects_mixed_orders_and_large_n():
    assert _sets_of_stack([]) == []
    with pytest.raises(DomainError, match=r"^binding set listing takes graphs of one order$"):
        list(_binding_sets_many([path(3), path(4)]))
    # the odd graph out starts the second block of n = 6 graphs
    with pytest.raises(DomainError):
        list(_binding_sets_many([path(6)] * (1 << (binding_module._LOW_BITS - 6)) + [path(5)]))
    with pytest.raises(LimitError, match=r"^binding set listing capped at n <= 20$"):
        list(_binding_sets_many([complete(21)]))


def test_small_anchors_brute():
    r = binding_number_bruteforce(path(3))
    assert r.value == Fraction(1, 2)
    assert r.witness == mask_of([0, 2])
    assert r.method == "brute"
    r = binding_number_bruteforce(cycle(5))
    assert r.value == Fraction(4, 3)
    assert r.witness == mask_of([0, 1, 3])
    r = binding_number_bruteforce(complete(7))
    assert r.value == 6
    assert r.witness == 1
    r = binding_number_bruteforce(complete_bipartite(7, 2))
    assert r.value == Fraction(2, 7)
    assert r.witness == (1 << 7) - 1


def test_construction_anchors():
    d = double_nested(BipartitionSpec((2, 3), (1, 2)))
    r = binding_number_bruteforce(d)
    assert r.value == Fraction(1, 3) and r.witness == mask_of([2, 3, 4])
    r = binding_number_bruteforce(family_general(10, 2, 1).graph)
    assert r.value == Fraction(1, 3) and r.witness == mask_of([7, 8, 9])
    r = binding_number_bruteforce(family_general(14, 1, 1).graph)
    assert r.value == Fraction(1, 2) and r.witness == mask_of([12, 13])
    r = binding_number_bruteforce(family_general(16, 1, 2).graph)
    assert r.value == Fraction(2, 3) and r.witness == mask_of([13, 14, 15])


def test_isolated_vertex_short_circuit():
    g = disjoint_union(complete(1), complete(2))
    for fn in (binding_number_bruteforce, binding_number_flow):
        r = fn(g)
        assert r.value == 0 and r.witness == 1
    h = disjoint_union(complete(2), complete(1))
    assert binding_number_flow(h).witness == 1 << 2  # least isolated vertex


def test_binding_sets_all():
    assert binding_sets_all(path(3)) == [0b101]
    assert binding_sets_all(complete(3)) == [0b001, 0b010, 0b100]
    sets = binding_sets_all(path(4))
    assert len(sets) == 7
    assert vertices_of(sets[0]) == (0,)
    assert binding_number_bruteforce(path(4)).value == 1
    sets = binding_sets_all(cycle(5))
    assert [vertices_of(m) for m in sets] == [
        (0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4), (1, 3, 4)]
    assert binding_sets_all(complete(7)) == [1 << v for v in range(7)]


def test_binding_sets_recomputed_independently():
    # perfect matching on two components; expected list rebuilt by hand
    g = disjoint_union(complete(2), complete(2))
    expected = []
    for m in range(1, 1 << 4):
        nb = 0
        for v in range(4):
            if (m >> v) & 1:
                nb |= g.adj[v]
        if nb != 0b1111 and Fraction(nb.bit_count(), m.bit_count()) == 1:
            expected.append(m)
    expected.sort(key=vertices_of)
    assert binding_number_bruteforce(g).value == 1
    assert binding_sets_all(g) == expected
    assert len(expected) == 14


def test_threshold_decision():
    g = family_general(14, 1, 1).graph
    ok, w = binding_below_threshold(g, Fraction(1))
    assert ok and w == mask_of([12, 13])
    assert Fraction(g.neighborhood(w).bit_count(), w.bit_count()) == Fraction(1, 2)
    ok, w = binding_below_threshold(complete_bipartite(4, 4), Fraction(1))
    assert (ok, w) == (False, None)
    iso = disjoint_union(complete(1), complete(2))
    ok, w = binding_below_threshold(iso, Fraction(1, 1000))
    assert ok and w == 1
    with pytest.raises(DomainError):
        binding_below_threshold(g, Fraction(0))
    with pytest.raises(DomainError):
        binding_below_threshold(g, Fraction(-1, 2))


def test_threshold_must_be_rational():
    # b(K_{1,10}) = 1/10, and the float 0.1 lies just above 1/10, so taken
    # as Fraction(0.1) it would answer yes; ints and Fractions are exact
    g = complete_bipartite(1, 10)
    assert binding_below_threshold(g, Fraction(1, 10)) == (False, None)
    for t in (0.1, 1.0, Decimal("0.1")):
        with pytest.raises(DomainError):
            binding_below_threshold(g, t)
    assert binding_below_threshold(complete(4), 3) == (False, None)
    assert binding_below_threshold(complete(4), 4) == binding_below_threshold(complete(4), Fraction(4))


def test_flow_equals_brute_random():
    rng = random.Random(1009)
    for n in (8, 10, 12):
        for _ in range(1000):
            g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
            rb = binding_number_bruteforce(g)
            rf = binding_number_flow(g)
            assert rf.value == rb.value, (n, g.adj)
            # both witnesses must achieve the value
            assert Fraction(
                g.neighborhood(rf.witness).bit_count(), rf.witness.bit_count()
            ) == rb.value


def _minimisers(g, sub, a, c):
    """(minimum, minimisers) of c|N(S)| - a|S| over all S inside sub."""
    scores = {}
    s = sub
    while True:
        scores[s] = c * g.neighborhood(s).bit_count() - a * s.bit_count()
        if s == 0:
            break
        s = (s - 1) & sub
    low = min(scores.values())
    return low, [s for s, f in scores.items() if f == low]


def _threshold_oracle(g, t):
    """binding_below_threshold by subset scan, independent of any flow.

    For each distinct allowed set A = V - N(u), the witness is the
    smallest minimiser (the intersection of all minimisers) of
    c|N(S)| - a|S| over S inside A, kept when that minimum is negative;
    the kept witnesses are aggregated with _better.
    """
    iso = g.isolated_vertices()
    if iso:
        return True, iso & -iso
    a, c = t.numerator, t.denominator
    best = None
    for sub in {g.mask_all & ~row for row in g.adj}:
        low, args = _minimisers(g, sub, a, c)
        if low == 0:
            continue
        arg = functools.reduce(operator.and_, args)
        cand = (g.neighborhood(arg).bit_count(), arg.bit_count(), arg)
        if best is None or _better(*cand, *best):
            best = cand
    return (False, None) if best is None else (True, best[2])


def test_threshold_witness_matches_subset_oracle():
    rng = random.Random(2282)
    yes = 0
    for _ in range(2000):
        n = rng.randint(2, 9)
        g = _random_graph(rng, n, rng.uniform(0.25, 0.9))
        t = Fraction(rng.randint(1, n), rng.randint(1, n))
        got = binding_below_threshold(g, t)
        assert got == _threshold_oracle(g, t), (n, g.adj, t)
        yes += got[0]
    assert 600 < yes < 1400


def test_threshold_at_most_one_matches_subset_oracle():
    # at t <= 1 a no is decided by one flow over every vertex: t = b(G)
    # answers no and t just above b(G) yes; bipartite G has b(G) <= 1
    rng = random.Random(2284)
    no = yes = 0
    for _ in range(300):
        n = rng.randint(2, 11)
        if rng.random() < 0.5:
            g = _random_graph(rng, n, rng.uniform(0.15, 0.8))
        else:
            p = rng.randint(1, n - 1)
            edges = [(x, y) for x in range(p) for y in range(p, n) if rng.random() < 0.6]
            g = Graph.from_edges(n, edges)
        b = binding_number_bruteforce(g).value
        if b == 0:
            continue
        for t in {min(b, Fraction(1)), min(b + Fraction(1, n * n), Fraction(1)), Fraction(1, n)}:
            got = binding_below_threshold(g, t)
            assert got == _threshold_oracle(g, t), (n, g.adj, t)
            no += not got[0]
            yes += got[0]
    assert no > 250 and yes > 40



def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_threshold_plan_follows_interleaved_graphs():
    # decisions alternate between two graphs of equal n and a relabeled
    # copy of the first, so the one cached plan is replaced on every call
    rng = random.Random(2285)
    for _ in range(150):
        n = rng.randint(3, 9)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        h = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        graphs = [g, h, _relabeled(g, rng), g]
        for t in (Fraction(1, 2), Fraction(1), Fraction(rng.randint(1, n), rng.randint(1, n))):
            for x in graphs:
                assert binding_below_threshold(x, t) == _threshold_oracle(x, t), (x.adj, t)


def test_threshold_network_matches_an_add_edge_dinic():
    # one network moved through allowed sets, each checked against a fresh
    # Dinic built arc by arc on the same capacities: a on the source arcs
    # of the set, a*n + 1 (above any cut) on the middle arcs, c on the sink
    # arcs; V is the set of the first flow at t <= 1
    rng = random.Random(2286)
    below = above = yes = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        a, c = rng.randint(1, n + 1), rng.randint(1, n + 1)
        below += a < c
        above += a > c
        net = _ThresholdNetwork(g.adj, a, c)
        subs = [sub for sub, _, _ in _threshold_plan(g.adj)] + [g.mask_all]
        for _ in range(6):
            sub = rng.choice(subs)
            ref = Dinic(2 + 2 * n)
            for v in range(n):
                ref.add_edge(0, 2 + v, a if sub >> v & 1 else 0)
            for w in range(n):
                ref.add_edge(2 + n + w, 1, c)
            for v in range(n):
                for w in vertices_of(g.adj[v]):
                    ref.add_edge(2 + v, 2 + n + w, a * n + 1)
            value = ref.maxflow(0, 1)
            side = sum(1 << (x - 2) for x in ref.source_side(0) if 2 <= x < 2 + n)
            assert net.witness(sub) == side, (g.adj, a, c, sub)
            assert net.flow == value, (g.adj, a, c, sub)
            yes += side != 0
    assert below > 100 and above > 100 and yes > 300


def test_flow_from_threads_matches_serial():
    # more threads than cores, switching often, over graphs that share n:
    # every decision reads the one cached plan while others replace it
    rng = random.Random(2287)
    graphs = [_random_graph(rng, n, p) for n in (12, 26) for p in (0.2, 0.35, 0.5, 0.8)]
    serial = [binding_number_flow(g) for g in graphs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(lambda k: [binding_number_flow(g) for g in graphs[k:] + graphs[:k]], k)
                    for k in range(4)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert got == serial[k:] + serial[:k]


def test_threshold_plan_cache_holds_one_graph():
    rng = random.Random(2288)
    graphs = [_random_graph(rng, 10, 0.4) for _ in range(5)]
    for g in graphs:
        binding_number_flow(g)
    info = _threshold_plan.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    gc.collect()
    # the last graph's plan, held by the cache, this name and the call alone
    plan = _threshold_plan(graphs[-1].adj)
    assert _threshold_plan.cache_info().misses == info.misses
    assert sys.getrefcount(plan) == 3


def test_a_flow_call_builds_one_partition():
    # the start reads the plan it builds, and every decision of the call
    # finds that plan cached, whether the start is a pendant class
    # (delta = 1), the best allowed set (delta >= 2) or v of K_n
    starts = {"1": 0, "2..n-2": 0, "n-1": 0}
    for g in _seeded_by_min_degree(random.Random(2298)):
        d = _min_degree(g)
        if d == 0:
            continue
        starts["1" if d == 1 else "n-1" if d == g.n - 1 else "2..n-2"] += 1
        _threshold_plan.cache_clear()
        binding_number_flow(g)
        info = _threshold_plan.cache_info()
        assert (info.misses, info.hits >= 1) == (1, True), (g.adj, info)
    assert starts["1"] > 100 and starts["2..n-2"] > 200 and starts["n-1"] >= 10, starts


def test_plan_partitions_the_vertices_in_start_order():
    # each class holds the vertices of one allowed set, the classes cover
    # V once, sizes fall with ties in order of first vertex, and the first
    # class is that of the least vertex of least degree: for delta = 1 the
    # pendant class of the start
    rng = random.Random(2299)
    graphs = _seeded_by_min_degree(rng) + _twin_heavy_graphs(rng)
    pendants = 0
    for g in graphs + [_relabeled(g, rng) for g in graphs[::3]]:
        plan = _threshold_plan(g.adj)
        assert functools.reduce(operator.or_, (tw for _, _, tw in plan)) == g.mask_all, g.adj
        assert sum(tw.bit_count() for _, _, tw in plan) == g.n, g.adj
        for sub, size, tw in plan:
            assert size == sub.bit_count(), g.adj
            assert all(g.mask_all & ~g.adj[u] == sub for u in vertices_of(tw)), g.adj
        keys = [(-size, (tw & -tw).bit_length()) for _, size, tw in plan]
        assert keys == sorted(keys), g.adj
        degrees = [row.bit_count() for row in g.adj]
        v = degrees.index(min(degrees))
        first = plan[0][2]
        assert first & -first == 1 << v, g.adj
        if degrees[v] == 1:
            pendants += 1
            assert first == mask_of(u for u, row in enumerate(g.adj) if row == g.adj[v]), g.adj
    assert pendants > 100, pendants


def _thresholds(g, rng, k):
    """k distinct thresholds on g: b(G), just above it, and random a/c."""
    n = g.n
    ts = {binding_number_bruteforce(g).value} - {0}
    ts |= {t + Fraction(1, n * n) for t in ts}
    while len(ts) < k:
        ts.add(Fraction(rng.randint(1, 2 * n), rng.randint(1, n)))
    return sorted(ts)


def test_threshold_order_matches_subset_oracle():
    # one graph's thresholds in three orders on its one cached plan:
    # falling (the Dinkelbach order), rising and shuffled
    rng = random.Random(2289)
    for _ in range(120):
        n = rng.randint(3, 9)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        ts = _thresholds(g, rng, 8)
        expected = {t: _threshold_oracle(g, t) for t in ts}
        shuffled = ts[:]
        rng.shuffle(shuffled)
        for order in (ts[::-1], ts, shuffled):
            for t in order:
                assert binding_below_threshold(g, t) == expected[t], (g.adj, order, t)


def _threshold_graph(rng, n):
    """Vertices added one by one, each isolated or joined to all before it."""
    adj = [0] * n
    for v in range(1, n):
        if rng.random() < 0.5:
            adj[v] = (1 << v) - 1
            for u in range(v):
                adj[u] |= 1 << v
    return Graph(n, adj)


def _nested_graphs(rng):
    """Graphs whose neighbourhoods nest, some relabeled, n <= 12."""
    graphs = [_threshold_graph(rng, n) for n in range(2, 13) for _ in range(4)]
    for _ in range(30):
        h = rng.randint(1, 3)
        spec = BipartitionSpec(*(tuple(rng.randint(1, 3) for _ in range(h)) for _ in "pq"))
        graphs.append(double_nested(spec))
    for r in range(1, 4):
        for n in range(r + 3, 13):
            graphs.append(bipartite_extremal_K(n, r).graph)
            if n >= r + 4:
                graphs.append(general_extremal(n, r).graph)
            graphs += [family_general(n, r, t1).graph for t1 in range(2, (n - 3) // (r + 1) + 1)]
            if n >= r + 5:
                graphs += [bipartite_extremal_D(n, r, v).graph for v in ("ceil", "floor")]
    return graphs + [_relabeled(g, rng) for g in graphs[::3]]


def test_nested_neighbourhoods_match_oracles():
    # the allowed sets of these graphs nest, which stresses a network moved
    # from a set to its subsets; no earlier answer settles a later set
    rng = random.Random(2290)
    graphs = _nested_graphs(rng)
    assert len(graphs) > 200
    for g in graphs:
        rf, rb = binding_number_flow(g), binding_number_bruteforce(g)
        assert rf.value == rb.value, g.adj
        ts = _thresholds(g, rng, 5)
        expected = {t: _threshold_oracle(g, t) for t in ts}
        for order in (ts[::-1], ts):
            _threshold_plan.cache_clear()
            for t in order:
                assert binding_below_threshold(g, t) == expected[t], (g.adj, t)


def test_a_decision_depends_on_the_graph_and_threshold_alone(monkeypatch):
    # (g, t) decided on a fresh plan, again after a spread of thresholds
    # on the same plan, and once more: each time the oracle's answer, for
    # the same number of flows: no decision leaves behind anything that
    # would spare a later one a flow
    calls = []
    maxflow = Dinic.maxflow
    monkeypatch.setattr(Dinic, "maxflow", lambda net, s, t: calls.append(s) or maxflow(net, s, t))
    rng = random.Random(2291)
    several = 0
    for g in _nested_graphs(rng)[::4] + [_random_graph(rng, 9, 0.5) for _ in range(40)]:
        ts = _thresholds(g, rng, 6)
        for t in ts[::2]:
            _threshold_plan.cache_clear()
            runs = []
            for spread in ((), ts, ()):
                for u in spread:
                    binding_below_threshold(g, u)
                calls.clear()
                runs.append((binding_below_threshold(g, t), len(calls)))
            assert runs == [(_threshold_oracle(g, t), runs[0][1])] * 3, (g.adj, t, runs)
            several += runs[0][1] > 1
    assert several > 100


def test_threshold_decisions_from_threads_match_serial():
    # more threads than cores decide one graph's thresholds in different
    # orders, all on its one cached plan; every answer must match
    rng = random.Random(2292)
    graphs = [_random_graph(rng, n, p) for n in (8, 10) for p in (0.3, 0.5, 0.8)]
    graphs += [general_extremal(11, 2).graph, bipartite_extremal_D(12, 1, "floor").graph]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for g in graphs:
            ts = _thresholds(g, rng, 10)
            expected = [_threshold_oracle(g, t) for t in ts]
            orders = [ts[::-1], ts, rng.sample(ts, len(ts)), rng.sample(ts, len(ts))]
            _threshold_plan.cache_clear()
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(lambda o: [binding_below_threshold(g, t) for t in o * 5], o) for o in orders]
                results = [run.result(timeout=120) for run in runs]
            for order, got in zip(orders, results):
                assert got == [expected[ts.index(t)] for t in order * 5], g.adj
    finally:
        sys.setswitchinterval(interval)


# (n, p, b(G), witness) from binding_number_flow on G(n, p) drawn by
# _random_graph(random.Random(7000 + i), n, p) for n = 25 + i; sizes past
# the brute-force cap, where the CLI prints the flow witness
FROZEN_FLOW = [
    (25, 0.12, "0", 0x8),
    (26, 0.2, "1", 0x8),
    (27, 0.35, "13/12", 0x7bfebff),
    (28, 0.6, "27/19", 0xf9b974f),
    (29, 0.12, "1", 0x2),
    (30, 0.2, "29/28", 0x3fffbfef),
    (31, 0.35, "10/9", 0x77fefedf),
    (32, 0.6, "31/19", 0xb9dbeb05),
    (33, 0.12, "1/2", 0x20000004),
    (34, 0.2, "33/32", 0x3fffff9ff),
    (35, 0.35, "17/15", 0x4feffffed),
    (36, 0.6, "5/3", 0x38bde4adb),
    (37, 0.12, "0", 0x100000),
    (38, 0.2, "37/36", 0x3fffffe7ff),
    (39, 0.35, "19/16", 0x3fffbaaffd),
    (40, 0.6, "39/23", 0xdbe3ae1f14),
    (41, 0.12, "0", 0x80000),
    (42, 0.2, "41/39", 0x3bdffffffdf),
    (43, 0.35, "6/5", 0x6f3efb6dfff),
    (44, 0.6, "43/23", 0xb63bb30ab19),
    (45, 0.12, "44/43", 0x1ffdfffffffd),
    (46, 0.2, "45/43", 0x3febfffbffff),
    (47, 0.35, "46/37", 0x76e9ff5fbdfd),
    (48, 0.6, "47/27", 0xa64b463ad5fe),
    (49, 0.12, "1", 0x100000000000),
    (50, 0.2, "49/44", 0x3fbffffdfaf7d),
    (51, 0.35, "25/21", 0x77feffebb8bff),
    (52, 0.6, "17/10", 0xae9fa433e31f9),
    (53, 0.12, "1", 0x400000000000),
    (54, 0.2, "53/49", 0x3fbfff9fefefff),
    (55, 0.35, "54/43", 0x5ffff992f1fbff),
    (56, 0.6, "11/6", 0x8e6f40e7a0d97d),
    (57, 0.12, "56/55", 0x1ffffff7fefffff),
    (58, 0.2, "57/55", 0x3fbffeffffff7ff),
    (59, 0.35, "58/49", 0x77bbfe7fffcdf7e),
    (60, 0.6, "59/31", 0xe43bba814d356cd),
    (61, 0.12, "30/29", 0x1fffffffddfffbff),
    (62, 0.2, "61/57", 0x3dffefcfffffefff),
    (63, 0.35, "31/24", 0x6f7fddd97bf9cef7),
    (64, 0.6, "7/4", 0xf60aca6f73cdc5d1),
]


def test_flow_witnesses_frozen_beyond_brute_cap():
    for i, (n, p, value, witness) in enumerate(FROZEN_FLOW):
        g = _random_graph(random.Random(7000 + i), n, p)
        r = binding_number_flow(g)
        assert (r.value, r.witness) == (Fraction(value), witness), n


def test_flow_beyond_brute_cap():
    g = family_general(30, 2, 1).graph
    r = binding_number_flow(g)
    assert r.value == Fraction(1, 3)
    assert r.method == "flow"


def test_flow_anchors():
    assert binding_number_flow(complete_bipartite(7, 2)).value == Fraction(2, 7)
    d = double_nested(BipartitionSpec((2, 3), (1, 2)))
    assert binding_number_flow(d).value == Fraction(1, 3)


def _min_degree(g):
    return min(row.bit_count() for row in g.adj)


def _seeded_by_min_degree(rng):
    """Seeded graphs with n = 3..12 such that every n has graphs of least
    degree 1, of least degree 2..n-2 and K_n (least degree n - 1): G(n, p)
    draws, dense draws with one vertex cut down to a pendant, cycles and
    K_n minus a matching."""
    graphs = []
    for n in range(3, 13):
        graphs += [_random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8, 0.9))) for _ in range(40)]
        for _ in range(10):
            g = _random_graph(rng, n, 0.85)
            u, w = rng.sample(range(n), 2)
            edges = [e for e in g.edges() if u not in e] + [(u, w)]
            graphs.append(Graph.from_edges(n, edges))
        matched = {(2 * i, 2 * i + 1) for i in range(n // 2)}
        pairs = [(u, v) for v in range(n) for u in range(v)]
        graphs.append(Graph.from_edges(n, [e for e in pairs if e not in matched]))
        graphs += [cycle(n), complete(n)]
    return graphs


def test_flow_equals_subset_oracle_by_min_degree():
    # values from the pure-Python subset loop; the flow witness must be a
    # valid set of that ratio
    classes = {"1": 0, "2..n-2": 0, "n-1": 0}
    for g in _seeded_by_min_degree(random.Random(1931)):
        d = _min_degree(g)
        if d == 0:
            continue
        classes["1" if d == 1 else "n-1" if d == g.n - 1 else "2..n-2"] += 1
        value = _brute_oracle(g)[0]
        r = binding_number_flow(g)
        nb = g.neighborhood(r.witness)
        assert (r.value, nb != g.mask_all) == (value, True), g.adj
        assert Fraction(nb.bit_count(), r.witness.bit_count()) == value, g.adj
    assert classes["1"] > 100 and classes["2..n-2"] > 200 and classes["n-1"] >= 10, classes


def test_dinkelbach_starts_from_the_best_allowed_set(monkeypatch):
    # 2 <= delta <= n - 2: the first threshold is the least ratio over v
    # and the allowed sets V - N(u), below delta; thresholds then fall and
    # only the last decision answers no, and a graph settled by its first
    # decision returns the start set that is best by ratio, size and lex
    # order. delta = 1: the first threshold is 1/|P|, P the class of
    # vertices sharing the one neighbour of the least pendant vertex.
    calls = []
    decide = binding_module.binding_below_threshold

    def recorded(g, t):
        calls.append((t, decide(g, t)))
        return calls[-1][1]

    monkeypatch.setattr(binding_module, "binding_below_threshold", recorded)
    seeded = one_round = 0
    for g in _seeded_by_min_degree(random.Random(1932)):
        d = _min_degree(g)
        if d == 0 or d == g.n - 1:
            continue
        calls.clear()
        r = binding_number_flow(g)
        ts = [t for t, _ in calls]
        if d == 1:
            v = next(u for u, row in enumerate(g.adj) if row.bit_count() == 1)
            pendant = [u for u, row in enumerate(g.adj) if row == g.adj[v]]
            assert ts[0] == Fraction(1, len(pendant)), g.adj
            continue
        seeded += 1
        starts = []
        for u in range(g.n):
            sub = g.mask_all & ~g.adj[u]
            ratio = Fraction(g.neighborhood(sub).bit_count(), sub.bit_count())
            starts.append((ratio, sub.bit_count(), vertices_of(sub), sub))
        start = min(starts)
        assert ts[0] == min(Fraction(d), start[0]) < d, g.adj
        assert all(x > y for x, y in zip(ts, ts[1:])), (g.adj, ts)
        assert [ok for _, (ok, _) in calls] == [True] * (len(calls) - 1) + [False], g.adj
        if len(calls) == 1:
            one_round += 1
            assert r.witness == start[3], g.adj
    assert seeded > 200 and one_round > 100, (seeded, one_round)


def _extremal_constructions():
    """general_extremal, bipartite_extremal_K and bipartite_extremal_D (both
    variants) for r <= 5 and n <= 18: the paper's graphs with b < 1/r."""
    out = []
    for r in range(1, 6):
        for n in range(r + 3, 19):
            if n >= r + 4:
                out.append(general_extremal(n, r))
            out.append(bipartite_extremal_K(n, r))
            if n >= r + 5:
                out += [bipartite_extremal_D(n, r, v) for v in ("ceil", "floor")]
    return out


def test_extremal_constructions_take_one_decision(monkeypatch):
    # the start (the pendant class when delta = 1, the best allowed set
    # otherwise) is a binding set, so the first decision is the final no;
    # in D(3,2;1,1) = bipartite_extremal_D(7, 1, "ceil") it is not: its
    # pendant pair has ratio 1/2, the five vertices of degree 1 and 2
    # have 2/5, so one yes comes first
    calls = []
    decide = binding_module.binding_below_threshold
    monkeypatch.setattr(
        binding_module, "binding_below_threshold", lambda g, t: calls.append(t) or decide(g, t)
    )
    constructions = _extremal_constructions()
    assert len(constructions) == 235
    rounds = {}
    for c in constructions:
        calls.clear()
        r = binding_number_flow(c.graph)
        assert r.value == binding_number_bruteforce(c.graph).value, c.label
        rounds[c.label] = len(calls)
    assert {label: k for label, k in rounds.items() if k != 1} == {"D(3,2;1,1)": 2}


def test_no_at_most_one_takes_one_flow(monkeypatch):
    # t <= b(G) with t <= 1 answers no, and the flow over every vertex
    # decides it alone
    calls = []
    maxflow = Dinic.maxflow
    monkeypatch.setattr(Dinic, "maxflow", lambda net, s, t: calls.append(s) or maxflow(net, s, t))
    rng = random.Random(2293)
    graphs = [c.graph for c in _extremal_constructions()[::3]]
    graphs += [_random_graph(rng, rng.randint(3, 12), rng.uniform(0.15, 0.9)) for _ in range(300)]
    noes = 0
    for g in graphs:
        b = binding_number_bruteforce(g).value
        if b == 0:
            continue
        for t in (min(b, Fraction(1)), Fraction(1, g.n)):  # b >= 1/(n - 1)
            calls.clear()
            assert binding_below_threshold(g, t) == (False, None), (g.adj, t)
            assert len(calls) == 1, (g.adj, t)
            noes += 1
    assert noes > 500


def _complete_multipartite(parts):
    return functools.reduce(join, (Graph(k, [0] * k) for k in parts))


def _twin_heavy_graphs(rng):
    """K_n, K_{p,q}, complete multipartite and double nested graphs and
    cycles and paths joined to an independent set, n <= 11, whose allowed
    sets come in twin classes, some relabeled."""
    graphs = [complete(n) for n in range(2, 12)]
    graphs += [join(h(k), Graph(m, [0] * m)) for h in (cycle, path) for k in range(3, 8) for m in range(1, 5)]
    graphs += [complete_bipartite(p, q) for q in range(1, 8) for p in range(1, min(q, 11 - q) + 1)]
    for _ in range(40):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        if sum(parts) <= 11:
            graphs.append(_complete_multipartite(parts))
    for _ in range(40):
        h = rng.randint(1, 3)
        spec = BipartitionSpec(*(tuple(rng.randint(1, 2) for _ in range(h)) for _ in "pq"))
        graphs.append(double_nested(spec))
    return graphs + [_relabeled(g, rng) for g in graphs[::2]]


def _deferral_rule_holds(g, t, subs):
    """Whether U, the vertices u whose A_u is in subs, meets the deferral
    rule at t = a/c, checked vertex by vertex: (i) a|A_u| <= c(n - 1) for
    each u in U, and (ii') a min(P, D_j) <= c(n - j) for j = 2..|U|, with
    P the largest |A_u & A_u'| over pairs u != u' in U and D_j the number
    of x lying in A_u for at least j of the u in U."""
    a, c, n = t.numerator, t.denominator, g.n
    allowed = [x for x in (g.mask_all & ~row for row in g.adj) if x in subs]
    if any(a * x.bit_count() > c * (n - 1) for x in allowed):
        return False
    p = max(((x & y).bit_count() for i, x in enumerate(allowed) for y in allowed[:i]), default=0)
    counts = [sum(x >> v & 1 for x in allowed) for v in range(n)]
    return all(a * min(p, sum(k >= j for k in counts)) <= c * (n - j)
               for j in range(2, len(allowed) + 1))


def _deferral_meets_the_rule(g, t):
    """How many sets _deferred leaves at t = a/c, once checked against the
    rule: the deferred sets meet it, and with the next smallest set they
    would not, since the walk stops at the first set that breaks it."""
    plan = _threshold_plan(g.adj)
    d = binding_module._deferred(plan, g.n, t.numerator, t.denominator)
    subs = [sub for sub, _, _ in plan]
    assert _deferral_rule_holds(g, t, set(subs[len(subs) - d:])), (g.adj, t, d)
    if d < len(subs):
        assert not _deferral_rule_holds(g, t, set(subs[len(subs) - d - 1:])), (g.adj, t, d)
    return d


def _pairwise_deferred(plan, n, a, c):
    """How many sets the pairwise rule defers: the walk of _deferred with
    (ii') replaced by (ii), a P <= c(n - |U|)."""
    k, p = 0, 0
    taken = []
    for sub, size, twins in reversed(plan):
        m = twins.bit_count()
        p = max(p, size if m > 1 else 0, *[(sub & x).bit_count() for x in taken])
        if a * size > c * (n - 1) or a * p > c * (n - k - m):
            break
        taken.append(sub)
        k += m
    return len(taken)


def _deferral_cases(rng):
    """Twin-heavy and random graphs, each with the thresholds (n - 1)/(n - k),
    among them the start ratio of a graph of least degree k, and one drawn
    above 1."""
    graphs = _twin_heavy_graphs(rng) + [_random_graph(rng, rng.randint(3, 11), rng.uniform(0.2, 0.9))
                                        for _ in range(200)]
    for g in graphs:
        n = g.n
        for t in {Fraction(n - 1, n - k) for k in range(1, n - 1)} | {Fraction(rng.randint(n, 3 * n), n)}:
            yield g, t


def test_deferred_sets_meet_the_rule():
    deferred = 0
    for g, t in _deferral_cases(random.Random(2294)):
        deferred += _deferral_meets_the_rule(g, t) > 0
    assert deferred > 500


def test_deferral_defers_at_least_the_pairwise_rule():
    # (ii) implies (ii'), so the per-size rule never defers fewer sets; on
    # seeded G(44, p) at t = b(G) it defers more
    more = 0
    for g, t in _deferral_cases(random.Random(2294)):
        plan = _threshold_plan(g.adj)
        d = binding_module._deferred(plan, g.n, t.numerator, t.denominator)
        pairwise = _pairwise_deferred(plan, g.n, t.numerator, t.denominator)
        assert d >= pairwise, (g.adj, t)
        more += d > pairwise
    assert more > 500
    for i, p in enumerate((0.3, 0.4, 0.5, 0.6)):
        g = _random_graph(random.Random(2296 + i), 44, p)
        b = binding_number_flow(g).value
        plan = _threshold_plan(g.adj)
        assert binding_module._deferred(plan, g.n, b.numerator, b.denominator) > _pairwise_deferred(
            plan, g.n, b.numerator, b.denominator), p


def test_start_counts_on_twin_classes(monkeypatch):
    # the start's |N(A_u)| counts each w with N(w) inside N(u), twins of u
    # and u itself among them: the first threshold is the least ratio over
    # v and the allowed sets, here with N(A_u) built directly, and a graph
    # settled by its first decision returns the best of those sets
    calls = []
    decide = binding_module.binding_below_threshold
    monkeypatch.setattr(
        binding_module, "binding_below_threshold", lambda g, t: calls.append(t) or decide(g, t)
    )
    rng = random.Random(2297)
    twins = 0
    for g in _twin_heavy_graphs(rng) + _nested_graphs(rng):
        d = _min_degree(g)
        if d < 2:
            continue
        twins += len(set(g.adj)) < g.n
        v = [row.bit_count() for row in g.adj].index(d)
        starts = [(Fraction(d), 1, (v,), 1 << v)]
        for row in g.adj:
            sub = g.mask_all & ~row
            starts.append((Fraction(g.neighborhood(sub).bit_count(), sub.bit_count()),
                           sub.bit_count(), vertices_of(sub), sub))
        start = min(starts)
        calls.clear()
        r = binding_number_flow(g)
        assert calls[0] == start[0], g.adj
        assert r.value == binding_number_bruteforce(g).value, g.adj
        if len(calls) == 1:
            assert r.witness == start[3], g.adj
    assert twins > 100, twins


def test_deferral_around_b_matches_subset_oracle():
    # a no defers sets to the flows of others: t = b answers no, just
    # above b yes and just below b no
    rng = random.Random(2295)
    graphs = _twin_heavy_graphs(rng) + [_random_graph(rng, rng.randint(3, 11), rng.uniform(0.2, 0.95))
                                        for _ in range(300)]
    above_one = 0
    for g in graphs:
        b = binding_number_bruteforce(g).value
        if b == 0:
            continue
        step = Fraction(1, g.n * g.n)
        for t in (b, b + step, b - step, 2 * b):
            assert binding_below_threshold(g, t) == _threshold_oracle(g, t), (g.adj, t)
            above_one += t > 1
    assert above_one > 600


def test_final_no_runs_fewer_flows_than_allowed_sets(monkeypatch):
    # on seeded G(44, p) the final no at t = b(G) > 1 runs a flow on the
    # sets that are not deferred only; K_n (n >= 3) needs no flow at all
    calls = []
    maxflow = Dinic.maxflow
    monkeypatch.setattr(Dinic, "maxflow", lambda net, s, t: calls.append(s) or maxflow(net, s, t))
    for i, p in enumerate((0.3, 0.4, 0.5, 0.6)):
        g = _random_graph(random.Random(2296 + i), 44, p)
        b = binding_number_flow(g).value
        assert b > 1
        _threshold_plan.cache_clear()
        calls.clear()
        assert binding_below_threshold(g, b) == (False, None)
        assert len(calls) < len(_threshold_plan(g.adj)), p
    for n in (3, 5, 30):
        calls.clear()
        assert binding_number_flow(complete(n)).value == n - 1
        assert calls == []


def test_a_decision_runs_one_flow_per_visited_set(monkeypatch):
    # no earlier answer spares a set its flow: at t <= 1 one flow over V,
    # then one per allowed set missing a vertex of its witness W (none on
    # a no); above 1 one per set a no does not defer, and one per set on
    # a yes
    calls = []
    maxflow = Dinic.maxflow
    monkeypatch.setattr(Dinic, "maxflow", lambda net, s, t: calls.append(s) or maxflow(net, s, t))
    rng = random.Random(2300)
    graphs = [_random_graph(rng, rng.randint(7, 8), rng.uniform(0.2, 0.8)) for _ in range(150)]
    graphs += _nested_graphs(rng) + _twin_heavy_graphs(rng)
    kinds = {"below yes": 0, "below no": 0, "above yes": 0, "above no": 0}
    for g in graphs:
        b = binding_number_bruteforce(g).value
        if b == 0:
            continue
        plan = _threshold_plan(g.adj)
        step = Fraction(1, g.n * g.n)
        for t in (b - step, b, b + step):
            a, c = t.numerator, t.denominator
            ok, _ = _threshold_oracle(g, t)
            if t <= 1:
                low, args = _minimisers(g, g.mask_all, a, c)
                w = functools.reduce(operator.and_, args) if low < 0 else 0
                flows = 1 + sum(w & ~sub != 0 for sub, _, _ in plan) if ok else 1
            else:
                flows = len(plan) if ok else len(plan) - binding_module._deferred(plan, g.n, a, c)
            calls.clear()
            assert binding_below_threshold(g, t)[0] == ok, (g.adj, t)
            assert len(calls) == flows, (g.adj, t, len(calls), flows)
            kinds[("below " if t <= 1 else "above ") + ("yes" if ok else "no")] += 1
    assert min(kinds.values()) > 200, kinds


def _pinned_flow_graphs():
    """3120 seeded G(n, p) with n = 3..40, then the extremal constructions."""
    rng = random.Random(4242)
    graphs = []
    for _ in range(3120):
        n = rng.randint(3, 40)
        graphs.append(_random_graph(rng, n, rng.choice((0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9))))
    return graphs + [c.graph for c in _extremal_constructions()]


# SHA-256 of the lines "value witness-in-hex" that binding_number_flow gives
# on _pinned_flow_graphs. The flow witness is a valid set of least ratio but
# not the canonical one, so a change of rule that moves it shows up here.
FLOW_DIGEST = "c5e00acb7a398d69baef941b5a354d7e1b39f3b470a1daaf20dd9934c9027cd2"


def test_flow_outputs_pinned():
    lines = []
    for g in _pinned_flow_graphs():
        r = binding_number_flow(g)
        lines.append(f"{r.value} {r.witness:x}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FLOW_DIGEST


def test_limits():
    with pytest.raises(LimitError):
        binding_number_bruteforce(complete(25))
    with pytest.raises(LimitError):
        binding_sets_all(complete(21))
    with pytest.raises(LimitError):
        toughness_bruteforce(path(17))


def test_checked_witness_validation():
    k3 = complete(3)
    with pytest.raises(ValueError):
        BindingResult.checked(k3, 0, "brute")
    with pytest.raises(ValueError):
        BindingResult.checked(k3, 0b011, "brute")  # N(S) = V
    r = BindingResult.checked(k3, 0b001, "brute")
    assert r.value == 2 and r.witness_vertices == (0,)


def test_toughness_anchors():
    assert toughness_bruteforce(path(3)) == Fraction(1, 2)
    assert toughness_bruteforce(path(4)) == Fraction(1, 2)
    assert toughness_bruteforce(cycle(5)) == 1
    assert toughness_bruteforce(complete_bipartite(3, 3)) == 1
    assert toughness_bruteforce(disjoint_union(complete(2), complete(2))) == 0
    assert toughness_bruteforce(disjoint_union(complete(3), complete(2))) == 0
    assert toughness_bruteforce(family_general(8, 1, 1).graph) == Fraction(1, 3)
    with pytest.raises(DomainError):
        toughness_bruteforce(complete(5))



def _toughness_oracle(g):
    """tau(G) by a scan of all 2^n sets S, each with a component count of G - S."""
    n, full, adj = g.n, g.mask_all, g.adj
    best = None
    for s in range(1 << n):
        rem = full & ~s
        comps = 0
        rest = rem
        while rest:
            comps += 1
            comp = rest & -rest
            frontier = comp
            while frontier:
                grown = 0
                while frontier:
                    lowb = frontier & -frontier
                    grown |= adj[lowb.bit_length() - 1]
                    frontier ^= lowb
                frontier = grown & rem & ~comp
                comp |= frontier
            rest &= ~comp
        if comps >= 2 and (best is None or Fraction(s.bit_count(), comps) < best):
            best = Fraction(s.bit_count(), comps)
    return best


def _random_tree(rng, n):
    return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def test_toughness_scan_matches_subset_oracle():
    rng = random.Random(4003)
    graphs = []
    for n in range(2, 13):
        graphs += [_random_graph(rng, n, p) for p in (0.15, 0.3, 0.5, 0.7, 0.9)]
        graphs.append(_random_tree(rng, n))
        k = rng.randint(1, n - 1)
        graphs.append(disjoint_union(_random_graph(rng, k, 0.6), _random_tree(rng, n - k)))
        u, v = rng.sample(range(n), 2)
        graphs.append(Graph(n, [row & ~(1 << (v if w == u else u)) if w in (u, v) else row
                                for w, row in enumerate(complete(n).adj)]))
        graphs.append(complete_bipartite(k, n - k))
    checked = 0
    for g in graphs:
        if g.is_complete():
            continue
        assert toughness_bruteforce(g) == _toughness_oracle(g), g.adj
        checked += 1
    assert checked > 80


def test_toughness_error_texts():
    with pytest.raises(DomainError, match=r"^toughness undefined for complete graphs$"):
        toughness_bruteforce(complete(6))
    with pytest.raises(LimitError, match=r"^toughness brute force capped at n <= 16$"):
        toughness_bruteforce(path(17))


def test_binding_sets_independent_when_b_below_one():
    # holds for every graph with b < 1; spot-check plus random sweep
    for g in (path(3), family_general(10, 2, 1).graph):
        b = binding_number_bruteforce(g).value
        assert b < 1
        for s in binding_sets_all(g):
            assert g.is_independent(s)
    rng = random.Random(4001)
    seen = 0
    while seen < 200:
        g = _random_graph(rng, rng.randint(3, 8), 0.3)
        if binding_number_bruteforce(g).value >= 1:
            continue
        seen += 1
        for s in binding_sets_all(g):
            assert g.is_independent(s), g.adj


def test_binding_at_least_toughness_when_b_at_most_one():
    rng = random.Random(4002)
    seen = 0
    while seen < 200:
        g = _random_graph(rng, rng.randint(3, 9), 0.4)
        full = g.mask_all
        if all(row == full ^ (1 << v) for v, row in enumerate(g.adj)):
            continue
        b = binding_number_bruteforce(g).value
        if b > 1:
            continue
        seen += 1
        assert b >= toughness_bruteforce(g), g.adj


def test_one_sided_split_of_bipartite_binding_sets():
    # a binding set meeting both sides splits into two one-sided binding sets
    rng = random.Random(1009)
    seen = splits = 0
    while seen < 500:
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        n = nx + ny
        adj = [0] * n
        for u in range(nx):
            for v in range(nx, n):
                if rng.random() < 0.55:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = Graph(n, adj)
        if not g.is_connected():
            continue
        seen += 1
        x, _ = g.bipartition()
        b = binding_number_bruteforce(g).value
        for s in binding_sets_all(g):
            sx, sy = s & x, s & ~x
            if sx == 0 or sy == 0:
                continue
            splits += 1
            for part in (sx, sy):
                assert g.neighborhood(part) != g.mask_all
                assert Fraction(
                    g.neighborhood(part).bit_count(), part.bit_count()) == b
    assert splits >= 10
