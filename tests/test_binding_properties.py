"""Property tests (need hypothesis): threshold decisions match the subset oracle."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bindex.binding import _threshold_plan, binding_below_threshold, binding_number_bruteforce
from bindex.graph import Graph

from test_binding import _deferral_meets_the_rule, _threshold_oracle


@st.composite
def graphs_and_thresholds(draw):
    """A labeled graph with n <= 9 and distinct thresholds a/c around 1."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [e for k, e in enumerate(pairs) if code >> k & 1])
    t = st.builds(Fraction, st.integers(1, 2 * n), st.integers(1, n))
    ts = set(draw(st.lists(t, min_size=1, max_size=8)))
    if draw(st.booleans()):
        ts |= {binding_number_bruteforce(g).value} - {0}
    return g, sorted(ts, reverse=True), draw(st.permutations(sorted(ts)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_and_thresholds())
def test_threshold_decisions_match_the_subset_oracle(case):
    # falling (the Dinkelbach order), then shuffled on the same cached
    # plan, which the first pass built
    g, falling, shuffled = case
    expected = {t: _threshold_oracle(g, t) for t in falling}
    _threshold_plan.cache_clear()
    for t in falling + shuffled:
        assert binding_below_threshold(g, t) == expected[t], (g.adj, t)


@st.composite
def twin_classes_and_thresholds(draw):
    """A graph of twin classes, n <= 12, and thresholds around b(G).

    Each vertex of a drawn graph H on k <= 6 vertices becomes an
    independent class of one or two vertices, joined to every class its
    vertex is adjacent to in H, and a hub, an independent class of up to
    four vertices, may be joined to all of them. The vertices of a class
    share their neighbourhood, so their allowed set is one, whose twin
    mask is the class. The thresholds are b(G), just above and just below
    it, and a/c above 1, where sets are deferred.
    """
    k = draw(st.integers(1, 6))
    pairs = [(u, v) for v in range(k) for u in range(v)]
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    sizes = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    start = [sum(sizes[:i]) for i in range(k + 1)]
    n = start[k] + draw(st.integers(0, min(4, 12 - start[k])))
    edges = [(start[u] + i, start[v] + j)
             for bit, (u, v) in enumerate(pairs) if code >> bit & 1
             for i in range(sizes[u]) for j in range(sizes[v])]
    edges += [(x, y) for x in range(start[k]) for y in range(start[k], n)]
    g = Graph.from_edges(n, edges)
    ts = set(draw(st.lists(st.builds(Fraction, st.integers(n, 3 * n), st.integers(1, n)), max_size=3)))
    b = binding_number_bruteforce(g).value
    if b:
        step = Fraction(1, n * n)
        ts |= {b, b + step} | ({b - step} if b > step else set())
    return g, sorted(ts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(twin_classes_and_thresholds())
def test_deferral_on_twin_classes_keeps_to_the_rule_and_the_oracle(case):
    # a no above 1 rests on the deferral rule, checked set by set
    g, ts = case
    for t in ts:
        if t > 1:
            _deferral_meets_the_rule(g, t)
        assert binding_below_threshold(g, t) == _threshold_oracle(g, t), (g.adj, t)
