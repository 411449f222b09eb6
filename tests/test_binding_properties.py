"""Property tests (need hypothesis): threshold decisions match the subset oracle."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bindex.binding import _threshold_plan, binding_below_threshold, binding_number_bruteforce
from bindex.graph import Graph

from test_binding import _threshold_oracle


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
    # falling (the Dinkelbach order), then shuffled on the same plan, so
    # the second pass meets the moves and refusal memos of the first
    g, falling, shuffled = case
    expected = {t: _threshold_oracle(g, t) for t in falling}
    _threshold_plan.cache_clear()
    for t in falling + shuffled:
        assert binding_below_threshold(g, t) == expected[t], (g.adj, t)
