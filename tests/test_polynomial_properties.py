"""Property tests (need hypothesis): root brackets and comparison, graph6, flow = brute."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bindex.binding import binding_number_bruteforce, binding_number_flow
from bindex.codec import graph6_decode, graph6_encode
from bindex.graph import Graph
from bindex.polynomials import EQUAL, LESS, IntPolynomial, compare_largest_roots, largest_real_root
from test_polynomials import _bisection

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

nonzero = st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any).map(IntPolynomial)


@st.composite
def with_nonnegative_root(draw):
    """(den*x - num) times a nonzero factor: a real root num/den >= 0."""
    num = draw(st.integers(0, 40))
    den = draw(st.integers(1, 6))
    return IntPolynomial([-num, den]) * draw(nonzero)


@_SETTINGS
@given(with_nonnegative_root())
def test_largest_root_is_the_bisection_bracket(p):
    iv = largest_real_root(p)
    assert (iv.lo, iv.hi) == _bisection(p)


@_SETTINGS
@given(with_nonnegative_root(), with_nonnegative_root())
def test_compare_is_antisymmetric(p, q):
    assert compare_largest_roots(p, q) == -compare_largest_roots(q, p)


@_SETTINGS
@given(with_nonnegative_root())
def test_compare_with_itself_is_equal(p):
    assert compare_largest_roots(p, p) == EQUAL


@_SETTINGS
@given(with_nonnegative_root(), nonzero)
def test_a_multiple_has_no_smaller_largest_root(p, q):
    assert compare_largest_roots(p, p * q) in (EQUAL, LESS)


def graphs(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        .map(lambda edges: Graph.from_edges(n, [(u, v) for u, v in edges if u != v])))


@_SETTINGS
@given(graphs(40))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@_SETTINGS
@given(graphs(12))
def test_flow_value_equals_brute_value(g):
    assert binding_number_flow(g).value == binding_number_bruteforce(g).value
