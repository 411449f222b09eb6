"""Acceptance gate: one test and one printed pass line per criterion.

Budgets are wall-clock upper bounds; every numeric expectation is exact.
Run with -s (or read the -rA summary) to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bindex.binding import binding_number_bruteforce, binding_number_flow
from bindex.constructions import (
    bipartite_extremal_D,
    bipartite_extremal_K,
    f_formula,
    family_general,
    g_formula,
    general_extremal,
    theorem6_regime,
    theorem7_regime,
)
from bindex.codec import graph6_decode
from bindex.graph import BipartitionSpec, Graph, double_nested
from bindex.polynomials import RootInterval
from bindex.spectral import (
    certified_radius,
    charpoly,
    family_polynomial,
    quotient_matrix,
    spectral_radius_power,
)
from bindex.verify import (
    check_polynomial_identities,
    enumerate_bipartite_max,
    enumerate_bipartite_theorem6,
    enumerate_general_properties,
    scan_family_general,
    scan_lemma12,
)

pytestmark = pytest.mark.acceptance


def _done(num, budget, t0, detail):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"
    print(f"criterion {num}: PASS {detail} ({elapsed:.1f}s)", flush=True)


def _grid_constructions():
    for r in range(1, 6):
        for n in range(r + 3, 61):
            if n >= r + 4:
                yield n, r, "general", general_extremal(n, r)
            yield n, r, "K", bipartite_extremal_K(n, r)
            if n >= r + 5:
                yield n, r, "D", bipartite_extremal_D(n, r, "ceil")
                yield n, r, "D", bipartite_extremal_D(n, r, "floor")


def _all_ones_estimate(g, tol=1e-12):
    """rho of a connected g by power iteration on A + I from the all-ones
    start, which spectral_radius_power does not use; same stop rule."""
    a = np.array([[g.adj[v] >> w & 1 for w in range(g.n)] for v in range(g.n)], dtype=float)
    x = np.ones(g.n) / math.sqrt(g.n)
    for _ in range(100_000):
        y = a @ x + x
        lam = float(x @ y)
        d = y - lam * x
        if math.sqrt(d @ d) <= tol * lam:
            return lam - 1.0
        x = y / math.sqrt(y @ y)
    raise AssertionError("the all-ones start did not converge")


def test_criterion_1_flow_equals_brute_all_n6():
    t0 = time.monotonic()
    for code in range(1 << 15):
        adj = [0] * 6
        k = 0
        for u in range(6):
            for v in range(u + 1, 6):
                if (code >> k) & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                k += 1
        g = Graph(6, adj)
        assert binding_number_flow(g).value == binding_number_bruteforce(g).value
    _done(1, 60, t0, "flow = brute on all 32768 graphs with n = 6")


def test_criterion_2_property_sweep_to_n6():
    t0 = time.monotonic()
    total = 0
    for n in range(1, 7):
        rep = enumerate_general_properties(n)
        assert rep.verdict == "pass", rep.counters
        assert all(v == 0 for v in rep.counters["failures"].values())
        total += rep.counters["graphs_scanned"]
    assert total == 1 + 2 + 8 + 64 + 1024 + 32768
    _done(2, 300, t0, "independence and toughness properties clean for n <= 6")


def test_criterion_3_lemma6_exhaustive():
    start = time.monotonic()
    cases = [(7, 2, 3, 14), (8, 3, 3, 17), (5, 3, 2, 9), (7, 4, 2, 19)]
    for p, q, r, want in cases:
        t0 = time.monotonic()
        rep = enumerate_bipartite_max(p, q, r)
        assert rep.verdict == "pass", (p, q, r, rep.counters)
        assert rep.counters["max_found"] == want
        assert rep.counters["claimed_max"] == want
        assert rep.counters["audit_failures"] == 0
        assert time.monotonic() - t0 < 120, (p, q, r)
    _done(3, 480, start, "exhaustive maxima 14/17/9/19 with matching maximizers")


def test_criterion_4_theorem6_desk_scale():
    t0 = time.monotonic()
    rep = enumerate_bipartite_theorem6(9, 1)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 20
    assert rep.counters["predicted_extremals"] == ["Kab(5,4)"]
    assert rep.counters["shapes_match"] is True
    g = graph6_decode(rep.witnesses[0])
    assert sorted(g.degree(v) for v in range(g.n)) == [4] * 5 + [5] * 4
    assert time.monotonic() - t0 < 300
    t1 = time.monotonic()
    rep = enumerate_bipartite_theorem6(7, 2)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 10
    assert rep.counters["predicted_extremals"] == ["Kab(5,2)"]
    g = graph6_decode(rep.witnesses[0])
    assert sorted(g.degree(v) for v in range(g.n)) == [2] * 5 + [5] * 2
    assert time.monotonic() - t1 < 300
    _done(4, 600, t0, "maxima 20 at (9,1) and 10 at (7,2) with predicted shapes")


def test_criterion_5_closed_forms_and_binding_bound():
    t0 = time.monotonic()
    count = 0
    for n, r, kind, c in _grid_constructions():
        if kind == "general":
            assert c.edge_count == math.comb(n - r - 1, 2) + r + 1, (n, r)
        elif kind == "K":
            assert c.edge_count == f_formula(n, r), (n, r)
        else:
            assert c.edge_count == g_formula(n, r), (n, r)
        assert binding_number_flow(c.graph).value < Fraction(1, r), (n, r, c.label)
        count += 1
    assert count == 1075
    _done(5, 120, t0, f"edge formulas and exact b < 1/r on {count} constructions")


def test_criterion_6_spectral_certification():
    t0 = time.monotonic()
    for n, r, kind, c in _grid_constructions():
        iv = certified_radius(c.graph, c.blocks)
        rho, ones = spectral_radius_power(c.graph), _all_ones_estimate(c.graph)
        assert iv.contains(rho, 1e-8) and iv.contains(ones, 1e-8), (n, r, c.label)
        assert abs(rho - ones) <= 1e-12 * ones, (n, r, c.label, rho, ones)
    checked = 0
    for r in range(1, 6):
        for n in range(r + 4, 61):
            c = general_extremal(n, r)
            assert charpoly(quotient_matrix(c.graph, c.blocks)) == \
                family_polynomial("f4", n=n, r=r)
            checked += 1
            for t1 in range(1, (n - 3) // (r + 1) + 1):
                ct = family_general(n, r, t1)
                assert charpoly(quotient_matrix(ct.graph, ct.blocks)) == \
                    family_polynomial("f3", n=n, r=r, t1=t1)
                checked += 1
        for n in range(r + 5, 61):
            dc = bipartite_extremal_D(n, r, "ceil")
            assert charpoly(quotient_matrix(dc.graph, dc.blocks)) == \
                family_polynomial("h2", n=n, r=r)
            df = bipartite_extremal_D(n, r, "floor")
            assert charpoly(quotient_matrix(df.graph, df.blocks)) == \
                family_polynomial("h1", n=n, q=(n - r) // 2, r=r)
            checked += 2
    def quot(p1, p2, q1, q2):
        spec = BipartitionSpec((p1, p2), (q1, q2))
        return charpoly(quotient_matrix(double_nested(spec), spec.blocks()))
    for r in range(1, 6):
        for q in range(2, 40):
            for p in range(2, 41 - q):
                if p >= r + 2:
                    assert quot(p - r - 1, r + 1, 1, q - 1) == \
                        family_polynomial("g4", p=p, q=q, r=r)
                    checked += 1
                for t in range(1, q):
                    if r * t + 1 <= q - 1 and p - t >= 1:
                        assert quot(t, p - t, q - r * t - 1, r * t + 1) == \
                            family_polynomial("g1", p=p, q=q, r=r, t=t)
                        checked += 1
                    if p - r * t - 1 >= 1 and q - t >= 1:
                        assert quot(p - r * t - 1, r * t + 1, t, q - t) == \
                            family_polynomial("g5", p=p, q=q, r=r, t=t)
                        checked += 1
                if p - r * (q - 1) - 1 >= 1:
                    assert quot(p - r * (q - 1) - 1, r * (q - 1) + 1, q - 1, 1) == \
                        family_polynomial("g6", p=p, q=q, r=r)
                    checked += 1
        for n in range(r + 5, 61):
            for q in range(2, n - r - 1):
                if n - q - r - 1 >= 1:
                    assert quot(n - q - r - 1, r + 1, 1, q - 1) == \
                        family_polynomial("h1", n=n, q=q, r=r)
                    checked += 1
    assert checked > 30000
    _done(6, 300, t0, f"radii certified and {checked} quotient transcriptions exact")


def test_criterion_7_proof_identity_suite():
    t0 = time.monotonic()
    rep = check_polynomial_identities()
    assert rep.verdict == "pass"
    assert rep.counters["failures"] == []
    for key, count in rep.counters["checked"].items():
        assert count >= 500, (key, count)
    _done(7, 30, t0, f"five identities over {rep.counters['total']} tuples")


def test_criterion_8_regime_dispatch():
    t0 = time.monotonic()
    assert (theorem6_regime(13, 2).regime, theorem6_regime(13, 2).claimed_max) == \
        ("bip_f_gt_g", 36)
    assert (theorem6_regime(21, 4).regime, theorem6_regime(21, 4).claimed_max) == \
        ("bip_f_lt_g", 69)
    assert (theorem6_regime(25, 3).regime, theorem6_regime(25, 3).claimed_max) == \
        ("bip_tie", 114)
    for n, r in [(13, 2), (21, 4), (25, 3)]:
        rep = theorem7_regime(n, r)
        assert rep.regime == "bip_f_gt_g", (n, r)
        assert isinstance(rep.claimed_max, RootInterval)
        assert rep.claimed_max.verify()
    _done(8, 10, t0, "edge regimes 36/69/114 and certified radius comparisons")


def test_criterion_9_family_scan_optimality():
    t0 = time.monotonic()
    for n, r in [(16, 1), (20, 2)]:
        rep = scan_family_general(n, r)
        assert rep.verdict == "pass", (n, r, rep.counters)
        assert rep.counters["edge_argmax"] == [1], (n, r)
        assert rep.counters["radius_argmax"] == [1], (n, r)
    rep = scan_lemma12(21, 4)
    assert rep.verdict == "pass", rep.counters
    assert rep.counters["argmax_q"] == [8]
    assert rep.counters["beta"] == 8
    _done(9, 120, t0, "unique argmax t1 = 1 twice and unique argmax q = 8")
