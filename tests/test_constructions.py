"""Extremal family builders, size formulas, regime dispatch."""

import math
from fractions import Fraction

import pytest

from bindex.binding import binding_number_bruteforce, binding_number_flow
from bindex.constructions import (
    Construction,
    RegimeReport,
    alpha_value,
    beta_value,
    bipartite_extremal_D,
    bipartite_extremal_K,
    f_formula,
    family_general,
    g_formula,
    general_extremal,
    lemma6_extremal,
    lemma6_max,
    theorem6_regime,
    theorem7_regime,
)
from bindex.graph import BipartitionSpec, DomainError, complete_bipartite, double_nested
from bindex.polynomials import RootInterval


def test_alpha_beta():
    assert alpha_value(9, 1) == 4
    assert alpha_value(13, 2) == 4
    assert beta_value(21, 4) == 8
    assert beta_value(25, 3) == 10


def test_formulas():
    assert f_formula(9, 1) == 20
    assert f_formula(13, 2) == 36
    assert g_formula(13, 2) == 28
    assert f_formula(21, 4) == 68
    assert g_formula(21, 4) == 69
    assert f_formula(25, 3) == 114 == g_formula(25, 3)
    with pytest.raises(DomainError):
        f_formula(3, 2)
    with pytest.raises(DomainError):
        g_formula(3, 2)


def test_general_family():
    c = family_general(16, 1, 1)
    assert c.label == "K1_join(16,1)"
    assert c.edge_count == 93
    assert family_general(16, 1, 2).edge_count == 84
    assert family_general(16, 1, 2).label == "Kt_join(16,1,2)"
    assert general_extremal(16, 1).graph == c.graph
    # hub vertex is adjacent to everything else
    assert c.graph.adj[0] == c.graph.mask_all ^ 1
    with pytest.raises(DomainError):
        family_general(16, 1, 0)
    with pytest.raises(DomainError):
        family_general(16, 1, 7)
    with pytest.raises(DomainError):
        family_general(4, 1, 1)
    with pytest.raises(DomainError):
        family_general(16, 0, 1)


def test_general_edge_closed_form():
    for r in range(1, 6):
        for n in range(r + 4, 40):
            assert general_extremal(n, r).edge_count == math.comb(n - r - 1, 2) + r + 1


def test_bipartite_extremal_K():
    c = bipartite_extremal_K(13, 2)
    assert c.label == "Kab(9,4)"
    assert c.graph == complete_bipartite(9, 4)
    assert c.edge_count == 36 == f_formula(13, 2)
    assert binding_number_bruteforce(c.graph).value == Fraction(4, 9)


def test_bipartite_extremal_D():
    c = bipartite_extremal_D(21, 4, "ceil")
    assert c.label == "D(8,5;1,7)"
    assert c.edge_count == 69 == g_formula(21, 4)
    # even n-r-1 makes both variants the same graph
    assert bipartite_extremal_D(21, 4, "floor").graph == c.graph
    ceil25 = bipartite_extremal_D(25, 3, "ceil")
    floor25 = bipartite_extremal_D(25, 3, "floor")
    assert ceil25.label == "D(11,4;1,9)"
    assert floor25.label == "D(10,4;1,10)"
    assert ceil25.graph != floor25.graph
    assert ceil25.edge_count == floor25.edge_count == 114
    with pytest.raises(DomainError):
        bipartite_extremal_D(7, 3)
    with pytest.raises(DomainError):
        bipartite_extremal_D(21, 4, "round")


@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("build", [
    bipartite_extremal_K,
    bipartite_extremal_D,
    f_formula,
    g_formula,
    alpha_value,
])
def test_bipartite_builders_reject_r_below_one(build, r):
    # r = 0 built K_{1,n-1} and r = -1 divided by zero in alpha_value
    with pytest.raises(DomainError, match="r must be at least 1"):
        build(9, r)


def test_constructions_satisfy_binding_bound():
    for r in range(1, 4):
        for n in range(r + 5, r + 15):
            for c in (general_extremal(n, r), bipartite_extremal_K(n, r),
                      bipartite_extremal_D(n, r)):
                if c.graph.n <= 24:
                    b = binding_number_bruteforce(c.graph).value
                else:
                    b = binding_number_flow(c.graph).value
                assert b < Fraction(1, r), (n, r, c.label)


def test_family_general_binding_bound():
    # b(K_t1 v (K_{n-(r+1)t1-1} u (r*t1+1)K_1)) <= t1/(r*t1+1) < 1/r
    for r in range(1, 4):
        for n in range(r + 5, r + 13):
            for t1 in range(1, min((n - 3) // (r + 1), 4) + 1):
                c = family_general(n, r, t1)
                b = binding_number_flow(c.graph).value
                assert b <= Fraction(t1, r * t1 + 1), (n, r, t1)
                assert b < Fraction(1, r)


def test_lemma6_max_cases():
    rep = lemma6_max(7, 2, 3)
    assert (rep.regime, rep.claimed_max) == ("le6_case_i", 14)
    assert rep.extremal_descriptions == ("Kab(7,2)",)
    rep = lemma6_max(8, 3, 3)
    assert (rep.regime, rep.claimed_max) == ("le6_case_ii", 17)
    assert rep.extremal_descriptions == ("D(1,7;2,1)",)
    rep = lemma6_max(5, 3, 2)
    assert (rep.regime, rep.claimed_max) == ("le6_case_iii", 9)
    assert rep.extremal_descriptions == ("D(2,3;1,2)",)
    rep = lemma6_max(7, 4, 2)
    assert (rep.regime, rep.claimed_max) == ("le6_case_iii", 19)
    assert rep.extremal_descriptions == ("D(4,3;1,3)",)
    rep = lemma6_max(4, 4, 1)
    assert (rep.regime, rep.claimed_max) == ("le6_case_iii", 10)
    assert rep.extremal_descriptions == ("D(2,2;1,3)",)


def test_lemma6_claimed_max_matches_graph():
    for p in range(2, 9):
        for q in range(1, p + 1):
            for r in range(1, 4):
                try:
                    rep = lemma6_max(p, q, r)
                except DomainError:
                    continue
                c = lemma6_extremal(p, q, r)
                assert c.edge_count == rep.claimed_max, (p, q, r)
                assert c.label == rep.extremal_descriptions[0]
                assert rep.constructions == (c,)
                g = c.graph
                assert g.isolated_vertices() == 0
                assert binding_number_bruteforce(g).value < Fraction(1, r)


def test_lemma6_empty_families():
    with pytest.raises(DomainError):
        lemma6_max(2, 2, 2)  # case iii with p <= r+1
    with pytest.raises(DomainError):
        lemma6_max(1, 1, 1)
    with pytest.raises(DomainError):
        lemma6_extremal(2, 2, 2)
    with pytest.raises(DomainError):
        lemma6_max(3, 4, 1)  # needs p >= q


def test_theorem6_regime():
    rep = theorem6_regime(13, 2)
    assert rep.regime == "bip_f_gt_g"
    assert rep.claimed_max == 36
    assert rep.extremal_descriptions == ("Kab(9,4)",)
    assert rep.hypothesis_ok
    rep = theorem6_regime(21, 4)
    assert rep.regime == "bip_f_lt_g"
    assert rep.claimed_max == 69
    assert rep.extremal_descriptions == ("D(8,5;1,7)",)
    rep = theorem6_regime(25, 3)
    assert rep.regime == "bip_tie"
    assert rep.claimed_max == 114
    assert rep.extremal_descriptions == (
        "Kab(19,6)", "D(11,4;1,9)", "D(10,4;1,10)")
    rep = theorem6_regime(9, 1)
    assert rep.regime == "bip_f_gt_g" and rep.claimed_max == 20
    assert rep.extremal_descriptions == ("Kab(5,4)",)
    assert rep.notes  # r = 1 always resolves to the complete bipartite side
    rep = theorem6_regime(6, 2)
    assert not rep.hypothesis_ok  # below n >= r^2 + r + 1
    with pytest.raises(DomainError):
        theorem6_regime(4, 2)


def test_theorem6_claimed_max_matches_extremals():
    for r in range(1, 5):
        for n in range(r + 5, 30):
            rep = theorem6_regime(n, r)
            assert rep.claimed_max == max(f_formula(n, r), g_formula(n, r))


def test_theorem7_regime():
    rep = theorem7_regime(13, 2)
    assert rep.regime == "bip_f_gt_g"
    assert rep.extremal_descriptions == ("Kab(9,4)",)
    assert rep.hypothesis_ok
    assert isinstance(rep.claimed_max, RootInterval)
    assert rep.claimed_max.contains(6.0, 1e-9)  # rho(K_{9,4}) = 6
    rep = theorem7_regime(21, 4)
    assert rep.regime == "bip_f_gt_g"  # radius order flips the edge-count tie
    assert not rep.hypothesis_ok  # 21 < r^2 + r + 2
    rep = theorem7_regime(25, 3)
    assert rep.regime == "bip_f_gt_g" and rep.hypothesis_ok
    assert rep.extremal_descriptions == ("Kab(19,6)",)
    with pytest.raises(DomainError):
        theorem7_regime(4, 2)


def _graph_of_label(label):
    """Rebuild a graph from its "Kab(a,b)" or "D(p1,p2;q1,q2)" label."""
    if label.startswith("Kab("):
        a, b = (int(x) for x in label[4:-1].split(","))
        return complete_bipartite(a, b)
    xs, ys = label[2:-1].split(";")
    spec = BipartitionSpec(
        tuple(int(x) for x in xs.split(",")), tuple(int(y) for y in ys.split(","))
    )
    return double_nested(spec)


def test_regime_constructions_match_their_labels():
    regimes = set()
    for r in range(1, 5):
        for n in range(r + 3, r + 30):
            for rep in (theorem6_regime(n, r), theorem7_regime(n, r)):
                regimes.add(rep.regime)
                labels = tuple(c.label for c in rep.constructions)
                assert labels == rep.extremal_descriptions, (n, r)
                for c in rep.constructions:
                    assert c.graph == _graph_of_label(c.label)
    assert regimes == {"bip_f_gt_g", "bip_f_lt_g", "bip_tie"}


def test_regime_report_validation():
    with pytest.raises(DomainError):
        RegimeReport(n=10, r=1, regime="weird", claimed_max=1,
                     extremal_descriptions=(), hypothesis_ok=True)


def test_construction_edge_count_property():
    c = Construction("Kab(2,2)", complete_bipartite(2, 2), ((0b11), (0b1100)))
    assert c.edge_count == 4
