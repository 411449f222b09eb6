"""Exhaustive scans, sweeps, and identity checks with frozen expectations."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bindex.binding import binding_number_bruteforce, binding_number_flow
from bindex.codec import graph6_decode
from bindex.graph import DomainError, LimitError
from bindex.verify import (
    VerificationReport,
    _colmasks,
    _graph_of_biadj,
    _member,
    _transpose_int,
    check_polynomial_identities,
    enumerate_bipartite_max,
    enumerate_bipartite_theorem6,
    enumerate_general_properties,
    scan_bipartite_family,
    scan_family_general,
    scan_lemma12,
)


def test_bipartite_max_case_iii():
    rep = enumerate_bipartite_max(5, 3, 2)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 9 == rep.counters["claimed_max"]
    assert rep.counters["regime"] == "le6_case_iii"
    assert rep.counters["predicted_extremal"] == "D(2,3;1,2)"
    # labeled maximizers: 10 ways to pick the deep X pair, 3 for the deep Y vertex
    assert rep.counters["maximizer_count"] == 30
    assert len(rep.witnesses) == 30
    assert rep.counters["audit_failures"] == 0
    for w in rep.witnesses:
        assert graph6_decode(w).edge_count() == 9


def test_bipartite_max_case_i_unique():
    rep = enumerate_bipartite_max(7, 2, 3)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 14
    assert rep.counters["maximizer_count"] == 1
    g = graph6_decode(rep.witnesses[0])
    assert g.edge_count() == 14 and g.n == 9


def test_bipartite_max_case_ii():
    rep = enumerate_bipartite_max(8, 3, 3)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 17
    # 8 choices of the lone shallow X vertex, 3 of the lone deep Y vertex
    assert rep.counters["maximizer_count"] == 24


def test_bipartite_max_square_parts():
    rep = enumerate_bipartite_max(4, 4, 1)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 10
    # 6 x 4 labelings plus the transposed family
    assert rep.counters["maximizer_count"] == 48


def test_bipartite_max_validation():
    with pytest.raises(LimitError):
        enumerate_bipartite_max(6, 5, 2)  # 30 cells
    with pytest.raises(DomainError):
        enumerate_bipartite_max(3, 4, 1)
    with pytest.raises(DomainError):
        enumerate_bipartite_max(2, 2, 2)  # empty family


def test_bipartite_max_deterministic_and_parallel():
    a = enumerate_bipartite_max(5, 3, 2)
    b = enumerate_bipartite_max(5, 3, 2)
    assert a.comparable() == b.comparable()
    c = enumerate_bipartite_max(5, 3, 2, threads=2)
    assert a.comparable() == c.comparable()
    d = enumerate_bipartite_max(4, 4, 1, threads=2)
    assert d.comparable() == enumerate_bipartite_max(4, 4, 1).comparable()
    # 2^24 masks make four 2^22-mask shards, so threads=2 runs the pool
    serial = enumerate_bipartite_max(6, 4, 2)
    assert serial.comparable() == enumerate_bipartite_max(6, 4, 2, threads=2).comparable()


def _no_isolated_vertex(m, p, q):
    rows = (1 << q) - 1
    return all(m >> (q * i) & rows for i in range(p)) and all(m & c for c in _colmasks(p, q))


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2), (6, 2), (12, 1)])
def test_member_kernel_matches_exact_binding(p, q):
    masks = [m for m in range(1 << (p * q)) if _no_isolated_vertex(m, p, q)]
    ms = np.array(masks, dtype=np.uint64)
    values = [binding_number_bruteforce(_graph_of_biadj(m, p, q)).value for m in masks]
    for r in (1, 2, 3):
        want = [v < Fraction(1, r) for v in values]
        assert _member(ms, p, q, r).tolist() == want, r
        for i in range(0, len(masks), 7):  # one-mask arrays
            assert _member(ms[i : i + 1], p, q, r).tolist() == [want[i]], (masks[i], r)


@pytest.mark.parametrize(
    "p,q,rs", [(7, 4, (1, 2, 3)), (9, 3, (2, 3, 4)), (14, 2, (1, 7, 9))]
)
def test_member_kernel_matches_flow_on_samples(p, q, rs):
    rng = random.Random(p * q)
    masks = []
    while len(masks) < 60:
        # rows crowd into a few heavy columns, so that large r also has members
        density = rng.uniform(0, 0.8)
        weights = [rng.random() ** 4 for _ in range(q)]
        rows = [
            1 << rng.choices(range(q), weights)[0]
            | sum(1 << j for j in range(q) if rng.random() < density)
            for _ in range(p)
        ]
        m = sum(row << (q * i) for i, row in enumerate(rows))
        if _no_isolated_vertex(m, p, q):
            masks.append(m)
    ms = np.array(masks, dtype=np.uint64)
    values = [binding_number_flow(_graph_of_biadj(m, p, q)).value for m in masks]
    seen = set()
    for r in rs:
        want = [v < Fraction(1, r) for v in values]
        assert _member(ms, p, q, r).tolist() == want, r
        assert _member(ms[:1], p, q, r).tolist() == want[:1], r
        seen.update(want)
    assert seen == {False, True}


def test_member_kernel_needs_the_y_side():
    # x0 alone meets y0, y1, y2; x1, x2 meet only y3 and x3, x4 only y4.
    # T = {y0, y1, y2} has 2 * |N(T)| < |T|, and no set of rows does. Within
    # the scan limit p * q <= 28, only (5, 5, 2) has such Y-side-only members.
    rows = [0b00111, 0b01000, 0b01000, 0b10000, 0b10000]
    m = sum(row << (5 * i) for i, row in enumerate(rows))
    assert binding_number_bruteforce(_graph_of_biadj(m, 5, 5)).value == Fraction(1, 3)
    ms = np.array([m, _transpose_int(m, 5, 5)], dtype=np.uint64)
    assert _member(ms, 5, 5, 2).tolist() == [True, True]
    assert _member(ms, 5, 5, 3).tolist() == [False, False]


def test_theorem6_enumeration():
    rep = enumerate_bipartite_theorem6(7, 2)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 10
    assert rep.counters["predicted_extremals"] == ["Kab(5,2)"]
    assert rep.counters["maximizer_count"] == 1
    assert rep.counters["shapes_match"] is True
    parts = {(p["p"], p["q"]): p["max"] for p in rep.counters["parts"]}
    assert parts == {(6, 1): 6, (5, 2): 10, (4, 3): 6}
    g = graph6_decode(rep.witnesses[0])
    assert g.n == 7 and g.edge_count() == 10


def test_theorem6_enumeration_eight_two():
    rep = enumerate_bipartite_theorem6(8, 2)
    assert rep.verdict == "pass"
    assert rep.counters["max_found"] == 12
    assert rep.counters["predicted_extremals"] == ["Kab(6,2)"]


def test_theorem6_enumeration_below_hypothesis():
    rep = enumerate_bipartite_theorem6(7, 3)
    assert rep.verdict == "hypothesis_not_met"
    assert rep.counters["max_found"] >= 6


def test_theorem6_enumeration_limit():
    with pytest.raises(LimitError):
        enumerate_bipartite_theorem6(11, 1)


def test_general_properties_exhaustive():
    rep = enumerate_general_properties(4)
    assert rep.verdict == "pass"
    assert rep.counters["graphs_scanned"] == 64
    assert rep.counters["mode"] == "exhaustive"
    assert all(v == 0 for v in rep.counters["failures"].values())
    rep5 = enumerate_general_properties(5)
    assert rep5.verdict == "pass"
    assert rep5.counters["graphs_scanned"] == 1024


def test_general_properties_sampled():
    rep = enumerate_general_properties(8, samples=50, seed=17)
    assert rep.verdict == "pass"
    assert rep.counters["mode"] == "sampled"
    assert rep.counters["graphs_scanned"] == 50
    assert rep.counters["seed"] == 17
    again = enumerate_general_properties(8, samples=50, seed=17)
    assert rep.comparable() == again.comparable()


def test_general_properties_sampled_ten():
    rep = enumerate_general_properties(10, samples=1000, seed=23)
    assert rep.verdict == "pass"
    assert rep.counters["graphs_scanned"] == 1000
    assert all(v == 0 for v in rep.counters["failures"].values())


def test_family_scan_sixteen_one():
    rep = scan_family_general(16, 1)
    assert rep.verdict == "pass"
    assert rep.counters["edge_max"] == 93
    assert rep.counters["edge_argmax"] == [1]
    assert rep.counters["radius_argmax"] == [1]
    assert rep.counters["t1_range"] == [1, 6]
    assert rep.counters["edge_claim_asserted"] is True
    assert rep.counters["radius_claim_asserted"] is False  # needs n >= 2r+15
    sweep = rep.counters["sweep"]
    assert [row["edges"] for row in sweep] == [93, 84, 78, 75, 75, 78]
    assert all(row["edges"] < 93 for row in sweep[1:])
    assert rep.counters["winner_binding"] == "1/2"


def test_family_scan_radius_claim_asserted():
    rep = scan_family_general(17, 1)  # 17 >= 2*1+15
    assert rep.counters["radius_claim_asserted"] is True
    assert rep.verdict == "pass"
    assert rep.counters["edge_argmax"] == [1]
    assert rep.counters["radius_argmax"] == [1]


def test_family_scan_fourteen_one():
    rep = scan_family_general(14, 1)
    assert rep.verdict == "pass"
    assert rep.counters["edge_claim_asserted"] is True
    sweep = rep.counters["sweep"]
    assert sweep[0]["edges"] == 68 == math.comb(12, 2) + 2
    assert [row["edges"] for row in sweep] == [68, 61, 57, 56, 58]


def test_family_scan_validation():
    with pytest.raises(DomainError):
        scan_family_general(4, 1)


def test_bipartite_family_sweep():
    rep = scan_bipartite_family(8, 3, 3)
    assert rep.verdict == "pass"
    assert rep.counters["case"] == "le6_case_ii"
    assert rep.counters["a_edge_argmax"] == [2]  # t = q - 1
    assert rep.counters["a_argmax_ok"] is True
    assert rep.counters["winner_binding"] == "2/7"
    assert [row["edges"] for row in rep.counters["sweep"]] == [16, 17]
    rep = scan_bipartite_family(7, 4, 2)
    assert rep.verdict == "pass"
    assert rep.counters["a_edge_argmax"] == [1]


def test_bipartite_family_chain():
    rep = scan_bipartite_family(13, 9, 2)
    assert rep.verdict == "pass"
    assert rep.counters["chain_hypothesis"] is True
    assert rep.counters["radius_chain_ok"] is True
    chain = rep.counters["radius_chain"]
    assert chain and all(row["order"] == "Less" for row in chain)


def test_bipartite_family_validation():
    with pytest.raises(DomainError):
        scan_bipartite_family(3, 3, 3)


def test_lemma12_sweep():
    rep = scan_lemma12(13, 2)
    assert rep.verdict == "pass"
    assert rep.counters["beta"] == 5
    assert rep.counters["argmax_q"] == [5]
    assert rep.counters["hypothesis_ok"] is True
    rows = {row["q"]: row["order_vs_beta"] for row in rep.counters["sweep"]}
    assert rows[5] == "Equal"
    assert all(v == "Less" for q, v in rows.items() if q != 5)
    rep = scan_lemma12(20, 2)
    assert rep.verdict == "pass"
    assert rep.counters["argmax_q"] == [8]


def test_lemma12_validation():
    with pytest.raises(DomainError):
        scan_lemma12(13, 1)
    with pytest.raises(DomainError):
        scan_lemma12(6, 2)


def test_identities_default_grid():
    rep = check_polynomial_identities()
    assert rep.verdict == "pass"
    assert rep.counters["failures"] == []
    checked = rep.counters["checked"]
    assert set(checked) == {
        "f3_f4_f5", "g1_g2_g3", "g5_g6_g7", "g5_g4_g8", "h1_h2_h3"}
    assert all(v >= 500 for v in checked.values())
    assert rep.counters["total"] == sum(checked.values())


def test_identities_custom_grid():
    rep = check_polynomial_identities(
        grid={"f": [(20, 2, 3)], "g": [(9, 5, 2, 2)], "h": [(21, 4, 8)]})
    assert rep.verdict == "pass"
    assert rep.params["grid"] == "custom"
    assert rep.counters["checked"]["f3_f4_f5"] == 1
    assert rep.counters["checked"]["h1_h2_h3"] == 1


def test_report_serialization():
    rep = enumerate_bipartite_max(5, 3, 2)
    data = json.loads(rep.to_json())
    assert data["claim_id"] == "lemma6_max"
    assert data["verdict"] == "pass"
    assert data["params"] == {"p": 5, "q": 3, "r": 2}
    assert data["witnesses"] == list(rep.witnesses)
    assert "elapsed_ms" in data["counters"]
    csv_text = scan_family_general(10, 1).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("t1,edges,rho")
    assert len(lines) == 4  # header plus one row per t1
    assert rep.comparable()["counters"].get("elapsed_ms") is None


def test_witnesses_sorted():
    rep = enumerate_bipartite_max(5, 3, 2)
    assert list(rep.witnesses) == sorted(rep.witnesses)


def test_report_type_fields():
    rep = scan_lemma12(13, 2)
    assert isinstance(rep, VerificationReport)
    assert rep.claim_id == "lemma12_scan"
    assert rep.params == {"n": 13, "r": 2}
