"""Exhaustive scans, sweeps, and identity checks with frozen expectations."""

import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import bindex.verify as verify
from bindex.binding import (
    BindingResult,
    binding_number,
    binding_number_bruteforce,
    binding_number_flow,
)
from bindex.cli import run
from bindex.codec import graph6_decode, graph6_encode
from bindex.constructions import lemma6_max
from bindex.graph import DomainError, Graph, LimitError
from bindex.polynomials import IntPolynomial
from bindex.verify import (
    VerificationReport,
    _arrangements,
    _graph_of_rows,
    _maximisers,
    _member,
    _multisets,
    _run_scan,
    _shape,
    _survivors,
    _weights,
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


def test_bipartite_max_deterministic_and_parallel(monkeypatch):
    a = enumerate_bipartite_max(5, 3, 2)
    b = enumerate_bipartite_max(5, 3, 2)
    assert a.comparable() == b.comparable()
    c = enumerate_bipartite_max(5, 3, 2, threads=2)
    assert a.comparable() == c.comparable()
    d = enumerate_bipartite_max(4, 4, 1, threads=2)
    assert d.comparable() == enumerate_bipartite_max(4, 4, 1).comparable()
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    # _run_scan imports the pool class only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    serial = enumerate_bipartite_max(6, 4, 2)
    assert pools == []
    # 117 audits stay below the pool threshold even with threads=2
    small = enumerate_bipartite_max(5, 4, 2, threads=2)
    assert small.counters["audited"] == 117 < verify._POOL_AUDITS
    assert small.comparable() == enumerate_bipartite_max(5, 4, 2).comparable()
    assert pools == []
    # 481 audits reach the pool threshold, so threads=2 runs them in the pool
    assert serial.counters["audited"] == 481 >= verify._POOL_AUDITS
    assert serial.comparable() == enumerate_bipartite_max(6, 4, 2, threads=2).comparable()
    assert pools == [{"max_workers": 2}]


def test_import_loads_no_process_pool():
    # the pool machinery costs tens of ms to import; only a pooled scan needs it
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = (
        "import sys, bindex, bindex.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _rows_of(m, p, q):
    return [(m >> (q * i)) & ((1 << q) - 1) for i in range(p)]


def _mask_of(rows, q):
    return sum(row << (q * i) for i, row in enumerate(rows))


def _graph_of_mask(m, p, q):
    return _graph_of_rows(_rows_of(m, p, q), q)


def _row_array(ms, p, q):
    """The p x N uint8 row array of uint64 masks that _member takes."""
    full = np.uint64((1 << q) - 1)
    return np.stack([(ms >> np.uint64(q * i)) & full for i in range(p)]).astype(np.uint8)


def _no_isolated_vertex(m, p, q):
    rows = _rows_of(m, p, q)
    columns_met = 0
    for row in rows:
        columns_met |= row
    return all(rows) and columns_met == (1 << q) - 1


def _labeled_scan(p, q, r, e0):
    """Reference: the labeled scan over every one of the 2^(p*q) masks."""
    full = np.uint64((1 << q) - 1)
    ms = np.arange(1 << (p * q), dtype=np.uint64)
    ms = ms[np.bitwise_count(ms).astype(np.int64) >= e0]
    alive = np.ones(ms.shape, bool)
    for i in range(p):
        alive &= ((ms >> np.uint64(q * i)) & full) != 0
    for j in range(q):
        alive &= (ms & np.uint64(sum(1 << (i * q + j) for i in range(p)))) != 0
    ms = ms[alive]
    member = _member(_row_array(ms, p, q), p, q, r)
    audited = audit_bad = 0
    for idx in np.nonzero(ms % np.uint64(1000) == 0)[0].tolist():
        audited += 1
        g = _graph_of_mask(int(ms[idx]), p, q)
        bv = binding_number_bruteforce(g).value
        if bv != binding_number_flow(g).value or (bv < Fraction(1, r)) != bool(member[idx]):
            audit_bad += 1
    members = ms[member]
    counts = np.bitwise_count(members).astype(np.int64)
    best = int(counts.max(initial=-1))
    winners = sorted(tuple(_rows_of(int(m), p, q)) for m in members[counts == best])
    return best, winners, int(ms.size), audited, audit_bad


_SHAPES_20 = [(p, q) for q in range(1, 5) for p in range(q, 21) if p * q <= 20]


@pytest.mark.parametrize("p,q", _SHAPES_20)
def test_multiset_scan_matches_labeled_scan(p, q):
    for r in (1, 2, 3):
        try:
            e0s = [0, lemma6_max(p, q, r).claimed_max]
        except DomainError:
            e0s = [0]
        for e0 in e0s:
            best, winners, *counts = _run_scan(p, q, r, e0, 1)
            assert (best, sorted(winners), *counts) == _labeled_scan(p, q, r, e0), (r, e0)


@pytest.mark.parametrize("p,q", [(3, 3), (4, 3), (6, 2), (4, 4), (3, 5), (14, 1)])
def test_multiset_weights_count_distinct_arrangements(p, q):
    rows = _multisets(p, q, 0)
    weights = _weights(rows)
    assert int(weights.sum()) == ((1 << q) - 1) ** p
    assert (np.diff(rows.astype(int), axis=0) >= 0).all()
    for col, w in zip(rows.T.tolist()[::3], weights.tolist()[::3]):
        arrangements = list(_arrangements(tuple(col)))
        assert len(arrangements) == len(set(arrangements)) == w
        assert all(sorted(a) == col for a in arrangements)


@pytest.mark.parametrize("p,q", _SHAPES_20)
def test_multiset_alphabet_pruned_by_edge_threshold(p, q):
    # a row lighter than e0 - (p - 1) * q is in no multiset reaching e0
    whole = _multisets(p, q, 0)
    claimed = set()
    for r in (1, 2, 3):
        try:
            claimed.add(lemma6_max(p, q, r).claimed_max)
        except DomainError:
            pass
    for e0 in sorted({0, p * q} | claimed):
        pruned = _multisets(p, q, e0)
        assert pruned.shape[1] <= whole.shape[1]
        expected = whole[:, _survivors(whole, q, e0)[0]]
        assert np.array_equal(pruned[:, _survivors(pruned, q, e0)[0]], expected), e0


@pytest.mark.parametrize("p,q,r", [(5, 3, 2), (4, 4, 1), (8, 3, 3), (7, 4, 2), (14, 2, 1)])
def test_maximiser_weights_sum_to_the_masks(p, q, r):
    best, winners, *_ = _run_scan(p, q, r, lemma6_max(p, q, r).claimed_max, 1)
    assert len(set(winners)) == len(winners) > 0
    assert all(len(rows) == p for rows in winners)
    multisets = {tuple(sorted(rows)) for rows in winners}
    cols = np.array(sorted(multisets), dtype=np.uint8).T
    assert int(_weights(cols).sum()) == len(winners)


def test_maximisers_check_shapes_and_members():
    _, winners, *_ = _run_scan(5, 3, 2, 9, 1)
    report = enumerate_bipartite_max(5, 3, 2)
    claim = lemma6_max(5, 3, 2)
    assert _maximisers(8, 2, winners, claim.constructions) == (True, True, list(report.witnesses))
    # K(6,2), the (6, 2) part's extremal graph, has another shape
    assert _maximisers(8, 2, winners, lemma6_max(6, 2, 2).constructions)[:2] == (False, True)
    # K(5,3) has b = 3/5, no member for r = 2
    assert _maximisers(8, 2, [(7,) * 5], claim.constructions)[:2] == (False, False)


def _permute_columns(rows, perm):
    return tuple(sum((row >> j & 1) << perm[j] for j in range(len(perm))) for row in rows)


def _transpose(rows, q):
    return tuple(sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(q))


def test_shape_is_a_canonical_form():
    # a key that orders equal-degree columns by index changes for these
    # rows when columns 2 and 3 swap
    rows = (12, 13, 4, 10, 2)
    assert _shape(_permute_columns(rows, (0, 1, 3, 2)), 4) == _shape(rows, 4)
    rng = random.Random(9901)
    for _ in range(1500):
        q = rng.randint(1, 5)
        p = rng.randint(q, 7)
        rows = tuple(rng.randrange(1 << q) for _ in range(p))
        key = _shape(rows, q)
        perm = rng.sample(range(q), q)
        assert _shape(_permute_columns(rows, perm), q) == key, (rows, perm)
        assert _shape(tuple(rng.sample(rows, p)), q) == key, rows
        if p == q:
            assert _shape(_transpose(rows, q), q) == key, rows
        # the key is a relabeling of its input, so one key means one class
        kp, kq, krows = key
        views = [rows, _transpose(rows, q)] if p == q else [rows]
        assert (kp, kq) == (p, q) and any(
            sorted(_permute_columns(view, perm)) == sorted(krows)
            for view in views
            for perm in itertools.permutations(range(q))
        ), rows


def _maximisers_per_arrangement(n, r, winners, constructions):
    """Reference: every labeled arrangement built from its edge list, keyed
    and tested for membership on its own."""
    def graph(rows):
        p = len(rows)
        edges = [(i, p + j) for i, row in enumerate(rows) for j in range(n - p) if row >> j & 1]
        return Graph.from_edges(n, edges)

    graphs = [graph(rows) for rows in winners]
    found = {_shape(rows, n - len(rows)) for rows in winners}
    expected = set()
    for cons in constructions:
        p = cons.graph.bipartition()[0].bit_count()
        expected.add(_shape([cons.graph.adj[i] >> p for i in range(p)], n - p))
    members = all(binding_number(g).value < Fraction(1, r) for g in graphs)
    return found == expected, members, sorted(graph6_encode(g) for g in graphs)


def test_maximisers_match_the_per_arrangement_check(monkeypatch):
    calls = []

    def both(n, r, winners, constructions):
        got = _maximisers(n, r, winners, constructions)
        assert got == _maximisers_per_arrangement(n, r, winners, constructions), (n, r)
        calls.append(got)
        return got

    monkeypatch.setattr(verify, "_maximisers", both)
    for p, q in _SHAPES_20:
        for r in (1, 2, 3):
            try:
                lemma6_max(p, q, r)
            except DomainError:
                continue
            enumerate_bipartite_max(p, q, r)
    for n in range(2, 10):
        for r in (1, 2, 3):
            try:
                enumerate_bipartite_theorem6(n, r)
            except DomainError:
                pass
    # theorem 6 at (6, 2) and (7, 3) has maximisers of two shapes; every
    # scanned maximiser is a member, so non-members are mixed in by hand,
    # and other parts' constructions make shapes that do not match
    _, winners, *_ = _run_scan(5, 3, 2, 9, 1)
    for p, q in [(6, 2), (7, 1), (5, 3)]:
        cons = lemma6_max(p, q, 2).constructions
        both(8, 2, winners, cons)
        both(8, 2, winners + [(7,) * 5, (3, 5, 6, 7, 7)], cons)
    assert len(calls) > 60 and not all(shapes_ok for shapes_ok, *_ in calls)


# (sha256 of json.dumps(comparable(), sort_keys=True), sha256 of
# json.dumps(list(counters))): the first pins the content, the second the
# counter order that the text and csv formats print. The lemma6 and thm6
# content digests were computed with the labeled chunk scan that the
# multiset scan replaced, the rest before verify._report assembled reports.
# thm6 (8, 3) has an empty part; the *_unfit cases are the fail reports of a
# predicted extremal graph that is no member, pinned before the two
# enumerators shared one part scan.
_PINNED = {
    ("lemma6", 7, 2, 3): (
        "24bbf95270d5d524e7d6372a3f61280ce7e25506badf0bbe1ab61a09047d8714",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("lemma6", 8, 3, 3): (
        "9ffc8eb961a4caa7068a92182db66f9179ac49a3d496189ce01d5754819e1fb4",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("lemma6", 5, 3, 2): (
        "c12b6e32d09f4831f446a45c685c05f92977a009ba50028f98d95814664fd228",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("lemma6", 7, 4, 2): (
        "90679062e3ddfa622cad2f72dc34dff0dbfa7a900a801c5a04178f194b71aa7d",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("lemma6", 4, 4, 1): (
        "e90502136af47757d0f5217616ed46db620e05fb18201ecdfe2dd12821ba9394",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("lemma6", 6, 4, 2): (
        "cc8f136b8c7419be5a383970d917892bd43c50fb4dd53908db0be808c7a9057a",
        "575be93f5fd5fe6102592075f35c3f06d43d7d12598669b3c8106f0f52a09cc0",
    ),
    ("thm6", 9, 1): (
        "6ff023e9feb1d902fbc089dd948c0b599a00b45d1f114a9fb226438f3ff173bb",
        "f0a1838b26d8a8649515e9f1174688b6c033eff098ffe9361d0084d13a253bbe",
    ),
    ("thm6", 7, 2): (
        "b1ebbf9fe34ece5e3322a2d8bc0a17b214c5f1246e31e84bb0e12e7ab5dea9f8",
        "f0a1838b26d8a8649515e9f1174688b6c033eff098ffe9361d0084d13a253bbe",
    ),
    ("thm6", 8, 2): (
        "e5a0acdaa2dd6f26ebc811a32dda719dd7e6fc032f6a2ee6387d5ff92f2275b3",
        "f0a1838b26d8a8649515e9f1174688b6c033eff098ffe9361d0084d13a253bbe",
    ),
    ("thm6", 8, 3): (
        "d304d1beb8b82bbbcfc7216eb0baac1b34091398f6929f058d06bebe61333620",
        "f0a1838b26d8a8649515e9f1174688b6c033eff098ffe9361d0084d13a253bbe",
    ),
    ("lemma6_unfit", 5, 3, 2): (
        "46f60efa404d08aee6cf56be86861e4be49f4dad90ecdced45f703f70b6eeb97",
        "8fc33f9e37ecf23a5ef1193f14be84a70e3e7682c0eb022ce2b1feea5c4491d3",
    ),
    ("thm6_unfit", 7, 2): (
        "cffa6be62d6275c4faf515d2d3743cf145d3546ccb7d30611ee9c8815fd28dfa",
        "f35c59430f42fe4b2dbc7ddf0374f508c6245baad4e53fa4311e3c4fe9388ea9",
    ),
    ("family", 16, 1): (
        "6081d33fd3fa48e7df79654826c6104f11a77168ff73132c88fb957ca2c4664f",
        "ee6db778f22383e3fd127969c80e623af4584cfdb65f301a0fa82d7812feee10",
    ),
    ("bipfamily", 8, 6, 2): (
        "3c96dd932051fba7c68487dac30d1c2ad4edf2a3eda8e6faca00ec410d1a90ab",
        "46ca1a472c949f1f65da0e6b9fe1f9bf153feb90989fc2b08b2a41ab7bc2d1f2",
    ),
    ("lemma12", 14, 2): (
        "49fd76d927ccfc414deba5169f372d6419b4b3f51eb45d66ea79013038189fa4",
        "d0ccde7727e8afb794db66a5ab96f082661b6b7f772104157661b5d490c65237",
    ),
    ("properties", 5): (
        "5fdce0f96217bfb5be5ffa8f41f955ca4ae4a1193754fa1ee0f4d7948d454af3",
        "575f77869e5c91159a23c31e47ac980758b9dffea425c9b4dd884dfb04fdce32",
    ),
    ("properties", 8, 50, 7): (
        "5a2e22507e6e47a7ed1f256aa1e32f75c7cc10dd5c8a19bfb453d2773f39cec6",
        "575f77869e5c91159a23c31e47ac980758b9dffea425c9b4dd884dfb04fdce32",
    ),
    ("identities",): (
        "6eb6bb1ffddacb4503a44223efcabfc25e3972d1089fab7e16d8b3005a7f4ea0",
        "6b1db165051c46a802cf1cf42531f8b62216a5b84674cd793a075fa2aa334d4c",
    ),
    ("wrong_transcription", 8, 3, 3): (
        "dbe92fac639d53d7167f5e7d3ea7efe8d886f47028db7a48ea1112e35dba1c96",
        "64f0c829c2211a8a52870ab5f32577fa3712842dea08755239f8a5facf3c6cdc",
    ),
}
_PINNED_RUNS = {
    "lemma6": enumerate_bipartite_max,
    "thm6": enumerate_bipartite_theorem6,
    "lemma6_unfit": enumerate_bipartite_max,
    "thm6_unfit": enumerate_bipartite_theorem6,
    "family": scan_family_general,
    "bipfamily": scan_bipartite_family,
    "lemma12": scan_lemma12,
    "properties": enumerate_general_properties,
    "identities": check_polynomial_identities,
    "wrong_transcription": scan_bipartite_family,
}


@pytest.mark.parametrize("case", sorted(_PINNED), ids=lambda c: "-".join(map(str, c)))
def test_scan_reports_match_pinned_digests(case, monkeypatch):
    kind, *args = case
    if kind == "wrong_transcription":
        monkeypatch.setattr(verify, "family_polynomial", lambda name, **params: IntPolynomial((1, 1)))
    if kind.endswith("_unfit"):
        # every graph reads b = 1, so the predicted extremal graph is no member
        monkeypatch.setattr(verify, "binding_number", lambda g: BindingResult(Fraction(1), 1, "stub"))
    rep = _PINNED_RUNS[kind](*args)
    content = json.dumps(rep.comparable(), sort_keys=True)
    order = json.dumps(list(rep.counters))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in (content, order)) == _PINNED[case]


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2), (6, 2), (12, 1)])
def test_member_kernel_matches_exact_binding(p, q):
    masks = [m for m in range(1 << (p * q)) if _no_isolated_vertex(m, p, q)]
    ms = _row_array(np.array(masks, dtype=np.uint64), p, q)
    values = [binding_number_bruteforce(_graph_of_mask(m, p, q)).value for m in masks]
    for r in (1, 2, 3):
        want = [v < Fraction(1, r) for v in values]
        assert _member(ms, p, q, r).tolist() == want, r
        for i in range(0, len(masks), 7):  # one-mask arrays
            assert _member(ms[:, i : i + 1], p, q, r).tolist() == [want[i]], (masks[i], r)


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
        m = _mask_of(rows, q)
        if _no_isolated_vertex(m, p, q):
            masks.append(m)
    ms = _row_array(np.array(masks, dtype=np.uint64), p, q)
    values = [binding_number_flow(_graph_of_mask(m, p, q)).value for m in masks]
    seen = set()
    for r in rs:
        want = [v < Fraction(1, r) for v in values]
        assert _member(ms, p, q, r).tolist() == want, r
        assert _member(ms[:, :1], p, q, r).tolist() == want[:1], r
        seen.update(want)
    assert seen == {False, True}


def test_member_kernel_needs_the_y_side():
    # x0 alone meets y0, y1, y2; x1, x2 meet only y3 and x3, x4 only y4.
    # T = {y0, y1, y2} has 2 * |N(T)| < |T|, and no set of rows does. Within
    # the scan limit p * q <= 28, only (5, 5, 2) has such Y-side-only members.
    rows = [0b00111, 0b01000, 0b01000, 0b10000, 0b10000]
    cols = [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(5)]
    assert binding_number_bruteforce(_graph_of_rows(rows, 5)).value == Fraction(1, 3)
    ms = _row_array(np.array([_mask_of(rows, 5), _mask_of(cols, 5)], dtype=np.uint64), 5, 5)
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


def test_sweep_graphs_have_exactly_the_pairs_of_their_masks(monkeypatch):
    """Bit k of a sweep mask is the k-th pair (i, j), i < j, in column order."""
    swept = []
    real = verify._binding_sets_many

    def spy(graphs):
        def recorded():
            for g in graphs:
                swept.append(g)
                yield g

        return real(recorded())

    monkeypatch.setattr(verify, "_binding_sets_many", spy)
    enumerate_general_properties(4)
    rng = random.Random(29)
    enumerate_general_properties(9, samples=6, seed=29)
    masks = [(4, mask) for mask in range(64)] + [(9, rng.getrandbits(36)) for _ in range(6)]
    assert len(swept) == len(masks)
    for (n, mask), g in zip(masks, swept):
        order = [(i, j) for j in range(1, n) for i in range(j)]
        assert g.n == n
        assert set(g.edges()) == {pair for k, pair in enumerate(order) if mask >> k & 1}


def test_general_properties_sampled():
    rep = enumerate_general_properties(8, samples=50, seed=17)
    assert rep.verdict == "pass"
    assert rep.counters["mode"] == "sampled"
    assert rep.counters["graphs_scanned"] == 50
    assert rep.counters["seed"] == 17
    again = enumerate_general_properties(8, samples=50, seed=17)
    assert rep.comparable() == again.comparable()


def test_general_properties_capped_at_the_toughness_limit(capsys):
    for n in (17, 24):
        with pytest.raises(LimitError):
            enumerate_general_properties(n, samples=10)
    assert run(["verify", "properties", "--n", "17", "--samples", "300"]) == 2
    assert "n <= 16" in capsys.readouterr().err


def test_general_properties_sampled_needs_samples(capsys):
    for samples in (0, -3):
        with pytest.raises(DomainError, match="samples >= 1"):
            enumerate_general_properties(7, samples=samples)
        assert run(["verify", "properties", "--n", "7", "--samples", str(samples)]) == 2
        assert "samples >= 1" in capsys.readouterr().err
    # n <= 6 sweeps every graph and ignores samples
    assert enumerate_general_properties(4, samples=0).counters["graphs_scanned"] == 64


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


def test_bipartite_family_chain_reuses_the_swept_transcriptions(monkeypatch):
    calls = []
    transcription = verify.family_polynomial

    def counted(name, **params):
        calls.append(name)
        return transcription(name, **params)

    monkeypatch.setattr(verify, "family_polynomial", counted)
    rep = scan_bipartite_family(13, 9, 2)
    assert rep.verdict == "pass" and rep.counters["chain_hypothesis"] is True
    # family A has t = 1..5 and family B t = 1..3; the chain adds only g4
    assert len(rep.counters["sweep"]) == 8
    assert sorted(calls) == ["g1"] * 3 + ["g4"] + ["g5"] * 5


def test_family_sweeps_never_run_empty():
    raised = 0
    for r in range(1, 4):
        for q in range(1, 9):
            for p in range(q, 9):
                try:
                    rep = scan_bipartite_family(p, q, r)
                except DomainError as exc:
                    assert "no valid block sizes" in str(exc), (p, q, r)
                    raised += 1
                    continue
                assert any(row["family"] == "A" for row in rep.counters["sweep"]), (p, q, r)
    assert 0 < raised < 108
    for r in range(2, 5):
        for n in range(r + 6, r + 21):
            q_lo, q_hi = scan_lemma12(n, r).counters["q_range"]
            assert q_lo <= q_hi, (n, r)


_SWEEPS = [
    (scan_family_general, (16, 1), "f3", {"t1": 1}),
    (scan_bipartite_family, (8, 3, 3), "g5", {"family": "A", "t": 1}),
    (scan_lemma12, (13, 2), "h1", {"q": 4}),
]


def test_family_sweeps_fail_on_a_wrong_transcription(monkeypatch, capsys):
    monkeypatch.setattr(verify, "family_polynomial", lambda name, **params: IntPolynomial((1, 1)))
    for sweep, args, family, where in _SWEEPS:
        rep = sweep(*args)
        assert rep.verdict == "fail", sweep
        assert rep.counters["error"] == f"quotient charpoly does not match {family} transcription"
        assert {k: rep.counters[k] for k in where} == where
    assert run(["scan", "bipfamily", "--p", "8", "--q", "3", "--r", "3"]) == 1
    assert "verdict = fail" in capsys.readouterr().out


def test_family_sweeps_fail_on_a_wrong_edge_count(monkeypatch):
    monkeypatch.setattr(verify.Graph, "edge_count", lambda self: -1)
    for sweep, args, family, where in _SWEEPS:
        rep = sweep(*args)
        assert rep.verdict == "fail", sweep
        assert rep.counters["error"] == f"edge count does not match the {family} family formula"
        assert {k: rep.counters[k] for k in where} == where


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
