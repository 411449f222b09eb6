"""Power iteration, equitable quotients, polynomial families, certification."""

import math
import random

import numpy as np
import pytest

import bindex.spectral as spectral
from bindex.constructions import (
    bipartite_extremal_D,
    bipartite_extremal_K,
    family_general,
    general_extremal,
)
from bindex.graph import (
    BipartitionSpec,
    DomainError,
    Graph,
    complete,
    complete_bipartite,
    disjoint_union,
    double_nested,
    vertices_of,
)
from bindex.polynomials import IntPolynomial
from bindex.spectral import (
    ConvergenceError,
    EquitabilityError,
    QuotientMatrix,
    certified_radius,
    charpoly,
    compare_radii,
    family_parameters,
    family_polynomial,
    quotient_matrix,
    spectral_radius_power,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_power_iteration_anchors():
    assert abs(spectral_radius_power(complete(5)) - 4) < 1e-10
    assert abs(spectral_radius_power(cycle(5)) - 2) < 1e-10
    assert abs(spectral_radius_power(cycle(8)) - 2) < 1e-10
    assert abs(spectral_radius_power(complete_bipartite(4, 3)) - math.sqrt(12)) < 1e-10
    assert abs(spectral_radius_power(path(4)) - 1.6180339887498949) < 1e-10
    d = double_nested(BipartitionSpec((2, 3), (1, 2)))
    assert abs(spectral_radius_power(d) - 2.7151945277031277) < 1e-10
    assert spectral_radius_power(complete(1)) == 0.0
    assert spectral_radius_power(Graph(3, [0, 0, 0])) == 0.0


def test_power_iteration_components():
    g = disjoint_union(complete(3), complete(5))
    assert abs(spectral_radius_power(g) - 4) < 1e-10


def test_power_iteration_deterministic():
    g = double_nested(BipartitionSpec((3, 4), (2, 5)))
    assert spectral_radius_power(g) == spectral_radius_power(g)


def _adjacency(g, comp):
    verts = vertices_of(comp)
    return np.array([[float(g.adj[v] >> w & 1) for w in verts] for v in verts])


def _warm_start(a):
    x = np.abs(np.linalg.eigh(a)[1][:, -1])
    return x / float(np.linalg.norm(x))


def _radius_with_linalg_norm(g, tol=1e-12):
    """spectral_radius_power with every norm taken by np.linalg.norm,
    each step allocating its result; ConvergenceError at the cap."""
    best = 0.0
    for comp in g.components():
        k = comp.bit_count()
        if k == 1:
            continue
        a = _adjacency(g, comp)
        x = _warm_start(a)
        for _ in range(spectral._POWER_CAP):
            y = a @ x + x
            lam = float(x @ y)
            if float(np.linalg.norm(y - lam * x)) <= tol * lam:
                break
            x = y / float(np.linalg.norm(y))
        else:
            raise ConvergenceError(lam - 1.0)
        best = max(best, lam - 1.0)
    return best


def test_power_iteration_bit_identical_to_linalg_norm_loop():
    # every family_grid shape for r <= 5, n <= 20, a disconnected graph,
    # and graphs with components of order 24 to 40
    graphs = [disjoint_union(complete_bipartite(3, 5), double_nested(BipartitionSpec((2, 3), (1, 2))))]
    for r in range(1, 6):
        for n in range(r + 3, 21):
            cs = [bipartite_extremal_K(n, r)]
            cs += [family_general(n, r, t1) for t1 in range(1, (n - 3) // (r + 1) + 1)]
            if n >= r + 5:
                cs += [bipartite_extremal_D(n, r, v) for v in ("ceil", "floor")]
            graphs += [c.graph for c in cs]
    graphs += [
        build(24, r).graph
        for build in (bipartite_extremal_K, general_extremal, bipartite_extremal_D)
        for r in (1, 2, 3)
    ]
    graphs += [
        bipartite_extremal_K(30, 2).graph,
        bipartite_extremal_D(33, 1).graph,
        general_extremal(40, 3).graph,
        path(25),
        disjoint_union(path(7), bipartite_extremal_K(26, 1).graph),
    ]
    assert len(graphs) > 380
    for g in graphs:
        for tol in (1e-6, 1e-9, 1e-12, 1e-14):
            assert spectral_radius_power(g, tol) == _radius_with_linalg_norm(g, tol), (g.adj, tol)


def test_power_iteration_tol_validation():
    with pytest.raises(DomainError):
        spectral_radius_power(complete(3), tol=0.0)
    with pytest.raises(DomainError):
        spectral_radius_power(complete(3), tol=-1e-9)
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            spectral_radius_power(complete(3), tol=tol)


def test_power_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_POWER_CAP", 0)
    with pytest.raises(ConvergenceError):
        spectral_radius_power(path(12))
    # the eigh start is an eigenvector up to rounding, so only a tol below
    # the float residual floor keeps the loop from stopping at step one;
    # should a residual round to exactly 0, both loops return instead
    g, tol = path(12), 1e-300
    monkeypatch.setattr(spectral, "_POWER_CAP", 3)
    try:
        ref = _radius_with_linalg_norm(g, tol=tol)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as ei:
            spectral_radius_power(g, tol=tol)
        assert ei.value.estimate == exc.estimate
        assert abs(exc.estimate - 2 * math.cos(math.pi / 13)) < 1e-14
    else:
        assert spectral_radius_power(g, tol=tol) == ref


def test_quotient_matrix():
    c = family_general(14, 1, 1)
    m = quotient_matrix(c.graph, c.blocks)
    assert m.entries == ((0, 11, 2), (1, 10, 0), (1, 0, 0))
    assert m.k == 3
    kb = complete_bipartite(5, 2)
    m = quotient_matrix(kb, [(1 << 5) - 1, 0b11 << 5])
    assert m.entries == ((0, 2), (5, 0))
    spec = BipartitionSpec((2, 3), (1, 2))
    m = quotient_matrix(double_nested(spec), list(spec.blocks()))
    # rows: P1, P2, Q1, Q2 with b_ij counted toward the opposite side
    assert m.entries == ((0, 0, 1, 2), (0, 0, 1, 0), (2, 3, 0, 0), (2, 0, 0, 0))


def _naive_quotient(g, partition):
    """Entries, or the error text naming the first offender, by counting
    every vertex's neighbours in every block."""
    rows = []
    for i, block in enumerate(partition):
        first, *rest = vertices_of(block)
        counts = [(g.adj[first] & other).bit_count() for other in partition]
        for v in rest:
            for j, other in enumerate(partition):
                got = (g.adj[v] & other).bit_count()
                if got != counts[j]:
                    return (
                        f"vertex {v} has {got} neighbors in block {j}, "
                        f"expected {counts[j]} from block {i}"
                    )
        rows.append(tuple(counts))
    return tuple(rows)


def test_quotient_matrix_matches_a_naive_count():
    # blow-ups of random graphs: each class is independent (open twins) or
    # a clique (closed twins), so the classes are equitable, and so are the
    # parts of a split class; a merge or a flipped edge often is not
    rng = random.Random(4401)
    equitable = 0
    for _ in range(400):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
        n = sum(sizes)
        label = rng.sample(range(n), n)
        classes, start = [], 0
        for s in sizes:
            classes.append([label[v] for v in range(start, start + s)])
            start += s
        edges = set()
        for a, ca in enumerate(classes):
            for b in range(a):
                if rng.random() < 0.5:
                    edges.update((min(u, v), max(u, v)) for u in ca for v in classes[b])
            if rng.random() < 0.5:
                edges.update((u, v) for u in ca for v in ca if u < v)
        if n > 1 and rng.random() < 0.3:
            edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        g = Graph.from_edges(n, edges)
        blocks = [sum(1 << v for v in c) for c in classes]
        move = rng.random()
        if move < 0.3 and len(blocks) > 1:
            blocks[0] |= blocks.pop()
        elif move < 0.6 and blocks[0].bit_count() > 1:
            low = blocks[0] & -blocks[0]
            blocks[0] ^= low
            blocks.append(low)
        want = _naive_quotient(g, blocks)
        try:
            got = quotient_matrix(g, blocks).entries
        except EquitabilityError as exc:
            got = str(exc)
        assert got == want, (n, g.adj, blocks)
        equitable += isinstance(want, tuple)
    assert 150 < equitable < 350


def test_quotient_matrix_partition_validation():
    g = complete(4)
    with pytest.raises(DomainError):
        quotient_matrix(g, [0b0011, 0b0110])  # overlap
    with pytest.raises(DomainError):
        quotient_matrix(g, [0b0011])  # does not cover
    with pytest.raises(DomainError):
        quotient_matrix(g, [0b1111, 0])  # empty block
    with pytest.raises(DomainError):
        quotient_matrix(g, [])


def test_quotient_matrix_not_equitable():
    p3 = path(3)
    with pytest.raises(EquitabilityError) as ei:
        quotient_matrix(p3, [0b011, 0b100])
    assert "vertex 1" in str(ei.value)
    # EquitabilityError stays catchable as a domain error
    assert isinstance(ei.value, DomainError)


def test_charpoly():
    assert charpoly([[3]]).coeffs == (-3, 1)
    assert charpoly([[0, 8], [6, 0]]).coeffs == (-48, 0, 1)
    assert charpoly([[5, 8], [6, 0]]).coeffs == (-48, -5, 1)
    qm = QuotientMatrix(((0, 2), (5, 0)))
    assert charpoly(qm).coeffs == (-10, 0, 1)
    with pytest.raises(DomainError):
        charpoly([[1, 2]])
    with pytest.raises(DomainError):
        charpoly([[0] * 9] * 9)


def _charpoly_laplace(entries):
    """Oracle: det(xI - M) by Laplace expansion over column subsets."""
    k = len(entries)
    xm = [
        [IntPolynomial([-entries[i][j], 1] if i == j else [-entries[i][j]]) for j in range(k)]
        for i in range(k)
    ]
    dets = {0: IntPolynomial([1])}
    for s in range(1, 1 << k):
        # expand the minor on rows 0..|s|-1 and columns s along its last row
        row = s.bit_count() - 1
        acc = IntPolynomial([])
        for pos, j in enumerate(j for j in range(k) if (s >> j) & 1):
            term = xm[row][j] * dets[s ^ (1 << j)]
            acc = acc + term if (row + pos) % 2 == 0 else acc - term
        dets[s] = acc
    return dets[(1 << k) - 1]


def _seeded_matrices(seed, per_k):
    rng = random.Random(seed)
    for k in range(1, 9):
        for _ in range(per_k):
            hi = rng.choice((1, 3, 12))
            yield [[rng.randint(-hi, hi) for _ in range(k)] for _ in range(k)]


def test_charpoly_matches_laplace_oracle():
    for m in _seeded_matrices(2027, 25):
        assert charpoly(m) == _charpoly_laplace(m), m
    for n, r in [(12, 1), (16, 2), (21, 4)]:
        for c in (general_extremal(n, r), bipartite_extremal_D(n, r), family_general(n, r, 2)):
            qm = quotient_matrix(c.graph, c.blocks)
            assert charpoly(qm) == _charpoly_laplace(qm.entries)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("x")
    for m in _seeded_matrices(2031, 4):
        want = sympy.Matrix(m).charpoly(lam).all_coeffs()
        assert charpoly(m).coeffs == tuple(int(c) for c in reversed(want)), m


def test_quotient_matrix_size_cap():
    with pytest.raises(DomainError):
        QuotientMatrix(tuple(tuple(0 for _ in range(9)) for _ in range(9)))


def test_family_polynomial_instances():
    assert family_polynomial("f1", n=14, r=1).coeffs == (26, 23, -3)
    assert family_polynomial("f2", n=14, alpha=6).coeffs == (-48, -5, 1)
    assert family_polynomial("f4", n=14, r=1).coeffs == (20, -13, -10, 1)
    assert family_polynomial("g4", p=4, q=4, r=2).coeffs == (9, 0, -7, 0, 1)
    assert family_polynomial("h1", n=10, q=4, r=2).coeffs == (27, 0, -15, 0, 1)
    assert family_polynomial("h2", n=25, r=3).coeffs == (396, 0, -114, 0, 1)
    assert family_parameters("f3") == ("n", "r", "t1")
    assert family_parameters("h3") == ("n", "r", "q")


def test_family_polynomial_validation():
    with pytest.raises(DomainError):
        family_polynomial("zz", n=3)
    with pytest.raises(DomainError):
        family_polynomial("f1", n=14)  # missing r
    with pytest.raises(DomainError):
        family_polynomial("f1", n=14, r=1, extra=3)
    with pytest.raises(DomainError):
        family_polynomial("f2", n=14, r=1)  # wrong name set


def test_transcription_small_grid():
    # three-block quotient of the join family
    for n, r, t1 in [(10, 1, 2), (12, 2, 1), (16, 1, 3), (20, 3, 2)]:
        c = family_general(n, r, t1)
        assert charpoly(quotient_matrix(c.graph, c.blocks)) == family_polynomial(
            "f3", n=n, r=r, t1=t1)
    for n, r in [(9, 1), (14, 1), (15, 2), (25, 3)]:
        c = general_extremal(n, r)
        assert charpoly(quotient_matrix(c.graph, c.blocks)) == family_polynomial(
            "f4", n=n, r=r)
    # four-block quotients of double nested graphs
    for p, q, r in [(6, 3, 2), (8, 4, 1), (9, 5, 2)]:
        spec = BipartitionSpec((p - r - 1, r + 1), (1, q - 1))
        g = double_nested(spec)
        assert charpoly(quotient_matrix(g, spec.blocks())) == family_polynomial(
            "g4", p=p, q=q, r=r)
    for n, q, r in [(12, 4, 2), (15, 5, 1), (21, 8, 4)]:
        spec = BipartitionSpec((n - q - r - 1, r + 1), (1, q - 1))
        g = double_nested(spec)
        assert charpoly(quotient_matrix(g, spec.blocks())) == family_polynomial(
            "h1", n=n, q=q, r=r)


def test_f3_reduces_to_f4_at_t1_one():
    for n, r in [(10, 1), (14, 1), (20, 2), (30, 4)]:
        assert family_polynomial("f3", n=n, r=r, t1=1) == family_polynomial(
            "f4", n=n, r=r)


def test_compare_radii():
    a = family_polynomial("f2", n=14, alpha=6)
    assert compare_radii(a, a) == "Equal"
    small = IntPolynomial([-12, 0, 1])
    big = IntPolynomial([-13, 0, 1])
    assert compare_radii(small, big) == "Less"
    assert compare_radii(big, small) == "Greater"
    # complete bipartite vs the ceil double nested quotient at the f = g point
    kq = IntPolynomial([-114, 0, 1])
    assert compare_radii(kq, family_polynomial("h2", n=25, r=3)) == "Greater"


def test_certified_radius():
    spec = BipartitionSpec((2, 3), (1, 2))
    g = double_nested(spec)
    iv = certified_radius(g, spec.blocks())
    assert iv.verify()
    assert iv.contains(2.7151945277031277, 1e-9)
    assert abs(spectral_radius_power(g) - iv.midpoint) < 1e-8
    with pytest.raises(DomainError):
        certified_radius(disjoint_union(complete(2), complete(2)), [0b11, 0b1100])


def test_rho_strictly_drops_after_edge_deletion():
    rng = random.Random(1009)
    seen = 0
    while seen < 200:
        n = rng.randint(4, 12)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = Graph(n, adj)
        if not g.is_connected():
            continue
        seen += 1
        edges = list(g.edges())
        u, v = edges[rng.randrange(len(edges))]
        adj2 = list(adj)
        adj2[u] &= ~(1 << v)
        adj2[v] &= ~(1 << u)
        h = Graph(n, adj2)
        assert spectral_radius_power(h) < spectral_radius_power(g) - 1e-10


def test_certified_matches_power_on_family_grid():
    for n, r in [(12, 1), (16, 2), (21, 4), (25, 3)]:
        for c in (general_extremal(n, r), bipartite_extremal_D(n, r)):
            iv = certified_radius(c.graph, c.blocks)
            assert iv.contains(spectral_radius_power(c.graph), 1e-8)
