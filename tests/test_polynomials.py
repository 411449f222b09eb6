"""Integer polynomials, Sturm chains, certified largest real roots."""

import random
from fractions import Fraction

import pytest

from bindex.constructions import bipartite_extremal_D, bipartite_extremal_K, general_extremal
from bindex.graph import DomainError
from bindex.polynomials import (
    EQUAL,
    GREATER,
    LESS,
    IntPolynomial,
    RootInterval,
    _Isolator,
    _cauchy_bound,
    compare_largest_roots,
    count_roots,
    largest_real_root,
    poly_gcd,
    squarefree_part,
    sturm_chain,
)
from bindex.spectral import charpoly, family_parameters, family_polynomial, quotient_matrix

x = IntPolynomial([0, 1])


def test_construction_and_normalization():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1 and p.lead == 2
    z = IntPolynomial([0])
    assert z.coeffs == () and z.degree == -1 and not z
    assert IntPolynomial([3]).degree == 0


def test_arithmetic():
    p = x * x - IntPolynomial([12])
    assert p.coeffs == (-12, 0, 1)
    assert (p + IntPolynomial([12])).coeffs == (0, 0, 1)
    assert (-p).coeffs == (12, 0, -1)
    assert (p * 3).coeffs == (-36, 0, 3)
    q = IntPolynomial([-1, 1]) * IntPolynomial([1, 1])
    assert q.coeffs == (-1, 0, 1)
    assert p - p == IntPolynomial([0])


def test_evaluation_and_sign():
    p = x * x - IntPolynomial([12])
    assert p(4) == 4
    assert p(Fraction(7, 2)) == Fraction(1, 4)
    assert p.sign_at(Fraction(3)) == -1
    assert p.sign_at(Fraction(4)) == 1
    assert p.sign_at(Fraction(7, 2)) == 1
    assert IntPolynomial([-12, 0, 1]).derivative().coeffs == (0, 2)


def test_str_forms():
    assert str(x * x - IntPolynomial([12])) == "x^2 - 12"
    assert repr(x) == "IntPolynomial(x)"


def test_primitive():
    assert IntPolynomial([6, -9, 3]).primitive().coeffs == (2, -3, 1)
    assert IntPolynomial([-6, 9, -3]).primitive().coeffs == (-2, 3, -1)


def test_gcd_and_squarefree():
    a = IntPolynomial([3, -4, 1])  # (x-1)(x-3)
    b = IntPolynomial([-9, 0, 1])
    assert poly_gcd(a, b).coeffs == (-3, 1)
    p = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([2, 1])
    assert squarefree_part(p).coeffs == (-2, 1, 1)


def test_sturm_counts():
    chain = sturm_chain(IntPolynomial([-2, 0, 1]))
    assert count_roots(chain, Fraction(0), Fraction(2)) == 1
    assert count_roots(chain, Fraction(2), Fraction(3)) == 0
    chain = sturm_chain(IntPolynomial([3, -4, 1]))
    assert count_roots(chain, Fraction(0), Fraction(4)) == 2


def test_largest_root_exact_linear():
    iv = largest_real_root(IntPolynomial([-5, 1]))
    assert iv.exact and iv.lo == iv.hi == 5
    assert iv.verify()
    iv = largest_real_root(IntPolynomial([-5, 2]))
    assert iv.exact and iv.lo == Fraction(5, 2)


def test_largest_root_zero_cases():
    iv = largest_real_root(IntPolynomial([0, 0, 0, 1]))
    assert iv.exact and iv.lo == 0
    iv = largest_real_root(IntPolynomial([0, -1, 1]))
    assert iv.exact and iv.lo == 1


def test_largest_root_certified_interval():
    iv = largest_real_root(IntPolynomial([-12, 0, 1]))
    assert not iv.exact
    assert iv.hi - iv.lo < Fraction(1, 2 ** 40)
    assert abs(iv.midpoint - 3.4641016151377544) < 1e-9
    assert iv.verify()
    assert iv.contains(3.4641016151377544)
    assert not iv.contains(3.46, 0.0)
    assert iv.contains(3.46, 0.01)


def test_largest_root_cubic_anchor():
    p = IntPolynomial([20, -13, -10, 1])
    iv = largest_real_root(p)
    assert iv.contains(11.0153429388877, 1e-9)
    assert iv.verify()


def test_largest_root_domain_errors():
    with pytest.raises(DomainError):
        largest_real_root(IntPolynomial([1, 0, 1]))  # no real roots
    with pytest.raises(DomainError):
        largest_real_root(IntPolynomial([5, 1]))  # only root is negative
    with pytest.raises(DomainError):
        largest_real_root(IntPolynomial([7]))
    with pytest.raises(DomainError):
        largest_real_root(IntPolynomial([0]))


def test_compare_largest_roots():
    a = IntPolynomial([-12, 0, 1])
    b = IntPolynomial([-13, 0, 1])
    assert compare_largest_roots(a, b) < 0
    assert compare_largest_roots(b, a) > 0
    assert compare_largest_roots(a, a) == 0
    # equal roots reached through different polynomials
    c = IntPolynomial([3, -4, 1])       # roots 1, 3
    d = IntPolynomial([-9, 0, 1])       # roots -3, 3
    assert compare_largest_roots(c, d) == 0
    assert compare_largest_roots(IntPolynomial([-2, 1]), IntPolynomial([-4, 0, 1])) == 0
    # close but distinct: 1000000/999999 vs 1
    e = IntPolynomial([-1000000, 999999])
    f = IntPolynomial([-1, 1])
    assert compare_largest_roots(e, f) > 0


def test_root_interval_verify_rejects_lies():
    p = IntPolynomial([-12, 0, 1])
    assert not RootInterval(p, Fraction(1), Fraction(2)).verify()
    assert RootInterval(p, Fraction(3), Fraction(5)).verify()
    # an interval holding both roots of (x-1)(x-3) is not a certificate
    q = IntPolynomial([3, -4, 1])
    assert not RootInterval(q, Fraction(0), Fraction(4)).verify()
    # an exact root is a certificate only when it is the largest
    assert not RootInterval(q, Fraction(1), Fraction(1)).verify()
    assert RootInterval(q, Fraction(3), Fraction(3)).verify()
    assert RootInterval(q * q * IntPolynomial([0, 1]), Fraction(3), Fraction(3)).verify()
    assert not RootInterval(IntPolynomial([0, -1, 1]), Fraction(0), Fraction(0)).verify()


# (coefficients, lo, hi) of largest_real_root, frozen from the Fraction
# bisection that preceded the integer one. Rows 8-15 have repeated roots,
# a root at 0 or a linear square-free part; rows 16-25 put a rational root
# on a bisection midpoint; rows 26-35 are printed families; the rest are
# seeded products.
ROOTS = [
    ((-12, 0, 1), '60941120090253/17592186044416', '30470560045133/8796093022208'),
    ((-13, 0, 1), '3964345551915/1099511627776', '31714764415327/8796093022208'),
    ((-2, 0, 1), '6219777023949/4398046511104', '388736063997/274877906944'),
    ((20, -13, -10, 1), '12111497645247/1099511627776', '387567924647925/35184372088832'),
    ((-5, 1), '5', '5'),
    ((-5, 2), '5/2', '5/2'),
    ((0, 0, 0, 1), '0', '0'),
    ((0, -1, 1), '1', '1'),
    ((2, -3, 0, 1), '4398046511103/4398046511104', '2199023255553/2199023255552'),
    ((-18, 12, 7, -6, 1), '13194139533309/4398046511104', '26388279066625/8796093022208'),
    ((0, 25, 0, -10, 0, 1), '1229291370879/549755813888', '9834330967035/4398046511104'),
    ((-8, 12, -6, 1), '2', '2'),
    ((1, -6, 9), '1/3', '1/3'),
    ((0, 0, 25, -20, 4), '5/2', '5/2'),
    ((0, 1, 1), '0', '0'),
    ((0, 0, 1, 0, 1), '0', '0'),
    ((3, -3, -1, 1), '3808820005641/2199023255552', '1904410002821/1099511627776'),
    ((-1, 1, -1, 1), '1', '1'),
    ((7, -8, 1), '123145302310911/17592186044416', '15393162788865/2199023255552'),
    ((-3, 7, -5, 1), '6597069766655/2199023255552', '26388279066625/8796093022208'),
    ((1, -7, 12), '366503875925/1099511627776', '733007751851/2199023255552'),
    ((-2, 1, -2, 1), '4398046511103/2199023255552', '8796093022209/4398046511104'),
    ((21, -10, 1), '61572651155455/8796093022208', '123145302310921/17592186044416'),
    ((9, -6, -3, 2), '3808820005641/2199023255552', '7617640011285/4398046511104'),
    ((6, -8, -3, 4), '6219777023949/4398046511104', '388736063997/274877906944'),
    ((6, -8, 0, -3, 4), '5541191377755/4398046511104', '2770595688879/2199023255552'),
    ((26, 23, -3), '76232806192465/8796093022208', '38116403096235/4398046511104'),
    ((-48, -5, 1), '694220026102603/70368744177664', '173555006525663/17592186044416'),
    ((140, -26, -11, 1), '3431385356180913/281474976710656', '1715692678090527/140737488355328'),
    ((9, 0, -7, 0, 1), '2531928589845/1099511627776', '20255428718765/8796093022208'),
    ((108, 0, -30, 0, 1), '89386057990119/17592186044416', '715088463921061/140737488355328'),
    ((40, 0, -22, 0, 1), '39337323868133/8796093022208', '314698590945105/70368744177664'),
    ((396, 0, -114, 0, 1), '2957677678793551/281474976710656', '5915355357587499/562949953421312'),
    ((-320, 0, 72), '4635948076815/2199023255552', '9271896153633/4398046511104'),
    ((27, 0, -15, 0, 1), '31602743874177/8796093022208', '3950342984273/1099511627776'),
    ((24, 4, -16, 4), '13194139533309/4398046511104', '26388279066625/8796093022208'),
    ((1080, 1296, 378, 216, -3, -63, -3, 3), '303755465583457/70368744177664', '2430043724668089/562949953421312'),
    ((72, -216, 21, -63, -1, 3), '689470068302819/140737488355328', '172367517075723/35184372088832'),
    ((-150, 515, -160, -122, 64, -45, 18), '17592186044415/8796093022208', '35184372088845/17592186044416'),
    ((160, 0, -56, 0, 4), '222525507687123/70368744177664', '55631376921791/17592186044416'),
    ((-4, 3), '4/3', '4/3'),
    ((735, -693, -525, 456, 123, -93, -9, 6), '24552427558169/8796093022208', '98209710232707/35184372088832'),
    ((-9, 2, 3), '786426172277/549755813888', '3145704689109/2199023255552'),
    ((-2, -6, 3, 9), '897747484769/1099511627776', '1795494969539/2199023255552'),
    ((-12, -12, 1, 1), '60941120090253/17592186044416', '30470560045133/8796093022208'),
    ((-3, 0, 1), '3808820005641/2199023255552', '1904410002821/1099511627776'),
]

# (row, row, compare_largest_roots), frozen the same way
COMPARISONS = [
    (0, 1, -1),
    (0, 0, 0),
    (3, 27, 1),
    (26, 2, 1),
    (9, 2, 1),
    (16, 17, 1),
    (12, 13, -1),
    (13, 5, 0),
    (5, 13, 0),
    (32, 33, 1),
    (32, 34, 1),
    (20, 21, -1),
    (11, 4, -1),
    (14, 15, 0),
    (19, 9, 0),
    (0, 44, 0),
    (44, 0, 0),
    (16, 45, 0),
    (45, 16, 0),
    (2, 23, -1),
    (5, 18, -1),
    (43, 20, 1),
    (1, 20, 1),
    (18, 20, 1),
    (9, 41, 1),
    (26, 39, 1),
    (43, 4, -1),
    (18, 39, 1),
    (12, 28, -1),
    (18, 8, 1),
    (16, 24, 1),
    (38, 10, -1),
    (21, 36, -1),
    (0, 23, 1),
    (2, 29, -1),
    (10, 23, 1),
    (23, 18, -1),
    (36, 6, 1),
    (28, 13, 1),
    (27, 13, 1),
    (7, 3, -1),
    (3, 3, 0),
    (10, 38, 1),
    (43, 9, -1),
]


def test_largest_root_brackets_are_frozen():
    for coeffs, lo, hi in ROOTS:
        iv = largest_real_root(IntPolynomial(coeffs))
        assert (str(iv.lo), str(iv.hi)) == (lo, hi), coeffs
        assert iv.verify()


def test_comparisons_are_frozen():
    for i, j, want in COMPARISONS:
        pa, pb = IntPolynomial(ROOTS[i][0]), IntPolynomial(ROOTS[j][0])
        assert compare_largest_roots(pa, pb) == want, (i, j)


def test_integer_prs_keeps_signs():
    # remainders are taken up to a positive factor only, so the chain keeps
    # the signs a Fraction remainder sequence gives, also when a divisor has
    # a negative leading coefficient (here -4x^3 - 3x)
    p = IntPolynomial([5, 0, -3, 0, -2])
    chain = sturm_chain(p)
    assert [q.coeffs for q in chain] == [(5, 0, -3, 0, -2), (0, -3, 0, -4), (-10, 0, 3), (0, 1), (1,)]
    assert count_roots(chain, Fraction(-2), Fraction(2)) == 2
    q = IntPolynomial([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert [c.coeffs for c in sturm_chain(q)] == [(-6, 11, -6, 1), (11, -12, 3), (-2, 1), (1,)]
    assert poly_gcd(-q, IntPolynomial([2, -3, 1])).coeffs == (2, -3, 1)
    assert squarefree_part(-(q * q)).coeffs == (-6, 11, -6, 1)


def _seeded_polynomials(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = IntPolynomial([rng.choice((1, -1, 2, 3))])
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.35:
                p = p * IntPolynomial([-rng.randint(-4, 12), rng.choice((1, 2, 3, 4, 8))])
            elif kind < 0.7:
                p = p * IntPolynomial([-rng.randint(-5, 40), rng.randint(-3, 3), rng.randint(1, 4)])
            elif kind < 0.85:
                p = p * IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 5))] + [1])
            else:
                p = p * IntPolynomial([0, 1])
        out.append(p)
    return out


def _family_instances():
    """Every printed family over a small grid of its parameters."""
    values = {"n": (7, 12, 19, 25), "r": (1, 2, 4), "alpha": (1, 3, 5), "t1": (1, 3),
              "p": (3, 6, 10), "q": (2, 5), "t": (1, 2)}
    for name in ("f1", "f2", "f3", "f4", "f5", "g1", "g2", "g3", "g4", "g5", "g6", "g7",
                 "g8", "h1", "h2", "h3"):
        params = family_parameters(name)
        grid = [{}]
        for key in params:
            grid = [dict(kw, **{key: v}) for kw in grid for v in values[key]]
        for kw in grid:
            yield name, family_polynomial(name, **kw)


def _check_against_sympy(sympy, p):
    """sympy's largest real root lies in the bracket, or there is none >= 0."""
    x = sympy.Symbol("x")
    roots = sympy.Poly(list(reversed(p.coeffs)) or [0], x).real_roots() if p.degree >= 1 else []
    try:
        iv = largest_real_root(p)
    except DomainError:
        assert not roots or roots[-1] < 0, p
        return False
    top = roots[-1]
    if iv.exact:
        assert top == sympy.Rational(iv.lo.numerator, iv.lo.denominator), p
    else:
        assert sympy.Rational(iv.lo.numerator, iv.lo.denominator) < top, p
        assert top <= sympy.Rational(iv.hi.numerator, iv.hi.denominator), p
    return True


def test_largest_root_matches_sympy_on_seeded_polynomials():
    sympy = pytest.importorskip("sympy")
    checked = sum(_check_against_sympy(sympy, p) for p in _seeded_polynomials(2039, 120))
    assert checked >= 60


def test_largest_root_matches_sympy_on_printed_families():
    sympy = pytest.importorskip("sympy")
    seen = {}
    for name, p in _family_instances():
        seen[name] = seen.get(name, 0) + _check_against_sympy(sympy, p)
    assert len(seen) == 16 and all(seen.values())


def _bisection(p):
    """(lo, hi) of plain Fraction bisection from (0, B], or None: the oracle.

    B is the Cauchy bound of the square-free part with any root at 0
    divided out. The bracket (lo, hi] is halved until it is narrower than
    2^-40 and holds one root; a midpoint with no root above it that is
    itself a root ends the search exactly. At a root c of a square-free
    polynomial the Sturm chain has as many sign changes as just above c,
    so counts from a root lo are counts over (lo, hi].
    """
    if p.degree < 1:
        return None
    sf = squarefree_part(p)
    zero = sf.coeffs[0] == 0
    if zero:
        sf = IntPolynomial(sf.coeffs[1:])
    if sf.degree == 1 and sf.coeffs[0] < 0:
        root = Fraction(-sf.coeffs[0], sf.coeffs[1])
        return root, root
    lo, hi = Fraction(0), Fraction(1 + -(-max(abs(c) for c in sf.coeffs) // sf.lead))
    chain = sturm_chain(sf)
    if sf.degree < 2 or count_roots(chain, lo, hi) == 0:
        return (lo, lo) if zero else None
    while hi - lo >= Fraction(1, 2 ** 40) or count_roots(chain, lo, hi) != 1:
        mid = (lo + hi) / 2
        if count_roots(chain, mid, hi) > 0:
            lo = mid
        elif sf.sign_at(mid) == 0:
            return mid, mid
        else:
            hi = mid
    return lo, hi


def _quotient_charpolys():
    """Quotient charpolys of the extremal constructions, n <= 18 and r <= 5."""
    for r in range(1, 6):
        for n in range(r + 3, 19):
            cs = [bipartite_extremal_K(n, r)]
            if n >= r + 4:
                cs.append(general_extremal(n, r))
            if n >= r + 5:
                cs += [bipartite_extremal_D(n, r, v) for v in ("ceil", "floor")]
            for c in cs:
                yield charpoly(quotient_matrix(c.graph, c.blocks))


def _bracket(p):
    try:
        iv = largest_real_root(p)
    except DomainError:
        return None
    return iv.lo, iv.hi


def test_largest_root_is_the_bisection_bracket():
    polys = [IntPolynomial(coeffs) for coeffs, _, _ in ROOTS]
    polys += _seeded_polynomials(2039, 120) + _seeded_polynomials(61, 2400)
    polys += [p for _, p in _family_instances()]
    polys += list(_quotient_charpolys())
    assert len(polys) > 3000
    for p in polys:
        assert _bracket(p) == _bisection(p), p


def _counted_steps(monkeypatch):
    calls = []
    step = _Isolator.step

    def counted(self):
        calls.append(None)
        step(self)

    monkeypatch.setattr(_Isolator, "step", counted)
    return calls


def test_grid_charpolys_land_without_bisection(monkeypatch):
    calls = _counted_steps(monkeypatch)
    for c in (general_extremal(13, 2), bipartite_extremal_D(16, 3), bipartite_extremal_K(14, 1)):
        p = charpoly(quotient_matrix(c.graph, c.blocks))
        del calls[:]
        assert _bracket(p) == _bisection(p)
        assert not calls, c.label


def test_fallbacks_give_the_bisection_bracket(monkeypatch):
    calls = _counted_steps(monkeypatch)
    fallbacks = [
        IntPolynomial([-10 ** 400, 0, 1]),  # float() overflows
        # sqrt(2) and sqrt(2 + 2^-90): two roots in one 2^-40 cell
        IntPolynomial([-2, 0, 1]) * IntPolynomial([-(2 ** 91 + 1), 0, 2 ** 90]),
        # Newton from above meets the complex pair 10 +- i first
        IntPolynomial([101, -20, 1]) * IntPolynomial([-2, 0, 1]),
    ]
    for p in fallbacks:
        del calls[:]
        assert _bracket(p) == _bisection(p), p
        assert calls, p
    # rational roots on bisection midpoints: a smaller one does not stop
    # the landing, the largest one (row 17) needs bisection
    for coeffs, lo, hi in ROOTS[16:26]:
        p = IntPolynomial(coeffs)
        del calls[:]
        assert _bracket(p) == _bisection(p), coeffs
        assert bool(calls) == (lo == hi), coeffs


def test_seeded_polynomials_left_to_full_bisection():
    """Seeded polynomials whose landing fails, so bisection starts at (0, B].

    Newton started at the Cauchy bound left 231 of them, 107 for running
    out of steps; started at the smaller of the Cauchy and Fujiwara bounds
    it leaves 124. 116 of those have a largest root on the bisection grid,
    which no cell check can certify.
    """
    full = []
    for p in _seeded_polynomials(61, 2400):
        try:
            iso = _Isolator(p)
        except DomainError:
            continue
        if not iso.exact and iso.den == 1:
            full.append(p)
    assert len(full) == 124
    assert sum(lo == hi for lo, hi in map(_bisection, full)) == 116


@pytest.mark.parametrize("coeffs, lo, hi", [
    # float sqrt(27) rounds up across a level-45 cell boundary: rho is one cell down
    ((-27, 0, 1), '11426460016923/2199023255552', '45705840067699/8796093022208'),
    # a seeded quintic whose guess falls one cell below rho
    ((0, 693, -408, -10, 41, -6), '492581209243617/140737488355328',
     '246290604621867/70368744177664'),
])
def test_a_guess_one_cell_off_still_lands(coeffs, lo, hi, monkeypatch):
    p = IntPolynomial(coeffs)
    iso = _Isolator(p)
    k = _cauchy_bound(IntPolynomial(iso.sf)).bit_length() + 40
    assert iso.den == 1 << k
    calls = _counted_steps(monkeypatch)
    iv = largest_real_root(p)
    assert not calls
    assert (str(iv.lo), str(iv.hi)) == (lo, hi)
