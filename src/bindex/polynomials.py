"""Integer polynomials with certified real root isolation.

Coefficients are stored ascending (coeffs[i] multiplies x^i) and printed
descending. Everything that decides runs on plain ints:

- gcds, square-free parts and Sturm chains come from a primitive
  pseudo-remainder sequence (PRS); each remainder is taken up to a
  positive integer factor and divided by its content, so signs, and with
  them the Sturm counts, are those of the exact rational remainders. A
  square-free polynomial needs one PRS: its own Sturm chain ends in a
  constant and is the chain of its square-free part;
- brackets are integers a/2^e, b/2^e over one shared power of two, and
  signs come from integer Horner evaluation. A float Newton guess of the
  largest root picks the 2^-40 cell that bisection would end on, and
  integer signs and Sturm counts certify that cell before it is used.
  The float only chooses which cell to check: when a check fails,
  bisection from (0, B] runs instead. Sturm counts steer it until one
  root is left; after that the sign of the square-free part at the
  midpoint against its sign at lo decides.

Fractions appear only in the returned RootInterval. Floats appear in its
convenience accessors and in the Newton guess, which never decides.

largest_real_root searches [0, B] with B a Cauchy bound, which covers
every Perron root of a nonnegative matrix; polynomials whose real roots
are all negative are out of domain here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isfinite
from typing import Sequence, Union

from .graph import DomainError

LESS, EQUAL, GREATER = -1, 0, 1

_WIDTH_BITS = 40  # brackets end narrower than 2^-40


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x: Union[int, Fraction]) -> Union[int, Fraction]:
        out: Union[int, Fraction] = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def sign_at(self, x: Union[int, Fraction]) -> int:
        """Exact sign of p(x) for an int or Fraction x."""
        return _sign_at(self.coeffs, x.numerator, x.denominator)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: Union[int, "IntPolynomial"]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self and other else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def primitive(self) -> "IntPolynomial":
        """Divide by the content, keeping the sign of every coefficient."""
        return IntPolynomial(_primitive(list(self.coeffs)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                term = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def _sign_at(coeffs: Sequence[int], a: int, b: int) -> int:
    """Sign of p(a/b), b > 0, via the integer b^deg * p(a/b), Horner style."""
    out = 0
    bpow = 1
    for c in reversed(coeffs):
        out = out * a + c * bpow
        bpow *= b
    return (out > 0) - (out < 0)


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by its content (a positive gcd), signs kept."""
    g = int_gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of a by b times a positive integer, so every sign is kept.

    Each elimination step scales the running remainder by |lc(b)| / g
    instead of lc(b) (g the gcd of the two leading coefficients), which
    keeps the multiplier positive and the numbers small.
    """
    rem = list(a)
    lb, db = b[-1], len(b)
    while len(rem) >= db:
        lr = rem[-1]
        g = int_gcd(lr, lb)
        mr, mb = lr // g, lb // g
        if mb < 0:
            mr, mb = -mr, -mb
        shift = len(rem) - db
        if mb != 1:
            rem = [c * mb for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= mr * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _exact_quo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b over the integers; b must divide a with an integer quotient."""
    rem = list(a)
    lb, db = b[-1], len(b)
    quo = [0] * (len(a) - db + 1)
    for shift in range(len(quo) - 1, -1, -1):
        f, r = divmod(rem[shift + db - 1], lb)
        assert r == 0
        quo[shift] = f
        if f:
            for i, c in enumerate(b):
                rem[shift + i] -= f * c
    assert not any(rem)
    return quo


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient."""
    fa, fb = list(a.coeffs), list(b.coeffs)
    while fb:
        fa, fb = fb, _primitive(_prem(fa, fb))
    out = IntPolynomial(fa).primitive()
    if out and out.lead < 0:
        out = -out
    return out


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    if p.degree < 1:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree < 1:
        out = p.primitive()
    else:
        # g is primitive, so by Gauss's lemma p / g has integer coefficients
        out = IntPolynomial(_exact_quo(p.coeffs, g.coeffs)).primitive()
    if out.lead < 0:
        out = -out
    return out


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of a square-free p, entries primitive."""
    chain = [p, p.derivative().primitive()]
    while chain[-1].degree >= 1:
        rem = _prem(chain[-2].coeffs, chain[-1].coeffs)
        if not rem:
            break
        chain.append(IntPolynomial([-c for c in _primitive(rem)]))
    return [q for q in chain if q]


def _squarefree_chain(p: IntPolynomial) -> tuple[IntPolynomial, list[IntPolynomial]]:
    """Square-free part of p (primitive, positive leading coefficient) and its Sturm chain.

    The chain of p itself ends in gcd(p, p') up to a constant. When that is
    a constant, p is square-free, its square-free part is p made primitive,
    and the chain is already the one of that part: one PRS instead of two.
    """
    q = p.primitive()
    if q and q.lead < 0:
        q = -q
    chain = sturm_chain(q)
    if not chain or chain[-1].degree < 1:
        return q, chain
    sf = squarefree_part(p)
    return sf, sturm_chain(sf)


def _variations(chain: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign changes along the chain (coefficient tuples) at a/b."""
    signs = [s for s in (_sign_at(cs, a, b) for cs in chain) if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(
    chain: Sequence[IntPolynomial], lo: Union[int, Fraction], hi: Union[int, Fraction]
) -> int:
    """Distinct real roots in (lo, hi]; endpoints must not be roots of chain[0]."""
    cs = [q.coeffs for q in chain]
    return _variations(cs, lo.numerator, lo.denominator) - _variations(
        cs, hi.numerator, hi.denominator
    )


@dataclass(frozen=True)
class RootInterval:
    """Certified bracket on the largest real root of poly.

    Either lo == hi and poly(lo) == 0 exactly, or the root lies in
    (lo, hi] with no real root of poly above hi (Sturm counts).
    """

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def lo_float(self) -> float:
        return float(self.lo)

    @property
    def hi_float(self) -> float:
        return float(self.hi)

    @property
    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo_float - slack <= x <= self.hi_float + slack

    def verify(self) -> bool:
        """Recheck the certificate from scratch."""
        sf, chain = _squarefree_chain(self.poly)
        bound = _cauchy_bound(sf)
        if self.exact:
            if sf.sign_at(self.lo) != 0:
                return False
            # the root is the largest when sf / (den*x - num) has no root above it
            rest = IntPolynomial(_exact_quo(sf.coeffs, (-self.lo.numerator, self.lo.denominator)))
            return rest.degree < 1 or count_roots(sturm_chain(rest), self.lo, bound) == 0
        if sf.sign_at(self.lo) == 0 or sf.sign_at(self.hi) == 0:
            return False
        if self.hi < bound and count_roots(chain, self.hi, bound) != 0:
            return False
        return count_roots(chain, self.lo, self.hi) == 1


def _cauchy_bound(p: IntPolynomial) -> int:
    lead = abs(p.lead)
    top = max(abs(c) for c in p.coeffs)
    return 1 + (top + lead - 1) // lead


def _newton_guess(coeffs: Sequence[int], bound: int, steps: int) -> Union[float, None]:
    """Float Newton iterate from bound down toward the largest real root.

    Stops when an iterate no longer falls. None on float overflow, a zero
    derivative, a non-finite step, or no stop within steps (the number of
    bisection steps the guess is meant to save).
    """
    try:
        cs = [float(c) for c in reversed(coeffs)]
        x = float(bound)
    except OverflowError:
        return None
    for _ in range(steps):
        p = dp = 0.0
        for c in cs:
            dp = dp * x + p
            p = p * x + c
        if dp == 0:
            return None
        nx = x - p / dp
        if not isfinite(nx):
            return None
        if nx >= x:
            return x
        x = nx
    return None


class _Isolator:
    """Bisection state for the largest nonnegative real root of one poly.

    The endpoints are integers over one positive denominator: the bracket
    is (lo/den, hi/den]. While bisecting, den is a power of two and each
    step doubles it; an exact root may have any denominator. slo is the
    sign of sf at lo/den, which is never a root of sf.

    A fresh isolator first tries to land on the bracket that refine's
    bisection would end on (see _land); steps then go on from there.
    """

    __slots__ = ("orig", "sf", "chain", "lo", "hi", "den", "vlo", "vhi", "slo", "exact")

    def __init__(self, p: IntPolynomial) -> None:
        if p.degree < 1:
            raise DomainError("constant polynomial has no roots")
        self.orig = p
        # factor out x^m so Sturm endpoints stay off the roots: the
        # square-free part of the rest is that of p divided by x
        zeros = next(i for i, c in enumerate(p.coeffs) if c)
        root_at_zero = zeros > 0
        sf, chain = _squarefree_chain(IntPolynomial(p.coeffs[zeros:]))
        self.exact = False
        if sf.degree == 1 and sf.coeffs[0] < 0:
            # bisection midpoints are dyadic and may never land on a
            # rational root, so solve the linear factor outright; sf has a
            # positive leading coefficient, so its root -c0/c1 is positive
            self._set_exact(-sf.coeffs[0], sf.coeffs[1])
            return
        chain = [q.coeffs for q in chain]
        bound = _cauchy_bound(sf)
        vlo = _variations(chain, 0, 1)
        vhi = _variations(chain, bound, 1)
        if vlo == vhi:
            # sf has no root in (0, B] and none at 0, so only x = 0 is left
            if not root_at_zero:
                raise DomainError("no real root in the nonnegative range")
            self._set_exact(0, 1)
            return
        self.sf = sf.coeffs
        self.chain = chain
        self.lo, self.hi, self.den = 0, bound, 1
        self.vlo = vlo
        self.vhi = vhi
        self.slo = _sign_at(self.sf, 0, 1)
        self._land(bound)

    def _land(self, bound: int) -> None:
        """Move (0, B] straight to the bracket where refine's bisection stops.

        Every bisection bracket is (i*B, (i+1)*B] / 2^level, and refine stops
        at the first level with 2^level > B * 2^40 at which one root is
        left, that is at level k = B.bit_length() + 40 if the level-k cell
        of the largest root rho holds no other root. A float Newton guess
        of rho picks a level-k cell; it is used only when integers certify
        it: sf is nonzero at both ends, V(hi) = V(B) (no root above hi) and
        V(lo) - V(hi) = 1 (one root inside), V counting sign changes along
        the Sturm chain. Then rho is inside the open cell, so it is on no
        dyadic grid point up to level k and bisection never meets it at a
        midpoint. Bisection may meet a smaller root there; the exact-root
        branch of step then moves the bracket up, as an upper step does.
        So bisection descends through the cells that contain rho and stops
        on this one. When any check fails (float overflow, a non-finite or
        zero-derivative Newton step, a guess one cell off, two roots in one
        cell, rho on the grid) the state stays at (0, B] and refine bisects.
        """
        k = bound.bit_length() + _WIDTH_BITS
        guess = _newton_guess(self.sf, bound, k)
        if guess is None:
            return
        num, fden = guess.as_integer_ratio()
        i = (num << k) // (fden * bound)
        if not 0 <= i < 1 << k:
            return
        lo, hi, den = i * bound, (i + 1) * bound, 1 << k
        slo = _sign_at(self.sf, lo, den)
        if slo == 0 or _sign_at(self.sf, hi, den) == 0:
            return
        vhi = _variations(self.chain, hi, den)
        if vhi != self.vhi or _variations(self.chain, lo, den) != vhi + 1:
            return
        self.lo, self.hi, self.den = lo, hi, den
        self.vlo, self.slo = vhi + 1, slo

    def _set_exact(self, num: int, den: int) -> None:
        self.exact = True
        self.lo = self.hi = num
        self.den = den

    def count(self) -> int:
        return self.vlo - self.vhi

    def step(self) -> None:
        """One bisection step keeping the largest root in (lo, hi]."""
        if self.exact:
            return
        m = self.lo + self.hi
        den = self.den << 1
        smid = _sign_at(self.sf, m, den)
        if smid == 0:
            # m/den is a simple root; is anything above it?
            g = int_gcd(m, den)
            reduced = IntPolynomial(_exact_quo(self.sf, (-(m // g), den // g))).primitive()
            if reduced.degree >= 1:
                chain = [q.coeffs for q in sturm_chain(reduced)]
                vmid = _variations(chain, m, den)
                vhi = _variations(chain, self.hi << 1, den)
                if vmid - vhi > 0:
                    self.sf = reduced.coeffs
                    self.chain = chain
                    self.lo, self.hi, self.den = m, self.hi << 1, den
                    self.vlo, self.vhi = vmid, vhi
                    self.slo = _sign_at(reduced.coeffs, m, den)
                    return
            self._set_exact(m, den)
            return
        if self.vlo - self.vhi == 1:
            # one simple root left in (lo, hi): sf changes sign across it
            upper = smid == self.slo
        else:
            vmid = _variations(self.chain, m, den)
            upper = vmid - self.vhi > 0
            if upper:
                self.vlo = vmid
            else:
                self.vhi = vmid
        if upper:
            self.lo, self.hi, self.slo = m, self.hi << 1, smid
        else:
            self.lo, self.hi = self.lo << 1, m
        self.den = den

    def refine(self) -> None:
        """Bisect until one root is left and the bracket is below 2^-40."""
        while not self.exact and (
            (self.hi - self.lo) << _WIDTH_BITS >= self.den or self.count() != 1
        ):
            self.step()

    def interval(self) -> RootInterval:
        return RootInterval(
            poly=self.orig, lo=Fraction(self.lo, self.den), hi=Fraction(self.hi, self.den)
        )


def largest_real_root(p: IntPolynomial) -> RootInterval:
    """Bracket of width < 2^-40 on the largest real root in [0, Cauchy bound].

    Perron roots of nonnegative matrices always land in that range.
    """
    iso = _Isolator(p)
    iso.refine()
    return iso.interval()


def compare_largest_roots(pa: IntPolynomial, pb: IntPolynomial) -> int:
    """Certified comparison of largest nonnegative real roots: -1, 0, or 1.

    Equality is recognized through a root of gcd(pa, pb) inside the
    overlap of the two brackets; disjoint brackets decide order. No float
    decides: both brackets are certified by integer signs and Sturm counts.
    """
    ia, ib = _Isolator(pa), _Isolator(pb)
    ia.refine()
    ib.refine()
    gchain = None
    if not (ia.exact or ib.exact):
        # the isolators' square-free parts keep every root above the brackets' lower ends
        g = poly_gcd(IntPolynomial(ia.sf), IntPolynomial(ib.sf))
        if g.degree >= 1:
            gchain = [q.coeffs for q in sturm_chain(g)]
    while True:
        # both brackets over the common denominator ia.den * ib.den
        alo, ahi = ia.lo * ib.den, ia.hi * ib.den
        blo, bhi = ib.lo * ia.den, ib.hi * ia.den
        if ia.exact and ib.exact:
            return LESS if alo < blo else GREATER if alo > blo else EQUAL
        if ahi <= blo:
            return LESS
        if bhi <= alo:
            return GREATER
        if ia.exact:
            if blo < alo <= bhi and _sign_at(ib.sf, ia.lo, ia.den) == 0:
                return EQUAL
        elif ib.exact:
            if alo < blo <= ahi and _sign_at(ia.sf, ib.lo, ib.den) == 0:
                return EQUAL
        elif gchain is not None:
            olo = max(alo, blo)
            ohi = min(ahi, bhi)
            den = ia.den * ib.den
            g = gchain[0]
            if olo < ohi and _sign_at(g, olo, den) != 0 and _sign_at(g, ohi, den) != 0:
                if _variations(gchain, olo, den) - _variations(gchain, ohi, den) >= 1:
                    return EQUAL
        for _ in range(4):
            ia.step()
            ib.step()
