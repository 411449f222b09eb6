"""Spectral radius: a floating estimate plus exact certification.

Estimate path: the largest eigenvalue numpy's symmetric eigensolver
(eigvalsh) gives for each component's adjacency matrix. It decides no
verdict; it is printed by `bindex spectral` and checked against the
certified intervals in the tests.

Certification path: equitable quotient matrix -> integer characteristic
polynomial by Faddeev-LeVerrier, whose divisions are exact ->
Sturm-certified root interval (see polynomials: a float Newton guess
picks the final cell, integer signs and Sturm counts certify it, and
integer bisection runs when they do not). A connected graph shares its spectral radius with any equitable quotient,
so certified comparisons of radii reduce to compare_largest_roots on
integer polynomials.

family_polynomial returns the named auxiliary polynomials (f1..f5,
g1..g8, h1..h3) used by the regime and scan machinery; f1 is stored
doubled so its coefficients stay integral, which is harmless because all
uses are sign tests. Families h2/h3 substitute beta = floor((n-r-1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence, Union

import numpy as np

from .graph import DomainError, Graph, vertices_of
from .polynomials import (
    EQUAL,
    GREATER,
    IntPolynomial,
    LESS,
    RootInterval,
    compare_largest_roots,
    largest_real_root,
)


class EquitabilityError(DomainError):
    """Partition is not equitable for the host graph."""


def _component_radius(g: Graph, comp: int) -> float:
    """Largest adjacency eigenvalue of one component, by eigvalsh."""
    verts = vertices_of(comp)
    k = len(verts)
    if k == 1:
        return 0.0
    pos = {v: i for i, v in enumerate(verts)}
    a = np.zeros((k, k))
    for v in verts:
        row = g.adj[v] & comp
        while row:
            low = row & -row
            a[pos[v], pos[low.bit_length() - 1]] = 1.0
            row ^= low
    return float(np.linalg.eigvalsh(a)[-1])


def spectral_radius_power(g: Graph) -> float:
    """rho(G) = max over components of the largest adjacency eigenvalue.

    The name is kept from the power iteration this replaced, because it is
    public API and the perfbench tracer's target, which names the metrics
    in BENCHMARK.json. The estimate comes from one eigvalsh call per component, so a
    disconnected graph costs the sum of k^3 over its components, not n^3.

    Accuracy: a symmetric eigensolver is backward stable, so the computed
    eigenvalues are exact for A + E with ||E|| <= c k eps ||A||, and by
    Weyl's inequality |rho_hat - rho| <= c k eps rho (||A|| = rho for a
    symmetric nonnegative A). On the 1075 grid graphs of acceptance
    criterion 6 (n <= 60) the estimate lies within 2.8e-15 rho of an
    all-ones power iteration.

    Cost (2-vCPU x86-64 box, one call, peak RSS of the process): eigvalsh's
    O(k^3). At k = 1024 the K shape K_{683,341}, G(1024, 1/2), the cycle
    and the path took 0.22-0.53 s, 48-57 MB; at k = 2048 1.0-2.5 s,
    96-136 MB; at k = 4096 (MAX_VERTICES) K_{2731,1365} took 10.2 s,
    290 MB.
    """
    return max(_component_radius(g, comp) for comp in g.components())


@dataclass(frozen=True)
class QuotientMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.entries)
        if not 1 <= k <= 8:
            raise DomainError("quotient matrices support 1 <= k <= 8 blocks")
        if any(len(row) != k for row in self.entries):
            raise DomainError("quotient matrix must be square")

    @property
    def k(self) -> int:
        return len(self.entries)


def quotient_matrix(g: Graph, partition: Sequence[int]) -> QuotientMatrix:
    """Equitable quotient of g over the given blocks (masks).

    Every vertex of block i must see the same number of neighbors in
    block j; the first offender is named in the error.
    """
    union = 0
    for i, block in enumerate(partition):
        if block == 0:
            raise DomainError(f"block {i} is empty")
        if union & block:
            raise DomainError(f"block {i} overlaps an earlier block")
        union |= block
    if union != g.mask_all:
        raise DomainError("partition does not cover all vertices")
    rows = []
    for i, block in enumerate(partition):
        first_bit = block & -block
        first = first_bit.bit_length() - 1
        nb_first = g.adj[first]
        counts = [(nb_first & other).bit_count() for other in partition]
        rest = block ^ first_bit
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            # an open or closed twin of first has first's count in every block
            if g.adj[v] == nb_first or g.adj[v] | low == nb_first | first_bit:
                continue
            for j, other in enumerate(partition):
                got = (g.adj[v] & other).bit_count()
                if got != counts[j]:
                    raise EquitabilityError(
                        f"vertex {v} has {got} neighbors in block {j}, "
                        f"expected {counts[j]} from block {i}"
                    )
        rows.append(tuple(counts))
    return QuotientMatrix(entries=tuple(rows))


def charpoly(m: Union[QuotientMatrix, Sequence[Sequence[int]]]) -> IntPolynomial:
    """det(xI - M) by Faddeev-LeVerrier on integer lists; k <= 8.

    With M_1 = I and M_{i+1} = A M_i + c_{k-i} I, the coefficient of
    x^(k-i) is c_{k-i} = -tr(A M_i) / i, and that division is exact.
    """
    entries = m.entries if isinstance(m, QuotientMatrix) else tuple(
        tuple(int(c) for c in row) for row in m
    )
    k = len(entries)
    if k > 8 or any(len(row) != k for row in entries):
        raise DomainError("charpoly needs a square matrix with k <= 8")
    coeffs = [0] * k + [1]
    am = [list(row) for row in entries]  # A M_1
    for i in range(1, k + 1):
        c = -sum([am[j][j] for j in range(k)]) // i
        coeffs[k - i] = c
        if i == k:
            break
        for j in range(k):
            am[j][j] += c
        cols = list(zip(*am))
        am = [[sum(map(mul, row, col)) for col in cols] for row in entries]
    return IntPolynomial(coeffs)


def beta_value(n: int, r: int) -> int:
    """beta = floor((n-r-1)/2); h2 is h1 at q = beta."""
    return (n - r - 1) // 2


def _pf1(n: int, r: int) -> IntPolynomial:
    # stored as 2*f1 to stay integral
    return IntPolynomial([2 * n - 2, 2 * n * r - 3 * r - 2, -(r * r + 2 * r)])


def _pf2(n: int, alpha: int) -> IntPolynomial:
    return IntPolynomial([alpha * (alpha - n), -(alpha - 1), 1])


def _pf3(n: int, r: int, t1: int) -> IntPolynomial:
    c0 = -(r * r + r) * t1**3 + ((n - 3) * r - 1) * t1**2 + (n - 2) * t1
    c1 = -(r * t1 * t1 - (r - 1) * t1 + n - 2)
    c2 = -(n - r * t1 - 3)
    return IntPolynomial([c0, c1, c2, 1])


def _pf4(n: int, r: int) -> IntPolynomial:
    return IntPolynomial([(r + 1) * (n - r - 3), -(n - 1), -(n - r - 3), 1])


def _pf5(n: int, r: int, t1: int) -> IntPolynomial:
    c0 = (
        -(t1 * t1 + t1 + 1) * r * r
        + (n * t1 - t1 * t1 + n - 4 * t1 - 4) * r
        + n
        - t1
        - 3
    )
    return IntPolynomial([c0, -(r * t1 + 1), r])


def _pg1(p: int, q: int, r: int, t: int) -> IntPolynomial:
    return IntPolynomial(
        [
            t * (r * t + 1) * (q - r * t - 1) * (p - t),
            0,
            (p - t) * (r * t + 1) - p * q,
            0,
            1,
        ]
    )


def _pg2(p: int, q: int, r: int) -> IntPolynomial:
    return IntPolynomial(
        [(r + 1) * (q - r - 1) * (p - 1), 0, (r + 1) * (p - 1) - p * q, 0, 1]
    )


def _pg3(p: int, q: int, r: int, t: int) -> IntPolynomial:
    c0 = (
        r * r * t**3
        - r * (p * r + q - r - 2) * t**2
        + ((1 - p) * r * r + (q - 2) * (p - 1) * r - q + 1) * t
        + (r + 1) * (q - r - 1) * (p - 1)
    )
    return IntPolynomial([c0, 0, r * (p - t) - (r + 1)])


def _pg4(p: int, q: int, r: int) -> IntPolynomial:
    return IntPolynomial(
        [(r + 1) * (q - 1) * (p - r - 1), 0, (r + 1) * (q - 1) - p * q, 0, 1]
    )


def _pg5(p: int, q: int, r: int, t: int) -> IntPolynomial:
    return IntPolynomial(
        [
            t * (r * t + 1) * (q - t) * (p - r * t - 1),
            0,
            (r * t + 1) * (q - t) - p * q,
            0,
            1,
        ]
    )


def _pg6(p: int, q: int, r: int) -> IntPolynomial:
    return IntPolynomial(
        [
            (q - 1) * (q * r - r + 1) * (p - r * q + r - 1),
            0,
            r * (q - 1) - p * q + 1,
            0,
            1,
        ]
    )


def _pg7(p: int, q: int, r: int, t: int) -> IntPolynomial:
    c0 = (
        (t * (r * t - r + 1) - r * (q - 1) - 1) * p
        - r * r * t**3
        + r * (r - 2) * t**2
        + (q * r * r - (r - 1) * (r - 1)) * t
        + (q * q + 1) * r * r
        - 2 * r * (r - 1) * q
        - 2 * r
        + 1
    )
    return IntPolynomial([c0, 0, r * t - r + 1])


def _pg8(p: int, q: int, r: int, t: int) -> IntPolynomial:
    c0 = (
        (t**3 - (t * t + t + 1) * (q - 1)) * r * r
        + ((t + 1) * (q - t) - 1) * (p - 2) * r
        + (q - t - 1) * (p - 1)
    )
    return IntPolynomial([c0, 0, (q - t - 1) * r - 1])


def _ph1(n: int, q: int, r: int) -> IntPolynomial:
    return IntPolynomial(
        [
            (r + 1) * (q - 1) * (n - q - r - 1),
            0,
            q * q - n * q + r * q + q - r - 1,
            0,
            1,
        ]
    )


def _ph2(n: int, r: int) -> IntPolynomial:
    return _ph1(n, beta_value(n, r), r)


def _ph3(n: int, r: int, q: int) -> IntPolynomial:
    b = beta_value(n, r)
    return IntPolynomial(
        [
            (b - q) * (r * r + (b + q + 1 - n) * r + b + q - n),
            0,
            (b - q) * (n - r - b - q - 1),
        ]
    )


_FAMILIES = {
    "f1": (("n", "r"), _pf1),
    "f2": (("n", "alpha"), _pf2),
    "f3": (("n", "r", "t1"), _pf3),
    "f4": (("n", "r"), _pf4),
    "f5": (("n", "r", "t1"), _pf5),
    "g1": (("p", "q", "r", "t"), _pg1),
    "g2": (("p", "q", "r"), _pg2),
    "g3": (("p", "q", "r", "t"), _pg3),
    "g4": (("p", "q", "r"), _pg4),
    "g5": (("p", "q", "r", "t"), _pg5),
    "g6": (("p", "q", "r"), _pg6),
    "g7": (("p", "q", "r", "t"), _pg7),
    "g8": (("p", "q", "r", "t"), _pg8),
    "h1": (("n", "q", "r"), _ph1),
    "h2": (("n", "r"), _ph2),
    "h3": (("n", "r", "q"), _ph3),
}


def family_polynomial(family: str, **params: int) -> IntPolynomial:
    """The named auxiliary polynomial with exact integer coefficients."""
    if family not in _FAMILIES:
        raise DomainError(f"unknown polynomial family {family!r}")
    names, builder = _FAMILIES[family]
    if set(params) != set(names):
        raise DomainError(
            f"family {family} takes parameters {', '.join(names)}"
        )
    return builder(*(int(params[name]) for name in names))


def family_parameters(family: str) -> tuple[str, ...]:
    if family not in _FAMILIES:
        raise DomainError(f"unknown polynomial family {family!r}")
    return _FAMILIES[family][0]


def compare_radii(pa: IntPolynomial, pb: IntPolynomial) -> str:
    """Certified order of largest real roots: 'Less', 'Equal' or 'Greater'."""
    out = compare_largest_roots(pa, pb)
    return {LESS: "Less", EQUAL: "Equal", GREATER: "Greater"}[out]


def certified_radius(g: Graph, partition: Sequence[int]) -> RootInterval:
    """Sturm-certified interval for rho(g) via an equitable quotient.

    Needs g connected: only then is the Perron root of the quotient equal
    to the Perron root of the graph.
    """
    if not g.is_connected():
        raise DomainError("certified radius needs a connected graph")
    return largest_real_root(charpoly(quotient_matrix(g, partition)))
