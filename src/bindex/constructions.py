"""Extremal constructions and regime dispatch.

Two questions drive this module: among graphs on n vertices with binding
number below 1/r, which edge counts are achievable and by whom; and the
bipartite restriction of the same question, where the competition is
between a complete bipartite graph and a double nested graph. Dispatch
between regimes is exact: integer comparisons of the closed forms f and
g, or certified root comparisons for the spectral variant. No floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graph import (
    BipartitionSpec,
    DomainError,
    Graph,
    complete,
    complete_bipartite,
    disjoint_union,
    double_nested,
    join,
)
from .polynomials import IntPolynomial, RootInterval, largest_real_root
from .spectral import beta_value, compare_radii, family_polynomial

_REGIMES = frozenset(
    {
        "general",
        "bip_f_gt_g",
        "bip_f_lt_g",
        "bip_tie",
        "le6_case_i",
        "le6_case_ii",
        "le6_case_iii",
    }
)


@dataclass(frozen=True)
class Construction:
    """A labeled graph together with an equitable block partition."""

    label: str
    graph: Graph
    blocks: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count()


@dataclass(frozen=True)
class RegimeReport:
    n: int
    r: int
    regime: str
    claimed_max: Union[int, RootInterval]
    extremal_descriptions: tuple[str, ...]
    hypothesis_ok: bool
    notes: tuple[str, ...] = ()
    constructions: tuple[Construction, ...] = ()

    def __post_init__(self) -> None:
        if self.regime not in _REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")


def alpha_value(n: int, r: int) -> int:
    return (n - 1) // (r + 1)


def f_formula(n: int, r: int) -> int:
    """Edges of the balanced-as-possible complete bipartite candidate."""
    if n < r + 2:
        raise DomainError("f needs n >= r + 2")
    a = alpha_value(n, r)
    return a * (n - a)


def g_formula(n: int, r: int) -> int:
    """Edges of the double nested candidate."""
    if n < r + 2:
        raise DomainError("g needs n >= r + 2")
    m = n - r - 1
    return (m // 2) * ((m + 1) // 2) + r + 1


def general_extremal(n: int, r: int) -> Construction:
    """One hub joined to a clique plus r+1 isolated-in-the-rest vertices.

    Edge count C(n-r-1, 2) + r + 1; binding number below 1/r via the
    independent part.
    """
    return family_general(n, r, 1)


def family_general(n: int, r: int, t1: int) -> Construction:
    """K_t1 joined to (K_{n-(r+1)t1-1} union (r*t1+1) isolated vertices)."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if n < r + 3:
        raise DomainError("need n >= r + 3")
    if not 1 <= t1 <= (n - 3) // (r + 1):
        raise DomainError("t1 out of range: need 1 <= t1 <= (n - 3) // (r + 1)")
    hub = t1
    clique = n - (r + 1) * t1 - 1
    indep = r * t1 + 1
    g = join(complete(hub), disjoint_union(complete(clique), Graph(indep, [0] * indep)))
    blocks = (
        (1 << hub) - 1,
        ((1 << (hub + clique)) - 1) ^ ((1 << hub) - 1),
        ((1 << n) - 1) ^ ((1 << (hub + clique)) - 1),
    )
    label = f"K1_join({n},{r})" if t1 == 1 else f"Kt_join({n},{r},{t1})"
    return Construction(label=label, graph=g, blocks=blocks)


def _kab(a: int, b: int) -> Construction:
    g = complete_bipartite(a, b)
    blocks = ((1 << a) - 1, ((1 << (a + b)) - 1) ^ ((1 << a) - 1))
    return Construction(label=f"Kab({a},{b})", graph=g, blocks=blocks)


def double_nested_construction(p: tuple[int, ...], q: tuple[int, ...]) -> Construction:
    """The double nested graph on X blocks p and Y blocks q, labeled D(p;q)."""
    spec = BipartitionSpec(p, q)
    label = "D({};{})".format(",".join(map(str, p)), ",".join(map(str, q)))
    return Construction(label=label, graph=double_nested(spec), blocks=spec.blocks())


def bipartite_extremal_K(n: int, r: int) -> Construction:
    """K_{n-alpha, alpha} with alpha = floor((n-1)/(r+1)); e = f(n, r)."""
    if n < r + 3:
        raise DomainError("need n >= r + 3")
    a = alpha_value(n, r)
    return _kab(n - a, a)


def bipartite_extremal_D(n: int, r: int, variant: str = "ceil") -> Construction:
    """The double nested candidate with e = g(n, r).

    variant 'ceil' puts ceil((n-r-1)/2) in the large X block, 'floor' the
    mirror; for even n - r - 1 the two coincide. Blocks degenerate below
    n = r + 5.
    """
    if n < r + 3:
        raise DomainError("need n >= r + 3")
    if n < r + 5:
        raise DomainError("double nested candidate needs n >= r + 5")
    if variant not in ("ceil", "floor"):
        raise DomainError("variant must be 'ceil' or 'floor'")
    b = beta_value(n, r)
    c = n - r - 1 - b
    if variant == "ceil":
        return double_nested_construction((c, r + 1), (1, b - 1))
    return double_nested_construction((b, r + 1), (1, c - 1))


def _lemma6_case(p: int, q: int, r: int) -> str:
    if p >= r * q + 1:
        return "le6_case_i"
    if p >= r * (q - 1) + 2:
        return "le6_case_ii"
    return "le6_case_iii"


def _empty_family_error(p: int, q: int, r: int) -> DomainError:
    return DomainError(
        f"no bipartite graph with parts ({p}, {q}) and no isolated vertex "
        f"has binding number below 1/{r}"
    )


def lemma6_extremal(p: int, q: int, r: int) -> Construction:
    """The edge-maximizing member for parts (p, q), one per case."""
    if not (p >= q >= 1 and r >= 1):
        raise DomainError("need p >= q >= 1 and r >= 1")
    case = _lemma6_case(p, q, r)
    if case == "le6_case_i":
        return _kab(p, q)
    if q == 1:
        raise _empty_family_error(p, q, r)
    if case == "le6_case_ii":
        return double_nested_construction((p - r * (q - 1) - 1, r * (q - 1) + 1), (q - 1, 1))
    if p <= r + 1:
        raise _empty_family_error(p, q, r)
    return double_nested_construction((p - r - 1, r + 1), (1, q - 1))


def lemma6_max(p: int, q: int, r: int) -> RegimeReport:
    """Maximum edges over bipartite graphs with parts (p, q), no isolated
    vertex and binding number below 1/r, with the unique maximizer."""
    ext = lemma6_extremal(p, q, r)
    case = _lemma6_case(p, q, r)
    if case == "le6_case_i":
        best = p * q
    elif case == "le6_case_ii":
        best = p * q - r * (q - 1) - 1
    else:
        best = p * q - (r + 1) * (q - 1)
    assert best == ext.edge_count
    return RegimeReport(
        n=p + q,
        r=r,
        regime=case,
        claimed_max=best,
        extremal_descriptions=(ext.label,),
        hypothesis_ok=True,
        constructions=(ext,),
    )


def _bip_candidates(n: int, r: int) -> tuple[Construction, list[Construction], tuple[str, ...]]:
    k = bipartite_extremal_K(n, r)
    if n < r + 5:
        return k, [], ("double nested candidate degenerates for n < r + 5; omitted",)
    d_ceil = bipartite_extremal_D(n, r, "ceil")
    if (n - r - 1) % 2 == 0:
        return k, [d_ceil], ()
    return k, [d_ceil, bipartite_extremal_D(n, r, "floor")], ()


def _bip_report(
    n: int,
    r: int,
    regime: str,
    claimed_max: Union[int, RootInterval],
    winners: tuple[Construction, ...],
    hyp: bool,
    notes: tuple[str, ...],
) -> RegimeReport:
    return RegimeReport(
        n=n,
        r=r,
        regime=regime,
        claimed_max=claimed_max,
        extremal_descriptions=tuple(c.label for c in winners),
        hypothesis_ok=hyp,
        notes=notes,
        constructions=winners,
    )


def theorem6_regime(n: int, r: int) -> RegimeReport:
    """Edge maximum over bipartite n-vertex graphs with no isolated vertex
    and binding number below 1/r: compare f and g as exact integers."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if n < r + 3:
        raise DomainError("need n >= r + 3")
    hyp = n >= r * r + r + 1
    k, ds, notes = _bip_candidates(n, r)
    f = f_formula(n, r)
    g = g_formula(n, r)
    if r == 1:
        notes = ("for r = 1 the complete bipartite side wins regardless of f vs g",) + notes
        return _bip_report(n, r, "bip_f_gt_g", f, (k,), hyp, notes)
    if f > g:
        return _bip_report(n, r, "bip_f_gt_g", f, (k,), hyp, notes)
    if f < g:
        return _bip_report(n, r, "bip_f_lt_g", g, tuple(ds), hyp, notes)
    return _bip_report(n, r, "bip_tie", f, (k, *ds), hyp, notes)


def theorem7_regime(n: int, r: int) -> RegimeReport:
    """Spectral analogue: maximize rho instead of edges. The winner's
    radius is returned as a certified root interval."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if n < r + 3:
        raise DomainError("need n >= r + 3")
    hyp = n >= r * r + r + 2
    k, ds, notes = _bip_candidates(n, r)
    f = f_formula(n, r)
    k_poly = IntPolynomial([-f, 0, 1])
    if r == 1 or not ds:
        if r == 1:
            notes = ("for r = 1 the complete bipartite side wins regardless of the radii",) + notes
        return _bip_report(n, r, "bip_f_gt_g", largest_real_root(k_poly), (k,), hyp, notes)
    d_poly = family_polynomial("h2", n=n, r=r)
    order = compare_radii(k_poly, d_poly)
    if order == "Greater":
        return _bip_report(n, r, "bip_f_gt_g", largest_real_root(k_poly), (k,), hyp, notes)
    if order == "Less":
        notes = ("radius maximizer is the ceil variant only",) + notes
        return _bip_report(n, r, "bip_f_lt_g", largest_real_root(d_poly), (ds[0],), hyp, notes)
    notes = (
        f"tie-case double nested graph expanded from its abbreviated form as {ds[0].label}",
    ) + notes
    return _bip_report(n, r, "bip_tie", largest_real_root(k_poly), (k, ds[0]), hyp, notes)
