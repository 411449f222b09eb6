"""Exact binding number and toughness.

b(G) = min |N(S)|/|S| over nonempty S with N(S) != V(G). All arithmetic
is integer or Fraction; no floats anywhere in this module, because the
regime dispatches downstream compare b against 1/r strictly.

Vertex sets are int bitmasks as in graph.py.

Brute force (n <= 24) scans one numpy subset table. N(S) is built as
uint32 for every S over the low k = min(n, 16) vertices by doubling; the
sets over the n - k high vertices split the table into at most 256 blocks
of 2^16 entries, each the low table ORed with N(high). Each entry is
ranked through a small integer table indexed by (|S|, |N(S)|): the key
|N(S)| * (L // |S|) with L = lcm(1..24) = 5354228880 is L times the ratio,
exact because |S| divides L, and at most 24 * L < 2^37; the rank, key << 5
| |S|, stays below 2^42, so int64 holds it and ratios are compared without
a float. Worst case, n = 24, on a 2-vCPU x86-64 box: 0.06-0.07 s per
call (G(24, 0.3) and K_24), with about 1 MB of arrays live per block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .graph import DomainError, Graph, LimitError, vertices_of
from .maxflow import Dinic

_BRUTE_MAX = 24
_SETS_MAX = 20
_TOUGH_MAX = 16

_LOW_BITS = 16  # vertices per block of the subset table
_L = math.lcm(*range(1, _BRUTE_MAX + 1))  # 5354228880
_EXCLUDED = np.iinfo(np.int64).max
# |S| << 5 for every S over the low vertices: its row in a rank table
_LOW_ROW = np.bitwise_count(np.arange(1 << _LOW_BITS, dtype=np.uint32)).astype(np.uint16) << 5


def _rank_table(n: int) -> np.ndarray:
    """rank[|S| << 5 | |N(S)|] = (|N(S)| * (L // |S|)) << 5 | |S| on n vertices.

    Ranks order sets by ratio, then by size; equal ranks mean an equal
    ratio and an equal size. The empty S and N(S) = V rank _EXCLUDED.
    """
    s = np.arange(32, dtype=np.int64)[:, None]
    c = np.arange(32, dtype=np.int64)[None, :]
    rank = c * (_L // np.maximum(s, 1)) << 5 | s
    rank[0, :] = _EXCLUDED
    rank[:, n:] = _EXCLUDED
    return rank.ravel()


_RANK = [_rank_table(n) for n in range(_BRUTE_MAX + 1)]


@dataclass(frozen=True)
class BindingResult:
    value: Fraction
    witness: int
    method: str

    @classmethod
    def checked(cls, g: Graph, witness: int, method: str) -> "BindingResult":
        if witness == 0:
            raise ValueError("empty witness")
        nb = g.neighborhood(witness)
        if nb == g.mask_all:
            raise ValueError("witness has N(S) = V")
        value = Fraction(nb.bit_count(), witness.bit_count())
        return cls(value=value, witness=witness, method=method)

    @property
    def witness_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.witness)


def _lex_less(a: int, b: int) -> bool:
    """True if sorted(vertices(a)) < sorted(vertices(b)) lexicographically.

    With equal popcounts this is decided by the lowest differing bit: it
    belongs to the set whose next vertex is smaller.
    """
    d = a ^ b
    if d == 0:
        return False
    return bool(d & -d & a)


def _better(num: int, den: int, mask: int, bn: int, bd: int, bm: int) -> bool:
    """Is num/den with witness mask better than the incumbent bn/bd, bm?"""
    lhs = num * bd
    rhs = bn * den
    if lhs != rhs:
        return lhs < rhs
    if den != bd:
        return den < bd
    return _lex_less(mask, bm)


def _isolated_result(g: Graph, method: str) -> Optional[BindingResult]:
    iso = g.isolated_vertices()
    if iso == 0:
        return None
    least = iso & -iso
    return BindingResult.checked(g, least, method)


def _subset_ranks(g: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (high, rank) for each block of the subset table of g.

    Block `high` holds the sets S = high | lo for every lo over the low
    k = min(n, 16) vertices; rank[lo] is the _rank_table entry of S. N(S)
    is built over the low vertices once by doubling, as uint32, and each
    block ORs in N(high).
    """
    n, adj = g.n, g.adj
    k = min(n, _LOW_BITS)
    lo = np.zeros(1 << k, dtype=np.uint32)
    for v in range(k):
        np.bitwise_or(lo[: 1 << v], adj[v], out=lo[1 << v : 2 << v])
    row = _LOW_ROW[: 1 << k]
    high_nb = [0] * (1 << (n - k))
    for m in range(1, 1 << (n - k)):
        high_nb[m] = high_nb[m & (m - 1)] | adj[(m & -m).bit_length() - 1 + k]
    rank = _RANK[n]
    for m, hnb in enumerate(high_nb):
        # |S| = |lo| + |m|: the table from row |m| on is indexed by |lo|
        yield m << k, rank[m.bit_count() << 5 :].take(np.bitwise_count(lo | hnb) + row)


def _lex_least(a: int, b: int) -> int:
    return b if _lex_less(b, a) else a


def binding_number_bruteforce(g: Graph) -> BindingResult:
    """Exact b(G) by a scan of the subset table; n <= 24.

    Witness is the minimizer of smallest cardinality, ties broken by
    lexicographically least vertex tuple: the lex-least set of least rank
    over the blocks of _subset_ranks. Worst case n = 24: 256 blocks of
    2^16 entries, 0.06-0.07 s measured (module docstring).
    """
    if g.n > _BRUTE_MAX:
        raise LimitError(f"brute force capped at n <= {_BRUTE_MAX}")
    iso = _isolated_result(g, "brute")
    if iso is not None:
        return iso
    best_rank, best = _EXCLUDED, 0
    for high, rank in _subset_ranks(g):
        least = int(rank[rank.argmin()])
        if least > best_rank:
            continue
        tied = [high | lo for lo in (rank == least).nonzero()[0].tolist()]
        if least == best_rank:
            tied.append(best)
        best_rank, best = least, functools.reduce(_lex_least, tied)
    return BindingResult.checked(g, best, "brute")


def _sole_minimiser(g: Graph, sub: int, a: int, c: int) -> bool:
    """Counting test that S = sub is the only minimiser of c|N(S)| - a|S|.

    Dropping a nonempty T from sub removes from N(sub) exactly the w whose
    neighbours in sub all lie in T, and each such w has d_w = |N(w) & sub|
    <= |T|. So the score rises by at least a|T| - c#{w : d_w <= |T|}, which
    is positive for every T (the empty S included) when a*d > c*i along the
    d_w sorted ascending, i counting from 1. Sufficient, not necessary.
    """
    adj = g.adj
    nb = g.neighborhood(sub)
    if c * nb.bit_count() >= a * sub.bit_count():  # fails at i = |N(sub)|: each d_w <= |sub|
        return False
    ds = []
    while nb:
        lowb = nb & -nb
        ds.append((adj[lowb.bit_length() - 1] & sub).bit_count())
        nb ^= lowb
    ds.sort()
    return all(a * d > c * i for i, d in enumerate(ds, 1))


class _ThresholdNetwork:
    """The one flow network of a threshold decision a/c, moved between sets.

    Nodes: 0 source, 1 sink, 2 + v the left copy of v, 2 + n + w the right
    copy of w. Arcs: source -> left v, left v -> right w for each edge vw
    (capacity a*n + 1, above any cut), right w -> sink (capacity c). The
    allowed set A is imposed by giving the source arcs of its vertices
    capacity a and all others 0. A cut whose left source side is S costs
    a|A - S| + c|N(S)|.
    """

    def __init__(self, g: Graph, a: int, c: int) -> None:
        n = g.n
        self.n, self.adj, self.a = n, g.adj, a
        self.net = net = Dinic(2 + 2 * n)
        self.cap = net.cap
        self.source_arc = []
        for v in range(n):
            self.source_arc.append(len(self.cap))
            net.add_edge(0, 2 + v, 0)
        self.sink_arc = []
        for w in range(n):
            self.sink_arc.append(len(self.cap))
            net.add_edge(2 + n + w, 1, c)
        self.middle: list[dict[int, int]] = []  # per v: w -> arc v -> w
        for v in range(n):
            arcs = {}
            for w in vertices_of(g.adj[v]):
                arcs[w] = len(self.cap)
                net.add_edge(2 + v, 2 + n + w, a * n + 1)
            self.middle.append(arcs)
        self.current = 0  # the allowed set imposed now
        self.flow = 0

    def _move_to(self, sub: int) -> None:
        """Cancel the flow of the left vertices leaving, open those entering.

        Every flow path is source-v-w-sink, so the flow through v is
        cancelled arc by arc along its middle arcs.
        """
        cap, sink_arc = self.cap, self.sink_arc
        leaving = self.current & ~sub
        while leaving:
            lowb = leaving & -leaving
            v = lowb.bit_length() - 1
            for w, e in self.middle[v].items():
                k = sink_arc[w]
                f = cap[e ^ 1]
                if f:
                    cap[e] += f
                    cap[e ^ 1] = 0
                    cap[k] += f
                    cap[k ^ 1] -= f
            e = self.source_arc[v]
            self.flow -= cap[e ^ 1]
            cap[e] = cap[e ^ 1] = 0
            leaving ^= lowb
        entering = sub & ~self.current
        while entering:
            lowb = entering & -entering
            cap[self.source_arc[lowb.bit_length() - 1]] = self.a
            entering ^= lowb
        self.current = sub

    def _push_direct(self) -> None:
        """Greedily fill source-v-w-sink paths whose sink arc has room.

        Cheaper than a Dinic phase, which then only has to reroute.
        """
        cap, sink_arc = self.cap, self.sink_arc
        free = 0
        for w in range(self.n):
            if cap[sink_arc[w]]:
                free |= 1 << w
        rest = self.current
        while rest and free:
            lowb = rest & -rest
            v = lowb.bit_length() - 1
            rest ^= lowb
            e = self.source_arc[v]
            cand = self.adj[v] & free
            while cap[e] and cand:
                wb = cand & -cand
                cand ^= wb
                w = wb.bit_length() - 1
                m, k = self.middle[v][w], sink_arc[w]
                f = min(cap[e], cap[k])
                for arc in (e, m, k):
                    cap[arc] -= f
                    cap[arc ^ 1] += f
                self.flow += f
                if not cap[k]:
                    free ^= wb

    def witness(self, sub: int) -> int:
        """Smallest minimiser of c|N(S)| - a|S| over S inside sub, or 0.

        0 means the minimum is 0, reached by the empty S. The minimiser is
        the left part of the residual-reachable source side after a
        maximum flow, the smallest min-cut source side, whichever maximum
        flow was found; so it does not depend on the flow kept from the
        previous set.
        """
        self._move_to(sub)
        self._push_direct()
        self.flow += self.net.maxflow(0, 1)
        if self.flow >= self.a * sub.bit_count():
            return 0
        smask = 0
        for node in self.net.source_side(0):
            if 2 <= node < 2 + self.n:
                smask |= 1 << (node - 2)
        return smask


def binding_below_threshold(
    g: Graph, t: Fraction
) -> tuple[bool, Optional[int]]:
    """Decide whether some nonempty S with N(S) != V has |N(S)|/|S| < t.

    Cunningham's reduction: N(S) misses u exactly when S lies inside the
    allowed set A = V without N(u), so the smallest minimiser of
    c|N(S)| - a|S| over S inside A, with t = a/c, is a witness whenever
    that minimum is negative. One network serves every A of a call
    (_ThresholdNetwork): moving to the next set keeps the flow of the
    vertices that stay, and augments from there.

    The sets are visited largest first, and a set inside one that answered
    no is skipped, since it answers no as well. A set that passes the
    counting test of _sole_minimiser is its own witness without a flow.
    Witnesses are aggregated over the sets by minimum ratio with the
    (size, lex) tie-break of _better, a strict total order, so the
    visiting order does not change the answer.

    When t <= 1 and the first set decided by a flow answers no before any
    set has answered yes, one more flow, warm from the last, allows every
    vertex. If it saturates, no S at all has ratio < t: the answer is no.
    At t <= 1 the converse holds too, as a set with N(S) = V has ratio
    n/|S| >= 1 >= t, so a no costs two flows, not one per set visited.
    Above 1 it never saturates (S = V has ratio 1). Running it only after
    a first no spares the first rounds at t = 1 that answer yes at once.
    """
    t = Fraction(t)
    if t <= 0:
        raise DomainError("threshold must be positive")
    a, c = t.numerator, t.denominator
    iso = _isolated_result(g, "flow")
    if iso is not None:
        return True, iso.witness
    full = g.mask_all
    allowed = sorted(dict.fromkeys(full & ~row for row in g.adj), key=lambda m: -m.bit_count())
    net: Optional[_ThresholdNetwork] = None  # built when a set first needs it
    best: Optional[tuple[int, int, int]] = None  # (num, den, mask)
    refused: list[int] = []
    for sub in allowed:
        if any(sub & ~no == 0 for no in refused):
            continue
        if _sole_minimiser(g, sub, a, c):
            smask = sub
        else:
            if net is None:
                net = _ThresholdNetwork(g, a, c)
            smask = net.witness(sub)
            if a <= c and not (smask or refused or best) and not net.witness(full):
                return False, None
        if not smask:
            refused.append(sub)
            continue
        num = g.neighborhood(smask).bit_count()
        den = smask.bit_count()
        if best is None or _better(num, den, smask, *best):
            best = (num, den, smask)
    if best is None:
        return False, None
    return True, best[2]


def binding_number_flow(g: Graph) -> BindingResult:
    """Exact b(G) by Dinkelbach iteration over threshold decisions."""
    iso = _isolated_result(g, "flow")
    if iso is not None:
        return iso
    v = min(range(g.n), key=lambda u: (g.degree(u), u))
    witness = 1 << v
    t = Fraction(g.degree(v), 1)
    while True:
        ok, w = binding_below_threshold(g, t)
        if not ok:
            return BindingResult.checked(g, witness, "flow")
        assert w is not None
        witness = w
        t = Fraction(g.neighborhood(w).bit_count(), w.bit_count())


def binding_number(g: Graph) -> BindingResult:
    """Exact b(G): brute force up to n = 24, whose witness is canonical,
    flow above it."""
    if g.n <= _BRUTE_MAX:
        return binding_number_bruteforce(g)
    return binding_number_flow(g)


def binding_sets_all(g: Graph) -> list[int]:
    """All nonempty S with N(S) != V achieving b(G), lex order; n <= 20.

    The sets of least ratio in the subset table of binding_number_bruteforce.
    """
    if g.n > _SETS_MAX:
        raise LimitError(f"binding set listing capped at n <= {_SETS_MAX}")
    best_key = _EXCLUDED
    out: list[int] = []
    for high, rank in _subset_ranks(g):
        key = rank >> 5
        least = int(key[key.argmin()])
        if least > best_key:
            continue
        if least < best_key:
            best_key, out = least, []
        out.extend(((key == least).nonzero()[0] | high).tolist())
    out.sort(key=vertices_of)
    return out


def toughness_bruteforce(g: Graph) -> Fraction:
    """tau(G) = min |S|/c(G-S) over cut sets S; 0 for disconnected G.

    Complete graphs have no cut set and are outside the domain.
    """
    if g.n > _TOUGH_MAX:
        raise LimitError(f"toughness brute force capped at n <= {_TOUGH_MAX}")
    n = g.n
    full = g.mask_all
    if g.is_complete():
        raise DomainError("toughness undefined for complete graphs")
    if not g.is_connected():
        return Fraction(0)
    adj = g.adj
    best_num, best_den = 1, 0  # +infinity
    for s in range(1 << n):
        rem = full & ~s
        if rem == 0:
            continue
        comps = 0
        rest = rem
        while rest:
            comps += 1
            comp = rest & -rest
            frontier = comp
            while frontier:
                grown = 0
                while frontier:
                    lowb = frontier & -frontier
                    grown |= adj[lowb.bit_length() - 1]
                    frontier ^= lowb
                frontier = grown & rem & ~comp
                comp |= frontier
            rest &= ~comp
        if comps < 2:
            continue
        num = s.bit_count()
        if num * best_den < best_num * comps:
            best_num, best_den = num, comps
    return Fraction(best_num, best_den)
