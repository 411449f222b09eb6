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
The table is built for a stack of graphs of one order, one row each: up
to 2^(16 - n) graphs of order n <= 16 share one block of 2^16 entries,
so listing the binding sets of many small graphs (_binding_sets_many)
costs a few numpy calls per block rather than per graph. A graph with
n > 16 fills its blocks alone.

Flow (any n) decides thresholds on Cunningham's network, one decision per
Dinkelbach round. What a decision needs that does not depend on the
threshold is a _ThresholdPlan of the graph: its allowed sets, their
counting-test data (filled on first use) and the network topology. One
plan, that of the graph decided last, stays cached, so the rounds on a
graph build it once and memory holds one graph's plan between calls: at
most 9n + 8|E| + 1 topology entries plus n^2 counting-test entries and n
refusal memos of one (a, c) tuple each.

Two rules settle allowed sets without a flow; binding_below_threshold
gives their proofs. Nested witnesses: within one decision, a set A lying
inside an earlier set A' whose flow witness W' lies inside A has W' as
its witness too, since the minimisers of c|N(S)| - a|S| form a lattice
(Picard and Queyranne 1980). Refusal memo: a set that answered no at t'
answers no at every t <= t', so each set keeps the largest such t' and
later, lower Dinkelbach rounds skip it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graph import DomainError, Graph, LimitError, vertices_of
from .maxflow import Dinic

_BRUTE_MAX = 24
_SETS_MAX = 20
_TOUGH_MAX = 16

_LOW_BITS = 16  # vertices per block of the subset table
_L = math.lcm(*range(1, _BRUTE_MAX + 1))  # 5354228880
_EXCLUDED = np.iinfo(np.int64).max
# |S| << 5 for every S over the low vertices, as a column: its row in a rank table
_LOW_ROW = (
    np.bitwise_count(np.arange(1 << _LOW_BITS, dtype=np.uint32)).astype(np.uint16)[:, None] << 5
)


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


def _subset_ranks(adjs: Sequence[Sequence[int]]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (high, rank) for each block of the subset table of a graph stack.

    adjs holds the adjacency rows of B graphs of order n, at most
    2^(16 - n) of them when n <= 16 and one when n > 16, so that a block
    holds at most 2^16 entries. Block `high` holds the sets S = high | lo
    for every lo over the low k = min(n, 16) vertices; rank[i, lo] is the
    _rank_table entry of S in graph i. N(S) is built over the low vertices
    once by doubling, as uint32, and each block ORs in N(high).

    The table is laid out set-major, 2^k x B, and rank is a transposed
    view of it: doubling slices only its first axis, and one graph's rows
    are ORed in as plain ints. Row slices of a B x 2^k table, or 1 x 1
    arrays, cost about 1 us more per doubling step, a third of the whole
    table of one graph with n <= 9.
    """
    b, n = len(adjs), len(adjs[0])
    k = min(n, _LOW_BITS)
    cols = adjs[0] if b == 1 else np.array(adjs, dtype=np.uint32).T  # cols[v]: N(v) per graph
    lo = np.zeros((1 << k, b), dtype=np.uint32)
    for v in range(k):
        np.bitwise_or(lo[: 1 << v], cols[v], out=lo[1 << v : 2 << v])
    high_nb = np.zeros((1 << (n - k), b), dtype=np.uint32)
    for v in range(n - k):
        np.bitwise_or(high_nb[: 1 << v], cols[k + v], out=high_nb[1 << v : 2 << v])
    row = _LOW_ROW[: 1 << k]
    rank = _RANK[n]
    for m in range(1 << (n - k)):
        # |S| = |lo| + |m|: the table from row |m| on is indexed by |lo|
        idx = np.bitwise_count(lo | high_nb[m]) + row
        yield m << k, rank[m.bit_count() << 5 :].take(idx).T


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
    for high, ranks in _subset_ranks([g.adj]):
        rank = ranks[0]
        least = int(rank[rank.argmin()])
        if least > best_rank:
            continue
        tied = [high | lo for lo in (rank == least).nonzero()[0].tolist()]
        if least == best_rank:
            tied.append(best)
        best_rank, best = least, functools.reduce(_lex_least, tied)
    return BindingResult.checked(g, best, "brute")


class _SetProfile:
    """One allowed set A as the counting test reads it, filled on first use.

    nb is N(A); ds holds d_w = |N(w) & A| for each w in N(A), ascending.
    Both depend on the adjacency alone, so a plan keeps them across
    thresholds, and a set that an earlier set or its memo settles never
    computes them. Threads racing on an empty slot store equal values.

    no is the refusal memo: (a, c) for the largest threshold a/c at which
    a flow found no S inside A with ratio below a/c, or None. It is one
    tuple, so a thread reads one whole write; a racing write may keep the
    smaller of two such thresholds, which is still one A refused at.
    """

    __slots__ = ("adj", "sub", "size", "nb", "ds", "no")

    def __init__(self, adj: tuple[int, ...], sub: int) -> None:
        self.adj, self.sub, self.size = adj, sub, sub.bit_count()
        self.nb: Optional[int] = None
        self.ds: Optional[list[int]] = None
        self.no: Optional[tuple[int, int]] = None

    def sole_minimiser(self, a: int, c: int) -> bool:
        """Counting test that S = A is the only minimiser of c|N(S)| - a|S|.

        Dropping a nonempty T from A removes from N(A) exactly the w whose
        neighbours in A all lie in T, and each such w has d_w <= |T|. So the
        score rises by at least a|T| - c#{w : d_w <= |T|}, which is positive
        for every T (the empty S included) when a*d > c*i along the d_w
        sorted ascending, i counting from 1. Sufficient, not necessary.
        """
        adj, sub, nb = self.adj, self.sub, self.nb
        if nb is None:
            nb = 0
            rest = sub
            while rest:
                lowb = rest & -rest
                nb |= adj[lowb.bit_length() - 1]
                rest ^= lowb
            self.nb = nb
        if c * nb.bit_count() >= a * self.size:  # fails at i = |N(A)|: each d_w <= |A|
            return False
        ds = self.ds
        if ds is None:
            ds = []
            while nb:
                lowb = nb & -nb
                ds.append((adj[lowb.bit_length() - 1] & sub).bit_count())
                nb ^= lowb
            ds.sort()
            self.ds = ds
        return all(a * d > c * i for i, d in enumerate(ds, 1))


class _ThresholdPlan:
    """What every threshold decision on one graph shares.

    sets: a _SetProfile for each distinct allowed set A_u = V - N(u),
    largest first, ties in order of first u. The rest is the topology of
    the network of _ThresholdNetwork, in the arc order one add_edge per
    arc would give: arc 2v runs from the source to left v, arc 2n + 2w
    from right w to the sink, and the middle arcs v -> w start at
    first[v], one per neighbour w in increasing order, each followed by
    its reverse. out and to are the Dinic arrays. Only capacities depend
    on the threshold, so a decision allocates nothing else.

    A plan depends on the adjacency alone and is never changed after it
    is built, apart from the profiles' idempotent lazy slots and their
    refusal memos, each written as one value that holds whenever it is
    read, so threads may share it. Its topology takes 9n + 8|E| + 1 list
    entries, fewer than the arrays of one network built arc by arc
    (12n + 12|E|); its at most n profiles hold at most n degrees and one
    memo tuple each.
    """

    __slots__ = ("adj", "n", "sets", "first", "out", "to")

    def __init__(self, adj: tuple[int, ...]) -> None:
        n = len(adj)
        self.adj, self.n = adj, n
        allowed = dict.fromkeys(((1 << n) - 1) & ~row for row in adj)
        self.sets = [_SetProfile(adj, sub) for sub in sorted(allowed, key=lambda m: -m.bit_count())]
        first = [4 * n]
        for row in adj:
            first.append(first[-1] + 2 * row.bit_count())
        to = [0] * first[-1]
        to[0 : 2 * n : 2] = range(2, 2 + n)
        to[2 * n : 4 * n : 2] = [1] * n
        to[2 * n + 1 : 4 * n : 2] = range(2 + n, 2 + 2 * n)
        into: list[list[int]] = [[2 * n + 2 * w] for w in range(n)]  # arcs leaving right w
        e = 4 * n
        for v, row in enumerate(adj):
            while row:
                wb = row & -row
                w = wb.bit_length() - 1
                to[e] = 2 + n + w
                to[e + 1] = 2 + v
                into[w].append(e + 1)
                row ^= wb
                e += 2
        left = [[2 * v + 1, *range(first[v], first[v + 1], 2)] for v in range(n)]
        self.first, self.to = first, to
        self.out = [list(range(0, 2 * n, 2)), list(range(2 * n + 1, 4 * n, 2)), *left, *into]


@functools.lru_cache(maxsize=1)
def _threshold_plan(adj: tuple[int, ...]) -> _ThresholdPlan:
    """The plan of the graph with adjacency adj, cached for one graph.

    binding_number_flow decides one graph round after round, so its rounds
    share one plan, and between calls memory holds one graph's plan.
    lru_cache keeps its entry consistent across threads; threads deciding
    different graphs only rebuild plans.
    """
    return _ThresholdPlan(adj)


class _ThresholdNetwork:
    """The one flow network of a threshold decision a/c, moved between sets.

    Nodes: 0 source, 1 sink, 2 + v the left copy of v, 2 + n + w the right
    copy of w. Arcs (laid out by _ThresholdPlan): source -> left v,
    left v -> right w for each edge vw (capacity a*n + 1, above any cut),
    right w -> sink (capacity c). The allowed set A is imposed by giving
    the source arcs of its vertices capacity a and all others 0. A cut
    whose left source side is S costs a|A - S| + c|N(S)|.
    """

    def __init__(self, plan: _ThresholdPlan, a: int, c: int) -> None:
        n = plan.n
        self.plan, self.a = plan, a
        middle = (len(plan.to) - 4 * n) // 2
        self.cap = [0, 0] * n + [c, 0] * n + [a * n + 1, 0] * middle
        self.net = Dinic.from_arcs(plan.out, plan.to, self.cap)
        self.current = 0  # the allowed set imposed now
        self.flow = 0

    def _move_to(self, sub: int) -> None:
        """Cancel the flow of the left vertices leaving, open those entering.

        Every flow path is source-v-w-sink, so the flow through v is
        cancelled arc by arc along its middle arcs, until the flow of its
        source arc is used up.
        """
        cap, first, to = self.cap, self.plan.first, self.plan.to
        leaving = self.current & ~sub
        while leaving:
            lowb = leaving & -leaving
            leaving ^= lowb
            v = lowb.bit_length() - 1
            e = 2 * v
            f = cap[e + 1]
            cap[e] = cap[e + 1] = 0
            self.flow -= f
            m = first[v]
            while f:
                x = cap[m + 1]
                if x:
                    k = 2 * to[m] - 4  # the sink arc of the right node to[m]
                    cap[m] += x
                    cap[m + 1] = 0
                    cap[k] += x
                    cap[k + 1] -= x
                    f -= x
                m += 2
        entering = sub & ~self.current
        while entering:
            lowb = entering & -entering
            cap[2 * lowb.bit_length() - 2] = self.a
            entering ^= lowb
        self.current = sub

    def _push_direct(self) -> None:
        """Greedily fill source-v-w-sink paths whose sink arc has room.

        Cheaper than a Dinic phase, which then only has to reroute.
        """
        cap, plan = self.cap, self.plan
        adj, first, n = plan.adj, plan.first, plan.n
        free = 0
        for w, x in enumerate(cap[2 * n : 4 * n : 2]):
            if x:
                free |= 1 << w
        rest = self.current
        while rest and free:
            lowb = rest & -rest
            v = lowb.bit_length() - 1
            rest ^= lowb
            e, row = 2 * v, adj[v]
            cand = row & free
            while cap[e] and cand:
                wb = cand & -cand
                cand ^= wb
                m = first[v] + 2 * (row & (wb - 1)).bit_count()
                k = 2 * n + 2 * wb.bit_length() - 2
                f = min(cap[e], cap[k])
                cap[e] -= f
                cap[e + 1] += f
                cap[m] -= f
                cap[m + 1] += f
                cap[k] -= f
                cap[k + 1] += f
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
        n = self.plan.n
        smask = 0
        for node in self.net.source_side(0):
            if 2 <= node < 2 + n:
                smask |= 1 << (node - 2)
        return smask


def binding_below_threshold(
    g: Graph, t: Fraction
) -> tuple[bool, Optional[int]]:
    """Decide whether some nonempty S with N(S) != V has |N(S)|/|S| < t.

    Cunningham's reduction: N(S) misses u exactly when S lies inside the
    allowed set A = V without N(u), so the smallest minimiser of
    f(S) = c|N(S)| - a|S| over S inside A, with t = a/c, is a witness
    whenever that minimum is negative. One network serves every A of a
    call (_ThresholdNetwork): moving to the next set keeps the flow of the
    vertices that stay, and augments from there.

    What does not depend on t comes from the graph's _ThresholdPlan: the
    allowed sets, their counting-test profiles, their refusal memos and
    the network topology. The plan is cached for the graph decided last,
    so the Dinkelbach rounds of binding_number_flow build it once; a
    decision allocates only the capacities and Dinic's level arrays. The
    cache holds one plan: one network's topology plus at most n^2 profile
    entries and n memo tuples.

    The sets are visited largest first. A set that passes the counting
    test of _SetProfile.sole_minimiser is its own witness without a flow.
    Witnesses are aggregated over the sets by minimum ratio with the
    (size, lex) tie-break of _better, a strict total order, so neither
    the visiting order nor a set skipped for giving a known witness
    changes the answer. Two rules skip sets without a flow:

    - Nested witnesses. f is submodular, so its minimisers over a set
      form a lattice (Picard and Queyranne 1980) whose least element is
      the smallest minimiser. Let W' be that of an earlier set A' (0 when
      A' answered no). Every A with W' inside A inside A' is skipped: the
      minimum over A is at least that over A' and W' reaches it, so the
      minimisers over A are those over A' that lie in A, and their least
      element is W' again. Only flow answers are listed; a set that
      passes the counting test has W' = A', so no other set lies between.
    - Refusal memo. A set that answered no at t' has every S inside it at
      ratio >= t', so it answers no at every t <= t'. Each profile keeps
      the largest such t' (_SetProfile.no); a decision at t <= t' lists
      the set as a no without a flow. Dinkelbach rounds fall in t, so
      each round skips what earlier rounds refused. This costs one tuple
      per allowed set, held with the plan.

    When t <= 1 and the first flow of a call answers no before any set
    has answered yes, one more flow, warm from the last, allows every
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
    plan = _threshold_plan(g.adj)
    net: Optional[_ThresholdNetwork] = None  # built when a set first needs it
    best: Optional[tuple[int, int, int]] = None  # (num, den, mask)
    settled: list[tuple[int, int]] = []  # (A', W') of the flow answers and memo noes
    for profile in plan.sets:
        sub = profile.sub
        if any(sub & ~outer == 0 and w & ~sub == 0 for outer, w in settled):
            continue
        no = profile.no
        if no is not None and a * no[1] <= no[0] * c:
            settled.append((sub, 0))
            continue
        if profile.sole_minimiser(a, c):
            smask = sub
        else:
            first = net is None
            if first:
                net = _ThresholdNetwork(plan, a, c)
            smask = net.witness(sub)
            if first and a <= c and not (smask or best) and not net.witness(g.mask_all):
                return False, None
            settled.append((sub, smask))
            if not smask:
                profile.no = (a, c)
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


def _lex_key(s: int) -> int:
    """Sort key of a nonempty set of at most 20 (_SETS_MAX) vertices that
    orders sets as vertices_of does.

    It is the set's position in the lex order of the nonempty subsets of
    20 vertices, less 2^20. Up to S come its |S| prefixes, S included,
    and, for each v < max S outside S, the 2^(19 - v) sets that agree
    with S below v and take v next. Those terms sum to |S| + 2^20
    - 2^(19 - max S) - rev(S), where rev is the 20-bit reversal: the
    binary digits of S reversed, shifted up by 19 - max S.
    """
    shift = 20 - s.bit_length()
    return s.bit_count() - (1 << shift) - (int(bin(s)[:1:-1], 2) << shift)


def _binding_sets_many(graphs: Iterable[Graph]) -> Iterator[tuple[Graph, list[int]]]:
    """(g, binding_sets_all(g)) for each of graphs, all of one order n <= 20.

    The graphs are read one block at a time: up to 2^(16 - n) of them
    share one subset table (_subset_ranks), and a graph with n > 16 has
    its own, split over its high vertices. A block thus costs a fixed
    number of numpy calls however many small graphs it holds.
    """
    graphs = iter(graphs)
    first = next(graphs, None)
    if first is None:
        return
    n = first.n
    if n > _SETS_MAX:
        raise LimitError(f"binding set listing capped at n <= {_SETS_MAX}")
    graphs = itertools.chain([first], graphs)
    while block := list(itertools.islice(graphs, 1 << max(_LOW_BITS - n, 0))):
        if any(g.n != n for g in block):
            raise DomainError("binding set listing takes graphs of one order")
        best = [_EXCLUDED] * len(block)
        found: list[list[int]] = [[] for _ in block]
        for high, rank in _subset_ranks([g.adj for g in block]):
            key = rank >> 5
            least = key.min(axis=1, keepdims=True)
            leasts = least.ravel().tolist()
            if all(m > b for m, b in zip(leasts, best)):
                continue  # a later high block (n > 16) that beats no graph's best
            graph, lows = np.divmod(np.flatnonzero(key == least), key.shape[1])
            sets = (lows | high).tolist()
            ends = np.bincount(graph, minlength=len(block)).cumsum().tolist()
            start = 0
            for i, (m, end) in enumerate(zip(leasts, ends)):
                if m < best[i]:
                    best[i], found[i] = m, sets[start:end]
                elif m == best[i]:
                    found[i] += sets[start:end]
                start = end
        for g, sets in zip(block, found):
            sets.sort(key=_lex_key)
            yield g, sets


def binding_sets_all(g: Graph) -> list[int]:
    """All nonempty S with N(S) != V achieving b(G), lex order; n <= 20.

    The sets of least ratio in the subset table of binding_number_bruteforce:
    the one-graph case of _binding_sets_many.
    """
    return next(_binding_sets_many([g]))[1]


def toughness_bruteforce(g: Graph) -> Fraction:
    """tau(G) = min |S|/c(G-S) over cut sets S; 0 for disconnected G.

    Complete graphs have no cut set and are outside the domain. The sets
    S are visited by increasing size k, and the scan stops at the first k
    with k/(n - k) >= the best ratio found: c(G - S) <= n - |S|, so every
    S of size k or more has ratio at least k/(n - k). Each component
    search stops once it has covered what is left of G - S.

    Worst case n = 16 on a 2-vCPU x86-64 box (best of 5 calls): K_16
    minus an edge, tau = 7, where nothing is pruned (65518 sets, up to
    |S| = 14), 32-55 ms; connected G(16, 0.5), 59-99 ms. The scan over
    all 2^n sets took 88-124 and 93-151 ms on the same graphs.
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
    for k in range(1, n - 1):
        if k * best_den >= best_num * (n - k):
            break
        s = (1 << k) - 1
        while s <= full:
            rem = full & ~s
            comps = 0
            while rem:  # peel off the component of the least vertex left
                comps += 1
                comp = todo = rem & -rem
                while todo and comp != rem:
                    lowb = todo & -todo
                    grown = adj[lowb.bit_length() - 1] & rem & ~comp
                    comp |= grown
                    todo ^= lowb | grown
                rem ^= comp
            if comps > 1 and k * best_den < best_num * comps:
                best_num, best_den = k, comps
            # the next k-subset in increasing order (Gosper's hack)
            lowb = s & -s
            r = s + lowb
            s = (((r ^ s) >> 2) // lowb) | r
    return Fraction(best_num, best_den)
