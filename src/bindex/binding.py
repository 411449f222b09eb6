"""Exact binding number and toughness.

b(G) = min |N(S)|/|S| over nonempty S with N(S) != V(G). All arithmetic
is integer or Fraction; no floats anywhere in this module, because the
regime dispatches downstream compare b against 1/r strictly.

Vertex sets are int bitmasks as in graph.py.

Brute force (n <= 24) scans one numpy subset table. N(S) is built as
uint32 for every S over the low k = min(n, 14) vertices by doubling; the
sets over the n - k high vertices split the table into at most 1024
blocks of 2^14 entries, each the low table ORed with N(high). Each entry
is ranked through a small integer table indexed by (|S|, |N(S)|): the key
|N(S)| * (L // |S|) with L = lcm(1..24) = 5354228880 is L times the ratio,
exact because |S| divides L, and at most 24 * L < 2^37; the rank, key << 5
| |S|, stays below 2^42, so int64 holds it and ratios are compared without
a float. A block's arrays are at most 128 KB each, about 0.5 MB in all,
and the allocator hands each block the memory the last one freed, so
only a process's first call takes page faults. Blocks of 2^15 or 2^16
entries faulted on freshly mapped temporaries, up to 29000 faults in one
n = 24 call, and one n = 16 call took about 2x or 3x as long. Worst
case, n = 24, on a 2-vCPU x86-64 box: 0.034-0.037 s per call (G(24, 0.3)
and K_24). The table is built for a stack of graphs of one order, one
row each: up to 2^(14 - n) graphs of order n <= 14 share one block of
2^14 entries, so listing the binding sets of many small graphs
(_binding_sets_many) costs a few numpy calls per block rather than per
graph. A graph with n > 14 fills its blocks alone.

Flow (any n) decides thresholds on Cunningham's network, one decision per
Dinkelbach round, and the rounds start from a witness that is often
already a binding set (binding_number_flow has the proofs). With least
degree delta = 1 it is the pendant class of the least pendant vertex,
every vertex on the same one neighbour, of ratio 1/|P|, which on the
paper's extremal graphs is almost always a binding set. With delta >= 2
it is the best allowed set A_u = V - N(u), of ratio below delta for
1 < delta < n - 1 (Woodall 1973). A decision at t <= 1 first runs one
flow with every vertex allowed, which answers a no alone and settles
every allowed set containing its witness on a yes. So on most extremal
constructions the value costs one decision of one flow. A dense random
graph needs one decision at t > 1, a no whose smallest allowed sets
are deferred (below) and never run: on G(n, 0.3) it runs a little over
half of the n flows (341 of 640, 2280 of 4096). One call on G(n, 0.3),
seed 1, on a 2-vCPU x86-64 box: 0.17 s at n = 640, 0.82 s at n = 1280,
4.2 s at n = 2560 and 13.7 s at n = 4096, the vertex cap; the call
raises the peak RSS by at most 6 MB.

The network (_ThresholdNetwork) has no arc list. Its middle arcs have
unbounded capacity, so they are read from the adjacency masks, and its
state is the flow on the arcs that carry some plus masks of the right
vertices with sink room and of the left vertices sending to each right
one. A Dinic phase levels it one layer at a time by ORs of those masks.

What a decision needs that does not depend on the threshold is the
graph's plan (_threshold_plan), its one partition into twin classes: the
vertices u of one class share N(u), and so one allowed set A_u. A plan
holds each class's allowed set, its size and the mask of its vertices;
it never changes once built, so a decision depends on (G, t) alone. The
start of binding_number_flow reads the same plan. One plan, that of the
graph decided last, stays cached, so a call builds it once and memory
holds one graph's plan between calls: at most n classes of two masks and
one size each.

A decision keeps no record of earlier answers, and only two rules spare
a set its flow; binding_below_threshold gives their proofs. At t <= 1,
a set holding the witness W of the flow over all vertices has W as its
witness too: the minimisers of c|N(S)| - a|S| form a lattice (Picard and
Queyranne 1980). Deferral: at t = a/c > 1, a union U of twin classes
with a|A_u| <= c(n - 1) for each u in U and a min(P, D_j) <= c(n - j)
for each j = 2..|U| holds no S of ratio below t that the other sets
miss. Here P is the largest |A_u & A_u'| over u != u' in U, and D_j
counts the vertices lying in A_u for at least j of the u in U: if N(S)
missed only a set T of j vertices of U, every vertex of S would lie in
the j sets A_u, u in T. So U's sets run only once another set has
answered yes, and a no never runs them. The counts are kept bit-sliced,
one mask per bit of a count (_deferred).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graph import DomainError, Graph, LimitError, vertices_of
from .maxflow import Dinic

_BRUTE_MAX = 24
_SETS_MAX = 20
_TOUGH_MAX = 16

_LOW_BITS = 14  # vertices per block of the subset table: 2^14 sets
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
    2^(14 - n) of them when n <= 14 and one when n > 14, so that a block
    holds at most 2^14 (2^_LOW_BITS) entries: no block array passes
    128 KB, so each block reuses the memory the last one freed and takes
    no page fault (module docstring). Block `high` holds the sets
    S = high | lo for every lo over the low k = min(n, 14) vertices;
    rank[i, lo] is the _rank_table entry of S in graph i. N(S) is built
    over the low vertices once by doubling, as uint32, and each block ORs
    in N(high).

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
    over the blocks of _subset_ranks. Worst case n = 24: 1024 blocks of
    2^14 entries, 0.034-0.037 s measured (module docstring).
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


@functools.lru_cache(maxsize=1)
def _threshold_plan(adj: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The twin classes of the graph with adjacency adj, cached for one graph.

    One (sub, size, twins) for each distinct allowed set A_u = V - N(u),
    largest first, ties in order of first u; twins is the mask of the
    vertices u with A_u = sub (twins, N(u) = N(u')). The flow start and
    every threshold decision read it, so a call builds it once, and
    between calls memory holds one graph's plan. A tuple never changes, so
    threads may share it; threads deciding different graphs only rebuild
    plans.
    """
    n = len(adj)
    twins: dict[int, int] = {}
    for u, row in enumerate(adj):
        twins[row] = twins.get(row, 0) | 1 << u
    full = (1 << n) - 1
    return tuple(sorted(((full & ~row, n - row.bit_count(), tw) for row, tw in twins.items()),
                        key=lambda e: -e[1]))


class _ThresholdNetwork(Dinic):
    """The one flow network of a threshold decision a/c, moved between sets.

    Cunningham's network: source -> left v of capacity a for v in the
    allowed set A (0 for the others), left v -> right w for each edge vw
    of unbounded capacity, right w -> sink of capacity c. A cut whose left
    source side is S costs a|A - S| + c|N(S)|.

    The middle arcs have unbounded capacity, so only their flow is state:
    they are read from the adjacency masks and the network keeps no arc
    list. Its state:

    - res[v], the residual capacity of v's source arc; avail, the mask of
      left v with res[v] > 0;
    - fl[v], the flow on each middle arc v -> w that carries some, as a
      dict {w: flow};
    - room[w], the residual capacity of w's sink arc; free, the mask of
      right w with room[w] > 0; into[w], the mask of left v with flow
      into w, whose reverse arcs w -> v are the residual ones.

    Dinic.maxflow is the phase loop, run unchanged over the _bfs and _dfs
    below. Of the arc-list Dinic's state only to is set, empty, so an arc
    count reads 0; the min-cut side is reach, not Dinic.source_side.
    """

    __slots__ = ("adj", "a", "current", "res", "avail", "fl", "room", "free", "into", "layers", "reach")

    def __init__(self, adj: tuple[int, ...], a: int, c: int) -> None:
        n = len(adj)
        self.to = ()
        self.adj, self.a = adj, a
        self.current = 0  # the allowed set imposed now
        self.res, self.avail = [0] * n, 0
        self.fl: list[dict[int, int]] = [{} for _ in range(n)]
        self.room, self.free, self.into = [c] * n, (1 << n) - 1, [0] * n
        self.layers: list[int] = []  # the level graph of the phase, one mask per layer
        self.reach = 0  # the left vertices levelled by the last search

    @property
    def flow(self) -> int:
        """The value of the flow held now."""
        return self.a * self.current.bit_count() - sum(self.res)

    def _move_to(self, sub: int) -> None:
        """Cancel the flow of the left vertices leaving, open those entering.

        Every flow path is source-v-w-sink, so cancelling v's flow only
        returns it to the sink arcs of the w that v sends to.
        """
        res, fl, room, into = self.res, self.fl, self.room, self.into
        free = self.free
        leaving = self.current & ~sub
        while leaving:
            lowb = leaving & -leaving
            leaving ^= lowb
            v = lowb.bit_length() - 1
            res[v] = 0
            for w, x in fl[v].items():
                room[w] += x
                into[w] ^= lowb
                free |= 1 << w
            fl[v].clear()
        entering = sub & ~self.current
        self.avail = self.avail & sub | entering
        while entering:
            lowb = entering & -entering
            res[lowb.bit_length() - 1] = self.a
            entering ^= lowb
        self.free, self.current = free, sub

    def _push_direct(self) -> None:
        """Greedily fill source-v-w-sink paths whose sink arc has room.

        Cheaper than a Dinic phase, which then only has to reroute.
        """
        adj, res, fl, room, into = self.adj, self.res, self.fl, self.room, self.into
        avail, free = self.avail, self.free
        rest = avail
        while rest and free:
            lowb = rest & -rest
            rest ^= lowb
            v = lowb.bit_length() - 1
            cand = adj[v] & free
            if not cand:
                continue
            r, fv = res[v], fl[v]
            while r and cand:
                wb = cand & -cand
                cand ^= wb
                w = wb.bit_length() - 1
                x = room[w] if room[w] < r else r
                r -= x
                fv[w] = fv.get(w, 0) + x
                into[w] |= lowb
                room[w] -= x
                if not room[w]:
                    free ^= wb
            res[v] = r
            if not r:
                avail ^= lowb
        self.avail, self.free = avail, free

    def _bfs(self, s: int, t: int) -> bool:
        """Level the residual network from the source, by masks.

        Layers alternate left and right. The first is avail; a right layer
        is every right vertex adjacent to the left layer before it and not
        levelled yet; a left layer is every left vertex with flow into the
        right layer before it and not levelled yet. The search stops at the
        first right layer that meets free, keeping only those hits as the
        last layer. When no layer does, every left vertex reachable from
        the source is levelled, and reach holds them.
        """
        adj, into, free = self.adj, self.into, self.free
        left = seen_left = self.avail
        seen_right = 0
        layers = self.layers = []
        while left:
            layers.append(left)
            right = 0
            while left:
                lowb = left & -left
                right |= adj[lowb.bit_length() - 1]
                left ^= lowb
            right &= ~seen_right
            if right & free:
                layers.append(right & free)
                return True
            layers.append(right)
            seen_right |= right
            while right:
                lowb = right & -right
                left |= into[lowb.bit_length() - 1]
                right ^= lowb
            left &= ~seen_left
            seen_left |= left
        self.reach = seen_left
        return False

    def _dfs(self, s: int, t: int) -> int:
        """Blocking flow over the layers of _bfs; returns the flow added.

        A path holds one vertex per layer: left v at even, right w at odd
        positions, ending at a hit. A vertex found to be a dead end leaves
        its layer, so the layer masks serve as both levels and iterators.
        """
        adj, res, fl, room, into = self.adj, self.res, self.fl, self.room, self.into
        layers = self.layers
        end = len(layers)
        total = 0
        path: list[int] = []
        while True:
            i = len(path)
            if i == end:
                # the bottleneck: v's source arc, the reverse arcs, w's sink arc
                v, w = path[0], path[-1]
                x = res[v] if res[v] < room[w] else room[w]
                for j in range(2, end, 2):
                    y = fl[path[j]][path[j - 1]]
                    if y < x:
                        x = y
                total += x
                # saturated arcs from the sink back, so cut ends at the first
                cut = end
                room[w] -= x
                if not room[w]:
                    self.free ^= 1 << w
                    layers[-1] ^= 1 << w
                    cut = end - 1
                for j in range(end - 2, -1, -2):
                    v, w = path[j], path[j + 1]
                    fv, vb = fl[v], 1 << v
                    fv[w] = fv.get(w, 0) + x
                    into[w] |= vb
                    if j:
                        w = path[j - 1]
                        fv[w] -= x
                        if not fv[w]:
                            del fv[w]
                            into[w] ^= vb
                            cut = j
                res[v] -= x
                if not res[v]:
                    self.avail ^= vb
                    layers[0] ^= vb
                    cut = 0
                del path[cut:]
                continue
            if not i:
                cand = layers[0]
            elif i & 1:
                cand = adj[path[-1]] & layers[i]
            else:
                cand = into[path[-1]] & layers[i]
            if cand:
                path.append((cand & -cand).bit_length() - 1)
            elif i:
                layers[i - 1] ^= 1 << path.pop()
            else:
                return total

    def witness(self, sub: int) -> int:
        """Smallest minimiser of c|N(S)| - a|S| over S inside sub, or 0.

        0 means the minimum is 0, reached by the empty S. The minimiser is
        the left part of the residual-reachable source side after a
        maximum flow, which the last, failing search of Dinic.maxflow has
        levelled: the smallest min-cut source side, whichever maximum flow
        was found, so it does not depend on the flow kept from the
        previous set.
        """
        self._move_to(sub)
        self._push_direct()
        self.maxflow(0, 1)
        return self.reach


def _deferred(sets: Sequence[tuple[int, int, int]], n: int, a: int, c: int) -> int:
    """How many of sets, the smallest, a no at t = a/c > 1 need not run.

    sets is the plan of a graph on n vertices (_threshold_plan). The
    deferred sets form the U of the deferral rule of
    binding_below_threshold, taken smallest first; the walk stops at the
    first set that cannot join, so they are the last of sets. As U grows it
    keeps k = |U|, P, and each vertex x's count of the sets A_u, u in U,
    that hold x, bit-sliced: planes[b] is the mask of the x whose count
    has bit b set, and a new set joins with one ripple carry per twin.
    D_j, the number of x of count at least j, is read by comparing the
    counts with j from the top bit down. Condition (ii') is checked only
    at the j with aP > c(n - j), the others passing on P, and a pass at j
    covers every j' <= n - aD_j/c as well, since D only falls as j grows.
    P costs O(|U|^2) popcounts and the counts O(|U| log |U|) mask
    operations.
    """
    k, p = 0, 0
    taken: list[int] = []
    planes = [0] * n.bit_length()  # counts are at most n
    for sub, size, twins in reversed(sets):
        if a * size > c * (n - 1):
            break
        m = twins.bit_count()
        if taken:
            q = max([(sub & x).bit_count() for x in taken])
            if q > p:
                p = q
        if m > 1 and size > p:
            p = size
        for _ in range(m):
            carry, b = sub, 0
            while carry:
                x = planes[b]
                planes[b] = x ^ carry
                carry &= x
                b += 1
        k += m
        j = n + 1 + (-a * p) // c  # the least j with aP > c(n - j)
        if j < 2:
            j = 2
        while j <= k:
            # count >= j compares the bits of count and j from k's top bit
            # down to j's lowest 1, below which j has no bit to beat
            over, tied = 0, -1
            b, low = k.bit_length(), (j & -j).bit_length() - 1
            while b > low:
                b -= 1
                x = planes[b]
                if j >> b & 1:
                    tied &= x
                else:
                    over |= tied & x
                    tied &= ~x
            d = (over | tied).bit_count()
            if a * d > c * (n - j):
                return len(taken)
            j = n + 1 + (-a * d) // c
        taken.append(sub)
    return len(taken)


def binding_below_threshold(
    g: Graph, t: numbers.Rational
) -> tuple[bool, Optional[int]]:
    """Decide whether some nonempty S with N(S) != V has |N(S)|/|S| < t.

    Cunningham's reduction: N(S) misses u exactly when S lies inside the
    allowed set A = V without N(u), so the smallest minimiser of
    f(S) = c|N(S)| - a|S| over S inside A, with t = a/c, is a witness
    whenever that minimum is negative. One network, built once, serves
    every A of a call (_ThresholdNetwork): moving to the next set keeps
    the flow of the vertices that stay, and augments from there. t must be
    an int or a Fraction: a float such as 0.1 is not the ratio it prints.

    What does not depend on t comes from the graph's plan
    (_threshold_plan): the allowed sets, each with the mask of its twins.
    The plan is cached for the graph decided last, so binding_number_flow,
    whose start builds it, and its Dinkelbach rounds build it once; a
    decision allocates only the network's flow state, O(n) lists and
    masks plus one entry per arc that carries flow. The cache holds one
    plan: at most n entries of two masks and one size each. A plan never
    changes and a decision keeps no record of earlier answers, so the
    answer and the flows run depend on (G, t) alone.

    The sets are visited largest first. Witnesses are aggregated over the
    sets by minimum ratio with the (size, lex) tie-break of _better, a
    strict total order, so neither the visiting order nor a set skipped
    for giving a known witness changes the answer. Only two things spare
    a set its flow:

    - The all-vertex witness, at t <= 1. The first flow allows every
      vertex; let W be its smallest minimiser of f over A' = V, so f(W) < 0
      or W is empty. If W is empty (the flow saturates), no S at all has
      ratio < t: the answer is no, for one flow rather than one per set.
      Otherwise |N(W)| < t|W| <= |W|, so N(W) != V and W lies inside
      some allowed set. f is submodular, so its minimisers over a set
      form a lattice (Picard and Queyranne 1980) whose least element is
      the smallest minimiser. An allowed set A containing W lies inside
      A' = V, so its minimum is at least that over V, which W reaches:
      the minimisers over A are those over V that lie in A, and their
      least element is W again. So W joins the candidates, and only sets
      that miss a vertex of W run a flow. Above 1 this flow proves
      nothing: S = V has ratio 1 < t and N(V) = V.
    - Deferral, at t > 1. Call u and u' twins when N(u) = N(u'), so that
      A_u = A_u'; a set's twins are the vertices u it is A_u of. Let U
      be a union of twin classes such that
      (i) a|A_u| <= c(n - 1) for every u in U, and
      (ii') a min(P, D_j) <= c(n - j) for every j = 2..|U|, where P is
      the largest |A_u & A_u'| over u != u' in U (|A_u| for a twin
      pair) and D_j = #{x : x lies in A_u for at least j of the u in
      U}, each u of a twin class counted.
      Then every S with ratio below t lies in the set of some u outside
      U. For let T = V - N(S). T is not empty, S lies inside A_w for
      each w in T, and |N(S)| = n - |T|. If T = {u} inside U, then
      n - 1 < t|S| <= t|A_u|, against (i). If T lies inside U with
      |T| = j >= 2, then j <= |U|, and S lies inside A_u & A_u' for
      u != u' in T, so |S| <= P, and each x in S lies in A_u for the j
      vertices u of T, so |S| <= D_j. Hence
      n - j < t|S| <= t min(P, D_j) <= n - j, against (ii'). So some
      u in T is outside U, S lies inside A_u, and that set's flow
      answers yes. U's sets are therefore deferred: they run, in their
      usual order, only once another set has answered yes, so a yes
      runs every set as before and a no never runs them. _deferred
      builds U from the smallest sets, the last of the plan, and stops
      at the first set that would break a condition, so a yes visits
      the sets in the order it always did. The pairwise rule (ii),
      aP <= c(n - |U|), implies (ii') since min(P, D_j) <= P and
      n - |U| <= n - j, so (ii') defers at least the sets (ii) did. On
      G(n, 0.3) the final no defers nearly half of the sets, and K_n
      (n >= 3, t = n - 1, every A_u a single vertex) defers all.
    """
    if not isinstance(t, numbers.Rational):
        raise DomainError(f"threshold must be an int or a Fraction, not {type(t).__name__}")
    t = Fraction(t)
    if t <= 0:
        raise DomainError("threshold must be positive")
    a, c = t.numerator, t.denominator
    iso = _isolated_result(g, "flow")
    if iso is not None:
        return True, iso.witness
    sets = _threshold_plan(g.adj)
    net = _ThresholdNetwork(g.adj, a, c)
    best: Optional[tuple[int, int, int]] = None  # (num, den, mask)
    w = 0  # the all-vertex witness W, at t <= 1
    if a <= c:
        w = net.witness(g.mask_all)
        if not w:
            return False, None
        best = (g.neighborhood(w).bit_count(), w.bit_count(), w)
    first = len(sets) - (_deferred(sets, g.n, a, c) if a > c else 0)
    for i, (sub, _, _) in enumerate(sets):
        if i == first and best is None:
            return False, None
        if w and w & ~sub == 0:
            continue  # W is sub's witness too: the lattice argument with A' = V
        smask = net.witness(sub)
        if not smask:
            continue
        num = g.neighborhood(smask).bit_count()
        den = smask.bit_count()
        if best is None or _better(num, den, smask, *best):
            best = (num, den, smask)
    if best is None:
        return False, None
    return True, best[2]


def binding_number_flow(g: Graph) -> BindingResult:
    """Exact b(G) by Dinkelbach iteration over threshold decisions.

    The rounds start from a valid witness of small ratio, read from the
    first twin class of the graph's plan (_threshold_plan), that of the
    least vertex v of least degree: delta = n - its size, and v is the
    lowest vertex of its mask.

    - delta = 1: the pendant class P = {u : N(u) = N(v)}, the class's own
      mask, the vertices hanging on v's one neighbour x. N(P) = {x} != V,
      so P is a witness, of ratio 1/|P|. On most extremal constructions
      such a class is a binding set, so the first round is the final no,
      and at t <= 1 that no costs one flow (binding_below_threshold).
    - delta >= 2: the best start witness under _better among v and every
      allowed set A_u = V - N(u), each a valid witness since u lies in
      A_u and not in N(A_u). w lies outside N(A_u) exactly when N(w) lies
      inside N(u), that is when u is adjacent to every neighbour of w, so
      |N(A_u)| = n - #{w : N(w) inside N(u)}. The twins of u (u among
      them) all count. For each other twin class, ANDing the
      neighbourhoods of its neighbours leaves the u it counts for; the
      chain stops once no vertex outside the class is left: after a few
      ANDs on a random graph, and after one on K_{p,q}. For
      1 < delta < n - 1 the set A_u of v already beats v: |N(A_u)| <= n - 1
      and |A_u| = n - delta, so its ratio is at most
      (n - 1)/(n - delta) < delta, since
      delta(n - delta) - (n - 1) = (delta - 1)(n - delta - 1) > 0 (Woodall
      1973). The round at t = delta would only answer yes, and the first
      round is often the final no.
    """
    iso = _isolated_result(g, "flow")
    if iso is not None:
        return iso
    n, adj, full = g.n, g.adj, g.mask_all
    sets = _threshold_plan(adj)
    _, size, first = sets[0]
    num = n - size
    if num == 1:
        den, witness = first.bit_count(), first
    else:
        den, witness = 1, first & -first
        # inside[u] = #{w : N(w) lies inside N(u)}, read at the first u of
        # each class: its own class, then the others whose chain leaves it
        inside = [0] * n
        for sub, _, tw in sets:
            row, others = full ^ sub, full ^ tw  # N(w); the non-twins of w
            while row and others:
                lowb = row & -row
                others &= adj[lowb.bit_length() - 1]
                row ^= lowb
            others |= tw & -tw
            while others:
                lowb = others & -others
                inside[lowb.bit_length() - 1] += tw.bit_count()
                others ^= lowb
        for sub, size, tw in sets:
            nb = n - inside[(tw & -tw).bit_length() - 1]
            if _better(nb, size, sub, num, den, witness):
                num, den, witness = nb, size, sub
    t = Fraction(num, den)
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

    The graphs are read one block at a time: up to 2^(14 - n) of them
    share one subset table (_subset_ranks), and a graph with n > 14 has
    its own, split over its high vertices. A block thus costs a fixed
    number of numpy calls however many small graphs it holds: 32768
    seeded graphs of order 6, 128 blocks, took 115-148 ms on a 2-vCPU
    x86-64 box, with no page fault after a warm-up.
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
                continue  # a later high block (n > 14) that beats no graph's best
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
