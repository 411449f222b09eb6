"""graph6 and edge-list codecs.

graph6: byte 1 encodes n+63 for n <= 62; larger n starts with '~' (126)
followed by three bytes carrying 18 bits big-endian, each 6-bit group +63.
Then the upper triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... in column
order, packed big-endian into 6-bit groups, zero padded, each group +63.

Decoding is linear in n^2 at any density: the edge bytes become one string
of binary digits, and _graph_of_pairs reads every adjacency row from an
n x n square of them. At n = 4096 on a 2-vCPU x86-64 box, K_4096 and the
path P_4096 decode in 0.24-0.38 s, and one decode raises a fresh
process's peak RSS by about 27 MB: the 8 MB of digits and the 16 MB
square.

Edge list: first line "n m", then m lines "u v", 0-indexed.
"""

from __future__ import annotations

import functools
import re

from .graph import MAX_VERTICES, DomainError, Graph

# A 6-bit group's octal digits, low digit first, to its graph6 byte. The
# group's first bit is its lowest, and graph6 writes the first bit highest.
_G6_CHAR = {f"{v & 7}{v >> 3}": chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)}

# A graph6 byte's 6-bit group as binary digits, low bit first.
_G6_BITS = {b: format(b - 63, "06b")[::-1] for b in range(63, 127)}
_NOT_G6 = re.compile(rb"[^?-~]")


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def graph6_encode(g: Graph) -> str:
    """The graph6 string of g, packed column by column from the masks.

    Bit k of one int is the k-th upper-triangle bit: column `col` holds
    the neighbours of col below it, shifted past the earlier columns. Its
    octal digits, low first, pair up into the 6-bit groups, each digit
    pair mapped to its byte by _G6_CHAR.
    """
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    bits = 0
    total = 0
    for col, row in enumerate(g.adj):
        bits |= (row & ((1 << col) - 1)) << total
        total += col
    width = 2 * ((total + 5) // 6)
    digits = format(bits, "o").zfill(width)[::-1]
    return head + "".join([_G6_CHAR[digits[i : i + 2]] for i in range(0, width, 2)])


@functools.lru_cache(maxsize=16)
def _pair_slices(n: int) -> tuple[list[slice], list[slice], list[slice]]:
    """For j = 1 .. n - 1: column j within the digits of _graph_of_pairs,
    counted from the end, and row n - 1 - j of its square, right-aligned;
    then, for v = 0 .. n - 1, the stride-n digits of the square that hold
    v's upper pairs. They depend on n alone, so decoding many graphs of
    one order builds them once. The cache keeps 16 orders, 1.4 MB for
    n = 4096 and 15 kB for n = 44."""
    cols = [slice(-(j * (j + 1) // 2), -(j * (j - 1) // 2) or None) for j in range(1, n)]
    rows = [slice((n - j) * n - j, (n - j) * n) for j in range(1, n)]
    upper = [slice(n - 1 - v, None, n) for v in range(n)]
    return cols, rows, upper


def _graph_of_pairs(n: int, bits: bytes) -> Graph:
    """The n-vertex graph whose edges are the set bits of the pair mask bits.

    bits holds the binary digits, high bit first, of a mask whose bit k is
    the k-th pair (i, j), i < j, in column order (0,1), (0,2), (1,2), (0,3),
    ...; digits above bit n(n-1)/2 are ignored. Column j, the pairs (i, j),
    is then j consecutive digits, high vertex first, so int() of it gives
    the lower neighbours of j. Row n - 1 - j of one n x n bytearray square
    holds column j right-aligned in '0' digits, so the digits at n - 1 - v
    + kn, k = 0, 1, ..., are the pairs (v, n - 1 - k): the upper neighbours
    of v, high vertex first. The square is the only n^2 scratch. Linear in
    n^2: n - 1 column copies and 2n - 1 int parses.
    """
    cols, rows, upper = _pair_slices(n)
    square = bytearray(b"0") * (n * n)
    adj = [0]  # the lower neighbours, then the upper ones ORed in
    for col, row in zip(cols, rows):
        digits = bits[col]
        square[row] = digits
        adj.append(int(digits, 2))
    for v, up in enumerate(upper):
        adj[v] |= int(square[up], 2)
    return Graph._trusted(n, adj)


def _digits(data: bytes, start: int, stop: int, what: str) -> bytes:
    """The bit stream of the 6-bit groups of data[start:stop], each read
    high bit first, as the binary digits of the int whose bit k is the
    stream's k-th bit: the stream reversed."""
    bad = _NOT_G6.search(data, start, stop)
    if bad:
        raise Graph6Error(f"{what} byte {data[bad.start()]} outside graph6 range", bad.start())
    # bytes.join would hold one buffer view per group, about 80 bytes each
    return "".join([_G6_BITS[b] for b in reversed(data[start:stop])]).encode()


def graph6_decode(text: str) -> Graph:
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        # every character before exc.start is one byte, so it is a byte offset
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    start, pos = 0, 1
    if data[0] == 126:
        if len(data) < 4:
            raise Graph6Error("truncated extended size header", len(data))
        if data[1] == 126:
            raise Graph6Error("8-byte size extension not supported", 1)
        start, pos = 1, 4
    n = int(_digits(data, start, pos, "size")[::-1], 2)
    if n < 1:
        raise Graph6Error("graph6 size 0 not supported here", 0)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 size {n} exceeds the vertex cap {MAX_VERTICES}", 0)
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(data) - pos < need:
        raise Graph6Error(
            f"expected {need} edge bytes for n={n}, got {len(data) - pos}", len(data)
        )
    if len(data) - pos > need:
        raise Graph6Error("trailing bytes after edge data", pos + need)
    digits = _digits(data, pos, len(data), "edge")
    if b"1" in digits[: 6 * need - total]:
        # fewer than 6 padding bits, all in the last byte
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    return _graph_of_pairs(n, digits)


def edge_list_encode(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def edge_list_decode(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise DomainError("edge list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DomainError(f"bad edge list header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise DomainError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise DomainError(f"bad edge line {ln!r}") from exc
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise DomainError(f"duplicate edge {u} {v}")
        seen.add(pair)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def load_graph(text: str) -> Graph:
    """Autodetect: a leading digit means edge list, else graph6.

    Safe split: graph6 bytes are all >= 63 ('?'), digits are below that.
    """
    stripped = text.strip()
    if not stripped:
        raise DomainError("empty graph input")
    if stripped[0].isdigit():
        return edge_list_decode(text)
    return graph6_decode(stripped)
