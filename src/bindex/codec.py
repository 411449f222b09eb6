"""graph6 and edge-list codecs.

graph6: byte 1 encodes n+63 for n <= 62; larger n starts with '~' (126)
followed by three bytes carrying 18 bits big-endian, each 6-bit group +63.
Then the upper triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... in column
order, packed big-endian into 6-bit groups, zero padded, each group +63.

Edge list: first line "n m", then m lines "u v", 0-indexed.
"""

from __future__ import annotations

from .graph import DomainError, Graph

_G6_MAX = 258047
# A 6-bit group's octal digits, low digit first, to its graph6 byte. The
# group's first bit is its lowest, and graph6 writes the first bit highest.
_G6_CHAR = {f"{v & 7}{v >> 3}": chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)}


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
    if n > _G6_MAX:
        raise DomainError(f"graph6 supports n <= {_G6_MAX}")
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


def graph6_decode(text: str) -> Graph:
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        # every character before exc.start is one byte, so it is a byte offset
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    pos = 0
    if data[0] == 126:
        if len(data) < 4:
            raise Graph6Error("truncated extended size header", len(data))
        if data[1] == 126:
            raise Graph6Error("8-byte size extension not supported", 1)
        vals = []
        for i in (1, 2, 3):
            b = data[i]
            if not 63 <= b <= 126:
                raise Graph6Error(f"size byte {b} outside graph6 range", i)
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        b = data[0]
        if not 63 <= b <= 125:
            raise Graph6Error(f"size byte {b} outside graph6 range", 0)
        n = b - 63
        pos = 1
    if n < 1:
        raise Graph6Error("graph6 size 0 not supported here", 0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < need:
        raise Graph6Error(
            f"expected {need} edge bytes for n={n}, got {len(data) - pos}", len(data)
        )
    if len(data) - pos > need:
        raise Graph6Error("trailing bytes after edge data", pos + need)
    adj = [0] * n
    bit = 0
    total = n * (n - 1) // 2
    col = 1
    row = 0
    for i in range(pos, len(data)):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6Error(f"edge byte {b} outside graph6 range", i)
        group = b - 63
        for k in range(5, -1, -1):
            if bit >= total:
                if (group >> k) & 1:
                    raise Graph6Error("nonzero padding bits", i)
                continue
            if (group >> k) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit += 1
            row += 1
            if row == col:
                col += 1
                row = 0
    return Graph._trusted(n, adj)


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
        parts = ln.split()
        if len(parts) != 2:
            raise DomainError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
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
