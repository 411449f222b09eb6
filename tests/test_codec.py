"""graph6 and edge list codecs, including byte-offset error reporting."""

import random

import pytest

from bindex.codec import (
    Graph6Error,
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    load_graph,
)
from bindex.graph import MAX_VERTICES, DomainError, Graph, complete


def _random_graph(rng, n, p=0.5):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def test_known_strings():
    assert graph6_encode(complete(3)) == "Bw"
    assert graph6_decode("Bw") == complete(3)
    assert graph6_decode("@") == complete(1)
    assert graph6_decode("A_") == complete(2)
    assert graph6_decode("A?") == Graph(2, [0, 0])


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        pairs = n * (n - 1) // 2
        for code in range(1 << pairs):
            adj = [0] * n
            k = 0
            for col in range(1, n):
                for row in range(col):
                    if (code >> k) & 1:
                        adj[row] |= 1 << col
                        adj[col] |= 1 << row
                    k += 1
            g = Graph(n, adj)
            assert graph6_decode(graph6_encode(g)) == g


def test_roundtrip_header_boundary():
    rng = random.Random(11)
    for n in (61, 62, 63, 64, 70):
        g = _random_graph(rng, n, 0.1)
        s = graph6_encode(g)
        assert s.startswith("~") == (n > 62)
        assert graph6_decode(s) == g


def _graph6_pairwise(g):
    """graph6 packed one vertex pair at a time, in column order."""
    n = g.n
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc = nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | g.adj[col] >> row & 1
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def test_encode_matches_pairwise_packing():
    # both header forms: n <= 62 in one byte, n >= 63 after '~'
    rng = random.Random(29)
    for n in range(1, 71):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = _random_graph(rng, n, p)
            assert graph6_encode(g) == _graph6_pairwise(g), (n, p)


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("")
    assert ei.value.offset == 0
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("B")  # n=3 promises one edge byte
    assert ei.value.offset == 1
    assert "byte offset" in str(ei.value)
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("~??")
    assert ei.value.offset == 3
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("~~??????")
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("B" + chr(32))  # edge byte below '?'
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("A@")  # padding bit set
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("Bw?")
    assert ei.value.offset == 2
    assert "trailing" in str(ei.value)
    # a lossy encoding would read "\u00e9" as "?", a valid all-zero group
    for text, offset in (("A\u00e9", 1), ("\u00e9A", 0), ("Bw\u2013", 2)):
        with pytest.raises(Graph6Error, match="non-ASCII") as ei:
            graph6_decode(text)
        assert ei.value.offset == offset


def _g6_header(n):
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def test_decode_rejects_sizes_above_the_vertex_cap_from_the_header():
    # header only: the cap is named, not the missing edge bytes
    with pytest.raises(Graph6Error, match=f"vertex cap {MAX_VERTICES}") as ei:
        graph6_decode(_g6_header(MAX_VERTICES + 1))
    assert ei.value.offset == 0
    # a full-length string is refused before any edge byte is decoded
    n = 6000
    text = _g6_header(n) + "?" * ((n * (n - 1) // 2 + 5) // 6)
    with pytest.raises(Graph6Error, match=f"graph6 size {n} exceeds") as ei:
        graph6_decode(text)
    assert ei.value.offset == 0
    # at the cap itself the header is accepted and the edge bytes are asked for
    with pytest.raises(Graph6Error, match="edge bytes"):
        graph6_decode(_g6_header(MAX_VERTICES))


def test_edge_list_roundtrip():
    rng = random.Random(23)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 12))
        assert edge_list_decode(edge_list_encode(g)) == g
    text = edge_list_encode(complete(3))
    assert text == "3 3\n0 1\n0 2\n1 2\n"


def test_edge_list_errors():
    with pytest.raises(DomainError):
        edge_list_decode("")
    with pytest.raises(DomainError):
        edge_list_decode("3\n0 1\n")
    with pytest.raises(DomainError):
        edge_list_decode("3 2\n0 1\n")  # promised two edges
    with pytest.raises(DomainError):
        edge_list_decode("3 1\n0 1 2\n")
    with pytest.raises(DomainError):
        edge_list_decode("x y\n")
    with pytest.raises(DomainError, match="duplicate edge 1 0"):
        edge_list_decode("3 2\n0 1\n1 0\n")  # one edge twice fills the header's count


def test_load_graph_dispatch():
    assert load_graph("Bw") == complete(3)
    assert load_graph("  Bw \n") == complete(3)
    assert load_graph("3 2\n0 1\n1 2\n") == Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        load_graph("   ")
