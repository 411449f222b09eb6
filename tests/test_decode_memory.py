"""Scratch memory of graph6_decode at the vertex cap."""

import tracemalloc

from bindex.codec import graph6_decode, graph6_encode
from bindex.graph import MAX_VERTICES, Graph, complete


def test_decode_at_the_cap_holds_one_square_of_digits():
    # n = 4096: 8 MiB of digits, a 16 MiB square and the rows, about
    # 27-29 MiB at the peak; a second square of digits would add 16 MiB
    n = MAX_VERTICES
    for g in (complete(n), Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])):
        text = graph6_encode(g)
        tracemalloc.start()
        try:
            h = graph6_decode(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.adj == g.adj
        assert peak < 34 * 2**20, peak
