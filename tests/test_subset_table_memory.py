"""Scratch memory and page faults of the subset-table brute force."""

import random
import resource
import tracemalloc

from bindex.binding import binding_number_bruteforce
from bindex.graph import Graph


def _gnp(rng, n, p):
    """A G(n, p) sample without isolated vertices, which brute force would
    answer without its subset table."""
    while True:
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        if all(adj):
            return Graph(n, adj)


def test_bruteforce_holds_one_small_block():
    # blocks of 2^14 sets: about 0.48 MB at the peak whatever n is; blocks
    # of 2^16 sets held 1.4-1.9 MB and those of 2^15 about 0.94 MB
    for n in (16, 20, 24):
        g = _gnp(random.Random(9100 + n), n, 0.3)
        expected = binding_number_bruteforce(g)
        tracemalloc.start()
        try:
            r = binding_number_bruteforce(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == expected
        assert peak < 3 * 2**18, (n, peak)


def test_bruteforce_reuses_its_block_arrays():
    # after a warm-up call the allocator hands each block the memory the
    # last one freed; blocks of 2^15 or 2^16 sets faulted on every call
    for n in range(15, 25):
        g = _gnp(random.Random(9200 + n), n, 0.3)
        binding_number_bruteforce(g)
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            binding_number_bruteforce(g)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert min(faults) == 0, (n, faults)
