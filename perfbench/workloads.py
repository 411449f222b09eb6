"""The benchmark workloads: inputs from a seed, timed tasks, untimed checks.

A workload is a list of tasks. A task names a kind and its arguments; the
kind says how to run it (timed), how to check its output against exact
expectations (untimed) and what of the output enters the digest. Tasks
marked ``item`` feed the per-item latency metrics.

Calls into bindex go through module attributes (``binding.binding_number_flow``)
so that the tracer's patches reach them. Every call runs in this process
with ``threads=1``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from bindex import binding, cli, codec, constructions, graph, polynomials, spectral, verify


class Task(NamedTuple):
    kind: str
    args: tuple
    item: bool


@dataclass(frozen=True)
class Kind:
    run: Callable[..., Any]  # timed: run(*args) -> output
    check: Callable[[tuple, Any], bool]  # untimed: exact expectations
    summary: Callable[[tuple, Any], Any]  # untimed: JSON-able, hashed into the digest


@dataclass
class PassResult:
    wall_s: float
    task_s: list[float]  # one latency per task, in task order
    outputs: list


def _comparable(args: tuple, report) -> dict:
    return report.comparable()


# ---------------------------------------------------------------------------
# lemma6_scan: exhaustive biadjacency scans, where the numpy membership
# kernel in verify does most of the work. p > q in most scans below, so the
# transposed 2^p membership path runs; (11,2,3) fills one whole 4M-mask
# chunk. (4,4,2) and theorem 6 at (8,1) and (8,2) put 31 stride-1000 audits
# (brute force and flow) on n <= 8 graphs. Every scan takes under 50 ms, so
# that each is timed many times in a run.

# (p, q, r, expected maximum)
LEMMA6_SCANS = (
    (7, 2, 3, 14),
    (11, 2, 3, 22),
    (10, 2, 3, 20),
    (5, 3, 2, 9),
    (6, 3, 2, 13),
    (7, 3, 2, 21),
    (6, 3, 3, 10),
    (4, 4, 2, 7),
)
# (n, r, expected maximum, predicted extremal, degree sequence of the maximizer)
THEOREM6_SCANS = (
    (9, 1, 20, ["Kab(5,4)"], [4] * 5 + [5] * 4),
    (7, 2, 10, ["Kab(5,2)"], [2] * 5 + [5] * 2),
    (8, 1, 15, ["Kab(5,3)"], [3] * 5 + [5] * 3),
    (8, 2, 12, ["Kab(6,2)"], [2] * 6 + [6] * 2),
)


def _run_bip_max(p: int, q: int, r: int, want: int):
    return verify.enumerate_bipartite_max(p, q, r)


def _run_theorem6(n: int, r: int, *expected):
    return verify.enumerate_bipartite_theorem6(n, r)


def _check_bip_max(args: tuple, rep) -> bool:
    want = args[3]
    c = rep.counters
    return (
        rep.verdict == "pass"
        and c["max_found"] == want
        and c["claimed_max"] == want
        and c["audit_failures"] == 0
    )


def _check_theorem6(args: tuple, rep) -> bool:
    _, _, want, shapes, degrees = args
    c = rep.counters
    if not (
        rep.verdict == "pass"
        and c["max_found"] == want
        and c["predicted_extremals"] == shapes
        and c["shapes_match"] is True
        and c["audit_failures"] == 0
        and rep.witnesses
    ):
        return False
    g = codec.graph6_decode(rep.witnesses[0])
    return sorted(g.degree(v) for v in range(g.n)) == degrees


def _lemma6_inputs(seed: int, out_dir: str) -> list[Task]:
    tasks = [Task("bip_max", s, True) for s in LEMMA6_SCANS]
    tasks += [Task("theorem6", s, True) for s in THEOREM6_SCANS]
    return tasks


# ---------------------------------------------------------------------------
# labeled_sweep: many tiny calls (brute force, Dinic networks of <= 14
# nodes, binding_sets_all, toughness_bruteforce); per-call overhead in
# binding and maxflow shows here. Exhaustive for n <= 4, seeded samples
# above that, each sampled sweep with its own seed. Only n = 7 and 8 are
# sampled: above that, the costly graphs (b <= 1, which need binding sets
# and toughness) are rare, so their count, and the cost of a sweep, varies
# by 15-20% from seed to seed. The sampled sweeps are the items, sized so
# that a sweep at n = 7 costs about as much as one at n = 8; the exhaustive
# ones are batch tasks, timed into the pass only.

# (n, samples); samples is ignored for the exhaustive n <= 6
PROPERTY_SWEEPS = ((1, 0), (2, 0), (3, 0), (4, 0)) + ((7, 24),) * 12 + ((8, 16),) * 12


def _run_properties(n: int, samples: int, seed: int):
    return verify.enumerate_general_properties(n, samples=samples, seed=seed)


def _check_properties(args: tuple, rep) -> bool:
    n, samples, _ = args
    c = rep.counters
    exhaustive = n <= 6
    scanned = 1 << (n * (n - 1) // 2) if exhaustive else samples
    return (
        rep.verdict == "pass"
        and all(v == 0 for v in c["failures"].values())
        and c["graphs_scanned"] == scanned
        and c["mode"] == ("exhaustive" if exhaustive else "sampled")
    )


def _labeled_inputs(seed: int, out_dir: str) -> list[Task]:
    rng = random.Random(seed)
    return [
        Task("properties", (n, samples, rng.randrange(1 << 31)), n > 6)
        for n, samples in PROPERTY_SWEEPS
    ]


# ---------------------------------------------------------------------------
# family_grid: the exact-algebra path (Graph construction, quotient_matrix,
# charpoly, Sturm isolation) plus flow on structured graphs up to GRID_N
# vertices. Items are grid constructions; quotient transcriptions and the
# regime and family scans are batch tasks, timed into the pass but not into
# the item latencies.

GRID_R = range(1, 6)
GRID_N = 18  # largest construction order in the grid
TRANSCRIBE_N = 16  # largest order in the f and h transcriptions
TRANSCRIBE_PQ = 12  # bound on p + q for the double nested transcriptions


def _grid_constructions() -> list[tuple[int, int, str, str]]:
    out = []
    for r in GRID_R:
        for n in range(r + 3, GRID_N + 1):
            if n >= r + 4:
                out.append((n, r, "general", ""))
            out.append((n, r, "K", ""))
            if n >= r + 5:
                out.append((n, r, "D", "ceil"))
                out.append((n, r, "D", "floor"))
    return out


def _run_grid(n: int, r: int, kind: str, variant: str):
    if kind == "general":
        c = constructions.general_extremal(n, r)
    elif kind == "K":
        c = constructions.bipartite_extremal_K(n, r)
    else:
        c = constructions.bipartite_extremal_D(n, r, variant)
    res = binding.binding_number_flow(c.graph)
    iv = spectral.certified_radius(c.graph, c.blocks)
    return c, res, iv, spectral.spectral_radius_power(c.graph)


def _check_grid(args: tuple, out) -> bool:
    n, r, kind, _ = args
    c, res, iv, power = out
    if kind == "general":
        edges = math.comb(n - r - 1, 2) + r + 1
    elif kind == "K":
        edges = constructions.f_formula(n, r)
    else:
        edges = constructions.g_formula(n, r)
    return (
        c.edge_count == edges
        and res.value < Fraction(1, r)
        and iv.contains(power, 1e-8)
    )


def _summary_grid(args: tuple, out) -> list:
    c, res, iv, _ = out  # the float estimate stays out of the digest
    return [c.label, c.edge_count, str(res.value), res.witness, str(iv.lo), str(iv.hi)]


def _transcribe_jobs(r: int, part: str) -> list[tuple[int, tuple, tuple]]:
    """(group, construction, printed family) of every transcription of a part.

    A construction is ("general", n, r), ("family", n, r, t1), ("D", n, r,
    variant) or ("quot", p1, p2, q1, q2), a double nested graph; a family is
    a family_polynomial name with its keyword arguments. The group is n for
    the f and h parts and q for the g part: one task runs one group.
    """
    jobs = []

    def add(k, build, name, **kw):
        jobs.append((k, build, (name, tuple(sorted(kw.items())))))

    if part == "f":
        for n in range(r + 4, TRANSCRIBE_N + 1):
            add(n, ("general", n, r), "f4", n=n, r=r)
            for t1 in range(1, (n - 3) // (r + 1) + 1):
                add(n, ("family", n, r, t1), "f3", n=n, r=r, t1=t1)
    elif part == "h":
        for n in range(r + 5, TRANSCRIBE_N + 1):
            add(n, ("D", n, r, "ceil"), "h2", n=n, r=r)
            add(n, ("D", n, r, "floor"), "h1", n=n, q=(n - r) // 2, r=r)
            for q in range(2, n - r - 1):
                if n - q - r - 1 >= 1:
                    add(n, ("quot", n - q - r - 1, r + 1, 1, q - 1), "h1", n=n, q=q, r=r)
    else:
        for q in range(2, TRANSCRIBE_PQ):
            for p in range(2, TRANSCRIBE_PQ + 1 - q):
                if p >= r + 2:
                    add(q, ("quot", p - r - 1, r + 1, 1, q - 1), "g4", p=p, q=q, r=r)
                for t in range(1, q):
                    if r * t + 1 <= q - 1 and p - t >= 1:
                        add(q, ("quot", t, p - t, q - r * t - 1, r * t + 1), "g1", p=p, q=q, r=r, t=t)
                    if p - r * t - 1 >= 1 and q - t >= 1:
                        add(q, ("quot", p - r * t - 1, r * t + 1, t, q - t), "g5", p=p, q=q, r=r, t=t)
                if p - r * (q - 1) - 1 >= 1:
                    build = ("quot", p - r * (q - 1) - 1, r * (q - 1) + 1, q - 1, 1)
                    add(q, build, "g6", p=p, q=q, r=r)
    return jobs


def _run_transcribe(jobs: tuple) -> list[tuple[tuple, tuple]]:
    """(quotient charpoly, printed family polynomial) coefficient pairs."""
    pairs = []
    for build, (name, kw) in jobs:
        kind, *params = build
        if kind == "quot":
            spec = graph.BipartitionSpec(tuple(params[:2]), tuple(params[2:]))
            g, blocks = graph.double_nested(spec), spec.blocks()
        else:
            if kind == "general":
                c = constructions.general_extremal(*params)
            elif kind == "family":
                c = constructions.family_general(*params)
            else:
                c = constructions.bipartite_extremal_D(*params)
            g, blocks = c.graph, c.blocks
        cp = spectral.charpoly(spectral.quotient_matrix(g, blocks))
        pairs.append((cp.coeffs, spectral.family_polynomial(name, **dict(kw)).coeffs))
    return pairs


def _check_transcribe(args: tuple, pairs) -> bool:
    return bool(pairs) and all(cp == expect for cp, expect in pairs)


def _summary_transcribe(args: tuple, pairs) -> list:
    return [cp for cp, _ in pairs]


# (n, r) -> (edge regime, edge maximum); every radius regime is bip_f_gt_g
REGIMES = {(13, 2): ("bip_f_gt_g", 36), (21, 4): ("bip_f_lt_g", 69), (25, 3): ("bip_tie", 114)}


def _run_regimes(n: int, r: int):
    return constructions.theorem6_regime(n, r), constructions.theorem7_regime(n, r)


def _check_regimes(args: tuple, out) -> bool:
    edge, radius = out
    return (
        (edge.regime, edge.claimed_max) == REGIMES[args]
        and radius.regime == "bip_f_gt_g"
        and isinstance(radius.claimed_max, polynomials.RootInterval)
        and radius.claimed_max.verify()
    )


def _summary_regimes(args: tuple, out) -> list:
    edge, radius = out
    iv = radius.claimed_max
    return [
        edge.regime,
        edge.claimed_max,
        list(edge.extremal_descriptions),
        radius.regime,
        str(iv.lo),
        str(iv.hi),
        list(radius.extremal_descriptions),
    ]


def _run_family_scan(what: str, *params: int):
    if what == "family":
        return verify.scan_family_general(*params)
    if what == "lemma12":
        return verify.scan_lemma12(*params)
    return verify.scan_bipartite_family(*params)


def _check_family_scan(args: tuple, rep) -> bool:
    what = args[0]
    c = rep.counters
    if rep.verdict != "pass":
        return False
    if what == "family":
        return c["edge_argmax"] == [1] and c["radius_argmax"] == [1]
    if what == "lemma12":
        return c["argmax_q"] == [8] and c["beta"] == 8
    return c.get("a_argmax_ok", True) and c.get("radius_chain_ok", True)


FAMILY_SCANS = (
    ("family", 16, 1),
    ("family", 20, 2),
    ("lemma12", 21, 4),
    ("bipfamily", 8, 3, 3),
    ("bipfamily", 12, 8, 2),
)


def _grid_inputs(seed: int, out_dir: str) -> list[Task]:
    tasks = [Task("grid", c, True) for c in _grid_constructions()]
    for r in GRID_R:
        for part in ("f", "h", "g"):
            groups: dict[int, list] = {}
            for k, build, family in _transcribe_jobs(r, part):
                groups.setdefault(k, []).append((build, family))
            tasks += [Task("transcribe", (tuple(jobs),), False) for jobs in groups.values()]
    tasks += [Task("regimes", nr, False) for nr in REGIMES]
    tasks += [Task("family_scan", s, False) for s in FAMILY_SCANS]
    return tasks


# ---------------------------------------------------------------------------
# point_queries: one client in a closed loop calling the CLI's binding
# command with method auto. Covers cli, codec, the auto dispatch (brute
# force up to n = 24, flow above) and flow on unstructured graphs. Each
# (n, p) cell below gets one G(n, p) graph per seed; the cells are fixed so
# that the cost of a pass depends little on the seed.

# (orders, densities): brute force below the dispatch point, flow above it.
# Latency rises with the order, so the cells set where the percentiles
# fall: more than half of the queries are small ones, where the CLI and
# codec overhead dominate, so the median falls among them; the p95 falls
# among the n = 44 flow queries. Sparser graphs make flow's cost vary
# 30-50% from one sample to the next.
QUERY_CELLS = (
    ((10, 11, 12), (0.25, 0.3, 0.4, 0.5, 0.6)),
    ((14, 16, 28, 36), (0.3, 0.5)),
    ((44,), (0.3, 0.4, 0.5, 0.6)),
)
RECHECK_MAX_N = 20  # outputs up to this order are recomputed by flow


def _gnp(rng: random.Random, n: int, p: float) -> list[int]:
    """Adjacency masks of a G(n, p) sample without isolated vertices."""
    while True:
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        if all(adj):
            return adj


def _run_query(g6: str, adj: tuple, out_path: str):
    argv = ["binding", "--g6", g6, "--method", "auto", "--threads", "1", "--out", out_path]
    code = cli.run(argv)
    with open(out_path, encoding="utf-8") as fh:
        return code, fh.read()


def _check_query(args: tuple, out) -> bool:
    _, adj, _ = args
    code, text = out
    if code != 0:
        return False
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    num, den = fields["b"].split("/")
    b = Fraction(int(num), int(den))
    witness = [int(v) for v in fields["witness"].strip("{}").split(",")]
    nb = 0
    for v in witness:
        nb |= adj[v]
    n = len(adj)
    if nb == (1 << n) - 1 or Fraction(nb.bit_count(), len(witness)) != b:
        return False
    if n <= RECHECK_MAX_N:
        return binding.binding_number_flow(graph.Graph(n, list(adj))).value == b
    return True


def _query_inputs(seed: int, out_dir: str) -> list[Task]:
    rng = random.Random(seed)
    cells = [(n, p) for orders, densities in QUERY_CELLS for n in orders for p in densities]
    rng.shuffle(cells)
    out_path = os.path.join(out_dir, "query.txt")
    tasks = []
    for n, p in cells:
        adj = _gnp(rng, n, p)
        g6 = codec.graph6_encode(graph.Graph(n, adj))
        tasks.append(Task("query", (g6, tuple(adj), out_path), True))
    return tasks


# ---------------------------------------------------------------------------

KINDS = {
    "bip_max": Kind(_run_bip_max, _check_bip_max, _comparable),
    "theorem6": Kind(_run_theorem6, _check_theorem6, _comparable),
    "properties": Kind(_run_properties, _check_properties, _comparable),
    "grid": Kind(_run_grid, _check_grid, _summary_grid),
    "transcribe": Kind(_run_transcribe, _check_transcribe, _summary_transcribe),
    "regimes": Kind(_run_regimes, _check_regimes, _summary_regimes),
    "family_scan": Kind(_run_family_scan, _check_family_scan, _comparable),
    "query": Kind(_run_query, _check_query, lambda args, out: list(out)),
}

WORKLOADS = {
    "lemma6_scan": _lemma6_inputs,
    "labeled_sweep": _labeled_inputs,
    "family_grid": _grid_inputs,
    "point_queries": _query_inputs,
}


def make_inputs(name: str, seed: int, out_dir: str) -> list[Task]:
    """The workload's tasks; the same seed gives the same tasks."""
    return WORKLOADS[name](seed, out_dir)


def run_pass(tasks: list[Task]) -> PassResult:
    """Run every task once; wall time spans the first call to the last verdict."""
    clock = time.perf_counter
    outputs = []
    task_s = []
    start = clock()
    for task in tasks:
        run = KINDS[task.kind].run
        t0 = clock()
        try:
            out = run(*task.args)
        except Exception as exc:  # a raising task counts as failed; keep going
            out = exc
        task_s.append(clock() - t0)
        outputs.append(out)
    return PassResult(clock() - start, task_s, outputs)


def check_pass(tasks: list[Task], outputs: list) -> tuple[int, str]:
    """Count tasks whose output fails its exact check; digest the outputs."""
    failed = 0
    summaries = []
    for task, out in zip(tasks, outputs):
        kind = KINDS[task.kind]
        try:
            if isinstance(out, Exception):
                raise out
            ok = kind.check(task.args, out)
            summaries.append(kind.summary(task.args, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
            summaries.append(None)
        if not ok:
            failed += 1
            sys.stderr.write(f"check failed: {task.kind} {task.args!r:.200}\n")
    blob = json.dumps(summaries, sort_keys=True, default=str, separators=(",", ":"))
    return failed, hashlib.sha256(blob.encode()).hexdigest()
