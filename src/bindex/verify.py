"""Verification runs: exhaustive scans, family sweeps, identity checks.

Every run returns a VerificationReport. Verdicts are computed from exact
arithmetic only; floating values appear in counters for readability but
never decide anything. Scans are deterministic: fixed enumeration order,
fixed audit rule, canonically sorted witness lists. elapsed_ms is the one
counter excluded from determinism comparisons.

A biadjacency is a tuple of p row masks over q columns, from the scan
through to the witnesses: row i is X vertex i, bit j is Y vertex p + j.
Bipartite enumeration visits multisets of p nonzero rows, not labeled
biadjacencies: edge count, isolated vertices and b < 1/r do not change
when the rows are permuted, so each multiset stands for its
p! / prod(mult!) labeled biadjacencies, and only the maximisers are
expanded back into their distinct arrangements (orderly generation:
R. C. Read, "Every one a winner", 1978; B. D. McKay, "Isomorph-free
exhaustive generation", 1998). A row with fewer than e0 - (p - 1) * q
edges, for the edge threshold e0, is never drawn: the other p - 1 rows
add at most q edges each, so no multiset holding it reaches e0. Every
multiset with an isolated vertex is dropped first. For the survivors,
with parts X (p rows) and Y (q <= p columns), b < 1/r holds iff some T
inside one side has r * |N(T)| < |T|, and one table over the subsets U
of Y decides both sides: with
c(U) = #{x in X : N(x) inside U}, the X side holds iff r * |U| < c(U)
for some U (take U = N(T), or T = {x : N(x) inside U}), and the Y side
iff r * (p - c(U)) < |Y - U| for some U, because |N(T)| = p - c(Y - T).
The reduction needs the no-isolated-vertex filter: it is what makes
|N(T)| >= 1, so sets with |T| <= r never count. Scans are seeded by an
exact lower bound (the predicted extremal graph, whose membership is
re-verified by full binding computation first), which makes the
popcount-thresholded sweep exhaustive for the maximum and its
maximizers. Every bipartite n-vertex graph without isolated vertices has
parts (p, q) with p + q = n, so Theorem 6's scan is the union of the
Lemma 6 part scans.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Sequence

import numpy as np

from .binding import (
    _TOUGH_MAX,
    _binding_sets_many,
    binding_number,
    binding_number_flow,
    toughness_bruteforce,
)
from .codec import _graph_of_pairs, graph6_encode
from .constructions import (
    beta_value,
    bipartite_extremal_D,
    double_nested_construction,
    family_general,
    lemma6_max,
    theorem6_regime,
)
from .graph import DomainError, Graph, LimitError
from .polynomials import (
    EQUAL,
    GREATER,
    IntPolynomial,
    compare_largest_roots,
    largest_real_root,
)
from .spectral import charpoly, compare_radii, family_polynomial, quotient_matrix

_BIADJ_LIMIT = 28
_AUDIT_STRIDE = 1000
_POOL_AUDITS = 150
_DEFAULT_SAMPLES = 1000
_DEFAULT_SEED = 1009

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    params: dict
    verdict: str
    witnesses: tuple[str, ...]
    counters: dict

    def comparable(self) -> dict:
        """Report content with the timing counter removed."""
        counters = {k: v for k, v in self.counters.items() if k != "elapsed_ms"}
        return {
            "claim_id": self.claim_id,
            "params": dict(self.params),
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "counters": counters,
        }

    def to_json(self) -> str:
        return json.dumps({**self.comparable(), "counters": self.counters}, indent=2)

    def to_csv(self) -> str:
        """Sweep table when present, otherwise one row of scalar counters,
        with each dict counter flattened into name.key columns. Fields that
        hold a comma, such as the label Kab(4,3), are quoted."""
        out = StringIO()
        writer = csv.writer(out, lineterminator="\n")
        rows = self.counters.get("sweep")
        if rows:
            keys = list(rows[0].keys())
            writer.writerow(keys)
            writer.writerows([str(row.get(k, "")) for k in keys] for row in rows)
            return out.getvalue()
        scal = {}
        for key, value in self.counters.items():
            if isinstance(value, dict):
                scal.update((f"{key}.{k}", v) for k, v in value.items())
            elif not isinstance(value, list):
                scal[key] = value
        writer.writerow(scal.keys())
        writer.writerow(str(v) for v in scal.values())
        return out.getvalue()

    def to_text(self) -> str:
        """One key = value line per counter, dict and list counters as one
        line of JSON (the sweep table only in csv and json), then witnesses."""
        lines = [f"claim = {self.claim_id}", f"verdict = {self.verdict}"]
        for key, value in self.counters.items():
            if isinstance(value, (list, dict)):
                if key == "sweep":
                    continue
                value = json.dumps(value)
            lines.append(f"{key} = {value}")
        if self.witnesses:
            lines.append("witnesses = " + " ".join(self.witnesses[:8]))
            if len(self.witnesses) > 8:
                lines.append(f"(+{len(self.witnesses) - 8} more)")
        return "\n".join(lines) + "\n"


def _report(
    claim_id: str, params: dict, verdict: str, witnesses: Sequence[str], t0: float, counters: dict
) -> VerificationReport:
    """The report of a run started at t0; elapsed_ms is its last counter."""
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return VerificationReport(
        claim_id, params, verdict, tuple(witnesses), {**counters, "elapsed_ms": elapsed_ms}
    )


def _fail_report(
    claim_id: str, params: dict, g: Graph, t0: float, error: str, **where
) -> VerificationReport:
    """A fail verdict witnessed by g, with the error and where it arose."""
    return _report(claim_id, params, FAIL, [graph6_encode(g)], t0, {"error": error, **where})


# ---------------------------------------------------------------------------
# biadjacency scan machinery


def _columns(rows: Sequence[int], q: int) -> list[int]:
    """The q columns of a biadjacency as masks over its rows."""
    cols = [0] * q
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def _graph_of_rows(rows: Sequence[int], q: int) -> Graph:
    """X vertex i sees Y vertex p + j when bit j of row i is set."""
    p = len(rows)
    return Graph._trusted(p + q, [row << p for row in rows] + _columns(rows, q))


def _survivors(rows: np.ndarray, q: int, e0: int) -> tuple[np.ndarray, np.ndarray]:
    """(keep, edges) per column: at least e0 edges, no zero row, all of Y met."""
    edges = np.bitwise_count(rows).sum(axis=0, dtype=np.int64)
    covered = np.bitwise_or.reduce(rows, axis=0) == (1 << q) - 1
    return (edges >= e0) & (rows != 0).all(axis=0) & covered, edges


def _member(rows: np.ndarray, p: int, q: int, r: int) -> np.ndarray:
    """b < 1/r for each column of a p x N array of rows; none may be isolated.

    Some U inside Y needs c(U) > bound(U), where bound(U) is r * |U| for
    the X side and, when |Y - U| > r, (r * p - |Y - U|) // r for the Y side.
    A U with bound(U) >= p can never hold, as c(U) <= p.
    """
    full = (1 << q) - 1
    ok = np.zeros(rows.shape[1], bool)
    for u in range(full + 1):
        t = q - u.bit_count()
        bound = r * u.bit_count()
        if t > r:
            bound = min(bound, (r * p - t) // r)
        if bound < p:
            ok |= np.count_nonzero((rows & (full ^ u)) == 0, axis=0) > bound
    return ok


def _multisets(p: int, q: int, e0: int) -> np.ndarray:
    """Every multiset of p nonzero rows over q columns that may reach e0
    edges, one sorted column each.

    The other p - 1 rows add at most q edges each, so a row with fewer than
    e0 - (p - 1) * q edges is in no multiset of at least e0 edges and is
    left out of the alphabet; the multisets kept come in the same order as
    over the whole alphabet. p * q <= 28 and q <= p (n <= 10 for theorem
    6) give q <= 5, so a row fits in a uint8.
    """
    least = e0 - (p - 1) * q
    alphabet = [row for row in range(1, 1 << q) if row.bit_count() >= least]
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(alphabet, p))
    return np.fromiter(flat, np.uint8).reshape(-1, p).T.copy()


def _weights(rows: np.ndarray) -> np.ndarray:
    """p! / prod(mult!) per column of sorted rows: its labeled arrangements.

    Each division is exact: after row i the weight is the multinomial
    coefficient of rows 0..i, at most 2^(p*q), so w * (i + 1) stays below
    2^(p*q) * p in int64.
    """
    w = np.ones(rows.shape[1], np.int64)
    run = np.ones(rows.shape[1], np.int64)
    for i in range(1, rows.shape[0]):
        run = np.where(rows[i] == rows[i - 1], run + 1, 1)
        w = w * (i + 1) // run
    return w


def _arrangements(rows: tuple[int, ...]):
    """The distinct orderings of a sorted tuple of rows."""
    if not rows:
        yield ()
    for i, row in enumerate(rows):
        if i == 0 or row != rows[i - 1]:
            for rest in _arrangements(rows[:i] + rows[i + 1 :]):
                yield (row, *rest)


def _audit_failed(q: int, r: int, rows: Sequence[int], member: bool) -> bool:
    """Exact binding, flow and the kernel's verdict disagree on one biadjacency."""
    g = _graph_of_rows(rows, q)
    bv = binding_number(g).value
    return bv != binding_number_flow(g).value or (bv < Fraction(1, r)) != member


def _run_scan(p: int, q: int, r: int, e0: int, threads: int):
    """(max, row tuples at max, survivors, audited, audit failures) of a p x q scan.

    The scan covers every labeled biadjacency with at least e0 edges and no
    isolated vertex, but visits each multiset of rows once: edge count,
    isolated vertices and b < 1/r do not change when rows are permuted. A
    multiset stands for its weight in labeled biadjacencies, and the
    maximisers are the distinct arrangements of the best multisets. The
    audits take every labeled mask sum(row_i << (q * i)) that is a multiple
    of _AUDIT_STRIDE and survives, so they stay proportional to labeled
    work; with threads > 1 and at least _POOL_AUDITS of them they run in a
    process pool, where it pays on an idle 2-vCPU host (interleaved pairs:
    start-up 15-17 ms, an audit about 0.5 ms; (5,4,2)'s 117 audits tie at
    61 against 60 ms, (6,4,2)'s 481 take 230 ms serial and 138 ms with 2
    workers; a busy second CPU reverses this). Worst case: (7,4,3) takes
    10.6-11.0 s serial and 6.0 s with 2 workers, almost all of it its 19589
    audits.
    """
    rows = _multisets(p, q, e0)
    keep, edges = _survivors(rows, q, e0)
    rows, edges = rows[:, keep], edges[keep]
    survivors = int(_weights(rows).sum())
    member = _member(rows, p, q, r)
    best = int(edges[member].max(initial=-1))
    cols = rows[:, member & (edges == best)].T.tolist()
    winners = [arr for col in cols for arr in _arrangements(tuple(col))]
    audit = np.arange(0, 1 << (p * q), _AUDIT_STRIDE, dtype=np.uint64)
    shifts = np.arange(0, p * q, q, dtype=np.uint64)[:, None]
    arows = (audit >> shifts & np.uint64((1 << q) - 1)).astype(np.uint8)
    arows = arows[:, _survivors(arows, q, e0)[0]]
    audit_rows = arows.T.tolist()
    member = _member(arows, p, q, r).tolist()
    failed = functools.partial(_audit_failed, q, r)
    if threads > 1 and len(audit_rows) >= _POOL_AUDITS:
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = -(-len(audit_rows) // (4 * threads))
            audit_bad = sum(pool.map(failed, audit_rows, member, chunksize=chunk))
    else:
        audit_bad = sum(map(failed, audit_rows, member))
    return best, winners, survivors, len(audit_rows), audit_bad


def _shape(rows: Sequence[int], q: int) -> tuple:
    """Canonical form of a p x q biadjacency: equal for two biadjacencies
    exactly when rows and columns can be permuted (and, when p == q, the
    sides swapped) to turn one into the other.

    Columns go in descending degree; within a degree every ordering of the
    distinct columns is tried (identical columns are merged, since
    swapping them changes nothing), and the key is the least of the
    relabeled row lists sorted by (-degree, row). When p == q the
    transpose competes too. The orderings of a degree class do not depend
    on how the input was labeled, so neither does their least key; at
    q <= 5 there are at most 5! of them per view.
    """
    p = len(rows)
    views = [_columns(rows, q)]
    if p == q:
        views.append(rows)  # the columns of the transpose
    best = None
    for view in views:
        cols = sorted(view)
        degrees = sorted({col.bit_count() for col in cols}, reverse=True)
        classes = [_arrangements(tuple(c for c in cols if c.bit_count() == d)) for d in degrees]
        for order in itertools.product(*classes):
            flat = [col for cls in order for col in cls]
            relab = sorted(_columns(flat, p), key=lambda v: (-v.bit_count(), v))
            if best is None or relab < best:
                best = relab
    return (p, q, tuple(best))


def _scan_part(p: int, q: int, r: int, threads: int):
    """(claim, b, scan) for parts (p, q): claim = lemma6_max(p, q, r), b the
    binding number of its construction, and scan what _run_scan returns at
    the claimed maximum, or None when the construction is no member."""
    claim = lemma6_max(p, q, r)
    b = binding_number(claim.constructions[0].graph).value
    scan = _run_scan(p, q, r, claim.claimed_max, threads) if b < Fraction(1, r) else None
    return claim, b, scan


def _maximisers(n: int, r: int, winners, constructions) -> tuple[bool, bool, list[str]]:
    """(shapes equal the constructions', all are members, sorted graph6) of
    n-vertex row tuples. A construction's X side is labeled first.

    The shape key and b are the same for every arrangement of one multiset
    of rows, so both are computed once per multiset (its sorted tuple);
    only the graph6 witnesses are per arrangement.
    """
    multisets = {tuple(sorted(rows)) for rows in winners}
    found = {_shape(rows, n - len(rows)) for rows in multisets}
    expected = set()
    for cons in constructions:
        p = cons.graph.bipartition()[0].bit_count()
        expected.add(_shape([cons.graph.adj[i] >> p for i in range(p)], n - p))
    members = all(
        binding_number(_graph_of_rows(rows, n - len(rows))).value < Fraction(1, r)
        for rows in multisets
    )
    witnesses = sorted(graph6_encode(_graph_of_rows(rows, n - len(rows))) for rows in winners)
    return found == expected, members, witnesses


# ---------------------------------------------------------------------------
# enumeration against the bipartite extremal claims


def enumerate_bipartite_max(p: int, q: int, r: int, threads: int = 1) -> VerificationReport:
    """Exhaustive biadjacency scan versus the claimed case maximum."""
    if not (p >= q >= 1 and r >= 1):
        raise DomainError("need p >= q >= 1 and r >= 1")
    if p * q > _BIADJ_LIMIT:
        raise LimitError(f"scan supports p*q <= {_BIADJ_LIMIT}")
    t0 = time.monotonic()
    params = {"p": p, "q": q, "r": r}
    claim, cons_b, scan = _scan_part(p, q, r, threads)
    if scan is None:
        return _fail_report(
            "lemma6_max", params, claim.constructions[0].graph, t0,
            "predicted extremal graph fails its own membership", binding=str(cons_b),
        )
    best, winners, survivors, audited, audit_bad = scan
    e0 = claim.claimed_max
    shapes_ok, winners_ok, witnesses = _maximisers(p + q, r, winners, claim.constructions)
    ok = best == e0 and shapes_ok and winners_ok and audit_bad == 0
    counters = {
        "masks_total": 1 << (p * q),
        "graphs_scanned": survivors,
        "edge_threshold": e0,
        "max_found": best,
        "claimed_max": e0,
        "maximizer_count": len(winners),
        "predicted_extremal": claim.extremal_descriptions[0],
        "regime": claim.regime,
        "audited": audited,
        "audit_failures": audit_bad,
        "shape_matching": "degree-sorted canonical relabeling of labeled scans",
    }
    return _report("lemma6_max", params, PASS if ok else FAIL, witnesses, t0, counters)


def enumerate_bipartite_theorem6(n: int, r: int, threads: int = 1) -> VerificationReport:
    """Union of the Lemma 6 part scans over p + q = n versus the regime dispatch."""
    if n > 10:
        raise LimitError("theorem-level enumeration supports n <= 10")
    t0 = time.monotonic()
    regime = theorem6_regime(n, r)
    params = {"n": n, "r": r}
    best = -1
    winners: list[tuple[int, ...]] = []
    survivors = audited = audit_bad = 0
    part_rows = []
    for q in range(1, n // 2 + 1):
        p = n - q
        try:
            claim, _, scan = _scan_part(p, q, r, threads)
        except DomainError:
            part_rows.append({"p": p, "q": q, "family": "empty"})
            continue
        if scan is None:
            return _fail_report(
                "theorem6_enumeration", params, claim.constructions[0].graph, t0,
                "predicted part extremal fails membership", part=[p, q],
            )
        b, rows, sv, au, ab = scan
        survivors += sv
        audited += au
        audit_bad += ab
        part_rows.append({"p": p, "q": q, "family": "scanned", "max": b})
        if b > best:
            best = b
            winners = rows
        elif b == best and b >= 0:
            winners.extend(rows)
    shapes_ok, winners_ok, witnesses = _maximisers(n, r, winners, regime.constructions)
    ok = best == regime.claimed_max and shapes_ok and winners_ok and audit_bad == 0
    verdict = (PASS if ok else FAIL) if regime.hypothesis_ok else HYPOTHESIS_NOT_MET
    counters = {
        "graphs_scanned": survivors,
        "max_found": best,
        "claimed_max": regime.claimed_max,
        "regime": regime.regime,
        "predicted_extremals": list(regime.extremal_descriptions),
        "maximizer_count": len(winners),
        "parts": part_rows,
        "shapes_match": shapes_ok,
        "audited": audited,
        "audit_failures": audit_bad,
        "shape_matching": "degree-sorted canonical relabeling of labeled scans",
    }
    return _report("theorem6_enumeration", params, verdict, witnesses, t0, counters)


# ---------------------------------------------------------------------------
# labeled-graph property sweep


def enumerate_general_properties(
    n: int, samples: int = _DEFAULT_SAMPLES, seed: int = _DEFAULT_SEED
) -> VerificationReport:
    """Binding-set independence, toughness bound, isolated rule, flow agreement.

    Every graph for n <= 6 (samples is ignored), else samples >= 1 seeded
    random graphs. The graphs are built one block at a time and share one
    subset table per block (binding._binding_sets_many), so the n = 6 sweep
    holds 1024 of its 32768 graphs at once; b is read from each graph's
    first binding set.
    """
    if n > _TOUGH_MAX:
        raise LimitError(f"property sweep capped at n <= {_TOUGH_MAX} (toughness brute force)")
    exhaustive = n <= 6
    if not exhaustive and samples < 1:
        raise DomainError("a sampled sweep (n > 6) needs samples >= 1")
    t0 = time.monotonic()
    pairs = n * (n - 1) // 2
    if exhaustive:
        masks = range(1 << pairs)
    else:
        rng = random.Random(seed)
        masks = [rng.getrandbits(pairs) for _ in range(samples)]
    bad: list[str] = []
    checked = 0
    failures = {"independence": 0, "toughness": 0, "isolated": 0, "flow": 0}
    one = Fraction(1)
    # bit k of a mask is the k-th pair
    graphs = (_graph_of_pairs(n, format(mask, f"0{pairs}b").encode()) for mask in masks)
    for g, sets in _binding_sets_many(graphs):
        checked += 1
        b = Fraction(g.neighborhood(sets[0]).bit_count(), sets[0].bit_count())
        bf = binding_number_flow(g).value
        graph_bad = False
        if b != bf:
            failures["flow"] += 1
            graph_bad = True
        if (b == 0) != bool(g.isolated_vertices()):
            failures["isolated"] += 1
            graph_bad = True
        if b < one:
            for s in sets:
                if not g.is_independent(s):
                    failures["independence"] += 1
                    graph_bad = True
                    break
        if b <= one and not g.is_complete():
            if toughness_bruteforce(g) > b:
                failures["toughness"] += 1
                graph_bad = True
        if graph_bad and len(bad) < 32:
            bad.append(graph6_encode(g))
    ok = all(v == 0 for v in failures.values())
    counters = {
        "graphs_scanned": checked,
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": None if exhaustive else seed,
        "failures": failures,
    }
    return _report("binding_properties", {"n": n}, PASS if ok else FAIL, sorted(bad), t0, counters)


# ---------------------------------------------------------------------------
# family sweeps replaying the optimality comparisons


def _certified_argmax(items: Sequence[tuple[object, IntPolynomial]]):
    """Indices of the certified-largest root among (key, poly) pairs."""
    best = [0]
    for i in range(1, len(items)):
        out = compare_largest_roots(items[i][1], items[best[0]][1])
        if out == GREATER:
            best = [i]
        elif out == EQUAL:
            best.append(i)
    return [items[i][0] for i in best]


def _sweep(claim_id: str, params: dict, t0: float, members):
    """Check each family member against its closed forms, in order.

    members yields (key, construction, edges, family, family_params): key
    names the member in its row and in a fail report, edges is its
    closed-form edge count, and family with family_params names the
    transcription its quotient charpoly must equal. Returns the checked
    (key, construction, edges, charpoly) list, or the fail report of the
    first member that misses its edge formula or its transcription.
    """
    swept = []
    for key, cons, edges, family, family_params in members:
        if cons.edge_count != edges:
            error = f"edge count does not match the {family} family formula"
        else:
            cp = charpoly(quotient_matrix(cons.graph, cons.blocks))
            if cp == family_polynomial(family, **family_params):
                swept.append((key, cons, edges, cp))
                continue
            error = f"quotient charpoly does not match {family} transcription"
        return _fail_report(claim_id, params, cons.graph, t0, error, **key)
    return swept


def _rows(swept, extra=lambda cp: {}) -> list[dict]:
    """One sweep row per checked member: key, edges, extra(charpoly), radius."""
    rows = []
    for key, _, e, cp in swept:
        iv = largest_real_root(cp)
        rho = {"rho": iv.midpoint, "rho_lo": str(iv.lo), "rho_hi": str(iv.hi)}
        rows.append({**key, "edges": e, **extra(cp), **rho})
    return rows


def scan_family_general(n: int, r: int) -> VerificationReport:
    """Sweep t1 over the join family; the t1 = 1 member should dominate."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if n < r + 4:
        raise DomainError("sweep needs at least t1 = 1, so n >= r + 4")
    t0 = time.monotonic()
    params = {"n": n, "r": r}
    tmax = (n - 3) // (r + 1)

    def members():
        for t1 in range(1, tmax + 1):
            e = math.comb(t1, 2) + math.comb(n - (r + 1) * t1 - 1, 2) + t1 * (n - t1)
            yield {"t1": t1}, family_general(n, r, t1), e, "f3", {**params, "t1": t1}

    swept = _sweep("family_general_scan", params, t0, members())
    if isinstance(swept, VerificationReport):
        return swept
    edge_max = max(e for _, _, e, _ in swept)
    edge_argmax = [key["t1"] for key, _, e, _ in swept if e == edge_max]
    radius_argmax = _certified_argmax([(key["t1"], cp) for key, _, _, cp in swept])
    hyp_edges = n >= r + 13
    hyp_radius = n >= 2 * r + 15
    winner = swept[0][1]  # the t1 = 1 member
    winner_b = binding_number_flow(winner.graph).value
    asserted_bad = (
        (hyp_edges and edge_argmax != [1])
        or (hyp_radius and radius_argmax != [1])
        or winner_b >= Fraction(1, r)
    )
    if asserted_bad:
        verdict = FAIL
    elif edge_argmax == [1] and radius_argmax == [1]:
        verdict = PASS
    else:
        verdict = HYPOTHESIS_NOT_MET
    counters = {
        "sweep": _rows(swept),
        "t1_range": [1, tmax],
        "edge_max": edge_max,
        "edge_argmax": edge_argmax,
        "radius_argmax": radius_argmax,
        "edge_claim_asserted": hyp_edges,
        "radius_claim_asserted": hyp_radius,
        "winner_binding": str(winner_b),
    }
    witnesses = [graph6_encode(winner.graph)]
    return _report("family_general_scan", params, verdict, witnesses, t0, counters)


def _identity_grids():
    """Deterministic parameter tuples, several hundred per identity."""
    f_tuples = []
    for r in range(1, 6):
        for n in range(r + 13, r + 36):
            for t1 in range(1, (n - 3) // (r + 1) + 1):
                f_tuples.append((n, r, t1))
    g_tuples = []
    for r in range(1, 5):
        for q in range(r + 2, r + 9):
            for p in range(q, q + 12):
                for t in range(1, min((p - 2) // r, q - 1) + 1):
                    g_tuples.append((p, q, r, t))
    h_tuples = []
    for r in range(2, 6):
        for n in range(r * r + r + 2, r * r + r + 26):
            lo = (n + r - 1) // (r + 1)
            hi = n // 2
            for q in range(max(2, lo), hi + 1):
                h_tuples.append((n, r, q))
    return f_tuples, g_tuples, h_tuples


def check_polynomial_identities(grid=None) -> VerificationReport:
    """Five exact polynomial identities, coefficient-wise over integer tuples."""
    t0 = time.monotonic()
    if grid is None:
        f_tuples, g_tuples, h_tuples = _identity_grids()
    else:
        f_tuples = list(grid.get("f", []))
        g_tuples = list(grid.get("g", []))
        h_tuples = list(grid.get("h", []))
    checked = {k: 0 for k in ("f3_f4_f5", "g1_g2_g3", "g5_g6_g7", "g5_g4_g8", "h1_h2_h3")}
    bad = []

    def check(identity: str, params: tuple, lhs: IntPolynomial, rhs: IntPolynomial) -> None:
        checked[identity] += 1
        if lhs != rhs:
            bad.append((identity, params))

    for n, r, t1 in f_tuples:
        f = functools.partial(family_polynomial, n=n, r=r)
        check("f3_f4_f5", (n, r, t1), f("f3", t1=t1) - f("f4"), f("f5", t1=t1) * (t1 - 1))
    for p, q, r, t in g_tuples:
        g = functools.partial(family_polynomial, p=p, q=q, r=r)
        check("g1_g2_g3", (p, q, r, t), g("g1", t=t) - g("g2"), g("g3", t=t) * (t - 1))
        g5 = g("g5", t=t)
        check("g5_g6_g7", (p, q, r, t), g5 - g("g6"), g("g7", t=t) * (q - t - 1))
        check("g5_g4_g8", (p, q, r, t), g5 - g("g4"), g("g8", t=t) * (t - 1))
    for n, r, q in h_tuples:
        h = functools.partial(family_polynomial, n=n, r=r)
        check("h1_h2_h3", (n, r, q), h("h1", q=q) - h("h2"), h("h3", q=q))

    counters = {
        "checked": checked,
        "total": sum(checked.values()),
        "failures": [{"identity": k, "tuple": list(t)} for k, t in bad[:32]],
    }
    params = {"grid": "default" if grid is None else "custom"}
    return _report("polynomial_identities", params, PASS if not bad else FAIL, [], t0, counters)


def scan_bipartite_family(p: int, q: int, r: int) -> VerificationReport:
    """Sweep both double nested families over t; replay the argmax claims.

    Family A is never empty past the block-size check: a_tmax < 1 needs
    q = 1 or p < r + 2, and either one forces b_tmax < 1.
    """
    if not (p >= q >= 1 and r >= 1):
        raise DomainError("need p >= q >= 1 and r >= 1")
    a_tmax = min(q - 1, (p - 2) // r)
    b_tmax = min(p - 1, (q - 2) // r)
    if a_tmax < 1 and b_tmax < 1:
        raise DomainError("no valid block sizes for either family")
    t0 = time.monotonic()
    params = {"p": p, "q": q, "r": r}

    def members():
        for t in range(1, a_tmax + 1):
            cons = double_nested_construction((p - r * t - 1, r * t + 1), (t, q - t))
            e = p * q + r * t * t + (1 - r * q) * t - q
            yield {"family": "A", "t": t}, cons, e, "g5", {**params, "t": t}
        for t in range(1, b_tmax + 1):
            cons = double_nested_construction((t, p - t), (q - r * t - 1, r * t + 1))
            e = p * q + r * t * t + (1 - r * p) * t - p
            yield {"family": "B", "t": t}, cons, e, "g1", {**params, "t": t}

    swept = _sweep("bipartite_family_scan", params, t0, members())
    if isinstance(swept, VerificationReport):
        return swept
    family_a = swept[:a_tmax]  # member t at index t - 1
    case = lemma6_max(p, q, r).regime
    a_max = max(e for _, _, e, _ in family_a)
    a_argmax = [key["t"] for key, _, e, _ in family_a if e == a_max]
    checks = {"a_edge_argmax": a_argmax}
    if case == "le6_case_ii":
        checks["a_argmax_expected"] = [q - 1]
        checks["a_argmax_ok"] = a_argmax == [q - 1]
    elif case == "le6_case_iii":
        checks["a_argmax_expected"] = [1]
        checks["a_argmax_ok"] = a_argmax == [1]
    chain_hyp = 2 <= (p - 2) // r and (p - 2) // r <= q - 3
    if chain_hyp:
        # here a_tmax = (p - 2) // r, so the chain's t = 2..a_tmax are all swept
        ref = family_polynomial("g4", p=p, q=q, r=r)
        chain_rows = [
            {"t": key["t"], "order": compare_radii(cp, ref)} for key, _, _, cp in family_a[1:]
        ]
        checks["radius_chain"] = chain_rows
        checks["radius_chain_ok"] = all(row["order"] == "Less" for row in chain_rows)
    winner = family_a[a_argmax[0] - 1][1].graph
    wb = binding_number_flow(winner).value
    ok = all(checks.get(k, True) for k in ("a_argmax_ok", "radius_chain_ok"))
    ok = ok and wb < Fraction(1, r)
    checks["winner_binding"] = str(wb)
    counters = {"sweep": _rows(swept), "case": case, "chain_hypothesis": chain_hyp, **checks}
    verdict = PASS if ok else FAIL
    witnesses = [graph6_encode(winner)]
    return _report("bipartite_family_scan", params, verdict, witnesses, t0, counters)


def scan_lemma12(n: int, r: int) -> VerificationReport:
    """Certify the radius maximum over q at q = floor((n-r-1)/2).

    The q range is never empty: n >= r + 6 with r >= 2 gives q_lo <= q_hi.
    """
    if r < 2:
        raise DomainError("r must be at least 2")
    if n < r + 6:
        raise DomainError("sweep needs valid block sizes, so n >= r + 6")
    t0 = time.monotonic()
    params = {"n": n, "r": r}
    hyp = n >= r * r + r + 2
    beta = beta_value(n, r)
    q_lo = max(2, (n + r - 1) // (r + 1))
    q_hi = min(n // 2, n - r - 2)

    def members():
        for q in range(q_lo, q_hi + 1):
            cons = double_nested_construction((n - q - r - 1, r + 1), (1, q - 1))
            yield {"q": q}, cons, (n - q - r - 1) * q + r + 1, "h1", {**params, "q": q}

    swept = _sweep("lemma12_scan", params, t0, members())
    if isinstance(swept, VerificationReport):
        return swept
    ref = family_polynomial("h2", **params)
    rows = _rows(swept, lambda cp: {"order_vs_beta": compare_radii(cp, ref)})
    ok = all(row["order_vs_beta"] == ("Equal" if row["q"] == beta else "Less") for row in rows)
    argmax = [row["q"] for row in rows if row["order_vs_beta"] == "Equal"]
    beta_swept = q_lo <= beta <= q_hi
    expected_argmax = [beta] if beta_swept else []
    # D(n - beta - r - 1, r + 1; 1, beta - 1), already swept when beta is in range
    winner = (swept[beta - q_lo][1] if beta_swept else bipartite_extremal_D(n, r)).graph
    wb = binding_number_flow(winner).value
    facts_ok = ok and argmax == expected_argmax and wb < Fraction(1, r)
    if facts_ok:
        verdict = PASS
    elif not hyp:
        verdict = HYPOTHESIS_NOT_MET
    else:
        verdict = FAIL
    counters = {
        "sweep": rows,
        "q_range": [q_lo, q_hi],
        "beta": beta,
        "argmax_q": argmax,
        "hypothesis_ok": hyp,
        "winner_binding": str(wb),
    }
    witnesses = [graph6_encode(winner)]
    return _report("lemma12_scan", params, verdict, witnesses, t0, counters)
