"""Command-line front end.

Exit codes: 0 success or verified pass (hypothesis_not_met counts as 0,
it is not a counterexample), 1 verification fail, 2 usage or domain
errors, including unreadable input and malformed graph6.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .binding import (
    binding_number,
    binding_number_bruteforce,
    binding_number_flow,
    toughness_bruteforce,
)
from .codec import Graph6Error, graph6_decode, graph6_encode, edge_list_encode, load_graph
from .constructions import (
    RegimeReport,
    bipartite_extremal_D,
    bipartite_extremal_K,
    double_nested_construction,
    family_general,
    theorem6_regime,
    theorem7_regime,
)
from .graph import DomainError, Graph, LimitError, vertices_of
from .polynomials import RootInterval
from .spectral import spectral_radius_power
from .verify import (
    _DEFAULT_SAMPLES,
    _DEFAULT_SEED,
    VerificationReport,
    check_polynomial_identities,
    enumerate_bipartite_max,
    enumerate_bipartite_theorem6,
    enumerate_general_properties,
    scan_bipartite_family,
    scan_family_general,
    scan_lemma12,
)


def _default_threads() -> int:
    env = os.environ.get("BINDEX_THREADS", "")
    if env.isdigit() and int(env) >= 1:
        return int(env)
    return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args keeps no state)."""
    ap = argparse.ArgumentParser(prog="bindex", description="binding number toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
        """--out and --threads everywhere; --format where the output reads it."""
        p.add_argument("--out", default=None, help="output file, or - for stdout")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--threads", type=_positive_int, default=None)

    json_or_text = ("json", "text")
    report_formats = ("json", "csv", "text")

    def graph_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--g6", default=None, help="inline graph6 string")
        p.add_argument("--in", dest="path", default=None, help="graph file (graph6 or edge list)")

    p = sub.add_parser("binding", help="binding number of a graph")
    graph_input(p)
    p.add_argument("--method", choices=("auto", "brute", "flow"), default="auto")
    common(p)

    p = sub.add_parser("toughness", help="toughness of a graph")
    graph_input(p)
    common(p)

    p = sub.add_parser("spectral", help="spectral radius of a graph")
    graph_input(p)
    common(p)

    p = sub.add_parser("construct", help="build a named construction")
    cs = p.add_subparsers(dest="what", required=True)
    for name in ("general", "bipK", "bipD"):
        c = cs.add_parser(name)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--r", type=int, required=True)
        if name == "general":
            c.add_argument("--t1", type=int, default=1)
        if name == "bipD":
            c.add_argument("--variant", choices=("ceil", "floor"), default="ceil")
        common(c, json_or_text)
    c = cs.add_parser("dnest")
    c.add_argument("--p", type=_parts, required=True, help="X block sizes, comma-separated")
    c.add_argument("--q", type=_parts, required=True, help="Y block sizes, comma-separated")
    common(c, json_or_text)

    p = sub.add_parser("regime", help="extremal regime dispatch")
    rs = p.add_subparsers(dest="what", required=True)
    for name in ("thm6", "thm7"):
        c = rs.add_parser(name)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--r", type=int, required=True)
        common(c, json_or_text)

    p = sub.add_parser("scan", help="family sweeps")
    ss = p.add_subparsers(dest="what", required=True)
    c = ss.add_parser("family")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    common(c, report_formats)
    c = ss.add_parser("bipfamily")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    common(c, report_formats)
    c = ss.add_parser("lemma12")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    common(c, report_formats)

    p = sub.add_parser("verify", help="verification runs")
    vs = p.add_subparsers(dest="what", required=True)
    c = vs.add_parser("lemma6")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    common(c, report_formats)
    c = vs.add_parser("thm6")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    common(c, report_formats)
    c = vs.add_parser("properties")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--samples", type=int, default=_DEFAULT_SAMPLES)
    c.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    common(c, report_formats)
    c = vs.add_parser("identities")
    common(c, report_formats)

    p = sub.add_parser("encode", help="edge list to graph6")
    graph_input(p)
    common(p)

    p = sub.add_parser("decode", help="graph6 to edge list")
    graph_input(p)
    common(p)

    return ap


def _read_graph(args) -> Graph:
    if args.g6 is not None:
        return graph6_decode(args.g6)
    if args.path is not None:
        try:
            with open(args.path, "r", encoding="ascii") as fh:
                return load_graph(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read {args.path}: {exc}")
    raise DomainError("provide --g6 or --in")


def _emit(args, text: str) -> None:
    """Write text, newline-terminated, to stdout or to the --out file."""
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _set_text(mask: int) -> str:
    return "{" + ", ".join(str(v) for v in vertices_of(mask)) + "}"


def _interval_text(iv: RootInterval) -> str:
    return f"{iv.midpoint:.12f} in [{iv.lo}, {iv.hi}]"


def _regime_text(rep: RegimeReport) -> str:
    lines = [
        f"regime = {rep.regime}",
        f"hypothesis_ok = {str(rep.hypothesis_ok).lower()}",
    ]
    if isinstance(rep.claimed_max, RootInterval):
        lines.append(f"max = {_interval_text(rep.claimed_max)}")
    else:
        lines.append(f"max = {rep.claimed_max}")
    lines.append("extremal = " + ", ".join(rep.extremal_descriptions))
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _regime_json(rep: RegimeReport) -> str:
    import json

    if isinstance(rep.claimed_max, RootInterval):
        cm = {
            "lo": str(rep.claimed_max.lo),
            "hi": str(rep.claimed_max.hi),
            "float": rep.claimed_max.midpoint,
        }
    else:
        cm = rep.claimed_max
    payload = {
        "n": rep.n,
        "r": rep.r,
        "regime": rep.regime,
        "claimed_max": cm,
        "extremal_descriptions": list(rep.extremal_descriptions),
        "hypothesis_ok": rep.hypothesis_ok,
        "notes": list(rep.notes),
    }
    return json.dumps(payload, indent=2)


def _emit_report(args, rep: VerificationReport) -> int:
    if args.format == "json":
        _emit(args, rep.to_json())
    elif args.format == "csv":
        _emit(args, rep.to_csv())
    else:
        _emit(args, rep.to_text())
    return 1 if rep.verdict == "fail" else 0


def _emit_construction(args, cons) -> int:
    g6 = graph6_encode(cons.graph)
    if args.format == "json":
        import json

        _emit(
            args,
            json.dumps(
                {
                    "label": cons.label,
                    "n": cons.graph.n,
                    "edges": cons.graph.edge_count(),
                    "graph6": g6,
                },
                indent=2,
            ),
        )
    else:
        _emit(
            args,
            f"label = {cons.label}\nn = {cons.graph.n}\n"
            f"edges = {cons.graph.edge_count()}\ngraph6 = {g6}\n",
        )
    return 0


def _run(args) -> int:
    threads = args.threads if getattr(args, "threads", None) else _default_threads()
    if args.cmd == "binding":
        g = _read_graph(args)
        if args.method == "auto":
            res = binding_number(g)
        elif args.method == "brute":
            res = binding_number_bruteforce(g)
        else:
            res = binding_number_flow(g)
        v = res.value
        _emit(
            args,
            f"b = {v.numerator}/{v.denominator}\n"
            f"witness = {_set_text(res.witness)}\nmethod = {res.method}\n",
        )
        return 0
    if args.cmd == "toughness":
        g = _read_graph(args)
        t = toughness_bruteforce(g)
        _emit(args, f"tau = {t.numerator}/{t.denominator}\n")
        return 0
    if args.cmd == "spectral":
        g = _read_graph(args)
        rho = spectral_radius_power(g)
        _emit(args, f"rho = {rho:.12f}\n")
        return 0
    if args.cmd == "construct":
        if args.what == "general":
            cons = family_general(args.n, args.r, args.t1)
        elif args.what == "bipK":
            cons = bipartite_extremal_K(args.n, args.r)
        elif args.what == "bipD":
            cons = bipartite_extremal_D(args.n, args.r, args.variant)
        else:
            cons = double_nested_construction(args.p, args.q)
        return _emit_construction(args, cons)
    if args.cmd == "regime":
        rep = theorem6_regime(args.n, args.r) if args.what == "thm6" else theorem7_regime(
            args.n, args.r
        )
        if args.format == "json":
            _emit(args, _regime_json(rep))
        else:
            _emit(args, _regime_text(rep))
        return 0
    if args.cmd == "scan":
        if args.what == "family":
            rep = scan_family_general(args.n, args.r)
        elif args.what == "bipfamily":
            rep = scan_bipartite_family(args.p, args.q, args.r)
        else:
            rep = scan_lemma12(args.n, args.r)
        return _emit_report(args, rep)
    if args.cmd == "verify":
        if args.what == "lemma6":
            rep = enumerate_bipartite_max(args.p, args.q, args.r, threads=threads)
        elif args.what == "thm6":
            rep = enumerate_bipartite_theorem6(args.n, args.r, threads=threads)
        elif args.what == "properties":
            rep = enumerate_general_properties(args.n, samples=args.samples, seed=args.seed)
        else:
            rep = check_polynomial_identities()
        return _emit_report(args, rep)
    if args.cmd == "encode":
        g = _read_graph(args)
        _emit(args, graph6_encode(g))
        return 0
    if args.cmd == "decode":
        g = _read_graph(args)
        _emit(args, edge_list_encode(g))
        return 0
    raise DomainError(f"unknown command {args.cmd!r}")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (DomainError, LimitError, Graph6Error, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
