"""Span tracer that wraps public bindex functions from outside the package.

bindex modules import each other's functions by name and the package
re-exports them, so one function object is bound in several module
namespaces. ``Tracer.install`` replaces every such binding under
``bindex`` (and a method on its class) with a wrapper that records a span:
name, start, end and the enclosing span. ``Tracer.uninstall`` puts the
original objects back. Spans stay in memory; ``Tracer.summary`` turns them
into per-function call counts, busy time and self time.

Only functions called at most a few thousand times per second are wrapped;
per-edge and per-coefficient calls such as ``Dinic.add_edge`` or
``IntPolynomial`` arithmetic are not.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

PACKAGE = "bindex"


@dataclass(frozen=True)
class Target:
    """One traced function: ``<layer>.<qualname>`` inside bindex."""

    layer: str
    qualname: str
    # called after the span closes as observe(counters, args, result)
    observe: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname.removesuffix('.__init__')}"


def _count_arcs(counters: Counter, args, result) -> None:
    counters["arcs"] += len(args[0].to) // 2


def _count_scan(counters: Counter, args, report) -> None:
    counters["masks_total"] += report.counters.get("masks_total", 0)
    counters["graphs_scanned"] += report.counters.get("graphs_scanned", 0)
    counters["audits"] += report.counters.get("audited", 0)


def _count_audits(counters: Counter, args, report) -> None:
    counters["audits"] += report.counters.get("audited", 0)


TARGETS = (
    Target("graph", "Graph.__init__"),
    Target("graph", "double_nested"),
    Target("codec", "graph6_encode"),
    Target("codec", "graph6_decode"),
    Target("maxflow", "Dinic.maxflow", _count_arcs),
    Target("binding", "binding_number_bruteforce"),
    Target("binding", "binding_number_flow"),
    Target("binding", "binding_below_threshold"),
    Target("binding", "binding_sets_all"),
    Target("binding", "toughness_bruteforce"),
    Target("polynomials", "largest_real_root"),
    Target("polynomials", "compare_largest_roots"),
    Target("polynomials", "sturm_chain"),
    Target("spectral", "quotient_matrix"),
    Target("spectral", "charpoly"),
    Target("spectral", "certified_radius"),
    Target("spectral", "spectral_radius_power"),
    Target("spectral", "family_polynomial"),
    Target("constructions", "general_extremal"),
    Target("constructions", "family_general"),
    Target("constructions", "bipartite_extremal_K"),
    Target("constructions", "bipartite_extremal_D"),
    Target("constructions", "theorem6_regime"),
    Target("constructions", "theorem7_regime"),
    Target("verify", "enumerate_bipartite_max", _count_scan),
    Target("verify", "enumerate_bipartite_theorem6", _count_audits),
    Target("verify", "enumerate_general_properties"),
    Target("verify", "scan_family_general"),
    Target("verify", "scan_bipartite_family"),
    Target("verify", "scan_lemma12"),
    Target("cli", "run"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

# metric name -> (unit, better); layer_metric_units adds the per-target
# names, and BENCHMARK.json lists the same set
DERIVED_UNITS = {
    "binding.flow_rounds_per_call": ("ratio", "lower"),
    "maxflow.networks_per_decision": ("ratio", "lower"),
    "maxflow.arcs_per_network": ("count", "lower"),
    "verify.survivor_ratio": ("ratio", "lower"),
    "verify.audits": ("count", "higher"),
    "verify.scan_masks_per_s": ("1/s", "higher"),
}


def layer_metric_units() -> dict[str, tuple[str, str]]:
    units: dict[str, tuple[str, str]] = {}
    for t in TARGETS:
        units[f"{t.name}.calls"] = ("count", "lower")
        units[f"{t.name}.busy_s"] = ("s", "lower")
        units[f"{t.name}.self_s"] = ("s", "lower")
    for layer in LAYERS:
        units[f"{layer}.errors"] = ("count", "lower")
    units.update(DERIVED_UNITS)
    # set by run.py: median traced minus median untraced pass wall time
    units["trace.overhead_s"] = ("s", "lower")
    return units


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its child spans' intervals."""
    children: list[list[int]] = [[] for _ in starts]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, kids in enumerate(children):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted((starts[k], ends[k]) for k in kids):
            lo, hi = max(lo, starts[i]), min(hi, ends[i])
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(ends[i] - starts[i] - covered)
    return out


class Tracer:
    """Records spans around the targets while installed; single thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, errors, counters = self._stack, self.errors, self.counters
        name, layer, observe = target.name, target.layer, target.observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == PACKAGE or modname.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{target.layer}"]
            *classes, attr = target.qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if classes:
                self._set(owner, attr, self._wrap(target, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """calls, busy_s and self_s per target, errors per layer, derived ratios."""
        out: dict[str, float] = {}
        for t in TARGETS:
            out[f"{t.name}.calls"] = 0
            out[f"{t.name}.busy_s"] = 0.0
            out[f"{t.name}.self_s"] = 0.0
        own = self_times(self.starts, self.ends, self.parents)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += self.ends[i] - self.starts[i]
            out[f"{name}.self_s"] += own[i]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(derived_metrics(out, self.counters))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_metrics(m: dict[str, float], counters: Counter) -> dict[str, float]:
    decisions = m["binding.binding_below_threshold.calls"]
    networks = m["maxflow.Dinic.maxflow.calls"]
    return {
        "binding.flow_rounds_per_call": _ratio(decisions, m["binding.binding_number_flow.calls"]),
        "maxflow.networks_per_decision": _ratio(networks, decisions),
        "maxflow.arcs_per_network": _ratio(counters["arcs"], networks),
        "verify.survivor_ratio": _ratio(counters["graphs_scanned"], counters["masks_total"]),
        "verify.audits": counters["audits"],
        "verify.scan_masks_per_s": _ratio(
            counters["masks_total"], m["verify.enumerate_bipartite_max.self_s"]
        ),
    }
