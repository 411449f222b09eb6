"""Tests of the benchmark's tracer and workload plumbing."""

import json
import random
import sys
from pathlib import Path

import bindex
import bindex.binding
import bindex.cli
import bindex.graph
import bindex.maxflow
import bindex.verify
from bindex.codec import graph6_encode
from bindex.graph import Graph

from perfbench import tracer, workloads
from perfbench.workloads import Task

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _bindings() -> dict:
    return {
        (modname, key): value
        for modname, mod in list(sys.modules.items())
        if modname == "bindex" or modname.startswith("bindex.")
        for key, value in vars(mod).items()
    }


def test_install_reaches_every_binding_and_uninstall_restores(tmp_path):
    before = _bindings()
    init = vars(bindex.graph.Graph)["__init__"]
    maxflow = vars(bindex.maxflow.Dinic)["maxflow"]
    original = bindex.binding.binding_number_flow
    tr = tracer.Tracer()
    with tr:
        wrapped = bindex.binding.binding_number_flow
        assert wrapped is not original
        for mod in (bindex, bindex.verify, bindex.cli):
            assert mod.binding_number_flow is wrapped
        assert all(value is not original for value in _bindings().values())
        assert vars(bindex.graph.Graph)["__init__"] is not init
        bindex.binding_number_flow(bindex.complete(4))
        code = bindex.cli.run(
            ["binding", "--g6", "Cr", "--method", "flow", "--out", str(tmp_path / "b.txt")]
        )
        assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert vars(bindex.graph.Graph)["__init__"] is init
    assert vars(bindex.maxflow.Dinic)["maxflow"] is maxflow
    m = tr.summary()
    assert m["binding.binding_number_flow.calls"] == 2
    assert m["cli.run.calls"] == 1
    assert m["codec.graph6_decode.calls"] == 1
    assert m["maxflow.Dinic.maxflow.calls"] >= 1
    assert m["binding.errors"] == 0


def test_errors_are_counted_per_layer():
    tr = tracer.Tracer()
    with tr:
        try:
            bindex.graph.Graph(2, [1, 0])  # asymmetric adjacency
        except bindex.DomainError:
            pass
    m = tr.summary()
    assert m["graph.errors"] == 1
    assert m["graph.Graph.calls"] == 1


def test_self_time_is_duration_minus_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 9.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_nested_spans_split_busy_and_self_time():
    tr = tracer.Tracer()
    with tr:
        bindex.binding.binding_number_flow(bindex.complete(6))
    m = tr.summary()
    flow, below = "binding.binding_number_flow", "binding.binding_below_threshold"
    assert m[f"{flow}.busy_s"] >= m[f"{below}.busy_s"] > 0
    assert 0 <= m[f"{flow}.self_s"] <= m[f"{flow}.busy_s"] - m[f"{below}.busy_s"] + 1e-9
    assert m["binding.flow_rounds_per_call"] == m[f"{below}.calls"] / m[f"{flow}.calls"]


def _small_tasks(out_dir: str) -> list:
    rng = random.Random(7)
    queries = []
    for n, p in ((12, 0.35), (26, 0.3)):
        adj = workloads._gnp(rng, n, p)
        g6 = graph6_encode(Graph(n, adj))
        queries.append(Task("query", (g6, tuple(adj), f"{out_dir}/query.txt"), True))
    return [
        Task("bip_max", (5, 3, 2, 9), True),
        Task("theorem6", workloads.THEOREM6_SCANS[1], True),
        Task("properties", (4, 0, 1), True),
        Task("properties", (7, 20, 3), True),
        Task("grid", (12, 2, "D", "floor"), True),
        Task("grid", (12, 2, "general", ""), True),
        Task("transcribe", (tuple((b, f) for _, b, f in workloads._transcribe_jobs(5, "f")[:3]),), False),
        Task("regimes", (13, 2), False),
        Task("family_scan", ("lemma12", 21, 4), False),
        *queries,
    ]


def test_traced_and_untraced_passes_give_the_same_digest(tmp_path):
    tasks = _small_tasks(str(tmp_path))
    plain = workloads.run_pass(tasks)
    with tracer.Tracer() as tr:
        traced = workloads.run_pass(tasks)
    failed_plain, digest_plain = workloads.check_pass(tasks, plain.outputs)
    failed_traced, digest_traced = workloads.check_pass(tasks, traced.outputs)
    assert failed_plain == failed_traced == 0
    assert digest_plain == digest_traced
    assert len(plain.task_s) == len(tasks)
    m = tr.summary()
    assert m["verify.enumerate_bipartite_max.calls"] == 1
    assert m["verify.audits"] == 0
    assert m["cli.run.calls"] == 2


def test_a_wrong_output_fails_its_check(tmp_path):
    tasks = _small_tasks(str(tmp_path))[-1:]
    res = workloads.run_pass(tasks)
    code, text = res.outputs[0]
    res.outputs[0] = (code, text.replace("b = ", "b = 1", 1))
    failed, _ = workloads.check_pass(tasks, res.outputs)
    assert failed == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.make_inputs(name, 5, str(tmp_path))
        assert first == workloads.make_inputs(name, 5, str(tmp_path))
        assert first
    a = workloads.make_inputs("point_queries", 5, str(tmp_path))
    b = workloads.make_inputs("point_queries", 6, str(tmp_path))
    assert a != b


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    units = tracer.layer_metric_units()
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_best_of_run_keeps_each_tasks_fastest_time():
    from perfbench.run import _Best

    best = _Best(3)
    best.add(workloads.PassResult(6.0, [1.0, 2.0, 3.0], []))
    best.add(workloads.PassResult(6.5, [2.0, 1.5, 3.0], []))
    assert best.task_s == [1.0, 1.5, 3.0]
    assert best.wall_s() == 5.5
    assert best.walls == [6.0, 6.5]
