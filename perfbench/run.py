"""Run one bindex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; bindex is imported from ./src. With
``--trace 0`` the workload repeats untraced for S seconds and the
end-to-end metrics are printed. With ``--trace 1`` untraced and traced
passes alternate for S seconds and the per-layer metrics are printed,
including the tracing overhead. Every pass is checked against exact
expectations outside the timed region. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
a result file with provenance goes to ./.bench_results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

# A fresh interpreter up to "import bindex done and workload inputs generated".
_SETUP_CODE = """\
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import workloads
workloads.make_inputs(sys.argv[2], int(sys.argv[3]), sys.argv[4])
"""


def _import_bindex() -> None:
    src = ROOT / "src"
    if not (src / "bindex" / "__init__.py").is_file():
        sys.exit(f"error: no bindex sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import bindex

    if Path(bindex.__file__).resolve().parent != src / "bindex":
        sys.exit(f"error: imported bindex from {bindex.__file__}, not {src}")


def _setup_seconds(workload: str, seed: int, out_dir: Path) -> float:
    argv = [sys.executable, "-c", _SETUP_CODE, str(ROOT), workload, str(seed), str(out_dir)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args, overhead_s) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "trace_overhead_s": overhead_s,
    }


class _Best:
    """Each task's fastest time over a run's passes, and every pass's wall time.

    The host's speed drifts by up to 1.6x, at times in phases lasting
    minutes, so a median over one run's passes can measure mostly the phase
    the run fell in. In the worst case measured, each task's fastest time
    varied less from run to run than the median did (perfbench/README.md).
    """

    def __init__(self, ntasks: int) -> None:
        self.task_s = [math.inf] * ntasks
        self.walls: list[float] = []

    def add(self, res) -> None:
        self.walls.append(res.wall_s)
        self.task_s = [min(a, b) for a, b in zip(self.task_s, res.task_s)]

    def wall_s(self) -> float:
        """A pass rebuilt from each task's fastest run."""
        return sum(self.task_s)


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_bindex()
    from perfbench import tracer, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)

    setup = [_setup_seconds(args.workload, args.seed, out_dir) for _ in range(SETUP_REPEATS)]
    tasks = workloads.make_inputs(args.workload, args.seed, str(out_dir))

    attempted = failed = 0
    digests = set()
    untraced = _Best(len(tasks))
    traced = _Best(len(tasks))
    summaries: list[dict] = []

    def one_pass(trace: bool) -> workloads.PassResult:
        nonlocal attempted, failed
        gc.collect()
        if trace:
            with tracer.Tracer() as tr:
                res = workloads.run_pass(tasks)
            summaries.append(tr.summary())
        else:
            res = workloads.run_pass(tasks)
        bad, digest = workloads.check_pass(tasks, res.outputs)
        attempted += len(tasks)
        failed += bad
        digests.add(digest)
        return res

    one_pass(trace=False)  # warm-up: checked, not timed into the metrics
    start = time.perf_counter()
    while True:
        if args.trace and len(traced.walls) < len(untraced.walls):
            traced.add(one_pass(trace=True))
        else:
            untraced.add(one_pass(trace=False))
        if time.perf_counter() - start >= args.seconds and len(traced.walls) >= args.trace:
            break

    items = [s for s, task in zip(untraced.task_s, tasks) if task.item]
    p95 = _percentile(items, 95)
    overhead = None
    if args.trace:
        overhead = traced.wall_s() - untraced.wall_s()
        units = tracer.layer_metric_units()
        layer = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
        layer["trace.overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in layer.items()}
    else:
        values = {
            "wall_s": (untraced.wall_s(), "s"),
            "item_p50_ms": (1e3 * statistics.median(items), "ms"),
            "item_p95_ms": (1e3 * p95, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    correct = failed == 0 and len(digests) == 1
    detail = {
        "provenance": _provenance(args, overhead),
        "digest": sorted(digests),
        "fail_rate": failed / attempted,
        "pass_wall_s": {"untraced": untraced.walls, "traced": traced.walls},
        "median_pass_wall_s": statistics.median(untraced.walls),
        "items_per_pass": len(items),
        "items_beyond_p95": sum(s > p95 for s in items),
        "setup_s_samples": setup,
        "metrics": metrics,
    }
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"digest = {' '.join(sorted(digests))}")
    print(f"fail_rate = {failed}/{attempted}")
    print(f"items = {len(items)} per pass, best of {len(untraced.walls)} untraced passes")
    print(f"result file = {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
