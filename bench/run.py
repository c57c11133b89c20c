"""Benchmark of the ``fixednodes fixed`` command on seeded generated graphs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

One client calls ``fixednodes.cli.main`` in-process in a closed loop: the next
graph starts only after the previous one returned.  Whole passes over the
workload's graph list run until ``--seconds`` have been spent in them.  Every
output is checked (see ``checks.py``).  With ``--trace 1`` every graph also
runs once more with the tracer installed (``tracer.py``); the per-layer
metrics come from those spans, and the traced output must equal the untraced
output byte for byte.  Without it the end-to-end metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (versions, thread setting, sample counts, checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUN_DIR = BENCH / "_run"
REFERENCE = BENCH / "reference.json"
# The keys of workloads.WORKLOADS, spelled out here because that module
# imports numpy, which has to wait until the thread variables are pinned.
WORKLOAD_NAMES = ("sweep-small", "all-n200", "layered-n1000")
DEFAULT_SEED = 1
SETUP_REPEATS = 5

# Pinned before numpy is first imported: one BLAS/OpenMP thread is the
# single-thread baseline, and it keeps a run on two shared cores steady.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (metric, span name, field): per-layer values are per traced graph.
SPAN_METRICS = (
    ("cli.main_s", "cli.main", "total_s"),
    ("cli.self_s", "cli.main", "self_s"),
    ("graph.parse_s", "graph.parse", "total_s"),
    ("graph.validate_s", "graph.validate", "total_s"),
    ("graph.validate_calls", "graph.validate", "calls"),
    ("graph.label_s", "graph.label", "total_s"),
    ("graph.label_calls", "graph.label", "calls"),
    ("graph.prefix_s", "graph.prefix", "total_s"),
    ("graph.prefix_calls", "graph.prefix", "calls"),
    ("stems.dim_s", "stems.dim", "total_s"),
    ("stems.dim_calls", "stems.dim", "calls"),
    ("stems.coverage_s", "stems.coverage", "total_s"),
    ("stems.coverage_calls", "stems.coverage", "calls"),
    ("stems.essential_s", "stems.essential", "total_s"),
    ("stems.essential_calls", "stems.essential", "calls"),
    ("stems.enum_s", "stems.enum", "total_s"),
    ("stems.enum_calls", "stems.enum", "calls"),
    ("search.attach_s", "search.attach", "total_s"),
    ("search.layered_s", "search.layered", "total_s"),
    ("search.layered_self_s", "search.layered", "self_s"),
    ("search.oracle_s", "search.oracle", "total_s"),
    ("search.oracle_self_s", "search.oracle", "self_s"),
    ("numeric.fixed_s", "numeric.fixed", "total_s"),
    ("numeric.kernel_self_s", "numeric.fixed", "self_s"),
    ("numeric.draws", "numeric.draw", "calls"),
    ("numeric.draw_s", "numeric.draw", "total_s"),
    ("report.analyze_s", "report.analyze", "total_s"),
    ("report.analyze_self_s", "report.analyze", "self_s"),
    ("report.json_s", "report.json", "total_s"),
)
FIELD_UNITS = {"total_s": "s/graph", "self_s": "s/graph", "calls": "calls/graph"}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if not (SRC / "fixednodes" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC}; run from a full checkout")
        if args.setup_only:
            return _setup_only(args.workload, args.seed, Path(args.setup_only))
        if args.workload == "all":
            return _run_all(args)
        summary, result = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    return args


def _import_package():
    sys.path.insert(0, str(SRC))
    import fixednodes

    if not Path(fixednodes.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported fixednodes from {fixednodes.__file__}, not from {SRC}")


def _setup_only(workload: str, seed: int, directory: Path) -> int:
    """Set-up as a user pays it: import the package, generate, write."""
    started = time.perf_counter()
    _import_package()
    from workloads import write_workload

    write_workload(workload, seed, directory)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


def _measure_setup(workload: str, seed: int, directory: Path) -> list[float]:
    """Run the set-up in fresh interpreters, so each one imports from cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only", str(directory)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _call(cli_main, argv: list[str], out: Path, tracer=None, trace_id: int = 0):
    """One timed ``cli.main`` call; returns latency, exit code, output bytes."""
    out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.trace = trace_id
        sid = tracer.begin("cli.main")
    started = time.perf_counter()
    try:
        rc = cli_main(argv)
    except (Exception, SystemExit) as exc:  # one graph failing must not stop the run
        print(f"{argv[1]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = exc
    latency = time.perf_counter() - started
    if tracer is not None:
        tracer.end(sid)
    return latency, rc, out.read_bytes() if out.is_file() else None


def _run_passes(cli_main, jobs, checker, seconds: float, tracer=None):
    """Whole passes over ``jobs`` until their untraced calls took ``seconds``.

    With a tracer every graph also runs traced, right before or right after
    its untraced call, alternating, so that the machine's speed drifting
    during the run weighs on both sides equally.  Returns the untraced
    latencies of each graph, the traced latencies and the number of passes.
    """
    plain: list[list[float]] = [[] for _ in jobs]
    traced: list[float] = []
    passes = 0
    while True:
        for index, (argv, out, traced_argv, traced_out) in enumerate(jobs):
            sides = (False,) if tracer is None else ((False, True), (True, False))[(passes + index) % 2]
            for with_trace in sides:
                if with_trace:
                    with tracer.installed():
                        latency, rc, data = _call(
                            cli_main, traced_argv, traced_out, tracer, passes * len(jobs) + index
                        )
                    traced.append(latency)
                else:
                    latency, rc, data = _call(cli_main, argv, out)
                    plain[index].append(latency)
                checker.record(index, rc, data)
        passes += 1
        if sum(map(sum, plain)) >= seconds:
            return plain, traced, passes


def _load_references(workload: str, seed: int, count: int) -> list[dict | None]:
    data = json.loads(REFERENCE.read_text())
    entries = data["workloads"].get(workload) if data["seed"] == seed else None
    if entries is None:
        return [None] * count
    if len(entries) != count:
        raise BenchError(f"reference has {len(entries)} graphs for {workload}, workload has {count}")
    return entries


def _env_info(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    graphs_dir = work / "graphs"
    setup_times = _measure_setup(workload, seed, graphs_dir)

    _import_package()
    import numpy

    from checks import Checker
    from fixednodes import cli
    from fixednodes.graph import graph_from_json
    from tracer import Tracer
    from workloads import WORKLOADS, graph_files

    spec = WORKLOADS[workload]
    files = graph_files(graphs_dir)
    dags = [graph_from_json(path.read_text()) for path in files]
    out_dir = work / "out"
    traced_dir = work / "out-traced"
    out_dir.mkdir()
    traced_dir.mkdir()
    jobs = [
        (
            ["fixed", str(path), *spec.flags, "-o", str(out_dir / path.name)],
            out_dir / path.name,
            ["fixed", str(path), *spec.flags, "-o", str(traced_dir / path.name)],
            traced_dir / path.name,
        )
        for path in files
    ]
    checker = Checker(dags, _load_references(workload, seed, len(dags)))
    cli_main = cli.main

    # The first graph runs once untimed: it loads numpy's lazy parts and, on
    # all-n200, takes the allocator past the first-call state, in which the
    # numeric route runs about 15% faster than in every later call.
    _call(cli_main, *jobs[0][:2])
    tracer = Tracer() if trace else None
    per_graph, traced, passes = _run_passes(cli_main, jobs, checker, seconds, tracer)
    untraced_s = sum(map(sum, per_graph))
    # A graph's latency is its median over the passes, which drops one-off
    # stalls; the percentiles are taken over the workload's graphs.
    graph_s = [statistics.median(runs) for runs in per_graph]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {
        "workload": workload,
        "seed": seed,
        "flags": list(spec.flags),
        "graphs": len(dags),
        "passes": passes,
        "samples": len(graph_s),
        "setup_runs_s": setup_times,
        "reference": checker.references[0] is not None,
        "env": _env_info(numpy.__version__),
    }
    if tracer is not None:
        spans_path = RUN_DIR / f"spans-{workload}-s{seed}.jsonl"
        tracer.dump(spans_path)
        metrics = layer_metrics(tracer, dags, len(traced), sum(traced) / untraced_s - 1)
        metrics.update(
            {f"check.{kind}": _metric(n, "count") for kind, n in checker.counts().items()}
        )
        summary.update(spans=str(spans_path.relative_to(BENCH.parent)), missing=tracer.missing)
    else:
        metrics = {
            "graphs_per_s": _metric(len(dags) * passes / untraced_s, "1/s"),
            "graph_p50_s": _metric(statistics.median(graph_s), "s"),
            "graph_p95_s": _metric(statistics.quantiles(graph_s, n=20, method="inclusive")[-1], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
    summary["checks"] = checker.counts()
    summary["failed_frac"] = checker.failed / checker.attempted
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return summary, result


def layer_metrics(tracer, dags, graph_runs: int, overhead: float) -> dict:
    totals = tracer.totals()
    metrics = {}
    for metric, span, field in SPAN_METRICS:
        value = getattr(totals[span], field) if span in totals else 0
        metrics[metric] = _metric(value / graph_runs, FIELD_UNITS[field])
    # Computed, not measured: the float64 controllability matrix [B, AB, ...]
    # of one draw is n rows by n * |leaders| columns.
    numeric_runs = tracer.traces_with("numeric.fixed")
    c_bytes = [
        8 * dags[t % len(dags)].node_count ** 2 * len(dags[t % len(dags)].leaders)
        for t in numeric_runs
    ]
    metrics["numeric.c_bytes"] = _metric(statistics.mean(c_bytes) if c_bytes else 0, "B")
    metrics["trace.overhead_frac"] = _metric(overhead, "frac")
    return metrics


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        summary = json.loads(lines[-2])["summary"]
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={summary['failed_frac']:.4f} "
              f"samples={summary['samples']} passes={summary['passes']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:24s} {metric['value']:>14.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
