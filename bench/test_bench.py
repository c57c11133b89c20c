"""Tests of the benchmark itself.  Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fixednodes.report  # noqa: E402
from checks import (  # noqa: E402
    DISAGREE,
    MISMATCH,
    RAISED,
    Checker,
    check_report,
    is_adjacent,
    reference_entry,
)
from fixednodes import cli  # noqa: E402
from fixednodes.graph import graph_from_json, graph_to_json  # noqa: E402
from fixednodes.search import fixed_nodes_oracle  # noqa: E402
from fixednodes.stems import generic_dimension  # noqa: E402
from run import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GRAPH = '{"n": 7, "edges": [[1, 2], [2, 3], [2, 4], [4, 5], [4, 6], [5, 7]], "leaders": [1]}\n'
DAG = graph_from_json(GRAPH)


def _report(tmp_path: Path, *flags: str) -> dict:
    graph, out = tmp_path / "graph.json", tmp_path / "report.json"
    graph.write_text(GRAPH)
    assert cli.main(["fixed", str(graph), *flags, "-o", str(out)]) == 0
    return json.loads(out.read_text())


def test_check_flags_a_wrongly_injected_fixed_set(tmp_path):
    payload = _report(tmp_path, "--method", "all")
    reference = reference_entry(DAG, fixed_nodes_oracle(DAG).fixed_nodes, generic_dimension(DAG)[0])
    assert check_report(DAG, is_adjacent(DAG), payload, reference) == (set(), False)

    injected = copy.deepcopy(payload)
    injected["methods"]["oracle"]["fixed"] = [1, 2]
    problems, _ = check_report(DAG, is_adjacent(DAG), injected, reference)
    assert {DISAGREE, MISMATCH} <= problems
    problems, _ = check_report(DAG, is_adjacent(DAG), injected, None)
    assert DISAGREE in problems


def test_check_flags_a_wrong_layered_set_against_its_reference(tmp_path):
    payload = _report(tmp_path, "--method", "layered")
    reference = reference_entry(DAG, frozenset(payload["methods"]["layered"]["fixed"]), 5)
    assert check_report(DAG, is_adjacent(DAG), payload, reference) == (set(), False)
    payload["methods"]["layered"]["fixed"].append(3)
    assert check_report(DAG, is_adjacent(DAG), payload, reference)[0] == {MISMATCH}


def test_missing_function_reads_as_zero_calls(tmp_path):
    original = fixednodes.report.generic_dimension
    tracer = Tracer(
        targets=(
            ("fixednodes.search", "no_longer_there", "stems.enum"),
            ("fixednodes.report", "generic_dimension", "stems.dim"),
        )
    )
    with tracer.installed():
        sid = tracer.begin("cli.main")
        _report(tmp_path, "--method", "all")
        tracer.end(sid)
    assert tracer.missing == ["fixednodes.search.no_longer_there"]
    assert fixednodes.report.generic_dimension is original

    metrics = layer_metrics(tracer, [DAG], 1, 0.0)
    assert metrics["stems.enum_calls"]["value"] == 0
    assert metrics["stems.dim_calls"]["value"] == 1
    totals = tracer.totals()
    assert totals["cli.main"].self_s == totals["cli.main"].total_s - totals["stems.dim"].total_s


def test_same_seed_gives_the_same_graphs():
    for spec in WORKLOADS.values():
        first = [graph_to_json(dag) for dag in spec.build(3)]
        assert first == [graph_to_json(dag) for dag in spec.build(3)], spec.name
        assert first != [graph_to_json(dag) for dag in spec.build(4)], spec.name


def test_checker_fails_output_that_changes_between_runs(tmp_path):
    data = json.dumps(_report(tmp_path, "--method", "layered")).encode()
    checker = Checker([DAG], [None])
    checker.record(0, 0, data)
    checker.record(0, 0, data)
    assert (checker.attempted, checker.failed) == (2, 0)
    checker.record(0, 0, data.replace(b'"consistent": true', b'"consistent": false'))
    checker.record(0, 1, None)
    assert (checker.attempted, checker.failed) == (4, 2)
    assert checker.counts()[MISMATCH] == 1 and checker.counts()[RAISED] == 1
