"""Behaviour gate: CLI report JSON must stay byte-identical on pinned inputs.

Each case runs ``fixednodes fixed`` on a graph file in ``tests/data/`` and
compares stdout with the report recorded next to it.  The recorded reports
were produced by the CLI itself and cover the four goldens, both
layer-skipping counterexamples, the criterion-6 instance
(``gen --p 6 --width 10 --edges 80 --leaders 4 --seed 7``) and a generated
n=200 skip graph (``gen --p 10 --width 20 --edges 400 --leaders 10 --seed 7
--skip-prob 0.3``).  The two generated graph files are pinned too, which
keeps ``gen`` output byte-stable.  A refactor that changes any verdict, tag,
witness or ordering fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fixednodes import analyze, graph_from_json, report_to_json_dict
from fixednodes.cli import main

DATA = Path(__file__).parent / "data"

ALL_ARGS = ("--method", "all", "--trials", "20", "--seed", "11")

CASES = {
    **{
        f"{name}-all": (name, ALL_ARGS)
        for name in ("single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6")
    },
    "skip200-layered": ("skip200", ("--method", "layered")),
}

GENERATED = {
    "crit6": ("--p", "6", "--width", "10", "--edges", "80", "--leaders", "4", "--seed", "7"),
    "skip200": (
        "--p", "10", "--width", "20", "--edges", "400", "--leaders", "10",
        "--seed", "7", "--skip-prob", "0.3",
    ),
}


def cli_stdout(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_report_is_byte_identical(case, capsys):
    graph, args = CASES[case]
    out = cli_stdout(capsys, "fixed", str(DATA / f"{graph}.graph.json"), *args)
    assert out == (DATA / f"{case}.report.json").read_text()


@pytest.mark.parametrize("case", sorted(case for case in CASES if case.endswith("-all")))
def test_library_report_matches_the_cli(case):
    """``analyze`` carries every field the CLI prints, matched sets included."""
    graph, _ = CASES[case]
    dag = graph_from_json((DATA / f"{graph}.graph.json").read_text())
    text = json.dumps(report_to_json_dict(analyze(dag, trials=20, seed=11)), indent=2) + "\n"
    assert text == (DATA / f"{case}.report.json").read_text()


def test_layer_times_stay_off_the_report():
    dag = graph_from_json((DATA / "skip200.graph.json").read_text())
    report = analyze(dag, ("layered",))
    layers = report.methods["layered"].per_layer
    assert all(layer.elapsed >= 0 for layer in layers)
    assert sum(layer.elapsed for layer in layers) <= report.elapsed
    text = json.dumps(report_to_json_dict(report), indent=2) + "\n"
    assert text == (DATA / "skip200-layered.report.json").read_text()


@pytest.mark.parametrize("graph", sorted(GENERATED))
def test_generated_graph_is_byte_identical(graph, capsys):
    out = cli_stdout(capsys, "gen", *GENERATED[graph])
    assert out == (DATA / f"{graph}.graph.json").read_text()
