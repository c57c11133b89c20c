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

from pathlib import Path

import pytest

from fixednodes.cli import main

DATA = Path(__file__).parent / "data"

ALL_ARGS = ("--method", "all", "--trials", "20", "--seed", "11")

CASES = {
    **{
        f"{name}-all": (name, ALL_ARGS)
        for name in ("single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6")
    },
    "skip200-layered": ("skip200", ("--method", "layered")),
    "skip200-layered-noprune": ("skip200", ("--method", "layered", "--no-prune")),
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


@pytest.mark.parametrize("graph", sorted(GENERATED))
def test_generated_graph_is_byte_identical(graph, capsys):
    out = cli_stdout(capsys, "gen", *GENERATED[graph])
    assert out == (DATA / f"{graph}.graph.json").read_text()
