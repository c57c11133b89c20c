"""Behaviour gate: CLI report JSON must stay byte-identical on pinned inputs.

Each case runs ``fixednodes fixed`` on a graph file in ``tests/data/`` and
compares stdout with the report recorded next to it.  The recorded reports
were produced by the CLI itself and cover the four goldens, both
layer-skipping counterexamples, the criterion-6 instance
(``gen --p 6 --width 10 --edges 80 --leaders 4 --seed 7``) and a generated
n=200 skip graph (``gen --p 10 --width 20 --edges 400 --leaders 10 --seed 7
--skip-prob 0.3``).  The two generated graph files are pinned too, which
keeps ``gen`` output byte-stable.  A refactor that changes any verdict, tag,
witness or ordering fails here.  A byte pin cannot tell a right re-pin from
a wrong one, so every pinned report is also checked for soundness against the
slow references of ``tests/references.py``.  ``tests/data/repin.py``
rewrites every pin with the current program; a test here checks that it
reproduces them byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fixednodes import (
    StemFamily,
    analyze,
    graph_digest,
    graph_from_json,
    graph_to_json,
    report_to_json_dict,
    stem_family_violations,
)
from fixednodes.cli import main
from references import (
    disjoint_stems_into,
    enumerated_matched_sets,
    exhaustive_dimension,
    in_every_max_family,
    layer_fast_path,
    peeled_layers,
    resolving_oracle,
)

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
    """``analyze`` carries every field the CLI prints, per-layer entries included."""
    graph, _ = CASES[case]
    dag = graph_from_json((DATA / f"{graph}.graph.json").read_text())
    text = json.dumps(report_to_json_dict(analyze(dag, trials=20, seed=11)), indent=2) + "\n"
    assert text == (DATA / f"{case}.report.json").read_text()


def test_library_layered_report_matches_the_cli():
    dag = graph_from_json((DATA / "skip200.graph.json").read_text())
    text = json.dumps(report_to_json_dict(analyze(dag, ("layered",))), indent=2) + "\n"
    assert text == (DATA / "skip200-layered.report.json").read_text()


@pytest.mark.parametrize("graph", sorted({graph for graph, _ in CASES.values()}))
def test_equal_inputs_give_equal_reports(graph):
    """A report holds no time, so equal graphs and seeds give equal objects,
    also when the graph went through its JSON form."""
    dag = graph_from_json((DATA / f"{graph}.graph.json").read_text())
    report = analyze(dag, trials=20, seed=4)
    assert report == analyze(dag, trials=20, seed=4)
    assert report == analyze(graph_from_json(graph_to_json(dag)), trials=20, seed=4)


@pytest.mark.parametrize("graph", sorted(GENERATED))
def test_generated_graph_is_byte_identical(graph, capsys):
    out = cli_stdout(capsys, "gen", *GENERATED[graph])
    assert out == (DATA / f"{graph}.graph.json").read_text()


def test_repin_script_reproduces_every_pin(tmp_path):
    """``tests/data/repin.py`` writes every ``GENERATED`` graph and ``CASES``
    report, byte for byte the files checked in here."""
    subprocess.run([sys.executable, str(DATA / "repin.py"), str(tmp_path)], check=True)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(
        [f"{name}.graph.json" for name in GENERATED] + [f"{case}.report.json" for case in CASES]
    )
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_report_is_sound(case):
    """Each pinned report states the truth by the slow references: the
    digest of its graph, its labeling, a valid witness of ``generic_dim``
    nodes, that dimension by exhaustive search (n <= 15), fixed sets equal to
    the literal definition's, each layer's ``mu`` by augmenting paths, the
    layer's fixed nodes as those whose removal lowers ``mu`` and (n <= 15) as
    those in every matched set by enumeration, both less the nodes some
    maximum family misses, each layer's ``fast_path`` from its targets and
    the nodes every maximum family covers, and ``consistent``."""
    graph, _ = CASES[case]
    text = (DATA / f"{graph}.graph.json").read_text()
    dag = graph_from_json(text)
    report = json.loads((DATA / f"{case}.report.json").read_text())
    methods = report["methods"]
    small = dag.node_count <= 15

    assert report["digest"] == graph_digest(dag)
    assert report["labeling"]["layers"] == peeled_layers(json.loads(text)["edges"], dag.node_count)
    witness = StemFamily(tuple(map(tuple, report["witness"])))
    assert not stem_family_violations(dag, witness)
    assert len(witness.covered) == report["generic_dim"]
    if small:
        assert report["generic_dim"] == exhaustive_dimension(dag)
    for name in ("oracle", "numeric"):
        if name in methods:
            assert methods[name]["fixed"] == sorted(resolving_oracle(dag).fixed_nodes)

    layers = methods["layered"]["layers"]
    avoidable = dag.nodes - in_every_max_family(dag)
    for layer in layers:
        targets = set(layer["targets"])
        mu = disjoint_stems_into(dag, targets)
        essential = {v for v in targets if disjoint_stems_into(dag, targets - {v}) < mu}
        assert layer["mu"] == mu
        assert layer["fixed"] == sorted(essential - avoidable)
        assert layer["fast_path"] == layer_fast_path(targets, dag.nodes - avoidable)
    assert methods["layered"]["fixed"] == sorted({v for layer in layers for v in layer["fixed"]})
    if small:
        for layer, sets in zip(layers, enumerated_matched_sets(dag), strict=True):
            in_every_set = frozenset(layer["targets"]).intersection(*sets)
            assert layer["fixed"] == sorted(in_every_set - avoidable)
    assert report["consistent"] == (len({tuple(m["fixed"]) for m in methods.values()}) == 1)
