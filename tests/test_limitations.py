"""Known boundary of the layered criterion, pinned by minimal counterexamples.

The per-layer matched-set criterion evaluates each layer inside its prefix
graph.  An edge that skips a layer lets a stem bypass that layer entirely, and
then covering one more *target* of a layer can cost covered nodes elsewhere,
so per-layer target coverage stops being a proxy for the whole-graph dimension.
The add-a-leader oracle and the numeric oracle work from the dimension itself
and are not affected; the cross-method ``verify`` command reports such graphs
as disagreements by design.  The numeric oracle has a limit of its own, on
long chains, pinned at the end of this file.

Both counterexamples were worked out by hand and are locked in here so the
boundary stays visible.  Everything the layered machinery claims about itself
(flow = enumeration, essentiality = intersection) still holds on these graphs.
"""

from __future__ import annotations

import random

import pytest

import goldens
from fixednodes import (
    InconclusiveError,
    StructuredDag,
    analyze,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    generic_dimension,
    graph_to_json,
    label_layers,
    numeric_fixed_nodes,
)
from fixednodes.cli import main
from randgraphs import random_dag
from references import singleton_layer_nodes


def has_skip_edge(dag) -> bool:
    labeling = label_layers(dag)
    return any(labeling.layer_of[v] - labeling.layer_of[u] > 1 for u, v in dag.edges)


class TestSingleLeaderCounterexample:
    """Four nodes, one leader, one skip edge: node 2 is alone in layer 2 but
    a second input there grows the coverable set from 3 to 4 nodes."""

    def test_oracle_result(self):
        assert fixed_nodes_oracle(goldens.SKIP4).fixed_nodes == goldens.SKIP4_ORACLE_FIXED

    def test_layer_criteria_overshoot(self):
        """The layered route keeps the single-leader rule, node 2 included."""
        assert fixed_nodes_layered(goldens.SKIP4).fixed_nodes == goldens.SKIP4_LAYER_FIXED
        assert singleton_layer_nodes(goldens.SKIP4) == goldens.SKIP4_LAYER_FIXED

    def test_dimension_jump_witnesses_the_defect(self):
        base, _ = generic_dimension(goldens.SKIP4)
        probed, _ = generic_dimension(goldens.SKIP4.with_leaders([1, 2]))
        assert (base, probed) == (3, 4)


class TestTwoLeaderCounterexample:
    """Seven nodes, two leaders, skip edge (2, 6): the layered criterion both
    overshoots (3, 4 look fixed) and undershoots (5 looks non-fixed)."""

    def test_oracle_result(self):
        assert fixed_nodes_oracle(goldens.SKIP7).fixed_nodes == goldens.SKIP7_ORACLE_FIXED

    def test_layered_result(self):
        assert fixed_nodes_layered(goldens.SKIP7).fixed_nodes == goldens.SKIP7_LAYER_FIXED

    def test_both_directions_diverge(self):
        oracle = goldens.SKIP7_ORACLE_FIXED
        layered = goldens.SKIP7_LAYER_FIXED
        assert layered - oracle == {3, 4}  # overshoot
        assert oracle - layered == {5}  # undershoot

    def test_verify_flags_the_disagreement(self):
        report = analyze(goldens.SKIP7, ("layered", "oracle", "numeric"), trials=30, seed=0)
        assert not report.consistent
        assert report.fixed_sets["numeric"] == report.fixed_sets["oracle"]


class TestDivergenceIsConfinedToSkipGraphs:
    """Random scan: any layered/oracle disagreement involves a skip edge, and
    the numeric oracle keeps siding with the add-a-leader oracle there."""

    def test_scan(self):
        rng = random.Random(0xD00D)
        diverged = 0
        for _ in range(150):
            dag = random_dag(rng, max_nodes=10, skip_prob=0.5)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            layered = fixed_nodes_layered(dag).fixed_nodes
            if layered != oracle:
                diverged += 1
                assert has_skip_edge(dag)
        assert diverged > 0  # the scan is expected to hit the boundary


class TestNumericRouteOnLongChains:
    """The numeric route is a sampled floating-point rank check, not an exact
    one: on a 200-node path the smallest singular values of every draw fall
    under its 1e-8 threshold, so no draw reaches the true dimension and the
    route gives up where the oracle fixes every node.  An exact numeric route
    would flip these tests."""

    PATH = StructuredDag.of(200, [(i, i + 1) for i in range(1, 200)], [1])

    def test_oracle_fixes_the_whole_path(self):
        assert fixed_nodes_oracle(self.PATH).fixed_nodes == self.PATH.nodes
        assert generic_dimension(self.PATH)[0] == 200

    def test_numeric_route_is_inconclusive(self):
        with pytest.raises(InconclusiveError, match=r"rank 200 in 9 trials \(best \d+\)$"):
            numeric_fixed_nodes(self.PATH, trials=3, seed=0, expected_dim=200)

    def test_cli_exits_3(self, tmp_path, capsys):
        path = tmp_path / "path200.graph.json"
        path.write_text(graph_to_json(self.PATH))
        assert main(["fixed", str(path), "--trials", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric verification inconclusive" in captured.err
