"""Known boundary of the layered criterion, pinned by minimal counterexamples.

The per-layer matched-set criterion evaluates each layer inside its prefix
graph.  An edge that skips a layer lets a stem bypass that layer entirely, and
then covering one more *target* of a layer can cost covered nodes elsewhere,
so per-layer target coverage stops being a proxy for the whole-graph dimension.
The add-a-leader oracle and the numeric oracle work from the dimension itself
and are not affected; the cross-method ``verify`` command reports such graphs
as disagreements by design.  The end of this file pins a limit a float
numeric route had on long chains, which the exact one lifts.

Both counterexamples were worked out by hand and are locked in here so the
boundary stays visible.  Everything the layered machinery claims about itself
(flow = enumeration, essentiality = intersection) still holds on these graphs.
"""

from __future__ import annotations

import json
import random

import pytest

import goldens
from fixednodes import (
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
from references import induce_prefix, singleton_layer_nodes


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


def prefix_verdicts(dag, k: int) -> tuple[frozenset[int], frozenset[int]]:
    """The fixed nodes of layer ``k`` by the oracle on the prefix graph of
    layers ``1..k`` and by the oracle on the whole graph."""
    labeling = label_layers(dag)
    layer = labeling.layers[k - 1]
    prefix = fixed_nodes_oracle(induce_prefix(dag, labeling, k)).fixed_nodes
    return prefix & layer, fixed_nodes_oracle(dag).fixed_nodes & layer


class TestPrefixLocality:
    """A graph and its prefix of layers ``1..k`` share those layers, so a rule
    that reads only them, as the layered route does, gives a layer-``k`` node
    the verdict the oracle gives it on the prefix.  That verdict is the
    whole-graph one on adjacent-layer graphs and can overshoot on skip graphs,
    so no such rule can be exact there."""

    def test_adjacent_layer_graphs_keep_every_verdict(self):
        rng = random.Random(11)
        for _ in range(300):
            dag = random_dag(rng, max_nodes=12, max_leaders=4)
            for k in range(1, label_layers(dag).depth + 1):
                prefix, whole = prefix_verdicts(dag, k)
                assert prefix == whole

    def test_skip_graphs_overshoot(self):
        """Where the verdicts differ, the prefix oracle fixes more (seen on
        every differing layer of this scan)."""
        rng = random.Random(11)
        differing = 0
        for _ in range(300):
            dag = random_dag(rng, max_nodes=12, max_leaders=4, skip_prob=0.6)
            for k in range(1, label_layers(dag).depth + 1):
                prefix, whole = prefix_verdicts(dag, k)
                assert prefix >= whole
                differing += prefix != whole
        assert differing >= 40

    @pytest.mark.parametrize(
        "dag, overshoot",
        [(goldens.SKIP4, {2}), (goldens.SKIP7, {3, 4})],
        ids=["skip4", "skip7"],
    )
    def test_counterexamples_overshoot_in_layer_2(self, dag, overshoot):
        assert prefix_verdicts(dag, 2) == (overshoot, frozenset())


class TestNumericRouteOnLongChains:
    """A float route's limit, lifted: ranked in floating point, every draw of
    a 200-node path has singular values below a 1e-8 cut, so no draw reached
    the true dimension and the route gave up where the oracle fixes every
    node.  The numeric route ranks each draw exactly over a prime field, so
    it agrees with the oracle on the path."""

    PATH = StructuredDag.of(200, [(i, i + 1) for i in range(1, 200)], [1])

    def test_oracle_fixes_the_whole_path(self):
        assert fixed_nodes_oracle(self.PATH).fixed_nodes == self.PATH.nodes
        assert generic_dimension(self.PATH)[0] == 200

    def test_numeric_route_agrees_with_the_oracle(self):
        assert numeric_fixed_nodes(self.PATH, trials=3, seed=0, expected_dim=200) == self.PATH.nodes

    def test_cli_exits_0(self, tmp_path, capsys):
        path = tmp_path / "path200.graph.json"
        path.write_text(graph_to_json(self.PATH))
        assert main(["fixed", str(path), "--trials", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is True
        assert report["methods"]["numeric"]["fixed"] == list(range(1, 201))
