from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixednodes
import fixednodes.graph
from fixednodes import (
    InvalidGraphError,
    StructuredDag,
    graph_from_json,
    graph_to_json,
    label_layers,
    validate,
)
from references import induce_prefix


class TestValidate:
    def test_golden_instances_are_valid(self, golden):
        assert validate(golden.dag) == ()

    def test_two_cycle_is_rejected(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 1)], [1])
        violations = validate(dag)
        kinds = {v.kind for v in violations}
        assert violations
        assert "cycle" in kinds

    def test_isolated_node_breaks_influenceability(self, single7):
        dag = StructuredDag.of(8, sorted(single7.dag.edges), [1])
        violations = validate(dag)
        assert violations
        assert any(v.kind == "unreachable" and v.items == (8,) for v in violations)

    def test_self_loop_reported(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 2)], [1])
        assert any(v.kind == "self-loop" for v in validate(dag))

    def test_leader_with_in_edge_rejected_by_default(self):
        dag = StructuredDag.of(2, [(1, 2)], [1, 2])
        violations = validate(dag)
        assert any(v.kind == "leader-in-degree" for v in violations)

    def test_found_once_per_graph(self, monkeypatch):
        found = []
        find = fixednodes.graph._find_violations

        def counting(dag):
            found.append(dag)
            return find(dag)

        monkeypatch.setattr(fixednodes.graph, "_find_violations", counting)
        valid = StructuredDag.of(2, [(1, 2)], [1])
        invalid = valid.with_leaders([1, 2])
        assert validate(valid) is validate(valid) == ()
        assert validate(invalid) is validate(invalid)
        assert found == [valid, invalid]

    def test_empty_leader_set_rejected(self):
        dag = StructuredDag.of(2, [(1, 2)], [])
        assert any(v.kind == "leaders-empty" for v in validate(dag))

    def test_out_of_range_edges_reported(self):
        with pytest.raises(InvalidGraphError) as raised:
            StructuredDag.of(2, [(1, 2), (2, 9)], [1])
        assert str(raised.value) == "edges reference unknown nodes: [[2, 9]]"


class TestConstruction:
    """A graph names only its own nodes: construction refuses any other id, so
    no route ever reads an edge or a leader outside the graph."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: StructuredDag.of(3, [(1, 2), (2, 0)], [1]),
                "edges reference unknown nodes: [[2, 0]]",
            ),
            (lambda: StructuredDag.of(3, [(1, 5)], [1]), "edges reference unknown nodes: [[1, 5]]"),
            (lambda: StructuredDag.of(3, [(1, 2)], [1, 7]), "leaders are not nodes of the graph: [7]"),
            (
                lambda: StructuredDag(frozenset({0, 1}), frozenset(), frozenset({1})),
                "node ids must be positive integers: [0]",
            ),
        ],
        ids=["edge-to-0", "edge-to-5", "leader-7", "node-0"],
    )
    def test_refuses_ids_outside_the_graph(self, build, message):
        with pytest.raises(InvalidGraphError) as raised:
            build()
        assert str(raised.value) == message

    def test_messages_joined_in_order(self):
        with pytest.raises(InvalidGraphError) as raised:
            StructuredDag(frozenset({-1, 1}), frozenset({(1, 4), (-1, 1)}), frozenset({1, 3}))
        assert str(raised.value) == (
            "node ids must be positive integers: [-1]; "
            "edges reference unknown nodes: [[1, 4]]; "
            "leaders are not nodes of the graph: [3]"
        )

    def test_with_leaders_is_checked(self, single7):
        with pytest.raises(InvalidGraphError, match=r"leaders are not nodes of the graph: \[8\]"):
            single7.dag.with_leaders([1, 8])

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: StructuredDag.of(3, [(1, 2.7), (2, 3)], [1]), "2.7"),
            (lambda: StructuredDag.of(3, [(1, 2), (2, 3)], [1.9]), "1.9"),
            (lambda: StructuredDag.of(3.9, [(1, 2), (2, 3)], [1]), "3.9"),
            (lambda: StructuredDag.of(3, [(1, 2), (2, 3)], [np.float64(1)]), repr(np.float64(1))),
            (lambda: StructuredDag.of(3, [(1, "2"), (2, 3)], [1]), "'2'"),
        ],
        ids=["edge-float", "leader-float", "count-float", "leader-numpy-float", "edge-str"],
    )
    def test_refuses_non_integral_values(self, build, value):
        """Such a value was truncated: edge (1, 2.7) became (1, 2) and
        leader 1.9 became 1, and a count of 3.9 built three nodes."""
        with pytest.raises(InvalidGraphError) as raised:
            build()
        assert str(raised.value) == f"node count and ids must be integers, got {value}"

    def test_accepts_numpy_integers(self):
        dag = StructuredDag.of(np.int64(3), [(np.int32(1), np.int64(2)), (2, 3)], [np.int8(1)])
        assert dag == StructuredDag.of(3, [(1, 2), (2, 3)], [1])
        assert {type(v) for edge in dag.edges for v in edge} | {type(x) for x in dag.leaders} == {int}

    @pytest.mark.parametrize(
        "route",
        [
            lambda dag: fixednodes.numeric_fixed_nodes(dag, 20, 0),
            fixednodes.fixed_nodes_oracle,
            fixednodes.fixed_nodes_layered,
            fixednodes.generic_dimension,
            lambda dag: fixednodes.export_dot(dag, [1]),
        ],
        ids=["numeric", "oracle", "layered", "generic-dimension", "export-dot"],
    )
    def test_no_route_sees_an_edge_to_node_0(self, route):
        """Were this graph built, the flat weight index of edge (2, 0) would
        be -2, the slot of (2, 3), and the numeric route would fix [1, 2, 3];
        the oracle, layered and dimension routes would raise ``KeyError: 0``
        and the DOT output would draw ``2 -> 0`` to an undeclared node."""
        with pytest.raises(InvalidGraphError, match=r"\[\[2, 0\]\]"):
            route(StructuredDag.of(3, [(1, 2), (2, 0)], [1]))


class TestLabelLayers:
    def test_golden_layers(self, golden):
        assert label_layers(golden.dag).layers == golden.layers

    def test_layer_of_matches_layers(self, pair13):
        labeling = label_layers(pair13.dag)
        for k, layer in enumerate(labeling.layers, start=1):
            for v in layer:
                assert labeling.layer_of[v] == k

    def test_edgeless_all_leader_graph_is_one_layer(self):
        dag = StructuredDag.of(5, [], [1, 2, 3, 4, 5])
        labeling = label_layers(dag)
        assert labeling.depth == 1
        assert labeling.layers == (frozenset(range(1, 6)),)

    def test_labeling_is_built_once_and_read_only(self, pair13):
        dag = graph_from_json(graph_to_json(pair13.dag))
        labeling = label_layers(dag)
        assert label_layers(dag) is labeling
        with pytest.raises(TypeError):
            labeling.layer_of[1] = 2
        assert labeling.layer_of[1] == 1

    @pytest.mark.parametrize("name", ["out_neighbors", "in_neighbors"])
    def test_neighbour_maps_are_read_only(self, name):
        """Writing ``in_neighbors[3] = ()`` on the path 1 -> 2 -> 3 used to
        make node 3 a source of layer 1 for every later caller."""
        dag = StructuredDag.of(3, [(1, 2), (2, 3)], [1])
        neighbors = getattr(dag, name)
        with pytest.raises(TypeError):
            neighbors[3] = ()
        assert getattr(dag, name) is neighbors
        assert label_layers(dag).layers == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_cycle_stalls_labeling(self):
        dag = StructuredDag.of(3, [(1, 2), (2, 3), (3, 2)], [1])
        with pytest.raises(InvalidGraphError, match="cycle"):
            label_layers(dag)

    def test_edges_point_strictly_downward(self, golden):
        labeling = label_layers(golden.dag)
        for u, v in golden.dag.edges:
            assert labeling.layer_of[u] < labeling.layer_of[v]

    def test_deeper_layers_feed_from_directly_preceding_layer(self, golden):
        labeling = label_layers(golden.dag)
        for k, layer in enumerate(labeling.layers[1:], start=2):
            for v in layer:
                feeds = golden.dag.in_neighbors[v]
                assert any(labeling.layer_of[u] == k - 1 for u in feeds)


class TestInducePrefix:
    def test_pair13_second_prefix(self, pair13):
        labeling = label_layers(pair13.dag)
        prefix = induce_prefix(pair13.dag, labeling, 2)
        assert prefix.nodes == frozenset({1, 2, 3, 4, 5})
        assert prefix.edges == frozenset({(1, 3), (1, 4), (2, 5)})
        assert prefix.leaders == pair13.dag.leaders

    def test_full_prefix_equals_graph(self, golden):
        labeling = label_layers(golden.dag)
        assert induce_prefix(golden.dag, labeling, labeling.depth) == golden.dag

    def test_top_prefix_is_leaders_only(self, single7):
        labeling = label_layers(single7.dag)
        prefix = induce_prefix(single7.dag, labeling, 1)
        assert prefix.nodes == frozenset({1})
        assert not prefix.edges

    def test_bottom_layer_nodes_become_sinks(self, golden):
        labeling = label_layers(golden.dag)
        for k in range(1, labeling.depth + 1):
            prefix = induce_prefix(golden.dag, labeling, k)
            for v in labeling.layers[k - 1]:
                assert prefix.out_neighbors[v] == ()

    def test_prefix_stability(self, golden):
        labeling = label_layers(golden.dag)
        for k in range(1, labeling.depth + 1):
            sub = label_layers(induce_prefix(golden.dag, labeling, k))
            assert sub.layers == labeling.layers[:k]

    def test_out_of_range_layer(self, single7):
        labeling = label_layers(single7.dag)
        with pytest.raises(InvalidGraphError):
            induce_prefix(single7.dag, labeling, 6)


class TestGraphJson:
    def test_round_trip(self, golden):
        assert graph_from_json(graph_to_json(golden.dag)) == golden.dag

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidGraphError, match="unknown keys"):
            graph_from_json('{"n": 1, "edges": [], "leaders": [1], "weighted": true}')

    def test_missing_keys_rejected(self):
        with pytest.raises(InvalidGraphError, match="missing keys"):
            graph_from_json('{"n": 1, "edges": []}')

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InvalidGraphError, match="duplicate edges"):
            graph_from_json('{"n": 2, "edges": [[1, 2], [1, 2]], "leaders": [1]}')

    def test_duplicate_leaders_rejected(self):
        with pytest.raises(InvalidGraphError, match="duplicate leaders"):
            graph_from_json('{"n": 2, "edges": [[1, 2]], "leaders": [1, 1]}')

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "not json",
            '{"n": 0, "edges": [], "leaders": []}',
            '{"n": true, "edges": [], "leaders": []}',
            '{"n": 2, "edges": [[1, 2, 3]], "leaders": [1]}',
            '{"n": 2, "edges": [[1, 2.5]], "leaders": [1]}',
            '{"n": 2, "edges": {}, "leaders": [1]}',
            '{"n": 2, "edges": [], "leaders": "1"}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(InvalidGraphError):
            graph_from_json(text)

    def test_serialization_needs_dense_ids(self):
        sparse = StructuredDag(frozenset({1, 3}), frozenset({(1, 3)}), frozenset({1}))
        with pytest.raises(InvalidGraphError, match="contiguous"):
            graph_to_json(sparse)

    def test_serialization_is_sorted_and_stable(self, single7):
        text = graph_to_json(single7.dag)
        assert text == graph_to_json(single7.dag)
        assert text.index("[1, 2]") < text.index("[2, 3]")


@st.composite
def dense_dags(draw) -> StructuredDag:
    """Small DAGs built edge-by-edge along a permutation, so always acyclic."""
    n = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    targets = {v for _, v in edges}
    leaders = [v for v in range(1, n + 1) if v not in targets]
    return StructuredDag.of(n, edges, leaders)


@settings(max_examples=120, deadline=None)
@given(dense_dags())
def test_labeling_partitions_nodes_and_orients_edges(dag: StructuredDag):
    labeling = label_layers(dag)
    seen = [v for layer in labeling.layers for v in layer]
    assert len(seen) == dag.node_count
    assert set(seen) == set(dag.nodes)
    for u, v in dag.edges:
        assert labeling.layer_of[u] < labeling.layer_of[v]
    for k, layer in enumerate(labeling.layers[1:], start=2):
        for v in layer:
            assert any(labeling.layer_of[u] == k - 1 for u in dag.in_neighbors[v])


@settings(max_examples=120, deadline=None)
@given(dense_dags())
def test_source_built_dags_validate_and_round_trip(dag: StructuredDag):
    assert validate(dag) == ()
    assert graph_from_json(graph_to_json(dag)) == dag
