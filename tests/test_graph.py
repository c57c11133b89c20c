from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixednodes import (
    InvalidGraphError,
    StructuredDag,
    graph_from_json,
    graph_to_json,
    induce_prefix,
    label_layers,
    validate,
)


class TestValidate:
    def test_golden_instances_are_valid(self, golden):
        assert validate(golden.dag).ok

    def test_two_cycle_is_rejected(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 1)], [1])
        report = validate(dag)
        kinds = {v.kind for v in report.violations}
        assert not report.ok
        assert "cycle" in kinds

    def test_isolated_node_breaks_influenceability(self, single7):
        dag = StructuredDag.of(8, sorted(single7.dag.edges), [1])
        report = validate(dag)
        assert not report.ok
        assert any(v.kind == "unreachable" and v.items == (8,) for v in report.violations)

    def test_self_loop_reported(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 2)], [1])
        assert any(v.kind == "self-loop" for v in validate(dag).violations)

    def test_leader_with_in_edge_rejected_by_default(self):
        dag = StructuredDag.of(2, [(1, 2)], [1, 2])
        report = validate(dag)
        assert any(v.kind == "leader-in-degree" for v in report.violations)

    def test_leader_with_in_edge_downgrades_to_warning(self):
        dag = StructuredDag.of(2, [(1, 2)], [1, 2])
        report = validate(dag, allow_nonsource_leaders=True)
        assert report.ok
        assert any(w.kind == "leader-in-degree" for w in report.warnings)

    def test_empty_leader_set_rejected(self):
        dag = StructuredDag.of(2, [(1, 2)], [])
        assert any(v.kind == "leaders-empty" for v in validate(dag).violations)

    def test_out_of_range_edges_reported(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 9)], [1])
        assert any(v.kind == "edge-endpoint" for v in validate(dag).violations)


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
    assert validate(dag).ok
    assert graph_from_json(graph_to_json(dag)) == dag
