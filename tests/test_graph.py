from __future__ import annotations

import json
import random
from collections import Counter
from typing import Iterator

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
from randgraphs import layered_n1000_graphs, random_dag, redrawn_leaders
from references import dumped_graph_json, induce_prefix, searching_violations


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


ONE = np.int64(1)


class TestConstruction:
    """A graph lives on nodes ``1..n``: construction refuses a count below 1
    and any other id, so no route ever reads an edge or a leader outside the
    graph, and no graph has ids that skip a number."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: StructuredDag.of(3, [(1, 2), (2, 0)], [1]),
                "edges reference unknown nodes: [[2, 0]]",
            ),
            (lambda: StructuredDag.of(3, [(1, 5)], [1]), "edges reference unknown nodes: [[1, 5]]"),
            (lambda: StructuredDag.of(3, [(1, 2)], [1, 7]), "leaders are not nodes of the graph: [7]"),
            (lambda: StructuredDag(0, frozenset(), frozenset()), "node count must be positive, got 0"),
            # a path on ids 2, 3, 4 names n + 1 when n = 3
            (
                lambda: StructuredDag(3, frozenset({(2, 3), (3, 4)}), frozenset({2})),
                "edges reference unknown nodes: [[3, 4]]",
            ),
            # an edge 1 -> 3 names n + 1 when n = 2
            (
                lambda: StructuredDag(2, frozenset({(1, 3)}), frozenset({1})),
                "edges reference unknown nodes: [[1, 3]]",
            ),
            (
                lambda: StructuredDag(2, frozenset({(3, 2)}), frozenset({1})),
                "edges reference unknown nodes: [[3, 2]]",
            ),
            (
                lambda: StructuredDag(2, frozenset({(0, 2)}), frozenset({1})),
                "edges reference unknown nodes: [[0, 2]]",
            ),
            (
                lambda: StructuredDag(2, frozenset({(1, 2)}), frozenset({0})),
                "leaders are not nodes of the graph: [0]",
            ),
            (
                lambda: StructuredDag(2, frozenset({(1, 2)}), frozenset({1, 3})),
                "leaders are not nodes of the graph: [3]",
            ),
            (
                lambda: StructuredDag(-1, frozenset(), frozenset({1})),
                "node count must be positive, got -1",
            ),
        ],
        ids=[
            "edge-to-0", "edge-to-5", "leader-7", "node-0", "path-2-3-4",
            "edge-to-n+1", "edge-from-n+1", "edge-from-0", "leader-0", "leader-n+1",
            "count-negative",
        ],
    )
    def test_refuses_ids_outside_the_graph(self, build, message):
        with pytest.raises(InvalidGraphError) as raised:
            build()
        assert str(raised.value) == message

    def test_messages_joined_in_order(self):
        with pytest.raises(InvalidGraphError) as raised:
            StructuredDag(1, frozenset({(1, 4), (-1, 1)}), frozenset({1, 3}))
        assert str(raised.value) == (
            "edges reference unknown nodes: [[-1, 1], [1, 4]]; "
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
            (lambda: StructuredDag(3, frozenset({(1.0, 2), (2, 3)}), frozenset({1})), "1.0"),
            (lambda: StructuredDag(3, frozenset({(1, 2)}), frozenset({ONE})), repr(ONE)),
            (lambda: StructuredDag(2.0, frozenset(), frozenset({2})), "2.0"),
            (lambda: StructuredDag.of(3, [(1, 2)], [1]).with_leaders([ONE]), repr(ONE)),
        ],
        ids=[
            "edge-float", "leader-float", "count-float", "leader-numpy-float", "edge-str",
            "direct-edge-float", "direct-leader-numpy-int", "direct-node-float",
            "with-leaders-numpy-int",
        ],
    )
    def test_refuses_non_integral_values(self, build, value):
        """Through ``of`` such a value was truncated: edge (1, 2.7) became
        (1, 2) and leader 1.9 became 1, and a count of 3.9 built three nodes.
        Built directly, an id equal to a node passed every membership check:
        with edge (1.0, 2) ``graph_to_json`` wrote ``[1.0, 2]`` and
        ``export_dot`` wrote ``1.0 -> 2;``, and with leader ``np.int64(1)``
        ``analyze`` failed with a ``TypeError`` writing its JSON."""
        with pytest.raises(InvalidGraphError) as raised:
            build()
        assert str(raised.value) == f"node count and ids must be integers, got {value}"

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: StructuredDag.of(2, [(True, 2)], [True]), "True"),
            (lambda: StructuredDag.of(2, [(1, 2)], [True]), "True"),
            (lambda: StructuredDag.of(2, [(False, 2)], [1]), "False"),
            (lambda: StructuredDag.of(True, [], [1]), "True"),
            (lambda: StructuredDag(2, frozenset({(True, 2)}), frozenset({1})), "True"),
            (lambda: StructuredDag(True, frozenset(), frozenset({1})), "True"),
            (lambda: StructuredDag(2, frozenset({(1, 2)}), frozenset({True})), "True"),
            (lambda: StructuredDag.of(2, [(1, 2)], [1]).with_leaders([True]), "True"),
        ],
        ids=["of-edge", "of-leader", "of-false", "of-count", "edge", "node", "leader", "with-leaders"],
    )
    def test_refuses_bools(self, build, value):
        """``bool`` is an ``int`` with ``__index__``, and ``True == 1``: a
        ``True`` id passed as node 1, so ``of(2, [(True, 2)], [True])`` built
        edge (1, 2) with leader 1."""
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
        """Were this graph built, edge (2, 0) would reach the numeric route
        with head index -1, that of node 3, so it would act as (2, 3) and the
        route would fix [1, 2, 3];
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
            # a repeated key used to be read with its last value winning
            '{"n": 3, "edges": [[1, 2]], "leaders": [1], "n": 2}',
            # past the interpreter's digit limit, or else past the bound on n
            pytest.param(
                '{"n": ' + "9" * 5000 + ', "edges": [], "leaders": [1]}', id="5000-digit-n"
            ),
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(InvalidGraphError):
            graph_from_json(text)

    def test_parsed_ids_are_not_converted_again(self, single7, monkeypatch):
        """``graph_from_json`` has checked every id's type already, so it
        builds the graph without ``StructuredDag.of``'s per-id conversion."""
        text = graph_to_json(single7.dag)

        def refused(*args):
            raise AssertionError("StructuredDag.of was called")

        monkeypatch.setattr(StructuredDag, "of", refused)
        parsed = graph_from_json(text)
        assert parsed == single7.dag
        ids = [parsed.n, *(v for edge in parsed.edges for v in edge), *parsed.leaders]
        assert set(map(type, ids)) == {int}

    def test_serialization_is_sorted_and_stable(self, single7):
        text = graph_to_json(single7.dag)
        assert text == graph_to_json(single7.dag)
        assert text.index("[1, 2]") < text.index("[2, 3]")


def varied_graphs(count: int, seed: int) -> Iterator[StructuredDag]:
    """Random graphs of every kind ``validate`` tells apart: valid ones, ones
    with redrawn leaders (non-leader sources, unreachable nodes, leaders with
    in-edges), a cycle closed by a back edge, a 2-cycle that nothing feeds,
    and an isolated non-leader node; at skip 0, 0.3 and 0.9."""
    rng = random.Random(seed)
    for i in range(count):
        dag = random_dag(rng, max_nodes=12, max_leaders=4, skip_prob=(0.0, 0.3, 0.9)[i % 3])
        kind, n = (i // 3) % 5, dag.node_count
        if kind == 1:
            dag = redrawn_leaders(rng, dag)
        elif kind == 2 and dag.edges:
            u, v = rng.choice(sorted(dag.edges))
            dag = StructuredDag(n, dag.edges | {(v, u)}, dag.leaders)
        elif kind == 3:
            cycle = {(n + 1, n + 2), (n + 2, n + 1)}
            dag = StructuredDag(n + 2, dag.edges | cycle, dag.leaders)
        elif kind == 4:
            dag = StructuredDag(n + 1, dag.edges, dag.leaders)
        yield dag


@pytest.fixture(scope="module")
def varied() -> list[StructuredDag]:
    return list(varied_graphs(1200, seed=25))


class TestAgainstReferences:
    """``validate``, ``graph_to_json`` and a parsed graph's ``sorted_edges``
    against the references that search, re-encode and sort every time."""

    def test_violations_match_the_always_searching_finder(self, varied):
        """The reachability search is skipped only where the peel proves
        that every node is reached; the violations stay the same."""
        kinds: Counter[str] = Counter()
        for dag in varied:
            found = validate(dag)
            assert found == searching_violations(dag)
            kinds.update(v.kind for v in found)
            kinds["valid"] += not found
        assert min(kinds[k] for k in ("valid", "leader-in-degree", "cycle", "unreachable")) >= 100

    def test_writer_matches_json_dumps(self, varied):
        for dag in varied + layered_n1000_graphs(1):
            assert graph_to_json(dag) == dumped_graph_json(dag)

    def test_parsed_sorted_edges_ignore_the_file_order(self, varied):
        """A file whose edges and leaders come in any order parses to the
        sorted edge tuple and writes back the canonical bytes."""
        rng = random.Random(26)
        parsable = [dag for dag in varied if dag.node_count <= len(dag.leaders) + len(dag.edges)]
        assert len(parsable) >= 1000
        for dag in parsable + layered_n1000_graphs(1):
            text = graph_to_json(dag)
            raw = json.loads(text)
            rng.shuffle(raw["edges"])
            rng.shuffle(raw["leaders"])
            parsed = graph_from_json(json.dumps(raw))
            assert parsed == dag
            assert parsed.sorted_edges == tuple(sorted(dag.edges))
            assert graph_to_json(parsed) == text
            assert graph_from_json(text).sorted_edges == tuple(sorted(dag.edges))


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
