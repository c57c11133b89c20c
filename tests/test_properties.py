"""Cross-method property tests on seeded random graph populations.

Two graph domains matter.  On graphs whose edges only join adjacent layers the
layered criterion, the add-a-leader oracle, and the enumeration intersection
all coincide.  Once edges may skip layers the layered criterion keeps its
internal equivalences (flow = enumeration, essentiality = intersection) but is
no longer guaranteed to match the oracle; that boundary is pinned down in
``test_limitations.py``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fixednodes import (
    fixed_nodes_layered,
    fixed_nodes_oracle,
    generic_dimension,
    graph_from_json,
    graph_to_json,
    label_layers,
    stem_family_violations,
    validate,
)
from randgraphs import random_dag
from references import (
    LayerCoverage,
    enumerate_max_families,
    exhaustive_dimension,
    in_every_max_family,
    induce_prefix,
    matched_by,
    singleton_layer_nodes,
    unpruned_layer_fixed,
)


def enumeration_fixed_set(dag):
    labeling = label_layers(dag)
    fixed = set()
    for k, layer in enumerate(labeling.layers, start=1):
        prefix = induce_prefix(dag, labeling, k)
        matched = [matched_by(f, layer) for f in enumerate_max_families(prefix, layer)]
        fixed |= frozenset(layer).intersection(*matched)
    return frozenset(fixed)


class TestAdjacentLayerDomain:
    def test_three_way_agreement(self):
        rng = random.Random(2024)
        for _ in range(200):
            dag = random_dag(rng, skip_prob=0.0)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            layered = fixed_nodes_layered(dag).fixed_nodes
            assert layered == oracle == enumeration_fixed_set(dag)

    def test_single_leader_specialization(self):
        """With one leader, exactly the nodes alone in their layer are fixed."""
        rng = random.Random(2025)
        checked = 0
        while checked < 120:
            dag = random_dag(rng, max_leaders=1, skip_prob=0.0)
            singletons = singleton_layer_nodes(dag)
            assert fixed_nodes_layered(dag).fixed_nodes == singletons
            assert fixed_nodes_oracle(dag).fixed_nodes == singletons
            checked += 1


class TestAnyDagDomain:
    """Invariants that hold with or without layer-skipping edges."""

    def test_flow_equals_exhaustive_search(self):
        rng = random.Random(31337)
        for _ in range(150):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            flow_dim, witness = generic_dimension(dag)
            assert flow_dim == exhaustive_dimension(dag)
            assert len(witness.covered) == flow_dim
            assert not stem_family_violations(dag, witness)

    def test_essentiality_equals_matched_set_intersection(self):
        rng = random.Random(31338)
        for _ in range(80):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            labeling = label_layers(dag)
            for k, layer in enumerate(labeling.layers, start=1):
                prefix = induce_prefix(dag, labeling, k)
                matched = [matched_by(f, layer) for f in enumerate_max_families(prefix, layer)]
                coverage = LayerCoverage(prefix, layer)
                expected = frozenset(layer).intersection(*matched)
                assert coverage.essential == expected

    def test_unpruned_layered_equals_enumeration_intersection(self):
        rng = random.Random(31339)
        for _ in range(120):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            unpruned = frozenset().union(*unpruned_layer_fixed(dag))
            assert unpruned == enumeration_fixed_set(dag)
            assert fixed_nodes_layered(dag).fixed_nodes == in_every_max_family(dag, unpruned)

    def test_pruning_never_removes_oracle_fixed_nodes(self):
        rng = random.Random(31340)
        for _ in range(120):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            _, witness = generic_dimension(dag)
            assert not (dag.nodes - witness.covered) & fixed_nodes_oracle(dag).fixed_nodes

    def test_leaders_fixed_under_every_method(self):
        rng = random.Random(31341)
        for _ in range(80):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            assert dag.leaders <= fixed_nodes_oracle(dag).fixed_nodes
            assert dag.leaders <= fixed_nodes_layered(dag).fixed_nodes

    def test_generated_graphs_validate_and_round_trip(self):
        rng = random.Random(31342)
        for _ in range(120):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.4]))
            assert validate(dag) == ()
            assert graph_from_json(graph_to_json(dag)) == dag


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_prefix_layer_reports_are_prefix_stable(data):
    """Analyzing a prefix graph reproduces the first layers' results: the same
    targets and optima, and the same fixed sets up to the nodes some maximum
    family of each graph misses."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    dag = random_dag(random.Random(seed), skip_prob=0.3)
    labeling = label_layers(dag)
    result = fixed_nodes_layered(dag)
    k = data.draw(st.integers(min_value=1, max_value=labeling.depth))
    prefix = induce_prefix(dag, labeling, k)
    sub_result = fixed_nodes_layered(prefix)
    assert [(r.layer_index, r.targets, r.mu) for r in sub_result.per_layer] == [
        (r.layer_index, r.targets, r.mu) for r in result.per_layer[:k]
    ]
    unpruned = unpruned_layer_fixed(dag)
    assert unpruned_layer_fixed(prefix) == unpruned[:k]
    for graph, layered in ((dag, result), (prefix, sub_result)):
        assert [r.fixed for r in layered.per_layer] == [
            in_every_max_family(graph, fixed) for fixed in unpruned[: len(layered.per_layer)]
        ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_layered_is_deterministic(seed):
    dag = random_dag(random.Random(seed), skip_prob=0.2)
    assert fixed_nodes_layered(dag) == fixed_nodes_layered(dag)
    assert generic_dimension(dag) == generic_dimension(dag)
