from __future__ import annotations

import random

import pytest

import goldens
from fixednodes import (
    InvalidGraphError,
    StemFamily,
    StructuredDag,
    attach_matched_sets,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    fixed_nodes_single_leader,
    generic_dimension,
    label_layers,
    prune_uncovered,
)
from randgraphs import random_dag


class TestOracle:
    def test_golden_fixed_sets(self, golden):
        result = fixed_nodes_oracle(golden.dag)
        assert result.fixed_nodes == golden.fixed
        assert result.generic_dim == golden.generic_dim
        assert result.method == "oracle"

    def test_probing_a_chain_fork_raises_the_dimension(self, single7):
        base, _ = generic_dimension(single7.dag)
        probed, _ = generic_dimension(single7.dag.with_leaders([1, 4]))
        assert (base, probed) == (5, 6)
        assert 4 not in fixed_nodes_oracle(single7.dag).fixed_nodes

    def test_single_leader_node_graph(self):
        dag = StructuredDag.of(1, [], [1])
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}

    def test_leaders_always_fixed(self, golden):
        assert golden.dag.leaders <= fixed_nodes_oracle(golden.dag).fixed_nodes


class TestSingleLeader:
    def test_seven_node_chain_fork(self, single7):
        result = fixed_nodes_single_leader(single7.dag)
        assert result.fixed_nodes == {1, 2, 7}
        assert result.generic_dim == 5
        singles = [r.layer_index for r in result.per_layer if r.fast_path == "singleton-layer"]
        assert singles == [1, 2, 5]

    def test_path_graph_is_entirely_fixed(self):
        q = 6
        dag = StructuredDag.of(q, [(i, i + 1) for i in range(1, q)], [1])
        result = fixed_nodes_single_leader(dag)
        assert result.fixed_nodes == frozenset(range(1, q + 1))
        assert result.generic_dim == q

    def test_star_fixes_only_the_leader(self):
        dag = StructuredDag.of(3, [(1, 2), (1, 3)], [1])
        assert fixed_nodes_single_leader(dag).fixed_nodes == {1}
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}

    def test_rejects_multiple_leaders(self, pair9):
        with pytest.raises(InvalidGraphError):
            fixed_nodes_single_leader(pair9.dag)


class TestPruning:
    def test_pair9_primary_witness_certifies_node6(self, pair9):
        witness = StemFamily(((1, 3, 5, 9), (2, 4, 7, 8)))
        assert prune_uncovered(pair9.dag, witness) == {6}

    def test_pair9_alternate_witness_certifies_node5(self, pair9):
        witness = StemFamily(((1, 3, 6), (2, 4, 7, 8, 9)))
        assert prune_uncovered(pair9.dag, witness) == {5}

    def test_full_coverage_prunes_nothing(self):
        dag = StructuredDag.of(3, [(1, 2), (2, 3)], [1])
        _, witness = generic_dimension(dag)
        assert prune_uncovered(dag, witness) == frozenset()

    def test_non_maximum_witness_rejected(self, pair9):
        with pytest.raises(InvalidGraphError, match="maximum"):
            prune_uncovered(pair9.dag, StemFamily(((1, 3, 5),)))

    def test_pruned_nodes_are_never_fixed(self):
        rng = random.Random(0xACED)
        for _ in range(60):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            _, witness = generic_dimension(dag)
            pruned = prune_uncovered(dag, witness)
            assert not pruned & fixed_nodes_oracle(dag).fixed_nodes


class TestLayered:
    def test_golden_fixed_sets(self, golden):
        result = fixed_nodes_layered(golden.dag)
        assert result.fixed_nodes == golden.fixed
        assert result.generic_dim == golden.generic_dim
        assert result.method == "layered"

    def test_per_layer_union_equals_total(self, golden):
        result = fixed_nodes_layered(golden.dag)
        union = frozenset().union(*(r.fixed for r in result.per_layer))
        assert union == result.fixed_nodes
        for report in result.per_layer:
            assert report.fixed <= report.targets

    def test_prune_flag_does_not_change_goldens(self, golden):
        assert (
            fixed_nodes_layered(golden.dag, prune=True).fixed_nodes
            == fixed_nodes_layered(golden.dag, prune=False).fixed_nodes
        )

    def test_pair13_layer_tags(self, pair13):
        result = fixed_nodes_layered(pair13.dag)
        tags = {r.layer_index: r.fast_path for r in result.per_layer}
        assert tags == {k: "essentiality" for k in range(1, 6)}
        mus = {r.layer_index: r.mu for r in result.per_layer}
        assert mus == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2}

    def test_singleton_layers_tagged(self, single7):
        result = fixed_nodes_layered(single7.dag)
        tags = {r.layer_index: r.fast_path for r in result.per_layer}
        assert tags[1] == tags[2] == tags[5] == "singleton-layer"


def layers_with_one_matched_set(dag: StructuredDag) -> frozenset[int]:
    enriched = attach_matched_sets(dag, fixed_nodes_layered(dag))
    return frozenset(r.layer_index for r in enriched.per_layer if len(r.matched_sets) == 1)


class TestUniqueMatchedSetLayers:
    def test_golden_unique_layers(self, golden):
        if golden.unique_matched_layers:
            assert layers_with_one_matched_set(golden.dag) == golden.unique_matched_layers

    def test_path_graph_all_layers_unique(self):
        dag = StructuredDag.of(5, [(i, i + 1) for i in range(1, 5)], [1])
        assert layers_with_one_matched_set(dag) == frozenset({1, 2, 3, 4, 5})


class TestMatchedSetEnrichment:
    def test_pair13_attaches_golden_sets(self, pair13):
        enriched = attach_matched_sets(pair13.dag, fixed_nodes_layered(pair13.dag))
        by_layer = {r.layer_index: r for r in enriched.per_layer}
        for k, expected in pair13.matched_sets.items():
            assert set(by_layer[k].matched_sets) == expected
        assert by_layer[5].fast_path == "unique-matched-set"
        assert by_layer[4].fast_path == "essentiality"
        assert enriched.fixed_nodes == pair13.fixed

    def test_only_layered_results_accepted(self, pair13):
        with pytest.raises(InvalidGraphError):
            attach_matched_sets(pair13.dag, fixed_nodes_oracle(pair13.dag))


class TestMethodAgreement:
    """On adjacent-layer graphs every route returns the oracle's answer."""

    def test_layered_equals_oracle_on_adjacent_layer_graphs(self):
        rng = random.Random(0x5EED)
        for _ in range(150):
            dag = random_dag(rng, skip_prob=0.0)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert fixed_nodes_layered(dag).fixed_nodes == oracle
            assert fixed_nodes_layered(dag, prune=False).fixed_nodes == oracle
            if len(dag.leaders) == 1:
                assert fixed_nodes_single_leader(dag).fixed_nodes == oracle
