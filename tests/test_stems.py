from __future__ import annotations

import random

import pytest

import goldens
from fixednodes import (
    BudgetExceededError,
    GeneratorConfig,
    InvalidGraphError,
    LayerCoverage,
    StemFamily,
    StructuredDag,
    enumerate_max_families,
    exhaustive_generic_dimension,
    generic_dimension,
    induce_prefix,
    label_layers,
    random_layered_dag,
    spread_widths,
    stem_family_violations,
)
from randgraphs import random_dag


def layer_problem(golden: goldens.Golden, k: int):
    labeling = label_layers(golden.dag)
    prefix = induce_prefix(golden.dag, labeling, k)
    return prefix, labeling.layers[k - 1]


class TestGenericDimension:
    def test_golden_dimensions(self, golden):
        dim, witness = generic_dimension(golden.dag)
        assert dim == golden.generic_dim
        assert len(witness.covered) == dim
        assert not stem_family_violations(golden.dag, witness)
        # the dimension flow saturates every leader, one stem each
        assert len(witness.stems) == len(golden.dag.leaders)

    def test_single7_witness_is_the_longest_chain(self, single7):
        _, witness = generic_dimension(single7.dag)
        assert witness.stems == ((1, 2, 4, 5, 7),)

    def test_single7_with_second_leader_gains_one(self, single7):
        dag = single7.dag.with_leaders([1, 4])
        dim, witness = generic_dimension(dag)
        assert dim == 6
        assert witness.stems == ((1, 2, 3), (4, 5, 7))

    def test_pair9_witness_covers_eight(self, pair9):
        dim, witness = generic_dimension(pair9.dag)
        assert dim == 8
        assert witness.covered in (
            frozenset({1, 2, 3, 4, 5, 7, 8, 9}),
            frozenset({1, 2, 3, 4, 6, 7, 8, 9}),
        )

    def test_single_node_graph(self):
        dag = StructuredDag.of(1, [], [1])
        assert generic_dimension(dag) == (1, StemFamily(((1,),)))

    def test_deterministic_witness(self, golden):
        first = generic_dimension(golden.dag)
        assert all(generic_dimension(golden.dag) == first for _ in range(3))

    def test_requires_leaders(self):
        with pytest.raises(InvalidGraphError):
            generic_dimension(StructuredDag.of(2, [(1, 2)], []))

    def test_rejects_cycles(self):
        with pytest.raises(InvalidGraphError):
            generic_dimension(StructuredDag.of(2, [(1, 2), (2, 1)], [1]))


class TestMaxLayerCoverage:
    def test_pair13_layer2(self, pair13):
        prefix, targets = layer_problem(pair13, 2)
        coverage = LayerCoverage(prefix, targets)
        assert coverage.mu == 2
        assert coverage.witness.matched(targets) in ({3, 5}, {4, 5})
        assert not stem_family_violations(prefix, coverage.witness)

    def test_pair13_layer5(self, pair13):
        prefix, targets = layer_problem(pair13, 5)
        assert LayerCoverage(prefix, targets).mu == 2

    def test_leaders_match_themselves(self, golden):
        prefix, targets = layer_problem(golden, 1)
        coverage = LayerCoverage(prefix, targets)
        assert coverage.mu == len(golden.dag.leaders)
        assert coverage.witness.matched(targets) == golden.dag.leaders

    def test_rejects_non_sink_targets(self, pair13):
        with pytest.raises(InvalidGraphError, match="sinks"):
            LayerCoverage(pair13.dag, {3, 4, 5})

    def test_rejects_unknown_targets(self, pair13):
        prefix, _ = layer_problem(pair13, 2)
        with pytest.raises(InvalidGraphError):
            LayerCoverage(prefix, {99})


class TestEssentiality:
    def test_pair13_layer2_node5(self, pair13):
        prefix, targets = layer_problem(pair13, 2)
        coverage = LayerCoverage(prefix, targets)
        assert coverage.essential(5)
        assert not coverage.essential(3)

    def test_pair13_layer4_node10(self, pair13):
        prefix, targets = layer_problem(pair13, 4)
        assert not LayerCoverage(prefix, targets).essential(10)

    def test_pair13_layer5_node12(self, pair13):
        prefix, targets = layer_problem(pair13, 5)
        assert LayerCoverage(prefix, targets).essential(12)

    def test_rejects_non_target(self, pair13):
        prefix, targets = layer_problem(pair13, 2)
        with pytest.raises(InvalidGraphError):
            LayerCoverage(prefix, targets).essential(1)

    def test_probe_leaves_solved_layer_intact(self, pair13):
        prefix, targets = layer_problem(pair13, 4)
        coverage = LayerCoverage(prefix, targets)
        before = (coverage.mu, coverage.witness, coverage.matched)
        probes = [coverage.essential(v) for v in sorted(targets)]
        assert probes == [coverage.essential(v) for v in sorted(targets)]
        assert (coverage.mu, coverage.witness, coverage.matched) == before


class TestEnumeration:
    def test_pair13_layer4_families(self, pair13):
        prefix, targets = layer_problem(pair13, 4)
        families = enumerate_max_families(prefix, targets)
        assert {fam.matched(targets) for fam in families} == pair13.matched_sets[4]
        assert len(families) == 3

    def test_pair9_layer3_families(self, pair9):
        prefix, targets = layer_problem(pair9, 3)
        families = enumerate_max_families(prefix, targets)
        assert {fam.matched(targets) for fam in families} == pair9.matched_sets[3]

    def test_single_path_has_unique_family(self):
        dag = StructuredDag.of(4, [(1, 2), (2, 3), (3, 4)], [1])
        families = enumerate_max_families(dag, {4})
        assert len(families) == 1
        assert families[0].stems == ((1, 2, 3, 4),)

    def test_budget_guard(self):
        dag = StructuredDag.of(4, [(1, 2), (2, 3), (3, 4)], [1])
        with pytest.raises(BudgetExceededError):
            enumerate_max_families(dag, {4}, cap=3)

    def test_family_invariants_hold(self, golden):
        labeling = label_layers(golden.dag)
        for k in range(1, labeling.depth + 1):
            prefix = induce_prefix(golden.dag, labeling, k)
            for fam in enumerate_max_families(prefix, labeling.layers[k - 1]):
                assert not stem_family_violations(prefix, fam)


class TestAgainstExhaustiveSearch:
    """Flow results must equal brute force on a seeded random population."""

    def test_generic_dimension_matches(self):
        rng = random.Random(0xD1CE)
        for _ in range(120):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            flow_dim, witness = generic_dimension(dag)
            exhaustive_dim, _ = exhaustive_generic_dimension(dag)
            assert flow_dim == exhaustive_dim
            assert len(witness.covered) == flow_dim
            assert len(witness.stems) == len(dag.leaders)
            assert not stem_family_violations(dag, witness)

    def test_layer_coverage_and_essentiality_match(self):
        rng = random.Random(0xBEEF)
        for _ in range(80):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            labeling = label_layers(dag)
            for k, layer in enumerate(labeling.layers, start=1):
                prefix = induce_prefix(dag, labeling, k)
                families = enumerate_max_families(prefix, layer)
                matched_sets = [fam.matched(layer) for fam in families]
                coverage = LayerCoverage(prefix, layer)
                assert coverage.mu == max(len(s) for s in matched_sets)
                intersection = frozenset(layer).intersection(*matched_sets)
                essential = frozenset(v for v in layer if coverage.essential(v))
                assert essential == intersection

    def test_adding_a_leader_never_decreases_dimension(self):
        rng = random.Random(0xFACE)
        for _ in range(60):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            base, _ = generic_dimension(dag)
            extra = rng.choice(sorted(dag.nodes))
            grown, _ = generic_dimension(dag.with_leaders(dag.leaders | {extra}))
            assert base <= grown <= dag.node_count

    def test_mu_bounded_by_leaders_and_targets(self):
        rng = random.Random(0xCAFE)
        for _ in range(60):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            labeling = label_layers(dag)
            for k, layer in enumerate(labeling.layers, start=1):
                prefix = induce_prefix(dag, labeling, k)
                mu = LayerCoverage(prefix, layer).mu
                assert 1 <= mu <= min(len(dag.leaders), len(layer))


class TestEssentialityBeyondEnumeration:
    """The residual criterion against its definition on graphs too large to
    enumerate: dropping an essential target lowers the optimum, dropping any
    other target keeps it."""

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3])
    def test_essential_iff_dropping_lowers_mu(self, skip_prob):
        rng = random.Random(0x5EA1 + int(skip_prob * 10))
        for _ in range(6):
            depth = rng.randint(4, 8)
            width = rng.randint(15, 25)
            leaders = rng.randint(2, 6)
            widths = spread_widths(depth, width, leaders)
            n = sum(widths)
            config = GeneratorConfig(
                depth=depth,
                widths=widths,
                leader_count=leaders,
                seed=rng.randrange(2**32),
                edge_count=rng.randint(n, 2 * n),
                skip_layer_prob=skip_prob,
            )
            dag = random_layered_dag(config)
            assert 60 <= dag.node_count <= 200
            labeling = label_layers(dag)
            for k, layer in enumerate(labeling.layers, start=1):
                prefix = induce_prefix(dag, labeling, k)
                coverage = LayerCoverage(prefix, layer)
                for v in sorted(layer):
                    dropped = LayerCoverage(prefix, layer - {v}).mu
                    assert coverage.essential(v) == (dropped < coverage.mu), (k, v)
