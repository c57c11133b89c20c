from __future__ import annotations

import random
from pathlib import Path

import pytest

import goldens
import fixednodes.graph
import fixednodes.search
import fixednodes.stems
from fixednodes import (
    FixedNodeResult,
    GeneratorConfig,
    InvalidGraphError,
    StemFamily,
    StructuredDag,
    analyze,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    generic_dimension,
    graph_from_json,
    random_layered_dag,
    spread_widths,
    stem_family_violations,
)
from randgraphs import random_dag
from references import (
    enumerated_matched_sets,
    layer_coverages,
    resolving_oracle,
    singleton_layer_nodes,
    unpruned_layer_fixed,
)

DATA = Path(__file__).parent / "data"


class TestOracle:
    def test_golden_fixed_sets(self, golden):
        assert fixed_nodes_oracle(golden.dag) == FixedNodeResult(golden.fixed, ())
        assert generic_dimension(golden.dag)[0] == golden.generic_dim

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

    def test_reads_the_flow_the_graph_keeps(self, pair13, monkeypatch):
        """Once the graph's dimension flow is solved, the oracle builds no
        network and solves nothing."""
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        generic_dimension(dag)

        def refused(*args, **kwargs):
            raise AssertionError("the oracle solved the dimension flow again")

        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "__init__", refused)
        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "solve_min_cost", refused)
        assert fixed_nodes_oracle(dag) == FixedNodeResult(pair13.fixed, ())

    def test_reads_only_the_flow(self, pair13, monkeypatch):
        """The oracle takes the cached flow and never asks for the dimension."""

        def refused(*args, **kwargs):
            raise AssertionError("the oracle asked for the generic dimension")

        monkeypatch.setattr(fixednodes.search, "generic_dimension", refused)
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        assert fixed_nodes_oracle(dag).fixed_nodes == pair13.fixed


class TestOracleAgainstResolving:
    """The one-solve oracle against the literal definition, which re-solves
    the generic dimension once per promoted node."""

    @staticmethod
    def assert_matches(dag):
        assert fixed_nodes_oracle(dag) == resolving_oracle(dag)

    @pytest.mark.parametrize(
        "name", ["single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6", "skip200"]
    )
    def test_pinned_graphs(self, name):
        self.assert_matches(graph_from_json((DATA / f"{name}.graph.json").read_text()))

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob):
        rng = random.Random(0x0AC1E + int(skip_prob * 10))
        for _ in range(350):
            self.assert_matches(random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob))

    def test_nonsource_leaders(self):
        rng = random.Random(0x1EAD)
        checked = 0
        while checked < 250:
            dag = random_dag(rng, max_nodes=16, max_leaders=3, skip_prob=rng.choice([0.0, 0.3]))
            inner = sorted(dag.nodes - dag.leaders)
            if len(inner) < 2:
                continue
            extra = rng.sample(inner, rng.randint(1, 2))
            self.assert_matches(dag.with_leaders(dag.leaders | set(extra)))
            checked += 1


class TestSingleLeader:
    """With one leader both routes fix exactly the singleton layers' nodes,
    and the dimension is the depth: a longest stem takes one node per layer."""

    def test_seven_node_chain_fork(self, single7):
        result = fixed_nodes_layered(single7.dag)
        assert result.fixed_nodes == singleton_layer_nodes(single7.dag) == {1, 2, 7}
        assert fixed_nodes_oracle(single7.dag).fixed_nodes == {1, 2, 7}
        assert generic_dimension(single7.dag)[0] == 5
        singles = [r.layer_index for r in result.per_layer if r.fast_path == "singleton-layer"]
        assert singles == [1, 2, 5]

    def test_path_graph_is_entirely_fixed(self):
        q = 6
        dag = StructuredDag.of(q, [(i, i + 1) for i in range(1, q)], [1])
        for result in (fixed_nodes_layered(dag), fixed_nodes_oracle(dag)):
            assert result.fixed_nodes == frozenset(range(1, q + 1))
        assert generic_dimension(dag)[0] == q

    def test_star_fixes_only_the_leader(self):
        dag = StructuredDag.of(3, [(1, 2), (1, 3)], [1])
        assert fixed_nodes_layered(dag).fixed_nodes == {1}
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}


class TestPruning:
    """Nodes a maximum family leaves uncovered are certified non-fixed."""

    @staticmethod
    def uncovered(dag, witness):
        assert not stem_family_violations(dag, witness)
        assert len(witness.covered) == generic_dimension(dag)[0]
        return dag.nodes - witness.covered

    def test_pair9_primary_witness_certifies_node6(self, pair9):
        witness = StemFamily(((1, 3, 5, 9), (2, 4, 7, 8)))
        assert self.uncovered(pair9.dag, witness) == {6}
        assert 6 not in fixed_nodes_oracle(pair9.dag).fixed_nodes

    def test_pair9_alternate_witness_certifies_node5(self, pair9):
        witness = StemFamily(((1, 3, 6), (2, 4, 7, 8, 9)))
        assert self.uncovered(pair9.dag, witness) == {5}
        assert 5 not in fixed_nodes_oracle(pair9.dag).fixed_nodes

    def test_full_coverage_prunes_nothing(self):
        dag = StructuredDag.of(3, [(1, 2), (2, 3)], [1])
        _, witness = generic_dimension(dag)
        assert self.uncovered(dag, witness) == frozenset()

    def test_pruned_nodes_are_never_fixed(self):
        rng = random.Random(0xACED)
        for _ in range(60):
            dag = random_dag(rng, skip_prob=rng.choice([0.0, 0.3]))
            _, witness = generic_dimension(dag)
            pruned = self.uncovered(dag, witness)
            assert not pruned & fixed_nodes_oracle(dag).fixed_nodes
            assert not pruned & fixed_nodes_layered(dag).fixed_nodes


class TestLayered:
    def test_golden_fixed_sets(self, golden):
        result = fixed_nodes_layered(golden.dag)
        assert result.fixed_nodes == golden.fixed
        assert generic_dimension(golden.dag)[0] == golden.generic_dim

    def test_per_layer_union_equals_total(self, golden):
        result = fixed_nodes_layered(golden.dag)
        union = frozenset().union(*(r.fixed for r in result.per_layer))
        assert union == result.fixed_nodes
        for report in result.per_layer:
            assert report.fixed <= report.targets

    def test_pruning_does_not_change_goldens(self, golden):
        unpruned = frozenset().union(*unpruned_layer_fixed(golden.dag))
        assert fixed_nodes_layered(golden.dag).fixed_nodes == unpruned

    def test_pair13_layer_tags(self, pair13):
        """Layers 1 and 5 have one maximum matched set each, the others
        several."""
        result = fixed_nodes_layered(pair13.dag)
        tags = {r.layer_index: r.fast_path for r in result.per_layer}
        assert tags == {
            1: "unique-matched-set",
            **{k: "essentiality" for k in range(2, 5)},
            5: "unique-matched-set",
        }
        mus = {r.layer_index: r.mu for r in result.per_layer}
        assert mus == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2}

    def test_singleton_layers_tagged(self, single7):
        result = fixed_nodes_layered(single7.dag)
        tags = {r.layer_index: r.fast_path for r in result.per_layer}
        assert tags[1] == tags[2] == tags[5] == "singleton-layer"

    def test_layer_with_no_candidate_tagged_none(self):
        """Node 2 is a source but no leader, so the witness covers only node 1
        and prunes all of layer 2 = {3, 4}.  The graph fails validation
        (``unreachable``), but its ids are in range and the route runs."""
        result = fixed_nodes_layered(StructuredDag.of(4, [(2, 3), (2, 4)], [1]))
        tags = {r.layer_index: r.fast_path for r in result.per_layer}
        assert tags[2] == fixednodes.search.FAST_PATH_NONE == "none"
        assert result.per_layer[1].fixed == frozenset()
        assert sorted(result.fixed_nodes) == [1]

    def test_nonsource_leader_refused_before_any_flow(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow network was built")

        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "__init__", no_flow)
        dag = StructuredDag.of(3, [(1, 2), (2, 3)], [1, 3])
        with pytest.raises(InvalidGraphError, match="layered analysis requires source leaders"):
            fixed_nodes_layered(dag)


class TestLayeredSweep:
    """The one-network sweep against the per-prefix reference, which solves
    every layer from zero on its own prefix graph."""

    @staticmethod
    def assert_matches(dag):
        result = fixed_nodes_layered(dag)
        pruned = dag.nodes - generic_dimension(dag)[1].covered
        coverages = layer_coverages(dag)
        unpruned = unpruned_layer_fixed(dag)
        assert len(result.per_layer) == len(coverages) == len(unpruned)
        for report, coverage, fixed in zip(result.per_layer, coverages, unpruned):
            k = report.layer_index
            assert report.targets == coverage.targets, k
            assert report.mu == coverage.mu, k
            assert report.fixed == fixed - pruned, k

    @pytest.mark.parametrize(
        "name", ["single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6", "skip200"]
    )
    def test_pinned_graphs(self, name):
        self.assert_matches(graph_from_json((DATA / f"{name}.graph.json").read_text()))

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob):
        rng = random.Random(0x5EE9 + int(skip_prob * 10))
        for _ in range(350):
            self.assert_matches(random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob))

    @pytest.mark.parametrize("shape", ["deep", "wide"])
    def test_generated_graphs(self, shape):
        rng = random.Random(f"sweep/{shape}")
        for i in range(6):
            depth = rng.randint(12, 20) if shape == "deep" else rng.randint(4, 6)
            width = rng.randint(5, 25) if shape == "deep" else rng.randint(15, 80)
            leaders = rng.randint(2, min(10, width))
            widths = spread_widths(depth, width, leaders)
            n = sum(widths)
            config = GeneratorConfig(
                depth=depth,
                widths=widths,
                leader_count=leaders,
                seed=rng.randrange(2**32),
                edge_count=rng.randint(n, 3 * n),
                skip_layer_prob=(0.0, 0.3, 0.6)[i % 3],
            )
            dag = random_layered_dag(config)
            assert 60 <= dag.node_count <= 500
            self.assert_matches(dag)

    def test_analyze_shares_its_labeling_and_flow(self, monkeypatch, solves):
        """Counted on fresh graphs, whose caches are empty: ``analyze`` builds
        one network for the graph's dimension flow and one per layer sweep,
        solves once, and the oracle reads that solved flow.  Validation,
        labeling, dimension flow and sweep share the graph's one source peel."""
        text = (DATA / "skip200.graph.json").read_text()
        expected = fixed_nodes_layered(graph_from_json(text))
        oracle = fixed_nodes_oracle(graph_from_json(text))
        solves.clear()
        built, peeled = [], []
        original_init = fixednodes.stems.FlowNetwork.__init__
        original_peel = fixednodes.graph._peel_layers

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        def counting_peel(graph):
            peeled.append(graph)
            return original_peel(graph)

        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "__init__", counting_init)
        monkeypatch.setattr(fixednodes.graph, "_peel_layers", counting_peel)
        dag = graph_from_json(text)
        report = analyze(dag, ("layered",))
        assert (len(built), len(solves)) == (2, 1)
        assert report.methods["layered"] == expected
        # every method: one more sweep; the oracle reads the flow solved above
        report = analyze(dag)
        assert (len(built), len(solves)) == (3, 1)
        assert report.methods["layered"] == expected
        assert report.methods["oracle"] == oracle
        fresh = StructuredDag.of(dag.node_count, dag.edges, dag.leaders)
        report = analyze(fresh, ("oracle", "layered"))
        assert (report.methods["layered"], report.methods["oracle"]) == (expected, oracle)
        assert (len(built), len(solves)) == (5, 2)
        assert len(peeled) == 2 and peeled[0] is dag and peeled[1] is fresh

    def test_routes_after_analyze_solve_nothing(self, pair13, monkeypatch):
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        report = analyze(dag, ("layered", "oracle"))

        def refused(*args, **kwargs):
            raise AssertionError("a route solved the dimension flow again")

        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "solve_min_cost", refused)
        assert fixed_nodes_oracle(dag) == report.methods["oracle"]
        assert fixed_nodes_layered(dag) == report.methods["layered"]


def layers_with_one_matched_set(dag: StructuredDag) -> frozenset[int]:
    result = fixed_nodes_layered(dag)
    return frozenset(r.layer_index for r in result.per_layer if len(r.matched_sets) == 1)


class TestUniqueMatchedSetLayers:
    def test_golden_unique_layers(self, golden):
        if golden.unique_matched_layers:
            assert layers_with_one_matched_set(golden.dag) == golden.unique_matched_layers

    def test_path_graph_all_layers_unique(self):
        dag = StructuredDag.of(5, [(i, i + 1) for i in range(1, 5)], [1])
        assert layers_with_one_matched_set(dag) == frozenset({1, 2, 3, 4, 5})


class TestMatchedSetEnrichment:
    def test_pair13_attaches_golden_sets(self, pair13):
        result = fixed_nodes_layered(pair13.dag)
        by_layer = {r.layer_index: r for r in result.per_layer}
        for k, expected in pair13.matched_sets.items():
            assert set(by_layer[k].matched_sets) == expected
        assert by_layer[5].fast_path == "unique-matched-set"
        assert by_layer[4].fast_path == "essentiality"
        assert result.fixed_nodes == pair13.fixed

    def test_budget_refused_before_any_network(self, monkeypatch):
        """Up to 15 nodes the sweep builds one listing network next to its
        own; from 16 nodes on it builds none and lists no sets."""
        built = []
        init = fixednodes.stems.FlowNetwork.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        for n, listed in ((15, True), (16, False)):
            dag = StructuredDag.of(n, [(i, i + 1) for i in range(1, n)], [1])
            generic_dimension(dag)  # the dimension flow's network, built before counting
            with monkeypatch.context() as patch:
                patch.setattr(fixednodes.stems.FlowNetwork, "__init__", counting_init)
                result = fixed_nodes_layered(dag)
            assert len(built) == (2 if listed else 1)
            assert all((r.matched_sets is not None) == listed for r in result.per_layer)
            built.clear()


class TestMatchedSetsAgainstEnumeration:
    """Matched sets tested one max flow per candidate set, against the
    enumerator in ``references``, which lists every product of leader-rooted
    paths on each layer's prefix graph."""

    @staticmethod
    def assert_matches(dag):
        result = fixed_nodes_layered(dag)
        by_flow = result.per_layer
        by_enumeration = enumerated_matched_sets(dag, result).per_layer
        assert [(r.layer_index, r.matched_sets, r.fast_path) for r in by_flow] == [
            (r.layer_index, r.matched_sets, r.fast_path) for r in by_enumeration
        ]

    @pytest.mark.parametrize("name", ["single7", "pair9", "pair10", "pair13", "skip4", "skip7"])
    def test_pinned_graphs(self, name):
        """The pinned graphs of at most 15 nodes: the goldens, SKIP4 and SKIP7."""
        self.assert_matches(graph_from_json((DATA / f"{name}.graph.json").read_text()))

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob):
        rng = random.Random(0x3A7C + int(skip_prob * 10))
        for _ in range(400):
            self.assert_matches(random_dag(rng, max_nodes=15, max_leaders=6, skip_prob=skip_prob))

    @pytest.mark.parametrize("skip_prob", [0.0, 0.5])
    def test_dense_dags(self, skip_prob):
        """Edge probabilities up to 0.8 and up to 6 leaders, where leaders
        root many paths and many candidate sets fail."""
        rng = random.Random(0xDE45 + int(skip_prob * 10))
        for _ in range(100):
            leaders = rng.randint(2, 6)
            widths = [leaders] + [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            while sum(widths) > 13:
                widths.pop()
            config = GeneratorConfig(
                depth=len(widths),
                widths=tuple(widths),
                leader_count=leaders,
                seed=rng.randrange(2**32),
                edge_prob=rng.uniform(0.3, 0.8),
                skip_layer_prob=skip_prob,
            )
            self.assert_matches(random_layered_dag(config))


class TestMethodAgreement:
    """On adjacent-layer graphs every route returns the oracle's answer."""

    def test_layered_equals_oracle_on_adjacent_layer_graphs(self):
        rng = random.Random(0x5EED)
        for _ in range(150):
            dag = random_dag(rng, skip_prob=0.0)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert fixed_nodes_layered(dag).fixed_nodes == oracle
            assert frozenset().union(*unpruned_layer_fixed(dag)) == oracle
            if len(dag.leaders) == 1:
                assert singleton_layer_nodes(dag) == oracle
