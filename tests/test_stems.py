from __future__ import annotations

import collections
import gc
import random
import weakref
from collections.abc import Mapping
from pathlib import Path

import pytest

import fixednodes.stems
import goldens
from fixednodes import (
    GeneratorConfig,
    InvalidGraphError,
    StemFamily,
    StructuredDag,
    analyze,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    generic_dimension,
    graph_from_json,
    label_layers,
    random_layered_dag,
    spread_widths,
    stem_family_violations,
)
from fixednodes.stems import FlowNetwork, _dimension_flow
from randgraphs import random_dag
from references import (
    LayerCoverage,
    all_matched_targets,
    enumerate_max_families,
    exhaustive_dimension,
    heap_dijkstra,
    induce_prefix,
    residual_reaching_sink,
)

DATA = Path(__file__).parent / "data"
PINNED = ["single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6", "skip200"]


def shaped_dag(depth, width, leaders, skip_prob, seed):
    """A generated graph of the benchmark's n=1000 shapes (3000 edges)."""
    config = GeneratorConfig(
        depth=depth,
        widths=spread_widths(depth, width, leaders),
        leader_count=leaders,
        seed=seed,
        edge_count=3000,
        skip_layer_prob=skip_prob,
    )
    return random_layered_dag(config)


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
        """Each copy of the graph solves its own flow, to the same pair."""
        first = generic_dimension(golden.dag)
        copies = [golden.dag.with_leaders(golden.dag.leaders) for _ in range(3)]
        assert all(generic_dimension(dag) == first for dag in copies)

    def test_requires_leaders(self):
        with pytest.raises(InvalidGraphError):
            generic_dimension(StructuredDag.of(2, [(1, 2)], []))

    def test_rejects_cycles(self):
        with pytest.raises(InvalidGraphError):
            generic_dimension(StructuredDag.of(2, [(1, 2), (2, 1)], [1]))


class TestSolvedOncePerGraph:
    """The dimension flow is solved on first use, cached on its graph and
    read by every route; the network itself stays out of every result."""

    def test_every_call_returns_the_same_pair(self, pair13):
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        assert generic_dimension(dag) is generic_dimension(dag)

    def test_one_solve_per_graph(self, pair13, solves):
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        for _ in range(2):
            generic_dimension(dag)
            fixed_nodes_oracle(dag)
            fixed_nodes_layered(dag)
            analyze(dag, ("layered", "oracle"))
        assert len(solves) == 1
        # a graph with other leaders is a new graph, with a flow of its own
        probed = dag.with_leaders(dag.leaders | {3})
        assert generic_dimension(probed) is not generic_dimension(dag)
        assert len(solves) == 2

    def test_the_flow_is_freed_with_its_graph(self):
        dag = StructuredDag.of(3, [(1, 2), (2, 3)], [1])
        net = weakref.ref(_dimension_flow(dag))
        del dag
        gc.collect()
        assert net() is None

    @classmethod
    def reachable(cls, value, seen):
        """``value`` and everything its public attributes, mapping values and
        items reach."""
        if id(value) in seen:
            return
        seen.add(id(value))
        yield value
        if isinstance(value, Mapping):
            children = [*value.keys(), *value.values()]
        elif isinstance(value, (tuple, list, set, frozenset)):
            children = value
        elif hasattr(value, "__dict__"):
            children = [v for k, v in vars(value).items() if not k.startswith("_")]
        else:
            children = ()
        for child in children:
            yield from cls.reachable(child, seen)

    def test_no_public_value_reaches_the_network(self, pair13):
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        report = analyze(dag, trials=5)
        values = [report, generic_dimension(dag), fixed_nodes_oracle(dag), fixed_nodes_layered(dag)]
        found = list(self.reachable(values, set()))
        assert any(isinstance(v, StemFamily) for v in found)
        assert not any(isinstance(v, FlowNetwork) for v in found)


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


class TestEssentiality:
    def test_pair13_layer2_node5(self, pair13):
        prefix, targets = layer_problem(pair13, 2)
        coverage = LayerCoverage(prefix, targets)
        assert 5 in coverage.essential
        assert 3 not in coverage.essential

    def test_pair13_layer4_node10(self, pair13):
        prefix, targets = layer_problem(pair13, 4)
        assert 10 not in LayerCoverage(prefix, targets).essential

    def test_pair13_layer5_node12(self, pair13):
        prefix, targets = layer_problem(pair13, 5)
        assert 12 in LayerCoverage(prefix, targets).essential


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
        with pytest.raises(ValueError, match="node count <= 3, got 4"):
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
            assert flow_dim == exhaustive_dimension(dag)
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
                assert coverage.essential == intersection

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


class TestSolvedPotentials:
    """The reverse Dijkstra behind the one-solve oracle needs the potentials
    kept by the min-cost solve to leave every residual arc a nonnegative
    reduced cost."""

    @staticmethod
    def negative_reduced_costs(dag):
        net = _dimension_flow(dag)
        p = net._potential
        return [
            (u, net._head[arc])
            for u in range(net.size)
            for arc in net._adj[u]
            if net._cap[arc] > 0 and net._cost[arc] + p[u] - p[net._head[arc]] < 0
        ]

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_no_residual_arc_is_negative(self, skip_prob):
        rng = random.Random(0x9075 + int(skip_prob * 10))
        for _ in range(200):
            dag = random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob)
            assert not self.negative_reduced_costs(dag)
        for _ in range(4):
            depth, width = rng.randint(4, 10), rng.randint(10, 25)
            leaders = rng.randint(1, width)
            widths = spread_widths(depth, width, leaders)
            config = GeneratorConfig(
                depth=depth,
                widths=widths,
                leader_count=leaders,
                seed=rng.randrange(2**32),
                edge_count=rng.randint(sum(widths), 3 * sum(widths)),
                skip_layer_prob=skip_prob,
            )
            assert not self.negative_reduced_costs(random_layered_dag(config))


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
                    assert (v in coverage.essential) == (dropped < coverage.mu), (k, v)


class TestFlowKernels:
    """The bucket-queue Dijkstra, the seeded early-stopping reverse search and
    the layer-local matched read against the plain kernels in ``references``,
    on every call the oracle's solve and the layered sweep make."""

    @staticmethod
    def assert_kernels_match(dags, monkeypatch):
        dijkstra = FlowNetwork._dijkstra
        reaching = FlowNetwork.targets_reaching_sink
        open_layer = FlowNetwork.open_layer
        calls = {"forward": 0, "backward": 0, "reaching": 0}

        def checked_dijkstra(net, potential, start, backward=False):
            got = dijkstra(net, potential, start, backward)
            assert got == heap_dijkstra(net, potential, start, backward)
            calls["backward" if backward else "forward"] += 1
            return got

        def checked_reaching(net, targets):
            targets = frozenset(targets)
            got = reaching(net, targets)
            assert got == residual_reaching_sink(net, targets)
            calls["reaching"] += 1
            return got

        def checked_open_layer(net, k):
            open_layer(net, k)
            layer = net._layers[k - 1]
            matched = net.matched_targets(layer)
            assert matched == all_matched_targets(net)
            for targets in (layer, matched):
                assert net.targets_reaching_sink(targets) == residual_reaching_sink(net, targets)

        monkeypatch.setattr(FlowNetwork, "_dijkstra", checked_dijkstra)
        monkeypatch.setattr(FlowNetwork, "targets_reaching_sink", checked_reaching)
        monkeypatch.setattr(FlowNetwork, "open_layer", checked_open_layer)
        for dag in dags:
            fixed_nodes_oracle(dag)
            fixed_nodes_layered(dag)
        assert calls["forward"] >= len(dags) and calls["backward"] >= len(dags)
        assert calls["reaching"] >= 2 * len(dags)

    def test_pinned_graphs(self, monkeypatch):
        dags = [graph_from_json((DATA / f"{name}.graph.json").read_text()) for name in PINNED]
        self.assert_kernels_match(dags, monkeypatch)

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob, monkeypatch):
        rng = random.Random(0xD1A1 + int(skip_prob * 10))
        dags = [random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob) for _ in range(350)]
        self.assert_kernels_match(dags, monkeypatch)

    @pytest.mark.parametrize(
        "shape", [(100, 10, 4, 0.3), (20, 50, 25, 0.0)], ids=["deep", "wide"]
    )
    def test_thousand_node_shapes(self, shape, monkeypatch):
        dag = shaped_dag(*shape, seed=11)
        assert dag.node_count == 1000
        self.assert_kernels_match([dag], monkeypatch)

    def test_reverse_searches_stay_near_the_newest_layer(self, monkeypatch):
        """On a deep graph whose edges join adjacent layers, the sweep's reverse
        searches together read fewer adjacency lists than three passes over
        the network.  One whole-residual search per layer, as in
        ``references.residual_reaching_sink``, reads about depth * n."""
        dag = shaped_dag(100, 10, 4, 0.0, seed=11)
        reads = 0

        class CountingList(list):
            def __getitem__(self, index):
                nonlocal reads
                reads += 1
                return super().__getitem__(index)

        reaching = FlowNetwork.targets_reaching_sink

        def counted(net, targets):
            plain = net._adj
            net._adj = CountingList(plain)
            try:
                return reaching(net, targets)
            finally:
                net._adj = plain

        monkeypatch.setattr(FlowNetwork, "targets_reaching_sink", counted)
        fixed_nodes_layered(dag)
        assert 0 < reads < 3 * (2 * dag.node_count + 2)

    def test_saturated_source_skips_the_breadth_first_search(self, monkeypatch):
        """With every source arc saturated no augmenting path can exist, so
        ``max_flow`` returns before it builds its 2n+2 search list; on a deep
        graph with four leaders that is most of the sweep's layers.  Each
        search starts from a ``deque`` holding only the source."""
        dag = shaped_dag(100, 10, 4, 0.0, seed=11)
        searches = 0

        def counting_deque(items=()):
            nonlocal searches
            items = list(items)
            searches += items == [0]  # a breadth-first search from the source
            return collections.deque(items)

        max_flow = FlowNetwork.max_flow
        skipped = []

        def counted(net, last=None):
            saturated = not any(net._cap[arc] for arc in net._adj[net.source])
            before = searches
            value = max_flow(net, last)
            if saturated:
                assert searches == before and value == 0
                skipped.append(last)
            return value

        monkeypatch.setattr(fixednodes.stems, "deque", counting_deque)
        monkeypatch.setattr(FlowNetwork, "max_flow", counted)
        result = fixed_nodes_layered(dag)
        assert len(result.per_layer) == 100
        # 83 of the 100 layers skip; one search per layer would be 100 or more
        assert len(skipped) >= 80 and searches < 100


class TestReset:
    def test_reset_restores_the_network_as_built(self):
        """After a max flow, a layered sweep or a min-cost solve, ``reset``
        leaves the capacities of a freshly built network and no open sink."""
        rng = random.Random(0x2E5E)
        dags = [g.dag for g in goldens.GOLDENS]
        dags += [random_dag(rng, skip_prob=p) for p in (0.0, 0.3, 0.6) for _ in range(20)]
        for dag in dags:
            for min_cost in (False, True):
                fresh = FlowNetwork(dag)
                used = FlowNetwork(dag)
                used.open_sinks(dag.nodes)
                if min_cost:
                    used.solve_min_cost(len(dag.leaders))
                else:
                    used.max_flow()
                used.reset()
                assert used._cap == fresh._cap and not used._open
                for k in range(1, len(dag.source_layers) + 1):
                    used.open_layer(k)
                used.reset()
                assert used._cap == fresh._cap and not used._open
                for net in (used, fresh):
                    net.open_sinks(dag.sorted_nodes[-1:])
                assert used.max_flow() == fresh.max_flow()
