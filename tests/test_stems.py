from __future__ import annotations

import collections
import copy
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
from fixednodes.stems import FlowNetwork, _build_arcs, _dimension_flow
from randgraphs import all_n200_graphs, layered_n1000_graphs, random_dag, redrawn_leaders, shaped_dag
from references import (
    LayerCoverage,
    all_matched_targets,
    arcs_one_at_a_time,
    enumerate_max_families,
    exhaustive_dimension,
    heap_dijkstra,
    in_every_max_family,
    induce_prefix,
    layer_coverages,
    matched_by,
    residual_reaching_sink,
    ssp_flow,
    ssp_solve_min_cost,
)

DATA = Path(__file__).parent / "data"
PINNED = ["single7", "pair9", "pair10", "pair13", "skip4", "skip7", "crit6", "skip200"]


class CountingList(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


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


class TestStemFamilyViolations:
    """Each problem the witness check reports, on two leaders 1 and 2 over
    the edges 1 -> 3 -> 4, 2 -> 4 and 2 -> 5.  A stem that shares a leader
    also shares a node, and a stem past the leader count repeats a leader
    or starts elsewhere, so those two problems come with a second one."""

    DAG = StructuredDag.of(5, [(1, 3), (3, 4), (2, 4), (2, 5)], [1, 2])

    @pytest.mark.parametrize(
        "stems, problems",
        [
            (((1, 3), ()), ["empty stem"]),
            (((3, 4),), ["stem [3, 4] does not start at a leader"]),
            (((1, 4),), ["stem [1, 4] uses missing edge (1, 4)"]),
            (((1, 3), (1,)), ["two stems share a leader", "stems are not vertex-disjoint"]),
            (((1,), (2,), (5,)), ["stem [5] does not start at a leader", "more stems than leaders"]),
            (((1, 3, 4), (2, 4)), ["stems are not vertex-disjoint"]),
        ],
        ids=["empty", "non-leader-start", "missing-edge", "shared-leader", "too-many", "overlap"],
    )
    def test_reports_each_problem(self, stems, problems):
        assert stem_family_violations(self.DAG, StemFamily(stems)) == problems

    def test_solved_witness_has_none(self):
        dim, witness = generic_dimension(self.DAG)
        assert (dim, witness.stems) == (5, ((1, 3, 4), (2, 5)))
        assert stem_family_violations(self.DAG, witness) == []


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
        assert matched_by(coverage.witness, targets) in ({3, 5}, {4, 5})
        assert not stem_family_violations(prefix, coverage.witness)

    def test_pair13_layer5(self, pair13):
        prefix, targets = layer_problem(pair13, 5)
        assert LayerCoverage(prefix, targets).mu == 2

    def test_leaders_match_themselves(self, golden):
        prefix, targets = layer_problem(golden, 1)
        coverage = LayerCoverage(prefix, targets)
        assert coverage.mu == len(golden.dag.leaders)
        assert matched_by(coverage.witness, targets) == golden.dag.leaders

    @pytest.mark.parametrize("name", ["skip200", "wide"])
    def test_the_reference_builds_no_flow_network(self, name, monkeypatch):
        """The reference solves each layer on its own dict-keyed network, so
        the sweep is checked against code it does not share."""
        if name == "wide":
            dag = shaped_dag(20, 50, 25, 0.3, seed=11)
        else:
            dag = graph_from_json((DATA / f"{name}.graph.json").read_text())

        def refused(*args, **kwargs):
            raise AssertionError("the reference built a flow network")

        monkeypatch.setattr(FlowNetwork, "__init__", refused)
        coverages = layer_coverages(dag)
        assert len(coverages) == label_layers(dag).depth
        for coverage in coverages:
            assert coverage.mu == len(coverage.matched) == len(coverage.witness.stems) >= 1
            assert coverage.essential <= coverage.matched
            assert matched_by(coverage.witness, coverage.targets) == coverage.matched


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
        assert {matched_by(fam, targets) for fam in families} == pair13.matched_sets[4]
        assert len(families) == 3

    def test_pair9_layer3_families(self, pair9):
        prefix, targets = layer_problem(pair9, 3)
        families = enumerate_max_families(prefix, targets)
        assert {matched_by(fam, targets) for fam in families} == pair9.matched_sets[3]

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
                matched_sets = [matched_by(fam, layer) for fam in families]
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
    """The bucket passes of the primal-dual phases from the source and of the
    oracle from the sink on the mirrored residual, the seeded early-stopping
    reverse search and the layer-local matched read against the plain
    kernels in ``references``, on every call the dimension solve, the oracle
    and the layered sweep make."""

    @staticmethod
    def assert_kernels_match(dags, monkeypatch):
        bucket_pass = FlowNetwork._bucket_pass
        reaching = FlowNetwork.targets_reaching_sink
        open_layer = FlowNetwork.open_layer
        calls = {"backward": 0, "reaching": 0}

        def checked_bucket_pass(net, potential, start, cap, cost):
            dist = bucket_pass(net, potential, start, cap, cost)
            if start == net.sink:  # the oracle's pass; a forward one starts at the source
                assert dist == heap_dijkstra(net, net._potential, net.sink, backward=True)[0]
                calls["backward"] += 1
            else:  # a primal-dual phase ends only when no tight path is left
                assert start == net.source
                assert dist == heap_dijkstra(net, potential, net.source)[0]
                assert dist[net.sink] > 0
            return dist

        def checked_reaching(net, targets, layer):
            targets = frozenset(targets)
            got = reaching(net, targets, layer)
            assert got == residual_reaching_sink(net, targets)
            calls["reaching"] += 1
            return got

        def checked_open_layer(net, k):
            open_layer(net, k)
            layer = net._ext_of_pos[net._bound[k - 1] // 2 : net._bound[k] // 2]
            matched = net.matched_targets(layer)
            assert matched == all_matched_targets(net)
            for targets in (layer, matched):
                got = net.targets_reaching_sink(targets, layer)
                assert got == residual_reaching_sink(net, targets)

        monkeypatch.setattr(FlowNetwork, "_bucket_pass", checked_bucket_pass)
        monkeypatch.setattr(FlowNetwork, "targets_reaching_sink", checked_reaching)
        monkeypatch.setattr(FlowNetwork, "open_layer", checked_open_layer)
        for dag in dags:
            fixed_nodes_oracle(dag)
            fixed_nodes_layered(dag)
        assert calls["backward"] >= len(dags) and calls["reaching"] >= 2 * len(dags)

    def test_pinned_graphs(self, monkeypatch):
        dags = [graph_from_json((DATA / f"{name}.graph.json").read_text()) for name in PINNED]
        self.assert_kernels_match(dags, monkeypatch)

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob, monkeypatch):
        """350 small graphs at each skip; at skip 0.6, 100 more, and the
        200-node graphs of the benchmark's shape at seeds 1 and 2, skip 0
        and 0.3."""
        rng = random.Random(0xD1A1 + int(skip_prob * 10))
        dags = [random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob) for _ in range(350)]
        if skip_prob == 0.6:
            rng = random.Random(0x2E20)
            dags += [shaped_dag(10, 20, 10, p, seed, 400) for p in (0.0, 0.3) for seed in (1, 2)]
            dags += [random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=0.6) for _ in range(100)]
        self.assert_kernels_match(dags, monkeypatch)

    @pytest.mark.parametrize(
        "shape", [(100, 10, 4, 0.3), (20, 50, 25, 0.0)], ids=["deep", "wide"]
    )
    def test_thousand_node_shapes(self, shape, monkeypatch):
        dag = shaped_dag(*shape, seed=11)
        assert dag.node_count == 1000
        self.assert_kernels_match([dag], monkeypatch)

    @pytest.mark.parametrize(
        "shape, phases", [((100, 10, 4, 0.3), 0), ((20, 50, 25, 0.0), 1)], ids=["deep", "wide"]
    )
    def test_distances_do_not_depend_on_the_settle_order(self, shape, phases, monkeypatch):
        """The bucket passes from the source and the mirrored one from the
        sink return the same distances when every adjacency list is read
        last to first, so ties settle in another order.  The solved flow
        saturates every source arc, so its pass from the source reaches the
        source alone; the passes the primal-dual phases ran are replayed too.
        They run on a shallow copy of the solved network; the cached one and
        the arc table stay as they were."""
        dag = shaped_dag(*shape, seed=11)
        bucket_pass = FlowNetwork._bucket_pass
        forward = []  # the potentials and capacities of each phase's pass

        def recorded(net, potential, start, cap, cost):
            forward.append((potential, cap.copy()))
            return bucket_pass(net, potential, start, cap, cost)

        monkeypatch.setattr(FlowNetwork, "_bucket_pass", recorded)
        solved = _dimension_flow(dag)
        monkeypatch.undo()
        assert len(forward) == phases
        adj, cap = solved._adj, solved._cap.copy()
        forward.append((solved._potential, cap))
        net = copy.copy(solved)
        mirrored_cap = cap.copy()
        mirrored_cap[0::2], mirrored_cap[1::2] = cap[1::2], cap[0::2]
        mirrored_cost = [-c for c in net._cost]
        negated = [-p for p in net._potential]

        def passes():
            dists = [net._bucket_pass(p, net.source, c, net._cost) for p, c in forward]
            return [*dists, net._bucket_pass(negated, net.sink, mirrored_cap, mirrored_cost)]

        plain = passes()
        net._adj = [arcs[::-1] for arcs in adj]
        assert passes() == plain
        assert plain[-2].count(float("inf")) == net.size - 1  # the solved pass from the source
        for dist in plain[:-2] + plain[-1:]:  # every other pass has ties to settle
            reached = [d for d in dist if d < float("inf")]
            assert len(set(reached)) < len(reached) > dag.node_count
        assert solved._adj is adj is dag._arcs.adj and solved._cap == cap
        assert all(arcs == sorted(arcs) for arcs in adj)

    def test_redrawn_leaders(self, monkeypatch):
        """Nodes no leader reaches have no potential; the oracle's pass never
        enters them, as the heap skips them.  The layered route needs source
        leaders, so graphs with a promoted inner node are left out."""
        rng = random.Random(0x1EAF)
        dags = [random_dag(rng, max_nodes=16, max_leaders=4) for _ in range(400)]
        dags = [redrawn_leaders(rng, dag) for dag in dags]
        dags = [dag for dag in dags if not any(dag.in_neighbors[x] for x in dag.leaders)]
        assert sum(len(dag.leaders) < len(dag.source_layers[0]) for dag in dags) >= 75
        self.assert_kernels_match(dags, monkeypatch)

    def test_reverse_searches_stay_near_the_newest_layer(self, monkeypatch):
        """On a deep graph whose edges join adjacent layers, the sweep's reverse
        searches together read fewer adjacency lists than three passes over
        the network.  One whole-residual search per layer, as in
        ``references.residual_reaching_sink``, reads about depth * n."""
        dag = shaped_dag(100, 10, 4, 0.0, seed=11)
        reaching = FlowNetwork.targets_reaching_sink
        lists = CountingList()

        def counted(net, *args):
            plain = net._adj
            lists[:] = plain
            net._adj = lists
            try:
                return reaching(net, *args)
            finally:
                net._adj = plain

        monkeypatch.setattr(FlowNetwork, "targets_reaching_sink", counted)
        fixed_nodes_layered(dag)
        assert 0 < lists.reads < 3 * (2 * dag.node_count + 2)

    def test_saturated_source_ends_the_search_at_the_source(self, monkeypatch):
        """With every source arc saturated no augmenting path can exist, and
        a search from the source pops only the source, reads only its arcs
        and pushes nothing.  On a deep graph with four leaders, whose
        stranded units are all repaired in place, that one search is all
        every layer after the first runs from the source; layer 1 runs it
        after one augmentation per leader.  Each search from the source
        starts from a ``deque`` holding only it."""
        dag = shaped_dag(100, 10, 4, 0.0, seed=11)
        searches = []  # the nodes each search from the source pops

        class RecordingDeque(collections.deque):
            def __init__(self, items=()):
                super().__init__(items)
                self.popped = []
                if list(self) == [0]:
                    searches.append(self.popped)

            def popleft(self):
                u = super().popleft()
                self.popped.append(u)
                return u

        open_layer, push_path = FlowNetwork.open_layer, FlowNetwork._push_path
        per_layer = []  # the searches from the source each layer runs
        saturated = []

        def counted_layer(net, k):
            before = len(searches)
            open_layer(net, k)
            per_layer.append(searches[before:])

        def counted_search(net, start, last):
            full = start == net.source and not any(net._cap[arc] for arc in net._adj[net.source])
            before, cap = len(searches), net._cap.copy()
            found = push_path(net, start, last)
            if full:
                assert not found and searches[before:] == [[0]] and net._cap == cap
                saturated.append(last)
            return found

        monkeypatch.setattr(fixednodes.stems, "deque", RecordingDeque)
        monkeypatch.setattr(FlowNetwork, "open_layer", counted_layer)
        monkeypatch.setattr(FlowNetwork, "_push_path", counted_search)
        result = fixed_nodes_layered(dag)
        assert len(result.per_layer) == len(per_layer) == 100
        # layer 1 augments once per leader and ends with one failed search
        assert len(per_layer[0]) == 5 and all(s == [[0]] for s in per_layer[1:])
        assert len(saturated) == 1 + 99 and len(searches) == 5 + 99

    def test_repairs_and_augmentations_pop_few_nodes(self, monkeypatch):
        """On a deep skip graph the sweep's repairs and augmentations together
        pop fewer queue entries than one pass over the 2n+2 split indices."""
        dag = shaped_dag(100, 10, 4, 0.3, seed=11)
        pops = 0
        counting = False

        class CountingDeque(collections.deque):
            def popleft(self):
                nonlocal pops
                pops += counting
                return super().popleft()

        def counted(method):
            def run(*args):
                nonlocal counting
                counting = True
                try:
                    return method(*args)
                finally:
                    counting = False

            return run

        monkeypatch.setattr(fixednodes.stems, "deque", CountingDeque)
        monkeypatch.setattr(FlowNetwork, "open_layer", counted(FlowNetwork.open_layer))
        fixed_nodes_layered(dag)
        assert 0 < pops < 2 * dag.node_count + 2


def solved_answers(dag: StructuredDag):
    """Everything the routes read of a graph's dimension flow: the dimension,
    every oracle distance and, for source leaders, the layered result; the
    witness is checked to be a valid family of that many nodes."""
    dim, witness = generic_dimension(dag)
    assert not stem_family_violations(dag, witness)
    assert len(witness.covered) == dim and len(witness.stems) == len(dag.leaders)
    distances = _dimension_flow(dag).in_copy_distances_to_sink()
    sources = not any(dag.in_neighbors[x] for x in dag.leaders)
    return dim, distances, fixed_nodes_layered(dag) if sources else None


# seed-1 sweep-small graphs g039 and g237, where a second solver's witness
# moved the layered set while the route pruned what its witness left out
SWEEP_SMALL_G039 = StructuredDag.of(
    17,
    [(2, 5), (2, 12), (2, 14), (3, 6), (3, 7), (3, 13), (4, 6), (4, 7), (4, 8), (5, 14), (8, 9),
     (9, 10), (9, 11), (9, 12), (9, 13), (10, 15), (10, 17), (11, 15), (11, 16), (11, 17), (12, 14)],
    [1, 2, 3, 4],
)
SWEEP_SMALL_G237 = StructuredDag.of(
    16,
    [(1, 4), (1, 5), (1, 6), (1, 8), (1, 12), (2, 4), (2, 5), (2, 8), (2, 11), (3, 4), (3, 6),
     (4, 7), (4, 8), (4, 9), (5, 8), (6, 7), (6, 8), (6, 9), (7, 10), (7, 11), (7, 12), (8, 11),
     (8, 14), (10, 13), (11, 13), (11, 15), (11, 16), (12, 14), (12, 16)],
    [1, 2, 3],
)
# seed-1 sweep-small g020: every node is in every maximum family
SWEEP_SMALL_G020 = StructuredDag.of(6, [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 6), (5, 6)], [1, 2, 3])


class TestPrimalDualPhases:
    """``FlowNetwork.solve_min_cost`` against ``references.ssp_solve_min_cost``,
    the successive-shortest-path solver it replaced.  Their witnesses may
    differ; the dimension, every oracle distance and the whole layered
    result, each layer's ``mu``, ``fixed`` and ``fast_path`` included, may
    not."""

    @staticmethod
    def assert_same_answers(dags, monkeypatch):
        """Also checks that a phase ends only when no tight path is left: each
        bucket pass from the source finds the sink at a positive distance."""
        bucket_pass = FlowNetwork._bucket_pass

        def checked(net, potential, start, *arrays):
            dist = bucket_pass(net, potential, start, *arrays)
            assert start != net.source or dist[net.sink] > 0
            return dist

        monkeypatch.setattr(FlowNetwork, "_bucket_pass", checked)
        for dag in dags:
            phases = solved_answers(dag.with_leaders(dag.leaders))
            with monkeypatch.context() as patch:
                patch.setattr(FlowNetwork, "solve_min_cost", ssp_solve_min_cost)
                assert solved_answers(dag.with_leaders(dag.leaders)) == phases

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob, monkeypatch):
        rng = random.Random(0x9D1A + int(skip_prob * 10))
        dags = [random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob) for _ in range(350)]
        dags += [redrawn_leaders(rng, dag) for dag in dags[:100]]
        self.assert_same_answers(dags, monkeypatch)

    def test_benchmark_graphs(self, monkeypatch):
        """The 12 ``layered-n1000`` graphs of seeds 1-3, the ``all-n200``
        graphs of seed 1 and the two small graphs above."""
        dags = [dag for seed in (1, 2, 3) for dag in layered_n1000_graphs(seed)]
        dags += all_n200_graphs(1) + [SWEEP_SMALL_G039, SWEEP_SMALL_G237]
        self.assert_same_answers(dags, monkeypatch)

    @pytest.mark.parametrize(
        "shape", [(100, 10, 4, 0.3), (20, 50, 25, 0.0)], ids=["deep", "wide"]
    )
    def test_thousand_node_shapes(self, shape, monkeypatch):
        self.assert_same_answers([shaped_dag(*shape, seed=11)], monkeypatch)

    def test_the_reference_solver_calls_no_kernel(self, monkeypatch):
        """``references.ssp_solve_min_cost`` searches and pushes with code of
        its own, so the phases are checked against code they do not share."""
        dags = [shaped_dag(20, 50, 25, 0.0, seed=11), SWEEP_SMALL_G039, SWEEP_SMALL_G237]
        want = [generic_dimension(dag) for dag in dags]

        def refused(*args, **kwargs):
            raise AssertionError("the reference solver called a flow kernel")

        kernels = ("solve_min_cost", "_tight_walk", "_bucket_pass", "_push_path", "_augment", "_push")
        for name in kernels:
            monkeypatch.setattr(FlowNetwork, name, refused)
        for dag, (dim, _) in zip(dags, want):
            assert len(ssp_flow(dag).stems().covered) == dim

    def test_walks_read_few_adjacency_lists(self, monkeypatch):
        """On the wide 1000-node shape the depth-first walks of all 25 units
        together read fewer adjacency lists than one pass over the network.
        From an out-copy a walk tries the sink first and its way back up the
        node's own stem last; in adjacency order the walks wander up and down
        the stems and read over eight passes."""
        dag = shaped_dag(20, 50, 25, 0.0, seed=11)
        walk = FlowNetwork._tight_walk
        lists = CountingList()

        def counted(net, *args):
            plain = net._adj
            lists[:] = plain
            net._adj = lists
            try:
                return walk(net, *args)
            finally:
                net._adj = plain

        monkeypatch.setattr(FlowNetwork, "_tight_walk", counted)
        net = _dimension_flow(dag)
        assert 0 < lists.reads < net.size


class TestEveryFamily:
    """``FlowNetwork.in_every_family``, one pass over the components of the
    tight residual arcs, against its definition: the nodes whose removal
    lowers the generic dimension."""

    @staticmethod
    def assert_matches(dag):
        assert _dimension_flow(dag).in_every_family() == in_every_max_family(dag)

    def test_every_node_covered(self):
        """Each node's ``in -> out`` arc carries a unit, and some in-copy
        shares a component with its out-copy through arcs whose reverse
        ``in -> out`` arc is not tight; no node can be left out."""
        self.assert_matches(SWEEP_SMALL_G020)
        assert _dimension_flow(SWEEP_SMALL_G020).in_every_family() == SWEEP_SMALL_G020.nodes

    def test_pinned_graphs(self):
        for name in PINNED:
            self.assert_matches(graph_from_json((DATA / f"{name}.graph.json").read_text()))

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob):
        rng = random.Random(0xEF0A + int(skip_prob * 10))
        for _ in range(300):
            dag = random_dag(rng, max_nodes=16, max_leaders=4, skip_prob=skip_prob)
            self.assert_matches(dag)
            self.assert_matches(redrawn_leaders(rng, dag))


class TestArcTable:
    def test_one_table_per_graph(self, pair13, monkeypatch):
        """The dimension flow, the sweep and the matched-set lister of a
        13-node graph share one arc table; later networks build no arcs."""
        built = []
        build = fixednodes.stems._build_arcs

        def counting(dag):
            built.append(dag)
            return build(dag)

        monkeypatch.setattr(fixednodes.stems, "_build_arcs", counting)
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        analyze(dag, ("layered", "oracle"))
        second, third = FlowNetwork(dag), FlowNetwork(dag)
        assert built == [dag]
        flow = _dimension_flow(dag)
        for name in ("_adj", "_head", "_cost", "_in", "_to_through", "_to_sink"):
            assert getattr(second, name) is getattr(third, name) is getattr(flow, name)

    @staticmethod
    def arc_lists(head, cost, cap, adj):
        """Per node, ``(head, cost, initial capacity, forward)`` of each of
        its arcs, in adjacency order."""
        return [[(head[a], cost[a], cap[a], a % 2 == 0) for a in arcs] for arcs in adj]

    @staticmethod
    def table_graphs():
        rng = random.Random(0xA4C5)
        yield from (graph_from_json((DATA / f"{name}.graph.json").read_text()) for name in PINNED)
        for p in (0.0, 0.3, 0.6, 0.9):
            yield from (random_dag(rng, max_nodes=16, skip_prob=p) for _ in range(250))
        yield shaped_dag(100, 10, 4, 0.3, seed=5)
        yield shaped_dag(20, 50, 25, 0.3, seed=5)

    def test_table_matches_the_arc_by_arc_builder(self):
        """Every adjacency list but the sink's lists the arcs of the builder
        that adds one arc pair at a time, in its order; the sink's holds the
        same arcs.  Each node's out-copy, ``in -> out`` arc and sink arc sit
        at the table's offsets from its in-copy."""
        for dag in self.table_graphs():
            table = _build_arcs(dag)
            got = self.arc_lists(table.head, table.cost, table.cap, table.adj)
            want = self.arc_lists(*arcs_one_at_a_time(dag))
            assert got[:-1] == want[:-1]
            assert sorted(got[-1]) == sorted(want[-1])
            sink = len(table.adj) - 1
            for x in table.in_copy[1:]:
                through, to_sink = x + table.to_through, x + table.to_sink
                assert (table.head[through ^ 1], table.head[through]) == (x, x + 1)
                assert (table.head[to_sink ^ 1], table.head[to_sink]) == (x + 1, sink)
                assert table.cost[through] == -1 and table.cap[to_sink] == 1

    def test_answers_do_not_depend_on_the_sink_arc_order(self):
        """Witness stems, oracle distances and layered reports stay the same
        with the sink's adjacency list reversed."""
        rng = random.Random(0x51C4)
        dags = [g.dag for g in goldens.GOLDENS]
        dags += [random_dag(rng, max_nodes=16, skip_prob=p) for p in (0.0, 0.3, 0.6) for _ in range(60)]
        dags += [shaped_dag(100, 10, 4, 0.0, seed=3), shaped_dag(20, 50, 25, 0.3, seed=3)]
        for dag in dags:
            flipped = dag.with_leaders(dag.leaders)
            flipped._arcs.adj[-1].reverse()
            answers = [
                (
                    generic_dimension(g),
                    _dimension_flow(g).in_copy_distances_to_sink(),
                    fixed_nodes_layered(g),
                )
                for g in (dag, flipped)
            ]
            assert answers[0] == answers[1]

    def test_networks_keep_their_own_capacities(self, pair13):
        """A sweep over every layer changes neither the solved dimension flow
        nor a second network, which keeps every sink arc open as built."""
        dag = pair13.dag.with_leaders(pair13.dag.leaders)
        flow = _dimension_flow(dag)
        solved = flow._cap.copy()
        second, third = FlowNetwork(dag), FlowNetwork(dag)
        for k in range(1, len(dag.source_layers) + 1):
            third.open_layer(k)
        assert flow._cap == solved and second._cap == dag._arcs.cap
        assert len(third.matched_targets(dag.nodes)) == 2 and second._cap != third._cap
        assert all(second._cap[second._in[v] + second._to_sink] for v in dag.nodes)

    @pytest.mark.parametrize(
        "shape", [None, (100, 10, 4, 0.3), (20, 50, 25, 0.3)], ids=["skip200", "deep", "wide"]
    )
    def test_open_layer_leaves_only_its_layer_open(self, shape):
        """After ``open_layer(k)`` exactly layer ``k``'s sink arcs are open,
        and no sink arc outside layer ``k`` carries a unit: an open arc holds
        one unit of capacity across its two directions, a closed one none,
        so its reverse carries nothing."""
        if shape is None:
            dag = graph_from_json((DATA / "skip200.graph.json").read_text())
        else:
            dag = shaped_dag(*shape, seed=11)
        net = FlowNetwork(dag)
        nodes = sorted(dag.nodes)
        sink_arcs = [net._in[v] + net._to_sink for v in nodes]
        for k, layer in enumerate(label_layers(dag).layers, start=1):
            net.open_layer(k)
            units = [net._cap[a] + net._cap[a ^ 1] for a in sink_arcs]
            assert units == [v in layer for v in nodes]

