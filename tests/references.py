"""Slow, obviously correct references that the fast routes are tested against."""

from __future__ import annotations

import heapq
import math
from dataclasses import replace
from typing import Iterable, Iterator

import numpy as np

import fixednodes.numeric
from fixednodes import (
    FixedNodeResult,
    GeneratorConfig,
    InconclusiveError,
    InvalidGraphError,
    LayerLabeling,
    StemFamily,
    StructuredDag,
    generic_dimension,
    label_layers,
)
from fixednodes.numeric import DEFAULT_TRIALS, TOL
from fixednodes.stems import FlowNetwork

_INF = float("inf")

DEFAULT_ENUM_CAP = 15


# -- exhaustive search: every product of leader-rooted paths


def induce_prefix(dag: StructuredDag, labeling: LayerLabeling, k: int) -> StructuredDag:
    """Induced subgraph on the union of layers 1..k, with the same leaders.

    Nodes of layer ``k`` have zero out-degree in the result; for ``k`` equal to
    the depth the result equals the input graph.
    """
    if not 1 <= k <= labeling.depth:
        raise InvalidGraphError(f"layer index {k} out of range 1..{labeling.depth}")
    kept = frozenset().union(*labeling.layers[:k])
    return StructuredDag(
        nodes=kept,
        edges=frozenset(e for e in dag.edges if e[0] in kept and e[1] in kept),
        leaders=dag.leaders,
    )


def enumerate_max_families(
    prefix: StructuredDag,
    targets: Iterable[int],
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[StemFamily, ...]:
    """All maximum-coverage families for one layer, one per matched-node set.

    Exponential by nature; guarded by ``cap`` on the node count.  Families are
    deduplicated by their matched target set and returned in sorted order, so
    the distinct matched sets are exactly ``matched_by(fam, targets)`` over the
    result.  With every node as a target the families are those of maximum
    total coverage, the brute-force check of ``generic_dimension``.
    """
    target_set = frozenset(targets)
    if not target_set <= prefix.nodes:
        raise InvalidGraphError("targets are not nodes of the prefix graph")
    if prefix.node_count > cap:
        raise ValueError(f"exhaustive search needs node count <= {cap}, got {prefix.node_count}")
    if not prefix.leaders:
        raise InvalidGraphError("at least one leader is required")
    stems_per_leader = [
        tuple(_paths_from(prefix, leader)) for leader in sorted(prefix.leaders)
    ]
    best = -1
    chosen: dict[frozenset[int], StemFamily] = {}
    for stems in _disjoint_products(stems_per_leader):
        matched = target_set.intersection(v for stem in stems for v in stem)
        if len(matched) > best:
            best = len(matched)
            chosen = {}
        if len(matched) == best:
            chosen.setdefault(matched, StemFamily(tuple(sorted(stems))))
    return tuple(chosen[k] for k in sorted(chosen, key=sorted))


def _paths_from(dag: StructuredDag, start: int) -> Iterator[tuple[int, ...]]:
    """Every directed path starting at ``start`` (including the trivial one)."""

    def walk(path: list[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(path)
        for w in dag.out_neighbors[path[-1]]:
            path.append(w)
            yield from walk(path)
            path.pop()

    yield from walk([start])


def _disjoint_products(
    stems_per_leader: list[tuple[tuple[int, ...], ...]],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every one-stem-per-leader combination with pairwise disjoint nodes."""

    def assign(i: int, used: set[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(stems_per_leader):
            yield ()
            return
        for stem in stems_per_leader[i]:
            if any(v in used for v in stem):
                continue
            used.update(stem)
            for rest in assign(i + 1, used):
                yield (stem,) + rest
            used.difference_update(stem)

    yield from assign(0, set())


def matched_by(family: StemFamily, targets: Iterable[int]) -> frozenset[int]:
    """Target nodes some stem of ``family`` ends at (targets are sinks, so ends = hits)."""
    return family.covered & frozenset(targets)


def enumerated_matched_sets(dag: StructuredDag, result: FixedNodeResult) -> FixedNodeResult:
    """The matched sets ``fixed_nodes_layered`` lists, by enumeration: each
    layer's distinct matched sets over every maximum family of its prefix
    graph, in sorted order.  A layer the route tags by essentiality or by a
    unique set is tagged ``unique-matched-set`` iff it has one such set."""
    labeling = label_layers(dag)
    enriched = []
    for report in result.per_layer:
        prefix = induce_prefix(dag, labeling, report.layer_index)
        families = enumerate_max_families(prefix, report.targets)
        matched = tuple(sorted({matched_by(fam, report.targets) for fam in families}, key=sorted))
        path = report.fast_path
        if path in ("essentiality", "unique-matched-set"):
            path = "unique-matched-set" if len(matched) == 1 else "essentiality"
        enriched.append(replace(report, matched_sets=matched, fast_path=path))
    return replace(result, per_layer=tuple(enriched))


def disjoint_stems_into(dag: StructuredDag, targets: Iterable[int]) -> int:
    """How many of ``targets`` vertex-disjoint stems can end at (Menger): the
    value of a unit-capacity flow found by depth-first augmenting paths on
    the node-split graph, kept as a dict of residual capacities."""
    residual: dict[tuple[object, object], int] = {}
    neighbors: dict[object, set[object]] = {}

    def add(a: object, b: object) -> None:
        residual[a, b] = residual.get((a, b), 0) + 1
        residual.setdefault((b, a), 0)
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    for v in dag.nodes:
        add(("in", v), ("out", v))
    for u, v in dag.edges:
        add(("out", u), ("in", v))
    for x in dag.leaders:
        add("source", ("in", x))
    for t in targets:
        add(("out", t), "sink")
    flow = 0
    while True:
        parent: dict[object, object] = {"source": None}
        stack: list[object] = ["source"]
        while stack and "sink" not in parent:
            a = stack.pop()
            for b in neighbors.get(a, ()):
                if b not in parent and residual[a, b]:
                    parent[b] = a
                    stack.append(b)
        if "sink" not in parent:
            return flow
        b = "sink"
        while parent[b] is not None:
            a = parent[b]
            residual[a, b] -= 1
            residual[b, a] += 1
            b = a
        flow += 1


def resolving_oracle(dag: StructuredDag) -> FixedNodeResult:
    """The fixed-node definition applied literally: promote each non-leader to
    a leader, solve the generic dimension again, and keep the nodes where it
    does not rise."""
    base_dim, _ = generic_dimension(dag)
    fixed = set(dag.leaders)
    for v in sorted(dag.nodes - dag.leaders):
        probed, _ = generic_dimension(dag.with_leaders(dag.leaders | {v}))
        if probed == base_dim:
            fixed.add(v)
    return FixedNodeResult(frozenset(fixed), ())


def peeled_layers(edges: list[list[int]], n: int) -> list[list[int]]:
    """Source peeling by longest path: a node's layer is one more than the
    deepest of its predecessors', 1 for a source."""
    layer: dict[int, int] = {}
    while len(layer) < n:
        for v in range(1, n + 1):
            preds = [u for u, w in edges if w == v]
            if v not in layer and all(u in layer for u in preds):
                layer[v] = 1 + max((layer[u] for u in preds), default=0)
    return [sorted(v for v in layer if layer[v] == k) for k in range(1, max(layer.values()) + 1)]


def singleton_layer_nodes(dag: StructuredDag) -> frozenset[int]:
    """The single-leader rule: exactly the nodes alone in their layer are fixed."""
    return frozenset().union(*(layer for layer in label_layers(dag).layers if len(layer) == 1))


def exhaustive_dimension(dag: StructuredDag) -> int:
    """The generic dimension by brute force: the coverage of the families
    that cover the most nodes."""
    return len(enumerate_max_families(dag, dag.nodes)[0].covered)


class LayerCoverage:
    """One target layer's coverage problem, solved from zero on its own prefix
    graph: the optimum ``mu``, a witness family, its matched targets, and the
    essential targets, those whose removal lowers ``mu``.

    By flow optimality a matched target can be dropped at full value iff its
    out-copy still reaches the sink in the residual (rerouting its unit along
    that path frees its sink arc); an unmatched target is never essential.
    The layered sweep (:meth:`FlowNetwork.open_layer`) is checked against it.
    """

    def __init__(self, prefix: StructuredDag, targets: Iterable[int]):
        self.targets = frozenset(targets)
        net = FlowNetwork(prefix)
        net.open_sinks(self.targets)
        self.mu = net.max_flow()
        self.witness = net.stems()
        self.matched = net.matched_targets(self.targets)
        self.essential = self.matched - net.targets_reaching_sink(self.matched)


def layer_coverages(dag: StructuredDag) -> list[LayerCoverage]:
    """Every hierarchy layer's coverage problem, solved from zero on its own
    prefix graph."""
    labeling = label_layers(dag)
    return [
        LayerCoverage(induce_prefix(dag, labeling, k), layer)
        for k, layer in enumerate(labeling.layers, start=1)
    ]


def unpruned_layer_fixed(dag: StructuredDag) -> list[frozenset[int]]:
    """Per layer, what the layered criterion fixes before any pruning: the
    essential targets, or a singleton layer's node when a stem reaches it."""
    fixed = []
    for coverage in layer_coverages(dag):
        layer = coverage.targets
        if len(layer) == 1:
            fixed.append(layer if coverage.mu == 1 else frozenset())
        else:
            fixed.append(coverage.essential)
    return fixed


# -- flow kernels: the plain versions the FlowNetwork methods are checked against


def arcs_one_at_a_time(
    dag: StructuredDag,
) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """``head``, ``cost``, initial ``cap`` and adjacency lists of the
    node-split graph, each arc pair added by ``add_arc``: the source arcs
    (leaders ascending), the ``in -> out`` arcs (layer by layer, ids
    ascending), the edge arcs (edges ascending) and the closed sink arcs
    (nodes ascending).  Arc ``a`` is forward when even, ``a ^ 1`` its reverse."""
    order = [v for layer in label_layers(dag).layers for v in sorted(layer)]
    in_copy = {v: 1 + 2 * i for i, v in enumerate(order)}
    out_copy = {v: 2 + 2 * i for i, v in enumerate(order)}
    sink = 2 * len(order) + 1
    head: list[int] = []
    cost: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(sink + 1)]

    def add_arc(u: int, v: int, arc_cost: int, arc_cap: int = 1) -> None:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cost.extend((arc_cost, -arc_cost))
        cap.extend((arc_cap, 0))

    for leader in sorted(dag.leaders):
        add_arc(0, in_copy[leader], 0)
    for v in order:
        add_arc(in_copy[v], out_copy[v], -1)
    for u, v in sorted(dag.edges):
        add_arc(out_copy[u], in_copy[v], 0)
    for v in sorted(dag.nodes):
        add_arc(out_copy[v], sink, 0, 0)
    return head, cost, cap, adj



def heap_dijkstra(
    net: FlowNetwork, potential: list[float], start: int, backward: bool = False
) -> tuple[list[float], list[int]]:
    """``FlowNetwork._forward_dijkstra`` from the source, or, when ``backward``,
    the distances to the sink that ``FlowNetwork.in_copy_distances_to_sink``
    reads, with one heap of ``(distance, node)`` pairs: a backward search
    follows arc ``a ^ 1`` into ``u`` from ``head[a]``.  Both skip every node
    without a potential."""
    flip, sign = (1, -1) if backward else (0, 1)
    dist = [_INF] * net.size
    parent = [-1] * net.size
    dist[start] = 0.0
    heap: list[tuple[float, int]] = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for arc in net._adj[u]:
            step = arc ^ flip
            if net._cap[step] <= 0:
                continue
            v = net._head[arc]
            if potential[v] == _INF:
                continue
            nd = d + net._cost[step] + sign * (potential[u] - potential[v])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = arc
                heapq.heappush(heap, (nd, v))
    return dist, parent


def tight_arcs(net: FlowNetwork, potential: list[float]) -> list[list[int]]:
    """Per node, the arcs of reduced cost 0 under ``potential``, with or
    without residual capacity: the lists ``FlowNetwork.solve_min_cost`` keeps
    for its zero phase.  Arcs at a node without a potential have no reduced
    cost and are left out."""
    tight: list[list[int]] = [[] for _ in range(net.size)]
    for u in range(net.size):
        for arc in net._adj[u]:
            v = net._head[arc]
            if _INF not in (potential[u], potential[v]):
                if net._cost[arc] + potential[u] - potential[v] == 0:
                    tight[u].append(arc)
    return tight


def residual_reaching_sink(net: FlowNetwork, targets: Iterable[int]) -> frozenset[int]:
    """``FlowNetwork.targets_reaching_sink`` as one whole reverse search from
    the sink, through every arc into it."""
    reached = [False] * net.size
    reached[net.sink] = True
    stack = [net.sink]
    while stack:
        x = stack.pop()
        for arc in net._adj[x]:
            u = net._head[arc]
            if net._cap[arc ^ 1] > 0 and not reached[u]:
                reached[u] = True
                stack.append(u)
    return frozenset(v for v in targets if reached[net._in[v] + 1])


def all_matched_targets(net: FlowNetwork) -> frozenset[int]:
    """Every node whose sink arc carries a unit, read over all sink arcs."""
    return frozenset(v for v, x in net._in.items() if net._cap[(x + net._to_sink) ^ 1])


# -- numeric route: one draw at a time


def input_matrix(dag: StructuredDag) -> np.ndarray:
    """``B``: one unit column per leader, leaders in ascending order."""
    b = np.zeros((dag.node_count, len(dag.leaders)))
    for col, leader in enumerate(sorted(dag.leaders)):
        b[leader - 1, col] = 1.0
    return b


def stream_weight_matrices(dag: StructuredDag, seed: int) -> Iterator[np.ndarray]:
    """The ``A`` of draws 0, 1, ... of ``seed``'s stream, one row at a time,
    each filled one edge at a time.

    Rows come from ``fixednodes.numeric._draw_weights``, the attribute the
    batched route calls, so a patch sees the draws of both.
    """
    n = dag.node_count
    edges = sorted(dag.edges)
    rng = np.random.default_rng(seed)
    while True:
        weights = fixednodes.numeric._draw_weights(rng, 1, len(edges))[0]
        a = np.zeros((n, n))
        for (u, v), w in zip(edges, weights):
            a[v - 1, u - 1] = w
        yield a


def draw_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An orthonormal basis of one draw's controllability column space: the
    left singular vectors of ``[B, AB, ...]``, cut before the first zero
    block, whose singular values exceed ``TOL`` times the largest."""
    blocks = [b]
    for _ in range(len(a) - 1):
        block = a @ blocks[-1]
        if not block.any():
            break
        blocks.append(block)
    u, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
    return u[:, : int(np.count_nonzero(s > TOL * s[0]))]


def numeric_generic_dimension(
    dag: StructuredDag, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> int:
    """Maximum controllability rank over the first ``trials`` draws of
    ``seed``'s stream, one at a time."""
    b = input_matrix(dag)
    draws = stream_weight_matrices(dag, seed)
    return max(draw_basis(next(draws), b).shape[1] for _ in range(trials))


def loop_weight_matrix(dag: StructuredDag, seed: int) -> np.ndarray:
    """The ``A`` of draw 0 of ``seed``'s stream: one scalar
    ``x ~ U[-1.5, 1.5)`` per edge in sorted order, weighted
    ``copysign(|x| + 0.5, x)``."""
    n = dag.node_count
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for u, v in sorted(dag.edges):
        x = rng.uniform(-1.5, 1.5)
        a[v - 1, u - 1] = math.copysign(abs(x) + 0.5, x)
    return a


def per_draw_numeric_fixed_nodes(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    expected_dim: int | None = None,
) -> frozenset[int]:
    """``numeric_fixed_nodes`` with one draw of the stream, one block stack
    and one SVD at a time, folded in draw order."""
    budget = trials if expected_dim is None else 3 * trials
    n = dag.node_count
    top = 0
    residual_floor = np.zeros(n)
    b = input_matrix(dag)
    draws = stream_weight_matrices(dag, seed)
    for t in range(budget):
        basis = draw_basis(next(draws), b)
        rank = basis.shape[1]
        if rank >= top:
            residuals = np.linalg.norm(np.eye(n) - basis @ basis.T, axis=0)
            residual_floor = residuals if rank > top else np.maximum(residual_floor, residuals)
            top = rank
        if t + 1 >= trials and (expected_dim is None or top >= expected_dim):
            break
    if expected_dim is not None and top < expected_dim:
        raise InconclusiveError(f"no draw reached rank {expected_dim} in {budget} trials")
    return frozenset(v for v in range(1, n + 1) if residual_floor[v - 1] < TOL)


# -- the generator with its candidate pools listed


def pooled_layered_dag(config: GeneratorConfig) -> StructuredDag:
    """``random_layered_dag`` with both pools listed and drawn by
    ``list.pop``: the stream every generated graph is pinned to."""
    rng = np.random.default_rng(config.seed)
    layers: list[list[int]] = []
    nxt = 1
    for w in config.widths:
        layers.append(list(range(nxt, nxt + w)))
        nxt += w

    edges: set[tuple[int, int]] = set()
    for k in range(1, config.depth):
        for v in layers[k]:
            u = layers[k - 1][int(rng.integers(len(layers[k - 1])))]
            edges.add((u, v))

    adjacent: list[tuple[int, int]] = []
    skipping: list[tuple[int, int]] = []
    for a, b in config._layer_pairs():
        pool = adjacent if b == a + 1 else skipping
        pool.extend(
            (u, v) for u in layers[a] for v in layers[b] if (u, v) not in edges
        )

    if config.edge_count is not None:
        for _ in range(config.edge_count - len(edges)):
            want_skip = bool(skipping) and rng.random() < config.skip_layer_prob
            pool = skipping if want_skip else adjacent
            if not pool:
                pool = adjacent or skipping
            edge = pool.pop(int(rng.integers(len(pool))))
            edges.add(edge)
    else:
        for pool, prob in (
            (adjacent, config.edge_prob),
            (skipping, config.edge_prob * config.skip_layer_prob),
        ):
            if prob <= 0.0:
                continue
            keep = rng.random(len(pool)) < prob
            edges.update(e for e, take in zip(pool, keep) if take)

    return StructuredDag.of(nxt - 1, edges, layers[0])
