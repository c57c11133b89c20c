"""Slow, obviously correct references that the fast routes are tested against."""

from __future__ import annotations

import heapq
import json
import math
from itertools import combinations
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
from fixednodes.graph import Violation
from fixednodes.numeric import DEFAULT_TRIALS
from fixednodes.stems import FlowNetwork

_INF = float("inf")

DEFAULT_ENUM_CAP = 15


# -- exhaustive search: every product of leader-rooted paths


def induce_prefix(dag: StructuredDag, labeling: LayerLabeling, k: int) -> StructuredDag:
    """Induced subgraph on the union of layers 1..k, with the same leaders.

    Nodes of layer ``k`` have zero out-degree in the result; for ``k`` equal to
    the depth the result equals the input graph.  The prefix keeps the ids of
    its nodes, so they must be ``1..|prefix|``: they are on a graph numbered
    layer by layer, as the generator and every graph in ``tests/data`` are.
    """
    if not 1 <= k <= labeling.depth:
        raise InvalidGraphError(f"layer index {k} out of range 1..{labeling.depth}")
    kept = frozenset().union(*labeling.layers[:k])
    if max(kept) != len(kept):
        raise InvalidGraphError(f"layers 1..{k} are not numbered 1..{len(kept)}")
    return StructuredDag(
        len(kept),
        frozenset(e for e in dag.edges if e[0] in kept and e[1] in kept),
        dag.leaders,
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


def enumerated_matched_sets(dag: StructuredDag) -> tuple[tuple[frozenset[int], ...], ...]:
    """Each layer's distinct maximum matched sets, in sorted order: the
    matched sets of every maximum family of the layer's prefix graph."""
    labeling = label_layers(dag)
    per_layer = []
    for k, layer in enumerate(labeling.layers, start=1):
        families = enumerate_max_families(induce_prefix(dag, labeling, k), layer)
        per_layer.append(tuple(sorted({matched_by(fam, layer) for fam in families}, key=sorted)))
    return tuple(per_layer)


def without_node(dag: StructuredDag, v: int) -> StructuredDag:
    """``dag`` less node ``v``: its edges go, it stops being a leader, and
    every id above ``v`` moves down by one, so the nodes stay ``1..n-1``."""

    def shift(x: int) -> int:
        return x - (x > v)

    return StructuredDag(
        dag.n - 1,
        frozenset((shift(a), shift(b)) for a, b in dag.edges if v not in (a, b)),
        frozenset(shift(x) for x in dag.leaders - {v}),
    )


def in_every_max_family(dag: StructuredDag, nodes: Iterable[int] | None = None) -> frozenset[int]:
    """The ``nodes`` (all by default) that every maximum family covers: those
    whose removal lowers the generic dimension, as a maximum family that
    misses ``v`` is a family of ``dag`` less ``v``."""
    dim, _ = generic_dimension(dag)  # renumbering the nodes keeps a dimension
    return frozenset(
        v
        for v in (dag.nodes if nodes is None else nodes)
        if dag.leaders == {v} or generic_dimension(without_node(dag, v))[0] < dim
    )


def layer_fast_path(targets: Iterable[int], covered: Iterable[int]) -> str:
    """The tag of a layered report's layer: ``singleton-layer`` for one
    target, ``none`` when no target is in ``covered``, the nodes every
    maximum family covers, and ``essentiality`` otherwise."""
    targets = frozenset(targets)
    if len(targets) == 1:
        return "singleton-layer"
    return "essentiality" if targets & frozenset(covered) else "none"


Residual = dict[tuple[object, object], int]
Neighbors = dict[object, dict[object, None]]


def split_residual(dag: StructuredDag, targets: Iterable[int]) -> tuple[Residual, Neighbors]:
    """The node-split graph of ``dag`` with sink arcs out of ``targets``, as
    a dict of residual capacities keyed by ``(tail, head)``, each reverse arc
    at 0, and each node's arc ends in the order added.  A node ``v`` splits
    into ``("in", v)`` and ``("out", v)``; ``"source"`` feeds every leader."""
    residual: Residual = {}
    neighbors: Neighbors = {}

    def add(a: object, b: object) -> None:
        residual[a, b] = residual.get((a, b), 0) + 1
        residual.setdefault((b, a), 0)
        neighbors.setdefault(a, {})[b] = None
        neighbors.setdefault(b, {})[a] = None

    for v in sorted(dag.nodes):
        add(("in", v), ("out", v))
    for u, v in sorted(dag.edges):
        add(("out", u), ("in", v))
    for x in sorted(dag.leaders):
        add("source", ("in", x))
    for t in sorted(targets):
        add(("out", t), "sink")
    return residual, neighbors


def max_split_flow(residual: Residual, neighbors: Neighbors) -> int:
    """Augment ``residual`` along depth-first paths from the source to the
    sink until none is left; return the flow value."""
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


def disjoint_stems_into(dag: StructuredDag, targets: Iterable[int]) -> int:
    """How many of ``targets`` vertex-disjoint stems can end at (Menger): the
    value of a unit-capacity flow on the node-split graph."""
    return max_split_flow(*split_residual(dag, targets))


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
    The flow is :func:`max_split_flow` on the dict-keyed network of
    :func:`split_residual`, so no ``FlowNetwork`` code runs here; the layered
    sweep (:meth:`FlowNetwork.open_layer`) is checked against it.
    """

    def __init__(self, prefix: StructuredDag, targets: Iterable[int]):
        self.targets = frozenset(targets)
        residual, neighbors = split_residual(prefix, self.targets)
        self.mu = max_split_flow(residual, neighbors)
        self.matched = frozenset(t for t in self.targets if residual["sink", ("out", t)])
        reached = {"sink"}  # every node with a residual path to the sink
        stack: list[object] = ["sink"]
        while stack:
            b = stack.pop()
            for a in neighbors.get(b, ()):
                if a not in reached and residual[a, b]:
                    reached.add(a)
                    stack.append(a)
        self.essential = frozenset(t for t in self.matched if ("out", t) not in reached)
        stems = []
        for x in sorted(prefix.leaders):
            if residual[("in", x), "source"]:  # the leader's unit leaves by one arc each step
                stem, node = [x], ("out", x)
                while (step := next(b for b in neighbors[node] if residual[b, node])) != "sink":
                    stem.append(step[1])
                    node = ("out", step[1])
                stems.append(tuple(stem))
        self.witness = StemFamily(tuple(sorted(stems)))


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


# -- the graph module: validation that always searches, and the json.dumps writer


def searching_violations(dag: StructuredDag) -> tuple[Violation, ...]:
    """``graph.validate``'s violations, found with the reachability search run
    on every graph that gets that far, as it was before the source peel could
    prove that every node is reached."""
    violations: list[Violation] = []
    loops = tuple(sorted(e for e in dag.edges if e[0] == e[1]))
    if loops:
        violations.append(
            Violation("self-loop", f"self-loops are not allowed: {[list(e) for e in loops]}", loops)
        )
    if not dag.leaders:
        violations.append(Violation("leaders-empty", "at least one leader is required"))
    if violations:
        return tuple(violations)

    fed = {v for _, v in dag.edges}
    nonsource = tuple(sorted(dag.leaders & fed))
    if nonsource:
        violations.append(
            Violation(
                "leader-in-degree",
                f"leaders must have no incoming edges: {list(nonsource)}",
                nonsource,
            )
        )
    cyclic = tuple(sorted(dag.nodes - {v for layer in _kahn_layers(dag) for v in layer}))
    if cyclic:
        violations.append(
            Violation("cycle", f"edge relation contains a cycle through: {list(cyclic)}", cyclic)
        )
    reached = set(dag.leaders)
    frontier = list(dag.leaders)
    while frontier:
        u = frontier.pop()
        for a, b in dag.edges:
            if a == u and b not in reached:
                reached.add(b)
                frontier.append(b)
    unreachable = tuple(sorted(dag.nodes - reached))
    if unreachable:
        violations.append(
            Violation(
                "unreachable",
                f"graph is not influenceable; no leader reaches: {list(unreachable)}",
                unreachable,
            )
        )
    return tuple(violations)


def _kahn_layers(dag: StructuredDag) -> list[set[int]]:
    """Source peeling that stops when no node of in-degree 0 is left."""
    layers: list[set[int]] = []
    left = set(dag.nodes)
    while True:
        layer = {v for v in left if not any(b == v and a in left for a, b in dag.edges)}
        if not layer:
            return layers
        layers.append(layer)
        left -= layer


def dumped_graph_json(dag: StructuredDag) -> str:
    """``graph_to_json`` as ``json.dumps`` writes it from ``[u, v]`` lists."""
    payload = {
        "n": dag.node_count,
        "edges": [[u, v] for u, v in sorted(dag.edges)],
        "leaders": sorted(dag.leaders),
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


# -- flow kernels: the plain versions the FlowNetwork methods are checked against


def arcs_one_at_a_time(
    dag: StructuredDag,
) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """``head``, ``cost``, initial ``cap`` and adjacency lists of the
    node-split graph, each arc pair added by ``add_arc``: the source arcs
    (leaders ascending), the ``in -> out`` arcs (layer by layer, ids
    ascending), the edge arcs (edges ascending) and the sink arcs
    (nodes ascending), every one open.  Arc ``a`` is forward when even,
    ``a ^ 1`` its reverse."""
    order = [v for layer in label_layers(dag).layers for v in sorted(layer)]
    in_copy = {v: 1 + 2 * i for i, v in enumerate(order)}
    out_copy = {v: 2 + 2 * i for i, v in enumerate(order)}
    sink = 2 * len(order) + 1
    head: list[int] = []
    cost: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(sink + 1)]

    def add_arc(u: int, v: int, arc_cost: int) -> None:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cost.extend((arc_cost, -arc_cost))
        cap.extend((1, 0))

    for leader in sorted(dag.leaders):
        add_arc(0, in_copy[leader], 0)
    for v in order:
        add_arc(in_copy[v], out_copy[v], -1)
    for u, v in sorted(dag.edges):
        add_arc(out_copy[u], in_copy[v], 0)
    for v in sorted(dag.nodes):
        add_arc(out_copy[v], sink, 0)
    return head, cost, cap, adj


def ssp_solve_min_cost(net: FlowNetwork, value: int) -> None:
    """``FlowNetwork.solve_min_cost`` by successive shortest paths (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, ch. 9), one search per unit: the
    solver the primal-dual phases replaced, kept to check them.

    Potentials come from one topological pass.  Each unit runs one
    :func:`heap_dijkstra` from the source, moves the potentials by its
    distances and goes along the arcs that search recorded, by
    :func:`push_unit`."""
    potential = [_INF] * net.size
    potential[net.source] = 0
    for u in range(net.size):
        if potential[u] < _INF:
            for arc in net._adj[u]:
                if net._cap[arc] > 0:
                    v = net._head[arc]
                    potential[v] = min(potential[v], potential[u] + net._cost[arc])
    for _ in range(value):
        dist, parent = heap_dijkstra(net, potential, net.source)
        if dist[net.sink] == _INF:
            raise InvalidGraphError("flow value infeasible; leaders cannot reach the sink")
        potential = [p + d if d < _INF else p for p, d in zip(potential, dist)]
        push_unit(net, parent)
    net._potential = potential


def push_unit(net: FlowNetwork, parent: list[int]) -> None:
    """Push one unit from the source to the sink along the arc ``parent``
    records into each node of the path."""
    v = net.sink
    while v != net.source:
        arc = parent[v]
        net._cap[arc] -= 1
        net._cap[arc ^ 1] += 1
        v = net._head[arc ^ 1]


def ssp_flow(dag: StructuredDag) -> FlowNetwork:
    """The dimension flow of ``dag`` solved by :func:`ssp_solve_min_cost`."""
    net = FlowNetwork(dag)
    ssp_solve_min_cost(net, len(dag.leaders))
    return net


def heap_dijkstra(
    net: FlowNetwork, potential: list[float], start: int, backward: bool = False
) -> tuple[list[float], list[int]]:
    """Reduced-cost residual distances from ``start``, and the arc that last
    improved each node's distance, with one heap of ``(distance, node)``
    pairs; ``parent`` changes only on a strict improvement.  When
    ``backward``, the distances to ``start`` that
    ``FlowNetwork.in_copy_distances_to_sink`` reads from the sink: the
    search follows arc ``a ^ 1`` into ``u`` from ``head[a]``.  Every node
    without a potential is skipped."""
    flip, sign = (1, -1) if backward else (0, 1)
    dist = [_INF] * net.size
    parent = [-1] * net.size
    dist[start] = 0  # an int: the bucket pass indexes by potentials moved by these distances
    heap = [(0, start)]
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
    return frozenset(v for v in net._ext_of_pos if net._cap[(net._in[v] + net._to_sink) ^ 1])


# -- numeric route: exact draws over Python ints, and a float cross-check

FIELD = 2**31 - 1


def _insert(echelon: dict[int, list[int]], vector: list[int]) -> bool:
    """Reduce ``vector`` mod ``FIELD`` against ``echelon``, whose rows are
    keyed by their pivot column, each 1 at its pivot and 0 before it, and
    add what is left as a new row if it is not zero.  Returns whether a row
    was added, i.e. whether ``vector`` raises the rank."""
    v = [x % FIELD for x in vector]
    for col, row in sorted(echelon.items()):
        if v[col]:
            factor = v[col]
            v = [(x - factor * y) % FIELD for x, y in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return False
    inverse = pow(v[lead], FIELD - 2, FIELD)
    echelon[lead] = [x * inverse % FIELD for x in v]
    return True


def controllability_stack(dag: StructuredDag, weights: Iterable[int]) -> list[list[int]]:
    """The columns of ``[B, AB, A^2 B, ...]`` mod ``FIELD`` for one draw's
    weights in sorted-edge order, one unit column of ``B`` per leader in
    ascending order, cut after n blocks or before the first all-zero block,
    after which every block is ``A 0 = 0``."""
    n = dag.node_count
    weighted = list(zip(sorted(dag.edges), weights))
    block = [[int(v == leader) for v in range(1, n + 1)] for leader in sorted(dag.leaders)]
    columns: list[list[int]] = []
    for _ in range(n):
        if not any(map(any, block)):
            break
        columns += block
        following = []
        for column in block:
            image = [0] * n
            for (u, v), w in weighted:
                image[v - 1] = (image[v - 1] + w * column[u - 1]) % FIELD
            following.append(image)
        block = following
    return columns


def rank_mod_p(vectors: Iterable[list[int]]) -> int:
    """The rank of ``vectors`` over the field of ``FIELD`` elements."""
    echelon: dict[int, list[int]] = {}
    return sum(_insert(echelon, list(v)) for v in vectors)


def exact_draw(dag: StructuredDag, weights: Iterable[int]) -> tuple[int, frozenset[int]]:
    """One draw's rank ``rank(C)`` over the field and its fixed nodes, the
    v with ``rank([C | e_v]) == rank(C)``."""
    echelon: dict[int, list[int]] = {}
    for column in controllability_stack(dag, weights):
        _insert(echelon, column)
    n = dag.node_count
    fixed = frozenset(
        v
        for v in range(1, n + 1)
        if not _insert(dict(echelon), [int(u == v) for u in range(1, n + 1)])
    )
    return len(echelon), fixed


def stream_weights(dag: StructuredDag, seed: int) -> Iterator[np.ndarray]:
    """The weights of draws 0, 1, ... of ``seed``'s stream, in sorted-edge
    order.  Rows come from ``fixednodes.numeric._draw_weights``, the
    attribute the route calls, so a patch sees the draws of both."""
    rng = np.random.default_rng(seed)
    while True:
        yield fixednodes.numeric._draw_weights(rng, len(dag.edges))


def loop_weight_matrix(dag: StructuredDag, seed: int) -> np.ndarray:
    """The ``A`` of draw 0 of ``seed``'s stream, filled one edge at a time:
    one integer uniform in ``[1, FIELD)`` per edge in sorted order, the
    weight of edge ``(u, v)`` at ``(v - 1, u - 1)``."""
    n = dag.node_count
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in sorted(dag.edges):
        a[v - 1, u - 1] = rng.integers(1, FIELD)
    return a


def per_draw_exact_fixed_nodes(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    expected_dim: int | None = None,
) -> frozenset[int]:
    """``numeric_fixed_nodes`` with :func:`exact_draw` ranking each draw of
    the stream: the fixed set of every draw at the top rank, intersected,
    stopping once ``min(trials, 2)`` draws reach the top rank (and the
    expected dimension, when given)."""
    budget = trials if expected_dim is None else 3 * trials
    top, at_top, fixed = 0, 0, frozenset()
    draws = stream_weights(dag, seed)
    for _ in range(budget):
        rank, draw_fixed = exact_draw(dag, next(draws).tolist())
        if rank > top:
            top, at_top, fixed = rank, 0, draw_fixed
        if rank == top:
            at_top, fixed = at_top + 1, fixed & draw_fixed
        if at_top >= min(trials, 2) and (expected_dim is None or top >= expected_dim):
            break
    if expected_dim is not None and top < expected_dim:
        raise InconclusiveError(f"no draw reached rank {expected_dim} in {budget} trials")
    return fixed


def numeric_generic_dimension(
    dag: StructuredDag, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> int:
    """Maximum rank over the first ``trials`` draws of ``seed``'s stream,
    each ranked by the route's own per-draw kernel."""
    n = dag.node_count
    basis = np.zeros((n, n), dtype=np.int64)
    pattern = fixednodes.numeric._pattern(dag)
    draws = stream_weights(dag, seed)
    return max(fixednodes.numeric._draw(basis, pattern, next(draws))[0] for _ in range(trials))


def input_matrix(dag: StructuredDag) -> np.ndarray:
    """``B``: one unit column per leader, leaders in ascending order."""
    b = np.zeros((dag.node_count, len(dag.leaders)))
    for col, leader in enumerate(sorted(dag.leaders)):
        b[leader - 1, col] = 1.0
    return b


# A float route's own rank cut: a singular value counts when it exceeds this
# times the draw's largest, and a node is fixed when its residual stays below.
FLOAT_TOL = 1e-8


def float_weight_matrices(dag: StructuredDag, seed: int) -> Iterator[np.ndarray]:
    """Float ``A`` matrices of a stream of its own: each weight is
    ``copysign(|x| + 0.5, x)`` for ``x ~ U[-1.5, 1.5)``, so its magnitude is
    in [0.5, 2.0] and the small graphs it is used on stay well conditioned."""
    n = dag.node_count
    edges = sorted(dag.edges)
    rng = np.random.default_rng(seed)
    while True:
        a = np.zeros((n, n))
        for u, v in edges:
            x = rng.uniform(-1.5, 1.5)
            a[v - 1, u - 1] = math.copysign(abs(x) + 0.5, x)
        yield a


def draw_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An orthonormal basis of one float draw's controllability column
    space: the left singular vectors of ``[B, AB, ...]``, cut before the
    first zero block, whose singular values exceed ``FLOAT_TOL`` times the
    largest."""
    blocks = [b]
    for _ in range(len(a) - 1):
        block = a @ blocks[-1]
        if not block.any():
            break
        blocks.append(block)
    u, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
    return u[:, : int(np.count_nonzero(s > FLOAT_TOL * s[0]))]


def per_draw_numeric_fixed_nodes(
    dag: StructuredDag, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> frozenset[int]:
    """A floating-point cross-check for small graphs: over ``trials`` float
    draws, one SVD each, the nodes whose residual projected onto every
    top-rank draw's column space stays below ``FLOAT_TOL``."""
    n = dag.node_count
    top = 0
    residual_floor = np.zeros(n)
    b = input_matrix(dag)
    draws = float_weight_matrices(dag, seed)
    for _ in range(trials):
        basis = draw_basis(next(draws), b)
        rank = basis.shape[1]
        if rank >= top:
            residuals = np.linalg.norm(np.eye(n) - basis @ basis.T, axis=0)
            residual_floor = residuals if rank > top else np.maximum(residual_floor, residuals)
            top = rank
    return frozenset(v for v in range(1, n + 1) if residual_floor[v - 1] < FLOAT_TOL)


# -- the generator with its candidate pools listed


def listed_pools(config: GeneratorConfig) -> tuple[np.random.Generator, set, list, list]:
    """The config's random stream after the backbone, the backbone edges, and
    the adjacent and skipping pools: ``(u, v)`` pairs listed layer pair by
    layer pair, u-major inside a pair, the backbone left out."""
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
    for a, b in combinations(range(config.depth), 2):
        if b == a + 1 or config.skip_layer_prob > 0.0:
            pool = adjacent if b == a + 1 else skipping
            pool.extend(
                (u, v) for u in layers[a] for v in layers[b] if (u, v) not in edges
            )
    return rng, edges, adjacent, skipping


def pooled_layered_dag(config: GeneratorConfig) -> StructuredDag:
    """``random_layered_dag`` with both pools listed and drawn by
    ``list.pop``: the stream every generated graph is pinned to."""
    rng, edges, adjacent, skipping = listed_pools(config)
    for _ in range(config.edge_count - len(edges)):
        want_skip = bool(skipping) and rng.random() < config.skip_layer_prob
        pool = skipping if want_skip else adjacent
        if not pool:
            pool = adjacent or skipping
        edge = pool.pop(int(rng.integers(len(pool))))
        edges.add(edge)

    return StructuredDag.of(config.node_count, edges, range(1, config.leader_count + 1))
