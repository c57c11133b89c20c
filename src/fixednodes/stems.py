"""Disjoint stem families: flow-based optima and an exhaustive oracle.

A *stem* is a directed path whose first node is a leader (a lone leader is a
length-1 stem).  Two questions drive everything here:

* how many nodes can a family of pairwise vertex-disjoint stems cover in the
  whole graph (the generic dimension of the controllable subspace), and
* how many nodes of one target layer can such a family reach.

Both reduce to unit-capacity flow on the node-split graph: every node becomes
an ``in -> out`` arc of capacity one, so any integral flow decomposes into
vertex-disjoint leader-rooted paths.  The first question additionally needs a
cheapest flow under a profit of one per covered node, solved by successive
shortest paths with potentials seeded in topological order.  The exhaustive
enumerator at the bottom re-derives the same answers by brute force and serves
as the correctness oracle in tests.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceededError, InvalidGraphError
from .graph import StructuredDag, label_layers

DEFAULT_ENUM_CAP = 15

_INF = float("inf")


@dataclass(frozen=True)
class StemFamily:
    """Pairwise vertex-disjoint stems, at most one per leader."""

    stems: tuple[tuple[int, ...], ...]

    @cached_property
    def covered(self) -> frozenset[int]:
        """All nodes appearing in any stem."""
        return frozenset(v for stem in self.stems for v in stem)

    def matched(self, targets: Iterable[int]) -> frozenset[int]:
        """Target nodes some stem ends at (targets are sinks, so ends = hits)."""
        return self.covered & frozenset(targets)


def stem_family_violations(dag: StructuredDag, family: StemFamily) -> list[str]:
    """Structural check of the StemFamily invariants against a graph."""
    problems: list[str] = []
    roots = [stem[0] for stem in family.stems if stem]
    if any(not stem for stem in family.stems):
        problems.append("empty stem")
    for stem in family.stems:
        if stem and stem[0] not in dag.leaders:
            problems.append(f"stem {list(stem)} does not start at a leader")
        for u, v in zip(stem, stem[1:]):
            if (u, v) not in dag.edges:
                problems.append(f"stem {list(stem)} uses missing edge ({u}, {v})")
    if len(roots) != len(set(roots)):
        problems.append("two stems share a leader")
    if len(family.stems) > len(dag.leaders):
        problems.append("more stems than leaders")
    total = sum(len(stem) for stem in family.stems)
    if total != len(family.covered):
        problems.append("stems are not vertex-disjoint")
    return problems


class FlowNetwork:
    """Unit-capacity residual network over the node-split graph.

    Node ``v`` splits into ``v_in -> v_out`` (capacity 1); a super-source feeds
    every leader's in-copy and sink arcs leave the out-copies of the target set
    (every node when ``targets`` is None).  With ``covered_profit`` the
    internal arcs cost -1 each, so a min-cost flow maximizes covered nodes.
    The underlying graph must be acyclic, which keeps shortest paths under
    negative costs well defined and makes flow decomposition cycle-free.
    """

    def __init__(
        self,
        dag: StructuredDag,
        *,
        targets: frozenset[int] | None = None,
        covered_profit: bool = False,
    ):
        order = tuple(v for layer in label_layers(dag).layers for v in sorted(layer))
        self._ext_of_pos = order
        pos_of = {v: i for i, v in enumerate(order)}
        self.source = 0
        self.sink = 2 * len(order) + 1
        self.size = self.sink + 1
        self._in = {v: 1 + 2 * pos_of[v] for v in order}
        self._out = {v: 2 + 2 * pos_of[v] for v in order}

        self._head: list[int] = []
        self._cap: list[int] = []
        self._cost: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(self.size)]
        self._sink_arc: dict[int, int] = {}

        for leader in sorted(dag.leaders):
            self._add_arc(self.source, self._in[leader], 0)
        internal_cost = -1 if covered_profit else 0
        for v in order:
            self._add_arc(self._in[v], self._out[v], internal_cost)
        for u, v in sorted(dag.edges):
            self._add_arc(self._out[u], self._in[v], 0)
        for v in sorted(dag.nodes if targets is None else targets):
            self._sink_arc[v] = self._add_arc(self._out[v], self.sink, 0)

    def _add_arc(self, u: int, v: int, cost: int) -> int:
        arc = len(self._head)
        self._head.extend((v, u))
        self._cap.extend((1, 0))
        self._cost.extend((cost, -cost))
        self._adj[u].append(arc)
        self._adj[v].append(arc + 1)
        return arc

    # -- plain max flow (layer coverage) ------------------------------------

    def max_flow(self) -> int:
        """BFS augmentations over positive-capacity residual arcs until none is left."""
        value = 0
        while True:
            parent: list[int] = [-1] * self.size
            parent[self.source] = -2
            queue = deque([self.source])
            while queue:
                u = queue.popleft()
                if u == self.sink:
                    break
                for arc in self._adj[u]:
                    v = self._head[arc]
                    if self._cap[arc] > 0 and parent[v] == -1:
                        parent[v] = arc
                        queue.append(v)
            if parent[self.sink] == -1:
                return value
            self._augment(parent)
            value += 1

    # -- min-cost flow of a fixed value (generic dimension) -----------------

    def solve_min_cost(self, value: int) -> None:
        """Successive shortest paths; potentials from one topological pass.

        Arc insertion gives ascending head order within adjacency lists and the
        split indices follow topological order, so the relaxation pass is exact
        and augmenting-path ties resolve toward lower external ids.
        """
        potential = [_INF] * self.size
        potential[self.source] = 0.0
        for u in range(self.size):
            if potential[u] == _INF:
                continue
            for arc in self._adj[u]:
                if self._cap[arc] > 0:
                    v = self._head[arc]
                    d = potential[u] + self._cost[arc]
                    if d < potential[v]:
                        potential[v] = d

        for _ in range(value):
            dist, parent = self._dijkstra(potential)
            if dist[self.sink] == _INF:
                raise InvalidGraphError("flow value infeasible; leaders cannot reach the sink")
            for v in range(self.size):
                if dist[v] < _INF:
                    potential[v] += dist[v]
            self._augment(parent)

    def _augment(self, parent: list[int]) -> None:
        """Push one unit along the source-sink path recorded in ``parent``."""
        v = self.sink
        while v != self.source:
            arc = parent[v]
            self._cap[arc] -= 1
            self._cap[arc ^ 1] += 1
            v = self._head[arc ^ 1]

    def _dijkstra(self, potential: list[float]) -> tuple[list[float], list[int]]:
        dist = [_INF] * self.size
        parent = [-1] * self.size
        dist[self.source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, self.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for arc in self._adj[u]:
                if self._cap[arc] <= 0:
                    continue
                v = self._head[arc]
                if potential[v] == _INF:
                    continue
                nd = d + self._cost[arc] + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = arc
                    heapq.heappush(heap, (nd, v))
        return dist, parent

    # -- reading the solved flow --------------------------------------------

    def stems(self) -> StemFamily:
        """Decode the integral flow into leader-rooted node sequences."""
        found: list[tuple[int, ...]] = []
        for arc in self._adj[self.source]:
            if arc % 2 or self._cap[arc] > 0:
                continue
            stem: list[int] = []
            u = self._head[arc]
            while u != self.sink:
                pos = (u - 1) // 2
                if u % 2 == 1:  # in-copy: record the node, cross to its out-copy
                    stem.append(self._ext_of_pos[pos])
                u = self._follow(u)
            found.append(tuple(stem))
        return StemFamily(tuple(sorted(found)))

    def _follow(self, u: int) -> int:
        for arc in self._adj[u]:
            if arc % 2 == 0 and self._cap[arc] == 0:
                return self._head[arc]
        raise AssertionError("flow conservation broken while decoding stems")

    def matched_targets(self) -> frozenset[int]:
        return frozenset(v for v, arc in self._sink_arc.items() if self._cap[arc] == 0)

    def targets_reaching_sink(self) -> frozenset[int]:
        """Targets whose out-copy reaches the sink in the residual network.

        One reverse search from the sink: arc ``a`` leaves node ``x``, so its
        reverse ``a ^ 1`` enters ``x`` and is followed backwards while it has
        residual capacity.
        """
        reached = [False] * self.size
        reached[self.sink] = True
        stack = [self.sink]
        while stack:
            x = stack.pop()
            for arc in self._adj[x]:
                u = self._head[arc]
                if self._cap[arc ^ 1] > 0 and not reached[u]:
                    reached[u] = True
                    stack.append(u)
        return frozenset(v for v in self._sink_arc if reached[self._out[v]])


class LayerCoverage:
    """Solved coverage problem for one target layer of a prefix graph.

    Exposes the optimum ``mu``, a witness family and the matched target set of
    that witness.  A target is *essential* when dropping it strictly lowers
    the optimum, which is equivalent to membership in every maximum
    matched-node set.  By flow optimality a matched target can be dropped at
    full value iff its out-copy still reaches the sink in the residual of the
    solved flow (rerouting its unit along that path frees its sink arc), and
    an unmatched target is never essential.  One reverse search over the
    residual, run on the first ``essential`` call, decides every target.
    """

    def __init__(self, prefix: StructuredDag, targets: Iterable[int]):
        self.targets = frozenset(targets)
        if not self.targets <= prefix.nodes:
            raise InvalidGraphError("targets are not nodes of the prefix graph")
        not_sinks = sorted(v for v in self.targets if prefix.out_neighbors[v])
        if not_sinks:
            raise InvalidGraphError(f"targets must be sinks of the prefix graph: {not_sinks}")
        self._net = FlowNetwork(prefix, targets=self.targets)
        self.mu = self._net.max_flow()
        self.witness = self._net.stems()
        self.matched = self._net.matched_targets()

    @cached_property
    def _droppable(self) -> frozenset[int]:
        return self._net.targets_reaching_sink()

    def essential(self, v: int) -> bool:
        """True iff dropping ``v`` from the target set strictly lowers ``mu``."""
        if v not in self.targets:
            raise InvalidGraphError(f"{v} is not a target of this layer")
        return v in self.matched and v not in self._droppable


def generic_dimension(dag: StructuredDag) -> tuple[int, StemFamily]:
    """Maximum node count coverable by disjoint stems, with a witness family.

    Saturating every leader never hurts: a leader not rooting a stem is either
    uncovered (add its length-1 stem) or sits inside another stem (split that
    stem at the leader), so the flow value is pinned to the leader count.
    """
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    if not dag.leaders <= dag.nodes:
        raise InvalidGraphError("leaders must be nodes of the graph")
    net = FlowNetwork(dag, covered_profit=True)
    net.solve_min_cost(len(dag.leaders))
    family = net.stems()
    return len(family.covered), family


# -- exhaustive search (the oracle half of every dual-route check) -----------


def enumerate_max_families(
    prefix: StructuredDag,
    targets: Iterable[int],
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[StemFamily, ...]:
    """All maximum-coverage families for one layer, one per matched-node set.

    Exponential by nature; guarded by ``cap`` on the node count.  Families are
    deduplicated by their matched target set and returned in sorted order, so
    the distinct matched sets are exactly ``fam.matched(targets)`` over the
    result.
    """
    target_set = frozenset(targets)
    if not target_set <= prefix.nodes:
        raise InvalidGraphError("targets are not nodes of the prefix graph")
    score = lambda covered: len(covered & target_set)
    _, families = _exhaustive_optimum(prefix, cap, score, key=lambda c: c & target_set)
    return families


def exhaustive_generic_dimension(
    dag: StructuredDag, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, tuple[StemFamily, ...]]:
    """Brute-force generic dimension with all optimal covered sets (test oracle)."""
    best, families = _exhaustive_optimum(dag, cap, len, key=lambda c: c)
    return best, families


def _exhaustive_optimum(
    dag: StructuredDag,
    cap: int,
    score: Callable[[frozenset[int]], int],
    key: Callable[[frozenset[int]], frozenset[int]],
) -> tuple[int, tuple[StemFamily, ...]]:
    if dag.node_count > cap:
        raise BudgetExceededError(
            f"exhaustive search needs node count <= {cap}, got {dag.node_count}"
        )
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    stems_per_leader = [
        tuple(_paths_from(dag, leader)) for leader in sorted(dag.leaders)
    ]
    best = -1
    chosen: dict[frozenset[int], StemFamily] = {}
    for stems in _disjoint_products(stems_per_leader):
        covered = frozenset(v for stem in stems for v in stem)
        value = score(covered)
        if value > best:
            best = value
            chosen = {}
        if value == best:
            chosen.setdefault(key(covered), StemFamily(tuple(sorted(stems))))
    ordered = sorted(chosen, key=lambda s: tuple(sorted(s)))
    return best, tuple(chosen[k] for k in ordered)


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
