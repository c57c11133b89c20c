"""Disjoint stem families and the flow network that finds them.

A *stem* is a directed path whose first node is a leader (a lone leader is a
length-1 stem).  Three questions drive everything here:

* how many nodes can a family of pairwise vertex-disjoint stems cover in the
  whole graph (the generic dimension of the controllable subspace),
* how many nodes of one target layer can such a family reach, and
* which sets of layer nodes the maximum families reach (the matched sets).

All reduce to unit-capacity flow on the node-split graph: every node becomes
an ``in -> out`` arc of capacity one, so any integral flow decomposes into
vertex-disjoint leader-rooted paths (Menger's theorem).  The first question
additionally needs a cheapest flow under a profit of one per covered node
(each ``in -> out`` arc costs -1), solved by successive shortest paths with
potentials seeded in topological order; each graph solves it once and caches
it.  The second and third need only a maximum flow into the sink arcs that
are open, which ignores the costs; the layered sweep in ``search`` asks both,
the third by one max flow per candidate set.  The brute-force enumerator the
tests check all three against lives in ``tests/references.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from .errors import InvalidGraphError
from .graph import StructuredDag, label_layers

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
    every leader's in-copy, and every out-copy has a sink arc that starts
    closed (capacity 0) until :meth:`open_sinks` or :meth:`open_layer` opens
    it.  A unit of flow on an arc shows as residual capacity on its reverse.
    The ``in -> out`` arcs cost -1 each, so a min-cost flow maximizes covered
    nodes; only the min-cost solve and its distances read the costs.  Split
    indices follow the graph's layer labeling, layer by layer, so layers
    ``1..k`` are exactly the indices up to ``2·|layers 1..k|``.  The
    underlying graph must be acyclic, which keeps shortest paths under
    negative costs well defined and makes flow decomposition cycle-free; a
    cyclic graph raises :class:`InvalidGraphError`.
    """

    def __init__(self, dag: StructuredDag):
        label_layers(dag)  # raises on a cycle
        self._layers = dag.source_layers
        order = tuple(v for layer in self._layers for v in layer)
        self._ext_of_pos = order
        self._bound = [0, *accumulate(2 * len(layer) for layer in self._layers)]
        self.source = 0
        self.sink = 2 * len(order) + 1
        self.size = self.sink + 1
        self._in = {v: 1 + 2 * i for i, v in enumerate(order)}
        self._out = {v: 2 + 2 * i for i, v in enumerate(order)}

        self._head: list[int] = []
        self._cap: list[int] = []
        self._cost: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(self.size)]
        self._open: set[int] = set()  # nodes whose sink arc is open

        for leader in sorted(dag.leaders):
            self._add_arc(self.source, self._in[leader], 0)
        self._through = {v: self._add_arc(self._in[v], self._out[v], -1) for v in order}
        for u, v in dag.sorted_edges:
            self._add_arc(self._out[u], self._in[v], 0)
        self._sink_arc = {v: self._add_arc(self._out[v], self.sink, 0, 0) for v in dag.sorted_nodes}

    def _add_arc(self, u: int, v: int, cost: int, cap: int = 1) -> int:
        arc = len(self._head)
        self._head.extend((v, u))
        self._cap.extend((cap, 0))
        self._cost.extend((cost, -cost))
        self._adj[u].append(arc)
        self._adj[v].append(arc + 1)
        return arc

    def _push(self, arc: int) -> None:
        self._cap[arc] -= 1
        self._cap[arc ^ 1] += 1

    def reset(self) -> None:
        """Drop all flow and close every sink arc: the network as built, with
        capacity one on every forward arc but the sink arcs."""
        cap = self._cap
        half = len(cap) // 2
        cap[0::2] = [1] * half
        cap[1::2] = [0] * half
        for arc in self._sink_arc.values():
            cap[arc] = 0
        self._open.clear()

    def open_sinks(self, nodes: Iterable[int]) -> None:
        """Give the sink arcs of ``nodes`` capacity one."""
        for v in nodes:
            self._cap[self._sink_arc[v]] = 1
            self._open.add(v)

    # -- plain max flow (layer coverage) ------------------------------------

    def open_layer(self, k: int) -> None:
        """Move the sink arcs from layer ``k - 1`` to layer ``k``; re-maximize.

        Each unit ending at a node ``u`` of layer ``k - 1`` leaves ``u``'s sink
        arc and goes on along ``u``'s first out-edge into a free node of layer
        ``k``, ending there; with no such node its stem is retracted to the
        source.  The flow stays feasible for layers ``1..k``, and BFS
        augmentations over their split indices make it maximum.
        """
        lo, hi = self._bound[k - 1], self._bound[k]
        self.open_sinks(self._layers[k - 1])
        for u in self._layers[k - 2] if k > 1 else ():
            arc = self._sink_arc[u]
            self._cap[arc] = 0
            self._open.discard(u)
            if self._cap[arc ^ 1]:
                self._cap[arc ^ 1] = 0
                self._carry_on(self._out[u], lo, hi)
        self.max_flow(hi)

    def _carry_on(self, x: int, lo: int, hi: int) -> None:
        """Extend the stem stranded at out-copy ``x`` by one edge into a free
        in-copy in ``(lo, hi]``, or walk it back to the source."""
        for arc in self._adj[x]:
            w = self._head[arc]
            if arc % 2 == 0 and lo < w <= hi:
                v = self._ext_of_pos[w // 2]
                if self._cap[self._through[v]]:
                    self._push(arc)
                    self._push(self._through[v])
                    self._push(self._sink_arc[v])
                    return
        while x != self.source:
            arc = next(a for a in self._adj[x] if a % 2 and self._cap[a])
            self._push(arc)
            x = self._head[arc]

    def max_flow(self, last: int | None = None) -> int:
        """BFS augmentations over positive-capacity residual arcs until none is
        left, through split indices up to ``last`` (all by default) and the sink.

        An augmenting path leaves the source through an unsaturated source
        arc, so with none left the search is skipped; the layered sweep's deep
        layers mostly end here, in O(|leaders|) instead of O(n).
        """
        if not any(self._cap[arc] for arc in self._adj[self.source]):
            return 0
        last = self.sink - 1 if last is None else last
        # indices past ``last`` start out marked as reached, so no search enters them
        unvisited = [-1] * (last + 1) + [-3] * (self.sink - last - 1) + [-1]
        value = 0
        while True:
            parent = unvisited.copy()
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
        potential[self.source] = 0
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
            dist, parent = self._dijkstra(potential, self.source)
            if dist[self.sink] == _INF:
                raise InvalidGraphError("flow value infeasible; leaders cannot reach the sink")
            potential = [p + d if d < _INF else p for p, d in zip(potential, dist)]
            self._augment(parent)
        self._potential = potential

    def _augment(self, parent: list[int]) -> None:
        """Push one unit along the source-sink path recorded in ``parent``."""
        v = self.sink
        while v != self.source:
            arc = parent[v]
            self._push(arc)
            v = self._head[arc ^ 1]

    def _dijkstra(
        self, potential: list[float], start: int, backward: bool = False
    ) -> tuple[list[float], list[int]]:
        """Reduced-cost residual distances from ``start``, or to it when
        ``backward`` (``a ^ 1`` enters ``u`` from ``head[a]``, walked in reverse).

        Nodes without a potential are never entered.  Between the others the
        reduced costs are integers and none is negative on a residual arc, so
        a node never settles below the distance of the one settled before it.
        A bucket queue (Dial, CACM 1969) keyed by distance, with a heap of node
        ids inside each bucket, therefore settles nodes in ascending
        ``(distance, id)`` order, the order of one heap of ``(distance, id)``
        pairs; ``parent`` changes only on a strict improvement, so ties and
        augmenting paths resolve exactly as with that heap.  When every
        reached node sits at distance 0, as in most successive-shortest-path
        steps here, only the id heap of bucket 0 is ever touched.
        """
        flip, sign = (1, -1) if backward else (0, 1)
        head, cap, cost, adj = self._head, self._cap, self._cost, self._adj
        push, pop = heapq.heappush, heapq.heappop
        dist = [_INF] * self.size
        parent = [-1] * self.size
        dist[start] = 0
        buckets = {0: [start]}  # distance -> heap of node ids
        keys = [0]  # heap of the distances in ``buckets``
        while keys:
            d = pop(keys)
            bucket = buckets.pop(d)
            while bucket:
                u = pop(bucket)
                if dist[u] < d:
                    continue
                base = d + sign * potential[u]
                for arc in adj[u]:
                    step = arc ^ flip
                    if cap[step] <= 0:
                        continue
                    v = head[arc]
                    pv = potential[v]
                    if pv == _INF:
                        continue
                    nd = base + cost[step] - sign * pv
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = arc
                        if nd == d:
                            push(bucket, v)
                        elif nd in buckets:
                            push(buckets[nd], v)
                        else:
                            buckets[nd] = [v]
                            push(keys, nd)
        return dist, parent

    # -- reading the solved flow --------------------------------------------

    def stems(self) -> StemFamily:
        """Decode the integral flow into leader-rooted node sequences."""
        found: list[tuple[int, ...]] = []
        for arc in self._adj[self.source]:
            if arc % 2 or not self._cap[arc ^ 1]:
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
            if arc % 2 == 0 and self._cap[arc ^ 1]:
                return self._head[arc]
        raise AssertionError("flow conservation broken while decoding stems")

    def matched_targets(self, nodes: Iterable[int]) -> frozenset[int]:
        """The ``nodes`` whose sink arc carries a unit.

        Only the sink arcs of ``nodes`` are read; in the layered sweep these
        are the newest layer's, the only sink arcs open there.
        """
        return frozenset(v for v in nodes if self._cap[self._sink_arc[v] ^ 1])

    def targets_reaching_sink(self, targets: Iterable[int]) -> frozenset[int]:
        """The ``targets`` whose out-copy reaches the sink in the residual network.

        A breadth-first search backwards from the sink: arc ``a`` leaves node
        ``x``, so its reverse ``a ^ 1`` enters ``x`` and is followed backwards
        while it has residual capacity.  The only arcs into the sink with
        residual capacity are the open, unsaturated sink arcs, so the search
        starts from their out-copies, read off the open set (in the layered
        sweep, the newest layer) instead of the sink's adjacency list.  It
        stops as soon as every target is reached; a target is reported
        unreached only once the search is exhausted.
        """
        outs = {self._out[v]: v for v in targets}
        queue = deque(self._out[v] for v in self._open if self._cap[self._sink_arc[v]])
        reached = {self.sink, *queue}
        missing = outs.keys() - reached
        while missing and queue:
            x = queue.popleft()
            for arc in self._adj[x]:
                u = self._head[arc]
                if self._cap[arc ^ 1] > 0 and u not in reached:
                    reached.add(u)
                    missing.discard(u)
                    queue.append(u)
        return frozenset(v for x, v in outs.items() if x in reached)

    def in_copy_distances_to_sink(self) -> dict[int, float]:
        """Cheapest residual path cost from every node's in-copy to the sink.

        One backward Dijkstra from the sink on the reduced costs of the
        potentials :meth:`solve_min_cost` keeps, none negative on a residual
        arc: each forward Dijkstra of the solve reaches the sink, and from it
        every stem backwards and every node off the stems forwards, so every
        node a leader reaches takes part in every potential update.  In-copies
        no leader reaches have no potential and are left out.
        """
        potential = self._potential
        dist, _ = self._dijkstra(potential, self.sink, backward=True)
        offset = potential[self.sink]
        return {v: dist[i] - potential[i] + offset for v, i in self._in.items() if dist[i] < _INF}


def _solve_dimension(dag: StructuredDag) -> tuple[FlowNetwork, tuple[int, StemFamily]]:
    """The solved min-cost flow, its dimension and its maximum-coverage family.

    Saturating every leader never hurts: a leader not rooting a stem is either
    uncovered (add its length-1 stem) or sits inside another stem (split that
    stem at the leader), so the flow value is pinned to the leader count.
    """
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    if not dag.leaders <= dag.nodes:
        raise InvalidGraphError("leaders must be nodes of the graph")
    net = FlowNetwork(dag)
    net.open_sinks(dag.nodes)
    net.solve_min_cost(len(dag.leaders))
    family = net.stems()
    return net, (len(family.covered), family)


def _dimension_flow(dag: StructuredDag) -> FlowNetwork:
    """The graph's cached dimension flow; every route shares it, so none modifies it."""
    return dag._dimension[0]


def generic_dimension(dag: StructuredDag) -> tuple[int, StemFamily]:
    """Maximum node count coverable by disjoint stems, with a witness family;
    solved once per graph, so every call on it returns the same pair."""
    return dag._dimension[1]
