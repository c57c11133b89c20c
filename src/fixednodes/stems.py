"""Disjoint stem families and the flow network that finds them.

A *stem* is a directed path whose first node is a leader (a lone leader is a
length-1 stem).  Three questions drive everything here:

* how many nodes can a family of pairwise vertex-disjoint stems cover in the
  whole graph (the generic dimension of the controllable subspace),
* how many nodes of one target layer can such a family reach, and
* which layer nodes every maximum family reaches (those in every matched set).

All reduce to unit-capacity flow on the node-split graph: every node becomes
an ``in -> out`` arc of capacity one, so any integral flow decomposes into
vertex-disjoint leader-rooted paths (Menger's theorem).  The first question
additionally needs a cheapest flow under a profit of one per covered node
(each ``in -> out`` arc costs -1), solved in primal-dual phases from
potentials seeded in topological order; each graph solves it once and caches
it.  A phase pushes units by depth-first search along the residual arcs of
reduced cost 0, and a bucket queue moves the potentials between phases; the
same bucket queue finds the oracle's distances to the sink by running from it
on the mirrored residual.  The same solved flow tells which nodes every
maximum family covers, from the components of its arcs of reduced cost 0.
The second and third questions need only a maximum flow into one layer's
sink arcs, which ignores the costs, and for the third one residual search
back from the sink; the layered sweep in ``search`` asks both.  One
breadth-first search serves the flow: from the source it finds an augmenting
path.  The sweep keeps one maximum flow and moves it down a layer at a time,
starting the same search at each unit stranded by closing the layer above;
the unit goes on to the sink if a residual path allows, and back to the
source otherwise.  Every network over a graph shares the graph's one arc
table and keeps only its own capacities; a node's out-copy, ``in -> out`` arc
and sink arc lie at fixed offsets from its in-copy, and split indices run
layer by layer, so each layer's sink arcs form one run of the arc list.  The
brute-force enumerator, the successive-shortest-path solver and the
per-layer flow the tests check these against live in ``tests/references.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

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


class _ArcTable(NamedTuple):
    """A graph's node-split arc arrays (see :class:`FlowNetwork`), built once
    per graph and shared read-only by every network over it.  A node's
    out-copy is its in-copy + 1, and its ``in -> out`` and sink arcs are its
    in-copy plus ``to_through`` and ``to_sink``."""

    order: tuple[int, ...]  # external id of each split pair, layer by layer
    bound: list[int]  # highest split index of layers 1..k, at k
    in_copy: list[int]  # the in-copy of each node, indexed by id
    to_through: int
    to_sink: int
    head: list[int]
    cost: list[int]
    cap: list[int]  # the capacities of a network as built, every sink arc open
    adj: list[list[int]]


def _build_arcs(dag: StructuredDag) -> _ArcTable:
    """The arc table of ``dag``, built from one list of tails and one of heads.

    The arcs come in four runs: the source arcs (leaders ascending), the
    ``in -> out`` arcs (split order), the edge arcs (edges ascending) and the
    sink arcs (split order).  Arc ``j`` of the lists is forward arc ``2j``
    and reverse arc ``2j + 1``; one pass over them lists each node's arcs in
    arc order, the order every search reads them in.  Only the sink's list
    depends on where the sink arcs come, and no answer depends on its order:
    each out-copy has one arc from the sink, the searches that may expand the
    sink return distances or strongly connected components, and the others
    stop at it.
    """
    label_layers(dag)  # raises on a cycle
    layers = dag.source_layers
    order = tuple(v for layer in layers for v in layer)
    n = len(order)
    sink = 2 * n + 1
    ins, outs = range(1, sink, 2), range(2, sink, 2)
    in_copy = [0] * (n + 1)
    for x, v in zip(ins, order):
        in_copy[v] = x
    # flat lists of ints, not pairs, so the build adds no garbage-collection passes
    tails = [0] * len(dag.leaders)
    tails += ins
    tails += [in_copy[u] + 1 for u, _ in dag.sorted_edges]
    tails += outs
    heads = [in_copy[x] for x in sorted(dag.leaders)]
    heads += outs
    heads += [in_copy[v] for _, v in dag.sorted_edges]
    heads += [sink] * n
    head = [0] * (2 * len(tails))
    head[::2], head[1::2] = heads, tails
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    for arc, u, v in zip(range(0, len(head), 2), tails, heads):
        adj[u].append(arc)
        adj[v].append(arc + 1)
    to_through, to_sink = 2 * len(dag.leaders) - 1, len(head) - sink
    cost = [0] * len(head)
    cost[to_through + 1 : to_through + sink] = [-1, 1] * n
    cap = [1, 0] * (len(head) // 2)
    bound = [0, *accumulate(2 * len(layer) for layer in layers)]
    return _ArcTable(order, bound, in_copy, to_through, to_sink, head, cost, cap, adj)


class FlowNetwork:
    """Unit-capacity residual network over the node-split graph.

    Node ``v`` splits into ``v_in -> v_out`` (capacity 1); a super-source feeds
    every leader's in-copy, and every out-copy has a sink arc, open
    (capacity 1) as built, as the dimension flow needs it; the layered
    sweep's :meth:`open_layer` keeps one layer's open at a time.  A unit of
    flow on an arc shows as residual capacity on its reverse.  The
    ``in -> out`` arcs cost -1 each, so a min-cost flow maximizes covered
    nodes; only the min-cost solve and what is read off it use the costs.
    Three searches answer everything: a bucket-queue Dijkstra
    (:meth:`_bucket_pass`), from the source or, on the mirrored residual,
    from the sink, a depth-first search over the arcs of reduced cost 0
    (:meth:`_tight_walk`) and a breadth-first search (:meth:`_push_path`).
    Split indices follow the graph's layer labeling, layer by layer, so
    layers ``1..k`` are exactly the indices up to ``2·|layers 1..k|`` and
    layer ``k``'s sink arcs are one run of the arc list.  The underlying
    graph must be acyclic, which keeps shortest paths under negative costs
    well defined and makes flow decomposition cycle-free; a cyclic graph
    raises :class:`InvalidGraphError`.

    The arcs, costs and adjacency lists are the graph's one arc table, shared
    by every network over it; a network owns only its capacities.  A node
    with in-copy ``x`` has out-copy ``x + 1``, ``in -> out`` arc
    ``x + _to_through`` and sink arc ``x + _to_sink``.
    """

    def __init__(self, dag: StructuredDag):
        arcs = dag._arcs
        self._ext_of_pos, self._bound = arcs.order, arcs.bound
        self._in, self._to_through, self._to_sink = arcs.in_copy, arcs.to_through, arcs.to_sink
        self._head, self._cost, self._adj = arcs.head, arcs.cost, arcs.adj
        self.source = 0
        self.size = len(arcs.adj)
        self.sink = self.size - 1
        self._cap = arcs.cap.copy()

    def _push(self, arc: int) -> None:
        self._cap[arc] -= 1
        self._cap[arc ^ 1] += 1

    # -- plain max flow (layer coverage) ------------------------------------

    def open_layer(self, k: int) -> None:
        """Move the sink arcs from layer ``k - 1`` to layer ``k``; re-maximize.

        Each layer's sink arc pairs are one run of the arc list, so a layer
        closes and opens by one slice; opening layer 1 closes every sink
        arc, all open as built.  Closing those of layer ``k - 1`` strands
        the units that ended there, each at the out-copy its reverse sink
        arc leads to.  Each is repaired in place by :meth:`_carry_on`, which
        pushes it on to the sink through the residual of layers ``1..k``,
        or else back to the source.  The flow stays feasible for layers
        ``1..k``, and augmentations from the source over their split indices
        make it maximum.  Once every source arc is saturated, the last
        search reads only those arcs.
        """
        cap, to_sink, hi = self._cap, self._to_sink, self._bound[k]
        lo, top = to_sink + self._bound[k - 1] + 1, to_sink + hi + 1  # layer k's sink arcs
        start, end = (to_sink + self._bound[k - 2] + 1, lo) if k > 1 else (to_sink + 1, len(cap))
        stranded = [self._head[arc] for arc in range(start + 1, end, 2) if cap[arc]]
        cap[start:end] = [0] * (end - start)
        cap[lo:top:2] = [1] * ((top - lo) // 2)
        for x in stranded:
            self._carry_on(x, hi)
        while self._push_path(self.source, hi):
            pass

    def _carry_on(self, x: int, hi: int) -> bool:
        """Move the unit stranded at out-copy ``x`` by :meth:`_push_path`
        through split indices up to ``hi``, the newest layer's bound (deeper
        ones carry no flow, so no path through them returns to the sink),
        after trying the step most units take: one edge on into a free node."""
        head, cap = self._head, self._cap
        for arc in self._adj[x]:
            w = head[arc]
            if arc % 2 == 0 and w <= hi and cap[w + self._to_through]:
                for step in (arc, w + self._to_through, w + self._to_sink):
                    self._push(step)
                return True
        return self._push_path(x, hi)

    def _push_path(self, start: int, last: int) -> bool:
        """Push the unit at ``start`` along a shortest residual path to the
        sink, through split indices up to ``last``; return whether one exists.

        A breadth-first search (Ahuja, Magnanti & Orlin, *Network Flows*,
        1993, ch. 6-7) that expands the source only as ``start``, so every
        leader that carries a unit keeps it.  With no path to the sink, a unit stranded
        at ``start`` goes back to the source along the search's path to it,
        which exists: the reverse arcs of the unit's own stem lead there.
        """
        head, cap, adj, source, sink = self._head, self._cap, self._adj, self.source, self.sink
        parent = {start: -1}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for arc in adj[u]:
                v = head[arc]
                if cap[arc] and v not in parent and (v <= last or v == sink):
                    parent[v] = arc
                    if v == sink:
                        self._augment(parent, start, sink)
                        return True
                    if v != source:
                        queue.append(v)
        if start != source:
            self._augment(parent, start, source)
        return False

    def _augment(self, parent: dict[int, int], start: int, end: int) -> None:
        """Push one unit along the path from ``start`` to ``end`` recorded in
        ``parent``."""
        v = end
        while v != start:
            arc = parent[v]
            self._push(arc)
            v = self._head[arc ^ 1]

    # -- min-cost flow of a fixed value (generic dimension) -----------------

    def solve_min_cost(self, value: int) -> None:
        """Primal-dual phases (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
        §9.8) from potentials of one topological pass.

        The split indices follow topological order, so that pass is exact.  A
        phase keeps the potentials and pushes one unit at a time along a
        residual path of reduced cost 0, which :meth:`_tight_walk` finds; such
        a path is a shortest one, as in successive shortest paths.  A node
        the walk marks dead stays dead for the phase: an augmentation adds
        arcs only between nodes of its own path, all of which reached the
        sink.  When no such path is left, one :meth:`_bucket_pass` from the
        source gives every reduced-cost distance, and moving the potentials
        by them makes a shortest path tight again.

        No search from the source enters a node without a potential.  A node
        has one iff the source reached it before any flow was pushed.  A
        forward arc with residual capacity had it from the start, so it leads
        from a node the source reached then to another one.  A reverse arc
        with residual capacity lies on an earlier augmenting path, all of
        whose nodes that search reached.
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

        while True:
            dead = [0] * self.size
            dead[self.source] = 1  # a path to the sink never re-enters it
            while value and self._tight_walk(potential, self.source, dead, self.sink):
                value -= 1
            if not value:
                break
            dist = self._bucket_pass(potential, self.source, self._cap, self._cost)
            if dist[self.sink] == _INF:
                raise InvalidGraphError("flow value infeasible; leaders cannot reach the sink")
            potential = [p + d if d < _INF else p for p, d in zip(potential, dist)]
        self._potential = potential

    def _tight_walk(self, potential: list[float], start: int, done: list[int], target: int) -> bool:
        """Depth-first search from ``start`` over the residual arcs of reduced
        cost 0 that skips every node ``done`` marks.  On meeting ``target``
        it pushes one unit along its path there and returns True.

        Tarjan's low links (SIAM J. Comput. 1972) find each strongly connected
        component the search finishes, and it marks every node of one in
        ``done`` with the component's first node + 1.  Each arc out of such a
        component ends inside it or at a marked node, so none of its nodes
        reaches an unmarked ``target``.  A node whose search met one still on
        the stack stays unmarked until that node's component finishes, as the
        path found may pass through it.

        Each node's arcs are read last to first.  From an out-copy that tries
        the sink arc first and the way back up the node's own stem last, so a
        unit seldom takes a long detour through the stems already laid.
        """
        head, cap, cost, adj = self._head, self._cap, self._cost, self._adj
        order = {start: 0}  # entry index of each node this search entered
        frames = [[start, reversed(adj[start]), 0]]  # node, arcs left, least index met
        path: list[int] = []  # the arc into each frame's node but the first
        trail = [start]  # the entered nodes whose component is not finished
        while frames:
            frame = frames[-1]
            u, arcs, _ = frame
            base = potential[u]
            for arc in arcs:
                if cap[arc]:
                    v = head[arc]
                    if cost[arc] + base == potential[v] and not done[v]:
                        if v == target:
                            for a in (*path, arc):
                                self._push(a)
                            return True
                        if v not in order:
                            order[v] = len(order)
                            trail.append(v)
                            path.append(arc)
                            frames.append([v, reversed(adj[v]), order[v]])
                            break
                        if order[v] < frame[2]:
                            frame[2] = order[v]
            else:
                frames.pop()
                if frame[2] == order[u]:
                    x = -1
                    while x != u:
                        x = trail.pop()
                        done[x] = u + 1
                if frames:
                    path.pop()
                    if frame[2] < frames[-1][2]:
                        frames[-1][2] = frame[2]
        return False

    def _bucket_pass(
        self, potential: list[float], start: int, cap: list[int], cost: list[int]
    ) -> list[float]:
        """The reduced-cost distance of every node from ``start`` over the
        arcs with capacities ``cap`` and costs ``cost``, by Dial's bucket
        queue (CACM 1969); a node ``start`` does not reach stays at infinity.

        The reduced costs are integers and none is negative on a residual
        arc, so bucket ``d`` holds the nodes reached at distance ``d`` and the
        buckets are read upward, each in insertion order; a node reached again
        at the current distance joins the bucket being read."""
        head, adj = self._head, self._adj
        dist = [_INF] * self.size
        dist[start] = 0
        buckets: list[list[int]] = [[start]]
        for d, bucket in enumerate(buckets):  # reads the buckets and nodes appended on the way
            for u in bucket:
                if dist[u] < d:
                    continue  # settled from a lower bucket
                base = d + potential[u]
                for arc in adj[u]:
                    if cap[arc]:
                        v = head[arc]
                        nd = base + cost[arc] - potential[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            if nd >= len(buckets):
                                buckets += [[] for _ in range(nd + 1 - len(buckets))]
                            buckets[nd].append(v)
        return dist

    # -- reading the solved flow --------------------------------------------

    def stems(self) -> StemFamily:
        """Decode the integral flow into leader-rooted node sequences."""
        head, cap, adj = self._head, self._cap, self._adj
        found: list[tuple[int, ...]] = []
        for arc in adj[self.source]:
            if arc % 2 == 0 and cap[arc ^ 1]:
                stem: list[int] = []
                x = head[arc]
                while x != self.sink:  # from in-copy x, the unit leaves x + 1 by one forward arc
                    stem.append(self._ext_of_pos[x // 2])
                    x = next(head[a] for a in adj[x + 1] if a % 2 == 0 and cap[a ^ 1])
                found.append(tuple(stem))
        return StemFamily(tuple(sorted(found)))

    def matched_targets(self, nodes: Iterable[int]) -> frozenset[int]:
        """The ``nodes`` whose sink arc carries a unit.

        Only the sink arcs of ``nodes`` are read; in the layered sweep these
        are the newest layer's, the only sink arcs open there.
        """
        return frozenset(v for v in nodes if self._cap[(self._in[v] + self._to_sink) ^ 1])

    def targets_reaching_sink(self, targets: Iterable[int], layer: Iterable[int]) -> frozenset[int]:
        """The ``targets`` whose out-copy reaches the sink in the residual
        network whose only open sink arcs are those of ``layer``.

        A breadth-first search backwards from the sink: arc ``a`` leaves node
        ``x``, so its reverse ``a ^ 1`` enters ``x`` and is followed backwards
        while it has residual capacity.  The only arcs into the sink with
        residual capacity are the open, unsaturated sink arcs, so the search
        starts from the out-copies of ``layer``'s free sinks instead of the
        sink's adjacency list.  It stops as soon as every target is reached;
        a target is reported unreached only once the search is exhausted.
        """
        in_copy, head, cap, adj = self._in, self._head, self._cap, self._adj
        targets = tuple(targets)
        state = bytearray(self.size)  # 1 marks a target not yet reached, 2 a reached node
        for v in targets:
            state[in_copy[v] + 1] = 1
        queue = deque(in_copy[v] + 1 for v in layer if cap[in_copy[v] + self._to_sink])
        for x in (self.sink, *queue):
            state[x] = 2
        missing = state.count(1)
        while missing and queue:
            x = queue.popleft()
            for arc in adj[x]:
                if cap[arc ^ 1]:
                    u = head[arc]
                    if state[u] < 2:
                        missing -= state[u]
                        state[u] = 2
                        queue.append(u)
        return frozenset(v for v in targets if state[in_copy[v] + 1] == 2)

    def in_every_family(self) -> frozenset[int]:
        """The nodes every maximum family covers, read off the solved flow.

        Another minimum-cost flow of the same value differs from this one by
        residual cycles, each of reduced cost 0 as no residual arc has a
        negative one (complementary slackness).  So node ``v`` keeps its unit
        in every optimal flow iff its ``in -> out`` arc carries one and either
        the reverse of that arc is not tight or ``v_in`` and ``v_out`` lie in
        different strongly connected components of the tight residual arcs.
        :meth:`_tight_walk` labels the components, from each in-copy that
        needs one.
        """
        potential, cap, through = self._potential, self._cap, self._to_through
        component = [0] * self.size
        kept = []
        for x, v in zip(range(1, self.sink, 2), self._ext_of_pos):
            if cap[x + through]:
                continue  # no unit to keep
            if potential[x] == potential[x + 1] + 1:
                if not component[x]:
                    self._tight_walk(potential, x, component, -1)
                if component[x] == component[x + 1]:
                    continue
            kept.append(v)
        return frozenset(kept)

    def in_copy_distances_to_sink(self) -> dict[int, float]:
        """Cheapest residual path cost from every node's in-copy to the sink.

        A path to the sink is a path from it in the mirrored residual, whose
        arc ``a`` has the capacity and cost of ``a ^ 1``: capacities swap in
        pairs, and costs change sign.  The reduced cost of ``a ^ 1`` under
        the potentials :meth:`solve_min_cost` keeps equals that of mirrored
        ``a`` under their negation, none negative on a residual arc (every
        node a leader reaches takes part in every potential update), so one
        :meth:`_bucket_pass` from the sink finds every distance.  A node no
        leader reaches has no potential, negated to -inf, so every arc into
        it costs +inf and is never relaxed; its in-copy is left out.
        """
        potential = self._potential
        cap = self._cap.copy()
        cap[0::2], cap[1::2] = self._cap[1::2], self._cap[0::2]
        cost = [-c for c in self._cost]
        dist = self._bucket_pass([-p for p in potential], self.sink, cap, cost)
        offset = potential[self.sink]
        return {
            v: dist[x] - potential[x] + offset
            for x, v in zip(range(1, self.sink, 2), self._ext_of_pos)
            if dist[x] < _INF
        }


def _solve_dimension(dag: StructuredDag) -> tuple[FlowNetwork, tuple[int, StemFamily]]:
    """The solved min-cost flow, its dimension and its maximum-coverage family.

    Saturating every leader never hurts: a leader not rooting a stem is either
    uncovered (add its length-1 stem) or sits inside another stem (split that
    stem at the leader), so the flow value is pinned to the leader count.
    """
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    net = FlowNetwork(dag)
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
