"""Fixed-node determination.

A node is *fixed* when it stays controllable under every choice of nonzero
network weights; equivalently, attaching a fresh input to it cannot raise the
generic dimension of the controllable subspace.  Two routes are implemented:

* :func:`fixed_nodes_oracle` decides that definition for every node from one
  optimal flow (the reference everything else is measured against),
* :func:`fixed_nodes_layered` walks the layers top-down and keeps the targets
  that belong to every maximum matched set of their layer, except the nodes
  one maximum family leaves uncovered.  One flow network over the whole graph
  is swept layer by layer: opening layer ``k`` carries the previous layer's
  maximum flow one edge further and re-maximizes it over layers ``1..k``.
  On small graphs it also lists each layer's maximum matched sets.

Both take only the graph: the optimal flow and the maximum family they read
are the ones behind :func:`generic_dimension`, solved once per graph.

The layered route evaluates each layer inside its prefix graph.  On graphs
with layer-skipping edges this per-layer criterion is known to disagree with
the oracle on some instances (see ``tests/test_limitations.py``); on graphs
whose edges only join adjacent layers the two routes agree.  With a single
leader the layered route fixes exactly the nodes alone in their layer, and so
does the oracle when every edge joins adjacent layers: a property the tests
check, not a third route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidGraphError
from .graph import StructuredDag, label_layers
from .stems import FlowNetwork, _dimension_flow, generic_dimension

FAST_PATH_SINGLETON = "singleton-layer"
FAST_PATH_UNIQUE_MATCHED = "unique-matched-set"
FAST_PATH_ESSENTIALITY = "essentiality"
FAST_PATH_NONE = "none"

# Largest graph whose layers get their matched sets listed: a layer of t
# targets has C(t, mu) candidate sets, each tested by one max flow.
MATCHED_SETS_MAX_NODES = 15


@dataclass(frozen=True)
class LayerReport:
    """Per-layer outcome of the layered search."""

    layer_index: int
    targets: frozenset[int]
    mu: int
    fixed: frozenset[int]
    fast_path: str
    matched_sets: tuple[frozenset[int], ...] | None = None


@dataclass(frozen=True)
class FixedNodeResult:
    fixed_nodes: frozenset[int]
    per_layer: tuple[LayerReport, ...]


def fixed_nodes_oracle(dag: StructuredDag) -> FixedNodeResult:
    """Reference method: a node is fixed iff promoting it to a leader keeps
    the generic dimension unchanged.  Leaders are fixed without probing, since
    attaching a second input to a led node changes nothing.

    One optimal flow decides the rest.  Promoting ``v`` adds a source arc
    into ``v_in`` and a unit of flow, which takes the cheapest residual path
    ``v_in -> sink`` as every other source arc is saturated.  Its length
    ``d`` is ``dim(L) - dim(L + v) <= 0`` (successive-shortest-path
    optimality), so ``v`` is fixed iff ``d == 0``.

    The optimal flow is the graph's cached one behind :func:`generic_dimension`.
    """
    distances = _dimension_flow(dag).in_copy_distances_to_sink()
    fixed = dag.leaders | {v for v, d in distances.items() if d == 0}
    return FixedNodeResult(fixed, ())


def fixed_nodes_layered(dag: StructuredDag) -> FixedNodeResult:
    """Top-down layered search over maximum matched sets.

    Layer by layer, a target is fixed when it lies in every maximum matched set
    of its layer: it is matched by the layer's maximum flow and its out-copy
    cannot reach the sink in the residual.  One flow network over the whole
    graph serves every layer; :meth:`FlowNetwork.open_layer` moves the sinks
    down one layer, carries the previous flow along and re-maximizes it over
    layers ``1..k``.  Nodes left uncovered by one maximum whole-graph family
    (the witness of :func:`generic_dimension`) are pruned: promoting one adds
    its length-1 stem to that family, so the dimension rises and it is never
    fixed.  A singleton layer needs no rule of its own: its matched node's
    sink arc is the only open one and is saturated, so the residual search
    finds nothing and the node is fixed unless pruned.

    On a graph of at most ``MATCHED_SETS_MAX_NODES`` nodes each layer also
    lists its maximum matched sets, and one of several nodes with a single
    set is tagged ``unique-matched-set``, a rule that fixes what the
    essentiality check fixes.
    """
    if any(dag.in_neighbors[x] for x in dag.leaders):
        raise InvalidGraphError("layered analysis requires source leaders")
    labeling = label_layers(dag)
    _, witness = generic_dimension(dag)
    pruned = dag.nodes - witness.covered

    net = FlowNetwork(dag)
    lister = FlowNetwork(dag) if dag.node_count <= MATCHED_SETS_MAX_NODES else None
    reports: list[LayerReport] = []
    for k, layer in enumerate(labeling.layers, start=1):
        net.open_layer(k)
        matched = net.matched_targets(layer)
        candidates = layer - pruned
        kept = candidates & matched
        fixed = kept - net.targets_reaching_sink(kept) if kept else frozenset()
        sets = None if lister is None else _matched_sets(lister, layer, len(matched))
        if len(layer) == 1:
            path = FAST_PATH_SINGLETON
        elif not candidates:
            path = FAST_PATH_NONE
        else:
            path = FAST_PATH_UNIQUE_MATCHED if sets and len(sets) == 1 else FAST_PATH_ESSENTIALITY
        reports.append(
            LayerReport(
                layer_index=k,
                targets=layer,
                mu=len(matched),
                fixed=fixed,
                fast_path=path,
                matched_sets=sets,
            )
        )
    all_fixed = frozenset().union(*(r.fixed for r in reports))
    return FixedNodeResult(all_fixed, tuple(reports))


def _matched_sets(net: FlowNetwork, layer: frozenset[int], mu: int) -> tuple[frozenset[int], ...]:
    """Every maximum matched set of ``layer``, whose maximum coverage is ``mu``.

    The matched sets are the bases of a gammoid (Perfect, 1968): by Menger's
    theorem a set of ``mu`` layer nodes is one iff a max flow into exactly
    those nodes has value ``mu``.  So each ``mu``-subset of the layer is
    tested by one max flow with only its sink arcs open, on ``net``, which
    :meth:`FlowNetwork.reset` empties between candidate sets.  Edges point
    deeper, so that flow never enters a deeper layer.  The subsets come in
    ascending order, the order of the report's lists.
    """
    found = []
    for nodes in combinations(sorted(layer), mu):
        net.reset()
        net.open_sinks(nodes)
        if net.max_flow() == mu:
            found.append(frozenset(nodes))
    return tuple(found)
