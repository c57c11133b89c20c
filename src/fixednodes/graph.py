"""Graph data model, structural validation, layer labeling, and the JSON format.

A :class:`StructuredDag` is the zero/nonzero sparsity pattern of a linear
network: nodes are states, an edge ``(u, v)`` means state ``u`` feeds state
``v`` with some unknown nonzero weight, and *leaders* are the states that
receive an external input.  Construction refuses ids outside the node set;
acyclicity, source leaders and reachability are checked by :func:`validate`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import InvalidGraphError

if TYPE_CHECKING:
    from .stems import FlowNetwork, StemFamily


@dataclass(frozen=True)
class StructuredDag:
    """A directed graph pattern with a set of input-attached leader nodes.

    Nodes are positive integers; the external file format uses the dense range
    ``1..n``, while induced subgraphs keep their original ids.  Construction
    raises :class:`InvalidGraphError` on any other id, or on an edge or leader
    naming a non-node.  Instances are immutable and thread-safe.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    leaders: frozenset[int]

    def __post_init__(self) -> None:
        nodes = self.nodes
        problems = []
        bad_ids = sorted(v for v in nodes if not isinstance(v, int) or v < 1)
        if bad_ids:
            problems.append(f"node ids must be positive integers: {bad_ids}")
        bad_edges = sorted(e for e in self.edges if e[0] not in nodes or e[1] not in nodes)
        if bad_edges:
            problems.append(f"edges reference unknown nodes: {[list(e) for e in bad_edges]}")
        unknown_leaders = sorted(x for x in self.leaders if x not in nodes)
        if unknown_leaders:
            problems.append(f"leaders are not nodes of the graph: {unknown_leaders}")
        if problems:
            raise InvalidGraphError("; ".join(problems))

    @classmethod
    def of(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        leaders: Iterable[int],
    ) -> "StructuredDag":
        """Build a graph on nodes ``1..node_count``; a non-integral count or id raises."""

        def integer(value: object) -> int:
            if not hasattr(value, "__index__"):
                raise InvalidGraphError(f"node count and ids must be integers, got {value!r}")
            return int(value)
        return cls(
            nodes=frozenset(range(1, integer(node_count) + 1)),
            edges=frozenset((integer(u), integer(v)) for u, v in edges),
            leaders=frozenset(integer(x) for x in leaders),
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def out_neighbors(self) -> Mapping[int, tuple[int, ...]]:
        """Successors of every node, ascending; read-only, as every caller shares it."""
        adj: dict[int, list[int]] = {v: [] for v in self.sorted_nodes}
        for u, v in self.sorted_edges:
            adj[u].append(v)
        return MappingProxyType({u: tuple(vs) for u, vs in adj.items()})

    @cached_property
    def in_neighbors(self) -> Mapping[int, tuple[int, ...]]:
        """Predecessors of every node, ascending; read-only, as every caller shares it."""
        adj: dict[int, list[int]] = {v: [] for v in self.sorted_nodes}
        for u, v in self.sorted_edges:
            adj[v].append(u)
        return MappingProxyType({v: tuple(us) for v, us in adj.items()})

    @cached_property
    def source_layers(self) -> tuple[tuple[int, ...], ...]:
        """Source peeling, one ascending tuple per layer (see :func:`label_layers`).

        Nodes on a cycle, or reachable only through one, keep a positive
        in-degree and are never peeled.
        """
        return _peel_layers(self)

    @cached_property
    def _labeling(self) -> LayerLabeling:
        """The labeling :func:`label_layers` returns, built once per graph."""
        layers = self.source_layers
        layer_of = {v: k for k, layer in enumerate(layers, start=1) for v in layer}
        if len(layer_of) != self.node_count:
            stuck = sorted(set(self.nodes) - set(layer_of))
            raise InvalidGraphError(f"labeling stalled; cycle through nodes {stuck}")
        return LayerLabeling(MappingProxyType(layer_of), tuple(map(frozenset, layers)))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """The violations :func:`validate` returns, found once per graph."""
        return _find_violations(self)

    @cached_property
    def _dimension(self) -> tuple[FlowNetwork, tuple[int, StemFamily]]:
        """The solved dimension flow and :func:`generic_dimension`'s pair, once per graph."""
        from .stems import _solve_dimension  # stems imports this module

        return _solve_dimension(self)

    def with_leaders(self, leaders: Iterable[int]) -> "StructuredDag":
        """Same pattern with a different leader set."""
        return StructuredDag(self.nodes, self.edges, frozenset(leaders))


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the offending nodes or edges."""

    kind: str
    message: str
    items: tuple = ()


@dataclass(frozen=True)
class LayerLabeling:
    """The unique hierarchical form of a DAG from iterative source peeling.

    ``layers[k-1]`` is the node set of layer ``k``; edges always point from a
    shallower layer to a strictly deeper one (possibly skipping layers).
    ``layer_of`` is read-only, since every caller shares the graph's one
    labeling.
    """

    layer_of: Mapping[int, int]
    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def validate(dag: StructuredDag) -> tuple[Violation, ...]:
    """Check every structural invariant and return the violations as data.

    The result is empty exactly when the graph is valid: acyclic, with source
    leaders (a leader with an incoming edge is a ``leader-in-degree``
    violation) and every node reachable from a leader.  Ids are in range
    (construction refuses the rest); an empty graph, a self-loop or no leader
    ends the check early, as the later checks need their absence.  The
    violations are found once per graph and shared by every caller.
    """
    return dag._violations


def _find_violations(dag: StructuredDag) -> tuple[Violation, ...]:
    violations: list[Violation] = []

    if not dag.nodes:
        return (Violation("empty-graph", "graph has no nodes"),)

    loops = tuple(sorted(e for e in dag.edges if e[0] == e[1]))
    if loops:
        violations.append(
            Violation("self-loop", f"self-loops are not allowed: {[list(e) for e in loops]}", loops)
        )

    if not dag.leaders:
        violations.append(Violation("leaders-empty", "at least one leader is required"))

    if violations:
        return tuple(violations)

    nonsource = tuple(sorted(x for x in dag.leaders if dag.in_neighbors[x]))
    if nonsource:
        violations.append(
            Violation(
                "leader-in-degree",
                f"leaders must have no incoming edges: {list(nonsource)}",
                nonsource,
            )
        )

    cyclic = set(dag.nodes).difference(*dag.source_layers)
    if cyclic:
        violations.append(
            Violation("cycle", f"edge relation contains a cycle through: {sorted(cyclic)}", tuple(sorted(cyclic)))
        )

    unreachable = _unreachable_from_leaders(dag)
    if unreachable:
        violations.append(
            Violation(
                "unreachable",
                f"graph is not influenceable; no leader reaches: {sorted(unreachable)}",
                tuple(sorted(unreachable)),
            )
        )

    return tuple(violations)


def label_layers(dag: StructuredDag) -> LayerLabeling:
    """Peel zero-in-degree nodes repeatedly, assigning layer indices 1..p.

    Layer 1 holds the sources; deleting a layer exposes the next one, so every
    node in layer ``k >= 2`` keeps at least one predecessor in layer ``k - 1``.
    The result is canonical: layers are sets, so no ordering choices leak in.
    It is built once per graph and shared by every caller.  Raises
    :class:`InvalidGraphError` when peeling stalls on a cycle.
    """
    return dag._labeling


def _peel_layers(dag: StructuredDag) -> tuple[tuple[int, ...], ...]:
    indegree = {v: len(dag.in_neighbors[v]) for v in dag.sorted_nodes}
    current = [v for v in dag.sorted_nodes if indegree[v] == 0]
    layers: list[tuple[int, ...]] = []
    while current:
        layers.append(tuple(current))
        nxt = []
        for v in current:
            for w in dag.out_neighbors[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    nxt.append(w)
        current = sorted(nxt)
    return tuple(layers)


def graph_from_json(text: str) -> StructuredDag:
    """Parse the graph interchange format; reject anything off-schema.

    The format is a JSON object with exactly the keys ``n`` (positive integer),
    ``edges`` (array of ``[u, v]`` integer pairs) and ``leaders`` (array of
    integers).  Duplicate edges or leaders and unknown keys are errors.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGraphError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidGraphError("graph JSON is nested too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidGraphError("graph JSON must be an object")
    extra = set(raw) - {"n", "edges", "leaders"}
    if extra:
        raise InvalidGraphError(f"unknown keys in graph JSON: {sorted(extra)}")
    missing = {"n", "edges", "leaders"} - set(raw)
    if missing:
        raise InvalidGraphError(f"missing keys in graph JSON: {sorted(missing)}")

    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidGraphError('"n" must be a positive integer')

    if not isinstance(raw["edges"], list):
        raise InvalidGraphError('"edges" must be an array of [u, v] pairs')
    edges: list[tuple[int, int]] = []
    for item in raw["edges"]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise InvalidGraphError(f"bad edge entry: {item!r}")
        edges.append((item[0], item[1]))
    counts = Counter(edges)
    if len(counts) != len(edges):
        dupes = sorted(e for e, c in counts.items() if c > 1)
        raise InvalidGraphError(f"duplicate edges: {[list(e) for e in dupes]}")

    if not isinstance(raw["leaders"], list) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in raw["leaders"]
    ):
        raise InvalidGraphError('"leaders" must be an array of integers')
    leaders = list(raw["leaders"])
    if len(leaders) != len(set(leaders)):
        raise InvalidGraphError("duplicate leaders")

    # Every non-leader node needs an in-edge to be reachable, so a larger n can
    # never validate; rejecting it here keeps n from sizing any allocation.
    if n > len(leaders) + len(edges):
        raise InvalidGraphError(
            f'"n" is {n}, but a graph with {len(leaders)} leaders and {len(edges)} '
            f"edges has at most {len(leaders) + len(edges)} reachable nodes"
        )
    return StructuredDag.of(n, edges, leaders)


def graph_to_json(dag: StructuredDag) -> str:
    """Canonical serialization of a dense-id graph (sorted edges and leaders)."""
    if dag.nodes != frozenset(range(1, dag.node_count + 1)):
        raise InvalidGraphError("only graphs with contiguous ids 1..n can be serialized")
    payload = {
        "n": dag.node_count,
        "edges": [[u, v] for u, v in dag.sorted_edges],
        "leaders": sorted(dag.leaders),
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def _unreachable_from_leaders(dag: StructuredDag) -> set[int]:
    reached = set(dag.leaders)
    stack = list(dag.leaders)
    while stack:
        v = stack.pop()
        for w in dag.out_neighbors[v]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return set(dag.nodes) - reached
