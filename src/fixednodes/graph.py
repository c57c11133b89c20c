"""Graph data model, structural validation, layer labeling, and the JSON format.

A :class:`StructuredDag` is the zero/nonzero sparsity pattern of a linear
network: nodes are states, an edge ``(u, v)`` means state ``u`` feeds state
``v`` with some unknown nonzero weight, and *leaders* are the states that
receive an external input.  Construction accepts raw data; the semantic
requirements (acyclic, source leaders, influenceable) live in :func:`validate`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvalidGraphError


@dataclass(frozen=True)
class StructuredDag:
    """A directed graph pattern with a set of input-attached leader nodes.

    Nodes are positive integers; the external file format uses the dense range
    ``1..n``, while induced subgraphs keep their original ids.  Instances are
    immutable and safe to share across threads.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    leaders: frozenset[int]

    @classmethod
    def of(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        leaders: Iterable[int],
    ) -> "StructuredDag":
        """Build a graph on nodes ``1..node_count`` from raw edge/leader data."""
        return cls(
            nodes=frozenset(range(1, int(node_count) + 1)),
            edges=frozenset((int(u), int(v)) for u, v in edges),
            leaders=frozenset(int(x) for x in leaders),
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def out_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Successors of every node, ascending; only in-range edges included."""
        adj: dict[int, list[int]] = {v: [] for v in self.sorted_nodes}
        for u, v in sorted(self.edges):
            if u in self.nodes and v in self.nodes:
                adj[u].append(v)
        return {u: tuple(vs) for u, vs in adj.items()}

    @cached_property
    def in_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Predecessors of every node, ascending; only in-range edges included."""
        adj: dict[int, list[int]] = {v: [] for v in self.sorted_nodes}
        for u, v in sorted(self.edges):
            if u in self.nodes and v in self.nodes:
                adj[v].append(u)
        return {v: tuple(us) for v, us in adj.items()}

    def with_leaders(self, leaders: Iterable[int]) -> "StructuredDag":
        """Same pattern with a different leader set (used by probing searches)."""
        return StructuredDag(self.nodes, self.edges, frozenset(leaders))


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the offending nodes or edges."""

    kind: str
    message: str
    items: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LayerLabeling:
    """The unique hierarchical form of a DAG from iterative source peeling.

    ``layers[k-1]`` is the node set of layer ``k``; edges always point from a
    shallower layer to a strictly deeper one (possibly skipping layers).
    """

    layer_of: dict[int, int]
    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def validate(dag: StructuredDag, *, allow_nonsource_leaders: bool = False) -> ValidationReport:
    """Check every structural invariant and report violations as data.

    Raw input is accepted: range problems are reported rather than raised, and
    checks that depend on a sane node/edge set are skipped once it is broken.
    With ``allow_nonsource_leaders`` the leader in-degree rule is downgraded to
    a warning (layered analysis is undefined for such graphs, the add-a-leader
    oracle and the numeric oracle are not).
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []

    if not dag.nodes:
        return ValidationReport((Violation("empty-graph", "graph has no nodes"),))

    bad_ids = tuple(sorted(v for v in dag.nodes if not isinstance(v, int) or v < 1))
    if bad_ids:
        violations.append(
            Violation("node-id", f"node ids must be positive integers: {list(bad_ids)}", bad_ids)
        )

    bad_edges = tuple(
        sorted(e for e in dag.edges if e[0] not in dag.nodes or e[1] not in dag.nodes)
    )
    if bad_edges:
        violations.append(
            Violation(
                "edge-endpoint",
                f"edges reference unknown nodes: {[list(e) for e in bad_edges]}",
                bad_edges,
            )
        )

    loops = tuple(sorted(e for e in dag.edges if e[0] == e[1]))
    if loops:
        violations.append(
            Violation("self-loop", f"self-loops are not allowed: {[list(e) for e in loops]}", loops)
        )

    if not dag.leaders:
        violations.append(Violation("leaders-empty", "at least one leader is required"))
    unknown_leaders = tuple(sorted(x for x in dag.leaders if x not in dag.nodes))
    if unknown_leaders:
        violations.append(
            Violation(
                "leader-unknown",
                f"leaders are not nodes of the graph: {list(unknown_leaders)}",
                unknown_leaders,
            )
        )

    if violations:
        return ValidationReport(tuple(violations), tuple(warnings))

    nonsource = tuple(sorted(x for x in dag.leaders if dag.in_neighbors[x]))
    if nonsource:
        entry = Violation(
            "leader-in-degree",
            f"leaders must have no incoming edges: {list(nonsource)}",
            nonsource,
        )
        (warnings if allow_nonsource_leaders else violations).append(entry)

    cyclic = set(dag.nodes).difference(*_peel_layers(dag))
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

    return ValidationReport(tuple(violations), tuple(warnings))


def label_layers(dag: StructuredDag) -> LayerLabeling:
    """Peel zero-in-degree nodes repeatedly, assigning layer indices 1..p.

    Layer 1 holds the sources; deleting a layer exposes the next one, so every
    node in layer ``k >= 2`` keeps at least one predecessor in layer ``k - 1``.
    The result is canonical: layers are sets, so no ordering choices leak in.
    Raises :class:`InvalidGraphError` when peeling stalls on a cycle.
    """
    layers = _peel_layers(dag)
    layer_of = {v: k for k, layer in enumerate(layers, start=1) for v in layer}
    if len(layer_of) != dag.node_count:
        stuck = sorted(set(dag.nodes) - set(layer_of))
        raise InvalidGraphError(f"labeling stalled; cycle through nodes {stuck}")
    return LayerLabeling(layer_of, tuple(frozenset(layer) for layer in layers))


def _peel_layers(dag: StructuredDag) -> list[list[int]]:
    """Source peeling, one ascending list per layer.

    Nodes on a cycle, or reachable only through one, keep a positive
    in-degree and are never peeled.
    """
    indegree = {v: len(dag.in_neighbors[v]) for v in dag.sorted_nodes}
    current = [v for v in dag.sorted_nodes if indegree[v] == 0]
    layers: list[list[int]] = []
    while current:
        layers.append(current)
        nxt = []
        for v in current:
            for w in dag.out_neighbors[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    nxt.append(w)
        current = sorted(nxt)
    return layers


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
        "edges": [[u, v] for u, v in sorted(dag.edges)],
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
