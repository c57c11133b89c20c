"""Graph data model, structural validation, layer labeling, and the JSON format.

A :class:`StructuredDag` is the zero/nonzero sparsity pattern of a linear
network: nodes are states, an edge ``(u, v)`` means state ``u`` feeds state
``v`` with some unknown nonzero weight, and *leaders* are the states that
receive an external input.  Nodes are ``1..n``, and construction refuses any
other id; acyclicity, source leaders and reachability are checked by
:func:`validate`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NoReturn

from .errors import InvalidGraphError

if TYPE_CHECKING:
    from .stems import FlowNetwork, StemFamily, _ArcTable


@dataclass(frozen=True)
class StructuredDag:
    """A directed graph pattern on nodes ``1..n`` with a set of input-attached
    leader nodes.

    Construction raises :class:`InvalidGraphError` on a count or id that is
    not an ``int`` (a ``bool``, a float or a numpy integer included), on a
    count below 1, or on an edge or leader naming an id outside ``1..n``.  So
    a subgraph is a graph of its own, numbered ``1..k``.  Per-node state is a
    tuple indexed by id, whose index 0 is unused.  Instances are immutable and
    thread-safe.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    leaders: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n
        # only an ``int`` is a count or an id: ``True``, ``1.0`` or ``np.int64(1)`` would pass as 1
        if type(n) is not int:
            _refuse(n)
        if n < 1:
            raise InvalidGraphError(f"node count must be positive, got {n}")
        bad_edges = [
            (u, v) for u, v in self.edges
            if not (type(u) is int is type(v) and 0 < u <= n and 0 < v <= n)
        ]
        unknown_leaders = [x for x in self.leaders if not (type(x) is int and 0 < x <= n)]
        for v in (*(v for edge in bad_edges for v in edge), *unknown_leaders):
            if type(v) is not int:
                _refuse(v)
        problems = []
        if bad_edges:
            problems.append(f"edges reference unknown nodes: {sorted(map(list, bad_edges))}")
        if unknown_leaders:
            problems.append(f"leaders are not nodes of the graph: {sorted(unknown_leaders)}")
        if problems:
            raise InvalidGraphError("; ".join(problems))

    @classmethod
    def of(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        leaders: Iterable[int],
    ) -> "StructuredDag":
        """Build a graph on nodes ``1..node_count``; a non-integral count or id,
        a ``bool`` included, raises."""

        def integer(value: object) -> int:
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                _refuse(value)
            return int(value)

        return cls(
            integer(node_count),
            frozenset((integer(u), integer(v)) for u, v in edges),
            frozenset(integer(x) for x in leaders),
        )

    @property
    def node_count(self) -> int:
        return self.n

    @cached_property
    def nodes(self) -> frozenset[int]:
        """The node set ``1..n``."""
        return frozenset(range(1, self.n + 1))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Successors of every node, ascending, indexed by id; read-only, as
        every caller shares it."""
        return self._neighbors[0]

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Predecessors of every node, ascending, indexed by id; read-only, as
        every caller shares it."""
        return self._neighbors[1]

    @cached_property
    def _neighbors(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Both neighbour tuples from one pass over the sorted edges."""
        succ: list[list[int]] = [[] for _ in range(self.n + 1)]
        pred: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.sorted_edges:
            succ[u].append(v)
            pred[v].append(u)
        return tuple(map(tuple, succ)), tuple(map(tuple, pred))

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
        layer_of = [0] * (self.n + 1)
        for k, layer in enumerate(layers, start=1):
            for v in layer:
                layer_of[v] = k
        if sum(map(len, layers)) != self.n:
            stuck = [v for v in range(1, self.n + 1) if not layer_of[v]]
            raise InvalidGraphError(f"labeling stalled; cycle through nodes {stuck}")
        return LayerLabeling(tuple(layer_of), tuple(map(frozenset, layers)))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """The violations :func:`validate` returns, found once per graph."""
        return _find_violations(self)

    @cached_property
    def _arcs(self) -> _ArcTable:
        """The node-split arc table every flow network over this graph shares."""
        from .stems import _build_arcs  # stems imports this module

        return _build_arcs(self)

    @cached_property
    def _dimension(self) -> tuple[FlowNetwork, tuple[int, StemFamily]]:
        """The solved dimension flow and :func:`generic_dimension`'s pair, once per graph."""
        from .stems import _solve_dimension  # stems imports this module

        return _solve_dimension(self)

    def with_leaders(self, leaders: Iterable[int]) -> "StructuredDag":
        """Same pattern with a different leader set."""
        return StructuredDag(self.n, self.edges, frozenset(leaders))


def _refuse(value: object) -> NoReturn:
    raise InvalidGraphError(f"node count and ids must be integers, got {value!r}")


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
    ``layer_of[v]`` is node ``v``'s layer, in a tuple indexed by id, read-only
    since every caller shares the graph's one labeling.
    """

    layer_of: tuple[int, ...]
    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def validate(dag: StructuredDag) -> tuple[Violation, ...]:
    """Check every structural invariant and return the violations as data.

    The result is empty exactly when the graph is valid: acyclic, with source
    leaders (a leader with an incoming edge is a ``leader-in-degree``
    violation) and every node reachable from a leader.  Ids are in range
    (construction refuses the rest); a self-loop or no leader ends the check
    early, as the later checks need their absence.  The violations are found
    once per graph and shared by every caller.

    The reachability search runs only when the source peel can not settle it.
    When the peel covers every node and every layer-1 node is a leader, every
    node is reachable: a node of layer ``k >= 2`` has a predecessor in layer
    ``k - 1``, so by induction on ``k`` a path from layer 1 reaches it.  In
    every other case the search runs and names the nodes no leader reaches.
    """
    return dag._violations


def _find_violations(dag: StructuredDag) -> tuple[Violation, ...]:
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

    nonsource = tuple(sorted(x for x in dag.leaders if dag.in_neighbors[x]))
    if nonsource:
        violations.append(
            Violation(
                "leader-in-degree",
                f"leaders must have no incoming edges: {list(nonsource)}",
                nonsource,
            )
        )

    layers = dag.source_layers
    peeled = sum(map(len, layers)) == dag.node_count
    if not peeled:
        cyclic = sorted(dag.nodes.difference(*layers))
        violations.append(
            Violation("cycle", f"edge relation contains a cycle through: {cyclic}", tuple(cyclic))
        )

    # a full peel whose sources are all leaders reaches every node (see validate)
    reached = peeled and dag.leaders.issuperset(layers[0])
    unreachable = () if reached else _unreachable_from_leaders(dag)
    if unreachable:
        violations.append(
            Violation(
                "unreachable",
                f"graph is not influenceable; no leader reaches: {list(unreachable)}",
                unreachable,
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
    indegree = list(map(len, dag.in_neighbors))
    current = [v for v in range(1, dag.n + 1) if indegree[v] == 0]
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
    integers).  Duplicate edges or leaders and unknown or repeated keys are
    errors.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except InvalidGraphError:
        raise  # a repeated key, refused with its own message
    except ValueError as exc:  # a decode error, or an integer past the interpreter's digit limit
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

    n, edges, leaders = raw["n"], raw["edges"], raw["leaders"]
    if type(edges) is not list:
        raise InvalidGraphError('"edges" must be an array of [u, v] pairs')
    if not ({list} >= set(map(type, edges)) and {2} >= set(map(len, edges))):
        bad = next(item for item in edges if type(item) is not list or len(item) != 2)
        raise InvalidGraphError(f"bad edge entry: {bad!r}")
    if type(leaders) is not list:
        raise InvalidGraphError('"leaders" must be an array of integers')

    # the graph checks the count, and each id's type and range, as it is built
    pairs = list(map(tuple, edges))
    try:
        edge_set, leader_set = frozenset(pairs), frozenset(leaders)
    except TypeError:  # an array or an object in place of an id: no set holds one
        _refuse(next(v for ids in (*pairs, leaders) for v in ids if type(v) in (list, dict)))
    dag = StructuredDag(n, edge_set, leader_set)
    if len(edge_set) != len(pairs):
        dupes = sorted(e for e, c in Counter(pairs).items() if c > 1)
        raise InvalidGraphError(f"duplicate edges: {[list(e) for e in dupes]}")
    if len(leader_set) != len(leaders):
        raise InvalidGraphError("duplicate leaders")

    # Every non-leader node needs an in-edge to be reachable, so a larger n can
    # never validate; rejecting it here keeps n from sizing any allocation.
    if n > len(leaders) + len(pairs):
        raise InvalidGraphError(
            f'"n" is {n}, but a graph with {len(leaders)} leaders and {len(pairs)} '
            f"edges has at most {len(leaders) + len(pairs)} reachable nodes"
        )
    # the list holds each edge once; sorting it is linear on a file whose
    # edges come in order, as graph_to_json writes them
    pairs.sort()
    vars(dag)["sorted_edges"] = tuple(pairs)
    return dag


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, refused if it repeats a key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        repeated = sorted(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise InvalidGraphError(f"repeated keys in graph JSON: {repeated}")
    return obj


def graph_to_json(dag: StructuredDag) -> str:
    """Canonical serialization (sorted edges and leaders).

    The bytes are those of ``json.dumps`` with ``separators=(", ", ": ")``,
    written directly: every id is an exact ``int``, so ``%d`` spells it as
    ``json`` does.
    """
    return '{"n": %d, "edges": [%s], "leaders": [%s]}\n' % (
        dag.n,
        ", ".join(["[%d, %d]" % edge for edge in dag.sorted_edges]),
        ", ".join(["%d" % x for x in sorted(dag.leaders)]),
    )


def _unreachable_from_leaders(dag: StructuredDag) -> tuple[int, ...]:
    reached = bytearray(dag.n + 1)
    stack = list(dag.leaders)
    for x in stack:
        reached[x] = 1
    while stack:
        v = stack.pop()
        for w in dag.out_neighbors[v]:
            if not reached[w]:
                reached[w] = 1
                stack.append(w)
    return tuple(v for v in range(1, dag.n + 1) if not reached[v])
