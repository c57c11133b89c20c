"""Fixed-node determination.

A node is *fixed* when it stays controllable under every choice of nonzero
network weights; equivalently, attaching a fresh input to it cannot raise the
generic dimension of the controllable subspace.  Four routes are implemented:

* :func:`fixed_nodes_oracle` probes that definition node by node (the
  reference everything else is measured against),
* :func:`fixed_nodes_single_leader` reads the answer off the layer structure
  when there is exactly one leader,
* :func:`fixed_nodes_layered` walks the layers top-down and keeps the targets
  that belong to every maximum matched set of their layer, read off each
  layer's solved flow, and
* :func:`prune_uncovered` certifies non-fixed nodes from one maximum family.

The layered route evaluates each layer inside its prefix graph.  On graphs
with layer-skipping edges this per-layer criterion is known to disagree with
the oracle on some instances (see ``tests/test_limitations.py``); on graphs
whose edges only join adjacent layers the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidGraphError
from .graph import LayerLabeling, StructuredDag, induce_prefix, label_layers
from .stems import (
    DEFAULT_ENUM_CAP,
    LayerCoverage,
    StemFamily,
    enumerate_max_families,
    generic_dimension,
)

FAST_PATH_SINGLETON = "singleton-layer"
FAST_PATH_UNIQUE_MATCHED = "unique-matched-set"
FAST_PATH_ESSENTIALITY = "essentiality"
FAST_PATH_NONE = "none"


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
    generic_dim: int
    method: str


def fixed_nodes_oracle(dag: StructuredDag) -> FixedNodeResult:
    """Reference method: a node is fixed iff promoting it to a leader keeps
    the generic dimension unchanged.  Leaders are fixed without probing, since
    attaching a second input to a led node changes nothing."""
    base_dim, _ = generic_dimension(dag)
    fixed = set(dag.leaders)
    for v in sorted(dag.nodes - dag.leaders):
        probed, _ = generic_dimension(dag.with_leaders(dag.leaders | {v}))
        if probed == base_dim:
            fixed.add(v)
    return FixedNodeResult(frozenset(fixed), (), base_dim, "oracle")


def fixed_nodes_single_leader(
    dag: StructuredDag, labeling: LayerLabeling | None = None
) -> FixedNodeResult:
    """Single-leader shortcut: exactly the singleton layers are fixed.

    No flow is computed; the generic dimension of a single-leader layered DAG
    equals its depth (a longest stem collects one node per layer).
    """
    if len(dag.leaders) != 1:
        raise InvalidGraphError("single-leader method requires exactly one leader")
    labeling = labeling if labeling is not None else label_layers(dag)
    fixed: set[int] = set()
    reports = []
    for k, layer in enumerate(labeling.layers, start=1):
        singleton = len(layer) == 1
        if singleton:
            fixed.update(layer)
        reports.append(
            LayerReport(
                layer_index=k,
                targets=layer,
                mu=1,
                fixed=layer if singleton else frozenset(),
                fast_path=FAST_PATH_SINGLETON if singleton else FAST_PATH_NONE,
            )
        )
    return FixedNodeResult(frozenset(fixed), tuple(reports), labeling.depth, "single-leader")


def prune_uncovered(dag: StructuredDag, witness: StemFamily) -> frozenset[int]:
    """Nodes outside a maximum family's coverage are certified non-fixed.

    Promoting such a node to a leader adds its length-1 stem to the witness,
    so the generic dimension rises.  The witness must be maximum; anything
    smaller is rejected by a dimension recheck.
    """
    dim, _ = generic_dimension(dag)
    if len(witness.covered) != dim:
        raise InvalidGraphError(
            f"witness covers {len(witness.covered)} nodes but the maximum is {dim}"
        )
    return frozenset(dag.nodes) - witness.covered


def fixed_nodes_layered(dag: StructuredDag, *, prune: bool = True) -> FixedNodeResult:
    """Top-down layered search over maximum matched sets.

    Layer by layer, a target is fixed when it lies in every maximum matched set
    of its layer, which :class:`LayerCoverage` decides from the layer's solved
    flow on the prefix graph.  A singleton layer's node is fixed outright when
    a stem reaches it and it is not pruned.  With ``prune``, nodes left
    uncovered by one maximum whole-graph family are recorded as non-fixed
    without a check.
    """
    labeling = label_layers(dag)
    base_dim, witness = generic_dimension(dag)
    pruned = frozenset(dag.nodes) - witness.covered if prune else frozenset()

    reports: list[LayerReport] = []
    for k, layer in enumerate(labeling.layers, start=1):
        prefix = induce_prefix(dag, labeling, k)
        coverage = LayerCoverage(prefix, layer)
        candidates = layer - pruned
        if len(layer) == 1:
            fixed = layer if candidates and coverage.mu == 1 else frozenset()
            path = FAST_PATH_SINGLETON
        else:
            fixed = frozenset(v for v in candidates if coverage.essential(v))
            path = FAST_PATH_ESSENTIALITY if candidates else FAST_PATH_NONE
        reports.append(
            LayerReport(
                layer_index=k,
                targets=layer,
                mu=coverage.mu,
                fixed=fixed,
                fast_path=path,
            )
        )
    all_fixed = frozenset().union(*(r.fixed for r in reports))
    return FixedNodeResult(all_fixed, tuple(reports), base_dim, "layered")


def attach_matched_sets(
    dag: StructuredDag, result: FixedNodeResult, cap: int = DEFAULT_ENUM_CAP
) -> FixedNodeResult:
    """Enrich a layered result with exhaustively enumerated matched sets.

    Layers that turn out to have a unique maximum matched set are retagged
    ``unique-matched-set``: all its members are fixed by that rule alone, which
    coincides with what the essentiality check already decided.
    """
    if result.method != "layered":
        raise InvalidGraphError("matched sets attach to layered results only")
    labeling = label_layers(dag)
    enriched = []
    for report in result.per_layer:
        prefix = induce_prefix(dag, labeling, report.layer_index)
        families = enumerate_max_families(prefix, report.targets, cap)
        matched = tuple(
            sorted({fam.matched(report.targets) for fam in families}, key=sorted)
        )
        path = report.fast_path
        if len(matched) == 1 and path == FAST_PATH_ESSENTIALITY:
            path = FAST_PATH_UNIQUE_MATCHED
        enriched.append(replace(report, matched_sets=matched, fast_path=path))
    return replace(result, per_layer=tuple(enriched))
