"""Slow, obviously correct references that the fast routes are tested against."""

from __future__ import annotations

from fixednodes import (
    FixedNodeResult,
    LayerCoverage,
    StructuredDag,
    generic_dimension,
    induce_prefix,
    label_layers,
)


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
    return FixedNodeResult(frozenset(fixed), (), base_dim, "oracle")


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
            fixed.append(frozenset(v for v in layer if coverage.essential(v)))
    return fixed
