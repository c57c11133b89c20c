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


def unpruned_layer_fixed(dag: StructuredDag) -> list[frozenset[int]]:
    """Per layer, what the layered criterion fixes before any pruning: the
    essential targets, or a singleton layer's node when a stem reaches it."""
    labeling = label_layers(dag)
    fixed = []
    for k, layer in enumerate(labeling.layers, start=1):
        coverage = LayerCoverage(induce_prefix(dag, labeling, k), layer)
        if len(layer) == 1:
            fixed.append(layer if coverage.mu == 1 else frozenset())
        else:
            fixed.append(frozenset(v for v in layer if coverage.essential(v)))
    return fixed
