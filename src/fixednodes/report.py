"""End-to-end analysis and the versioned report format.

:func:`analyze` validates a graph, labels its layers, computes the generic
dimension with a witness, runs the requested fixed-node methods, and flags any
disagreement between them.  Reports serialize to a versioned JSON schema; no
result object carries time, so equal inputs and seeds give equal results and
byte-identical report text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidGraphError
from .graph import (
    LayerLabeling,
    StructuredDag,
    graph_to_json,
    label_layers,
    validate,
)
from .numeric import DEFAULT_TRIALS, check_numeric_route, numeric_fixed_nodes
from .search import FixedNodeResult, fixed_nodes_layered, fixed_nodes_oracle
from .stems import StemFamily, generic_dimension

REPORT_SCHEMA = 3

ALL_METHODS = ("layered", "oracle", "numeric")


@dataclass(frozen=True)
class AnalysisReport:
    digest: str
    dag: StructuredDag
    labeling: LayerLabeling
    generic_dim: int
    witness: StemFamily
    methods: dict[str, FixedNodeResult]
    trials: int
    seed: int

    @property
    def fixed_sets(self) -> dict[str, frozenset[int]]:
        return {name: result.fixed_nodes for name, result in self.methods.items()}

    @property
    def consistent(self) -> bool:
        """Whether every method returned the same fixed set."""
        return len(set(self.fixed_sets.values())) == 1


def graph_digest(dag: StructuredDag) -> str:
    return "sha256:" + hashlib.sha256(graph_to_json(dag).encode()).hexdigest()


def analyze(
    dag: StructuredDag,
    methods: tuple[str, ...] = ALL_METHODS,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> AnalysisReport:
    """Run the requested methods and cross-compare their fixed sets.

    The graph is validated first (its cached :func:`validate` result), then
    digested, so an invalid graph or a leader with an incoming edge is refused
    before the labeling, the dimension flow or any method runs; ids outside
    ``1..n`` never reach it, as no graph holds one.  When the numeric method
    is requested, a graph or trial count it refuses is refused next, before
    any method runs.  The numeric method
    receives the combinatorial dimension as its expected rank, so degenerate
    sampling surfaces as an error instead of a silently wrong set.  Every
    route reads the graph's one dimension flow.
    """
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    duplicates = {name for name in methods if methods.count(name) > 1}
    if duplicates:
        raise ValueError(f"duplicate methods: {sorted(duplicates)}")
    if not methods:
        raise ValueError("at least one method is required")
    violations = validate(dag)
    if violations:
        details = "; ".join(v.message for v in violations)
        raise InvalidGraphError(f"graph fails validation: {details}")
    if "numeric" in methods:
        check_numeric_route(dag, trials)
    digest = graph_digest(dag)
    labeling = label_layers(dag)
    dim, witness = generic_dimension(dag)
    results: dict[str, FixedNodeResult] = {}
    for name in methods:
        if name == "layered":
            results[name] = fixed_nodes_layered(dag)
        elif name == "oracle":
            results[name] = fixed_nodes_oracle(dag)
        else:
            fixed = numeric_fixed_nodes(dag, trials, seed, expected_dim=dim)
            results[name] = FixedNodeResult(fixed, ())
    return AnalysisReport(digest, dag, labeling, dim, witness, results, trials, seed)


def report_to_json_dict(report: AnalysisReport) -> dict:
    """The documented report schema (schema 3): every result field, and no time.

    Layers and targets are listed from the graph's source peel, whose tuples
    are the labeling's layers in ascending order.
    """
    layers = report.dag.source_layers
    methods_json: dict[str, dict] = {}
    for name, result in report.methods.items():
        entry: dict = {"fixed": sorted(result.fixed_nodes)}
        if name == "numeric":
            entry.update(trials=report.trials, seed=report.seed)
        if result.per_layer:
            entry["layers"] = [
                {
                    "layer": lr.layer_index,
                    "targets": list(layers[lr.layer_index - 1]),
                    "mu": lr.mu,
                    "fixed": sorted(lr.fixed),
                    "fast_path": lr.fast_path,
                }
                for lr in result.per_layer
            ]
        methods_json[name] = entry
    return {
        "schema": REPORT_SCHEMA,
        "digest": report.digest,
        "n": report.dag.node_count,
        "leaders": sorted(report.dag.leaders),
        "labeling": {
            "depth": report.labeling.depth,
            "layers": [list(layer) for layer in layers],
        },
        "generic_dim": report.generic_dim,
        "witness": [list(stem) for stem in report.witness.stems],
        "methods": methods_json,
        "consistent": report.consistent,
    }
