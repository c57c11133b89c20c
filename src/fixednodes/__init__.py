"""Fixed-node analysis for leader-driven directed acyclic graphs.

Determines which nodes of a structured network stay controllable under every
choice of nonzero edge weights, via three mutually checking routes: a layered
matched-set search, an add-a-leader combinatorial oracle, and a Monte-Carlo
controllability-rank oracle.
"""

from .dot import export_dot
from .errors import InconclusiveError, InvalidGraphError
from .generate import GeneratorConfig, random_layered_dag, spread_widths
from .graph import (
    LayerLabeling,
    StructuredDag,
    Violation,
    graph_from_json,
    graph_to_json,
    label_layers,
    validate,
)
from .numeric import numeric_fixed_nodes
from .report import AnalysisReport, NumericSummary, analyze, graph_digest, report_to_json_dict
from .search import FixedNodeResult, LayerReport, fixed_nodes_layered, fixed_nodes_oracle
from .stems import StemFamily, generic_dimension, stem_family_violations

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "FixedNodeResult",
    "GeneratorConfig",
    "InconclusiveError",
    "InvalidGraphError",
    "LayerLabeling",
    "LayerReport",
    "NumericSummary",
    "StemFamily",
    "StructuredDag",
    "Violation",
    "analyze",
    "export_dot",
    "fixed_nodes_layered",
    "fixed_nodes_oracle",
    "generic_dimension",
    "graph_digest",
    "graph_from_json",
    "graph_to_json",
    "label_layers",
    "numeric_fixed_nodes",
    "random_layered_dag",
    "report_to_json_dict",
    "spread_widths",
    "stem_family_violations",
    "validate",
]
