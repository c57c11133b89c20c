"""Fixed-node analysis for leader-driven directed acyclic graphs.

Determines which nodes of a structured network stay controllable under every
choice of nonzero edge weights, via three mutually checking routes: a layered
matched-set search, an add-a-leader combinatorial oracle, and a Monte-Carlo
controllability-rank oracle.
"""

from .dot import export_dot
from .errors import BudgetExceededError, InconclusiveError, InvalidGraphError
from .generate import GeneratorConfig, random_layered_dag, spread_widths
from .graph import (
    LayerLabeling,
    StructuredDag,
    ValidationReport,
    Violation,
    graph_from_json,
    graph_to_json,
    induce_prefix,
    label_layers,
    validate,
)
from .numeric import (
    ControllabilityMatrix,
    Realization,
    controllability_matrix,
    numeric_fixed_nodes,
    numeric_generic_dimension,
    sample_realization,
)
from .report import AnalysisReport, NumericSummary, analyze, graph_digest, report_to_json_dict
from .search import (
    FixedNodeResult,
    LayerReport,
    attach_matched_sets,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    fixed_nodes_single_leader,
    prune_uncovered,
)
from .stems import (
    LayerCoverage,
    StemFamily,
    enumerate_max_families,
    exhaustive_generic_dimension,
    generic_dimension,
    stem_family_violations,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BudgetExceededError",
    "ControllabilityMatrix",
    "FixedNodeResult",
    "GeneratorConfig",
    "InconclusiveError",
    "InvalidGraphError",
    "LayerCoverage",
    "LayerLabeling",
    "LayerReport",
    "NumericSummary",
    "Realization",
    "StemFamily",
    "StructuredDag",
    "ValidationReport",
    "Violation",
    "analyze",
    "attach_matched_sets",
    "controllability_matrix",
    "enumerate_max_families",
    "exhaustive_generic_dimension",
    "export_dot",
    "fixed_nodes_layered",
    "fixed_nodes_oracle",
    "fixed_nodes_single_leader",
    "generic_dimension",
    "graph_digest",
    "graph_from_json",
    "graph_to_json",
    "induce_prefix",
    "label_layers",
    "numeric_fixed_nodes",
    "numeric_generic_dimension",
    "prune_uncovered",
    "random_layered_dag",
    "report_to_json_dict",
    "sample_realization",
    "spread_widths",
    "stem_family_violations",
    "validate",
]
