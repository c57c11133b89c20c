from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
from itertools import permutations

import pytest

import fixednodes
import fixednodes.cli
import fixednodes.report
import goldens
from fixednodes import (
    AnalysisReport,
    FixedNodeResult,
    InvalidGraphError,
    LayerReport,
    StemFamily,
    StructuredDag,
    analyze,
    export_dot,
    fixed_nodes_layered,
    fixed_nodes_oracle,
    generic_dimension,
    graph_digest,
    report_to_json_dict,
)
from fixednodes.report import ALL_METHODS


@pytest.fixture
def refuse_work(monkeypatch):
    """Make every step of ``analyze`` after validation and the digest fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("analyze ran past its input checks")

    for name in (
        "label_layers",
        "generic_dimension",
        "fixed_nodes_layered",
        "fixed_nodes_oracle",
        "numeric_fixed_nodes",
    ):
        monkeypatch.setattr(fixednodes.report, name, refuse)


class TestAnalyze:
    def test_golden_reports_are_consistent(self, golden):
        report = analyze(golden.dag, trials=25, seed=0)
        assert report.consistent
        assert report.generic_dim == golden.generic_dim
        assert set(report.fixed_sets) == {"layered", "oracle", "numeric"}
        assert all(s == golden.fixed for s in report.fixed_sets.values())

    def test_method_subset(self, single7):
        report = analyze(single7.dag, ("oracle",))
        assert list(report.methods) == ["oracle"]
        assert report.consistent

    def test_rejects_unknown_method(self, single7):
        with pytest.raises(ValueError, match="unknown methods"):
            analyze(single7.dag, ("oracle", "psychic"))

    def test_rejects_repeated_method(self, single7):
        with pytest.raises(ValueError, match=r"^duplicate methods: \['oracle'\]$"):
            analyze(single7.dag, ("oracle", "layered", "oracle"))

    def test_rejects_invalid_graph(self):
        dag = StructuredDag.of(2, [(1, 2), (2, 1)], [1])
        with pytest.raises(InvalidGraphError, match="validation"):
            analyze(dag)

    def test_nonsource_leaders_refused_for_layered(self, refuse_work):
        """Refused at validation, for every method tuple, before the labeling,
        the dimension flow or any method runs."""
        dag = StructuredDag.of(2, [(1, 2)], [1, 2])
        for k in range(1, 4):
            for methods in permutations(ALL_METHODS, k):
                with pytest.raises(InvalidGraphError, match="leaders must have no incoming edges"):
                    analyze(dag, methods)

    def test_noncontiguous_ids_refused_before_any_work(self, refuse_work):
        dag = StructuredDag(frozenset({2, 3, 4}), frozenset({(2, 3), (3, 4)}), frozenset({2}))
        for methods in (("layered", "oracle"), ALL_METHODS):
            with pytest.raises(InvalidGraphError, match="contiguous ids"):
                analyze(dag, methods)

    def test_disagreement_is_flagged(self):
        report = analyze(goldens.SKIP7, ("layered", "oracle"))
        assert not report.consistent
        assert report.fixed_sets["layered"] != report.fixed_sets["oracle"]


class TestReportJson:
    def test_schema_and_payload(self, pair13):
        report = analyze(pair13.dag, trials=25, seed=0)
        payload = report_to_json_dict(report)
        assert payload["schema"] == 1
        assert payload["digest"] == graph_digest(pair13.dag)
        assert payload["generic_dim"] == 10
        assert payload["labeling"]["depth"] == 5
        assert payload["consistent"] is True
        layered = payload["methods"]["layered"]
        assert layered["fixed"] == sorted(pair13.fixed)
        layer2 = layered["layers"][1]
        assert layer2["matched_sets"] == [[3, 5], [4, 5]]
        assert payload["methods"]["numeric"]["trials"] == 25
        json.dumps(payload)  # must be serializable as-is

    def test_layer_entries_track_reports(self, single7):
        payload = report_to_json_dict(analyze(single7.dag, ("layered",)))
        layers = payload["methods"]["layered"]["layers"]
        assert [entry["layer"] for entry in layers] == [1, 2, 3, 4, 5]
        assert layers[0]["fast_path"] == "singleton-layer"

    def test_byte_identical_reports(self, golden):
        one = json.dumps(report_to_json_dict(analyze(golden.dag, trials=20, seed=4)))
        two = json.dumps(report_to_json_dict(analyze(golden.dag, trials=20, seed=4)))
        assert one == two

    def test_every_method_gives_a_fixed_node_result(self, pair13):
        report = analyze(pair13.dag, trials=25, seed=3)
        assert all(isinstance(r, FixedNodeResult) for r in report.methods.values())
        numeric = report.methods["numeric"]
        assert (numeric.per_layer, report.generic_dim) == ((), 10)
        assert (report.trials, report.seed) == (25, 3)
        assert list(report_to_json_dict(report)["methods"]["numeric"]) == [
            "fixed", "trials", "seed", "tol",
        ]


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert len(fixednodes.__all__) == 25
        assert sorted(fixednodes.__all__) == [
            "AnalysisReport", "FixedNodeResult", "GeneratorConfig", "InconclusiveError",
            "InvalidGraphError", "LayerLabeling", "LayerReport", "StemFamily",
            "StructuredDag", "Violation", "analyze", "export_dot", "fixed_nodes_layered",
            "fixed_nodes_oracle", "generic_dimension",
            "graph_digest", "graph_from_json", "graph_to_json", "label_layers",
            "numeric_fixed_nodes", "random_layered_dag", "report_to_json_dict",
            "spread_widths", "stem_family_violations", "validate",
        ]
        for name in fixednodes.__all__:
            assert getattr(fixednodes, name) is not None
        for removed in (
            "LayerCoverage",
            "fixed_nodes_single_leader",
            "exhaustive_generic_dimension",
            "numeric_generic_dimension",
            "enumerate_max_families",
            "induce_prefix",
            "attach_matched_sets",
            "BudgetExceededError",
            "Realization",
            "ControllabilityMatrix",
            "sample_realization",
            "controllability_matrix",
            "ValidationReport",
            "NumericSummary",
        ):
            assert not hasattr(fixednodes, removed)

    def test_options_and_parameters_are_pinned(self):
        """No option or parameter comes back unnoticed: each subcommand's
        option dests (``-h`` aside), the signatures of the entry points and
        the fields of the result types.  The routes take only the graph: its
        one dimension flow is cached on it, not handed over."""
        parser = fixednodes.cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            name: sorted(a.dest for a in cmd._actions if not isinstance(a, argparse._HelpAction))
            for name, cmd in sub.choices.items()
        }
        analysis = ["graph", "output", "seed", "trials"]
        assert dests == {
            "label": ["graph", "output"],
            "dim": ["graph", "output"],
            "fixed": sorted(analysis + ["method"]),
            "verify": analysis,
            "gen": ["edge_prob", "edges", "leaders", "output", "p", "seed", "skip_prob", "width"],
            "export-dot": sorted(analysis + ["method"]),
        }
        assert sum(map(len, dests.values())) == 26
        signatures = {
            fn.__name__: list(inspect.signature(fn).parameters)
            for fn in (
                analyze,
                fixednodes.validate,
                export_dot,
                fixed_nodes_oracle,
                fixed_nodes_layered,
                generic_dimension,
            )
        }
        assert signatures == {
            "analyze": ["dag", "methods", "trials", "seed"],
            "validate": ["dag"],
            "export_dot": ["dag", "fixed"],
            "fixed_nodes_oracle": ["dag"],
            "fixed_nodes_layered": ["dag"],
            "generic_dimension": ["dag"],
        }
        fields = {
            cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in (StemFamily, LayerReport, FixedNodeResult, AnalysisReport)
        }
        assert fields == {
            "StemFamily": ["stems"],
            "LayerReport": ["layer_index", "targets", "mu", "fixed", "fast_path", "matched_sets"],
            "FixedNodeResult": ["fixed_nodes", "per_layer"],
            "AnalysisReport": [
                "digest", "dag", "labeling", "generic_dim", "witness", "methods", "trials", "seed",
            ],
        }


class TestExportDot:
    def test_single7_counts(self, single7):
        dot = export_dot(single7.dag, {1, 2, 7})
        assert dot.count("->") == 6
        assert dot.count('class="fixed"') == 3
        assert dot.count("rank=same") == 5
        for v in range(1, 8):
            assert f"\n    {v}" in dot or f" {v} " in dot

    def test_empty_fixed_set(self, single7):
        dot = export_dot(single7.dag, set())
        assert 'class="fixed"' not in dot
        assert dot.startswith("digraph")

    def test_deterministic_output(self, pair13):
        outs = {export_dot(pair13.dag, pair13.fixed) for _ in range(3)}
        assert len(outs) == 1

    def test_unknown_fixed_nodes_rejected(self, single7):
        with pytest.raises(InvalidGraphError):
            export_dot(single7.dag, {99})

    def test_leaders_marked(self, pair13):
        dot = export_dot(pair13.dag, pair13.fixed)
        assert dot.count("doublecircle") == 2
