from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import goldens
import fixednodes.cli
import fixednodes.graph
import fixednodes.numeric
import fixednodes.report
import fixednodes.stems
from fixednodes import StructuredDag, analyze, graph_to_json
from fixednodes.cli import main
from fixednodes.search import MATCHED_SETS_MAX_NODES

DATA = Path(__file__).parent / "data"


@pytest.fixture
def graph_file(tmp_path):
    def write(dag, name="graph.json"):
        path = tmp_path / name
        path.write_text(graph_to_json(dag))
        return str(path)

    return write


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLabel:
    def test_emits_layers(self, graph_file, capsys):
        code, out, _ = run(capsys, "label", graph_file(goldens.SINGLE7.dag))
        assert code == 0
        payload = json.loads(out)
        assert payload == {"depth": 5, "layers": [[1], [2], [3, 4], [5, 6], [7]]}

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "label", str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "label", "/nonexistent/graph.json")
        assert code == 1
        assert "error" in err

    def test_cyclic_graph_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cyclic.json"
        path.write_text('{"n": 2, "edges": [[1, 2], [2, 1]], "leaders": [1]}')
        code, _, err = run(capsys, "label", str(path))
        assert code == 1
        assert "cycle" in err


class TestDim:
    def test_dimension_and_witness(self, graph_file, capsys):
        code, out, _ = run(capsys, "dim", graph_file(goldens.SINGLE7.dag))
        assert code == 0
        payload = json.loads(out)
        assert payload["generic_dim"] == 5
        assert payload["witness"] == [[1, 2, 4, 5, 7]]


class TestFixed:
    def test_all_methods_agree_on_goldens(self, graph_file, capsys, golden):
        code, out, _ = run(capsys, "fixed", graph_file(golden.dag), "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is True
        for entry in payload["methods"].values():
            assert entry["fixed"] == sorted(golden.fixed)

    def test_single_method(self, graph_file, capsys):
        code, out, _ = run(capsys, "fixed", graph_file(goldens.PAIR13.dag), "--method", "oracle")
        payload = json.loads(out)
        assert code == 0
        assert list(payload["methods"]) == ["oracle"]

    def test_matched_sets_attached_within_budget(self, graph_file, capsys):
        code, out, _ = run(capsys, "fixed", graph_file(goldens.PAIR13.dag), "--method", "layered")
        payload = json.loads(out)
        layers = payload["methods"]["layered"]["layers"]
        assert layers[3]["matched_sets"] == [[9, 10], [9, 11], [10, 11]]
        assert layers[4]["fast_path"] == "unique-matched-set"

    def test_enum_cap_suppresses_matched_sets(self, graph_file, capsys):
        for n, attached in ((MATCHED_SETS_MAX_NODES, True), (MATCHED_SETS_MAX_NODES + 1, False)):
            path = StructuredDag.of(n, [(i, i + 1) for i in range(1, n)], [1])
            code, out, _ = run(capsys, "fixed", graph_file(path), "--method", "layered")
            assert code == 0
            layers = json.loads(out)["methods"]["layered"]["layers"]
            assert len(layers) == n
            assert all(("matched_sets" in entry) == attached for entry in layers)

    def test_output_file(self, graph_file, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "fixed", graph_file(goldens.SINGLE7.dag), "-o", str(out_path)
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["generic_dim"] == 5

    def test_nonsource_leaders_refused_everywhere(self, tmp_path, capsys):
        """A leader with an incoming edge is invalid input on every graph
        subcommand and method, with no warning channel beside the error."""
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "edges": [[1, 2]], "leaders": [1, 2]}')
        for command in (("label",), ("dim",), *GRAPH_COMMANDS.values()):
            code, out, err = run(capsys, command[0], str(path), *command[1:])
            assert (code, out) == (1, "")
            assert "leaders must have no incoming edges" in err
            assert "warning:" not in err

    def test_dense_graph_tests_each_candidate_set_once(self, graph_file, capsys, monkeypatch):
        """Four leaders over a chain of 11 nodes that each leader feeds: every
        leader roots 2^11 paths, too many to enumerate, while the matched sets
        of every layer take one flow network, emptied between candidate sets."""
        edges = [(u, v) for u in range(1, 5) for v in range(5, 16)]
        edges += [(u, v) for u in range(5, 16) for v in range(u + 1, 16)]
        dag = StructuredDag.of(15, edges, range(1, 5))
        assert len(dag.edges) == 99
        sweeping, built, emptied = [], [], set()
        init = fixednodes.stems.FlowNetwork.__init__
        reset = fixednodes.stems.FlowNetwork.reset
        sweep = fixednodes.report.fixed_nodes_layered

        def counting_init(self, *args, **kwargs):
            if sweeping:
                built.append(self)
            init(self, *args, **kwargs)

        def counting_reset(self):
            emptied.add(id(self))
            reset(self)

        def counted_sweep(*args, **kwargs):
            sweeping.append(True)
            try:
                return sweep(*args, **kwargs)
            finally:
                sweeping.pop()

        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "__init__", counting_init)
        monkeypatch.setattr(fixednodes.stems.FlowNetwork, "reset", counting_reset)
        monkeypatch.setattr(fixednodes.report, "fixed_nodes_layered", counted_sweep)
        code, out, _ = run(capsys, "fixed", graph_file(dag), "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is True
        layers = payload["methods"]["layered"]["layers"]
        assert [entry["matched_sets"] for entry in layers] == [[[1, 2, 3, 4]]] + [
            [[v]] for v in range(5, 16)
        ]
        # the sweep's own network and one listing network, the only one emptied
        assert len(built) == 2
        assert emptied == {id(built[1])}

    def test_oversized_n_exits_1_before_allocating(self, tmp_path, capsys, monkeypatch):
        def build(*_args, **_kwargs):
            pytest.fail("graph built before n was bounded")

        # the guard turns a missing bound into a failure instead of a
        # billion-element node set
        monkeypatch.setattr(StructuredDag, "of", classmethod(build))
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1000000000, "edges": [], "leaders": [1]}')
        code, out, err = run(capsys, "fixed", str(path))
        assert (code, out) == (1, "")
        assert '"n" is 1000000000' in err and "at most 1 reachable nodes" in err


class TestDeepNesting:
    """A nest of 1000 brackets, about 2 KB, exceeds the JSON parser's
    recursion limit, at the top level or inside ``"edges"``: every graph
    subcommand exits 1 with an error line instead of a traceback."""

    @pytest.mark.parametrize("where", ["top-level", "in-edges"])
    @pytest.mark.parametrize("command", ["label", "dim", "fixed", "verify", "export-dot"])
    def test_exits_1(self, tmp_path, capsys, command, where):
        nest = "[" * 1000 + "]" * 1000
        path = tmp_path / "deep.json"
        if where == "top-level":
            path.write_text(nest)
        else:
            path.write_text(f'{{"n": 2, "edges": [{nest}], "leaders": [1]}}')
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == "error: graph JSON is nested too deeply\n"


class TestVerify:
    def test_agreeing_graph_exits_0(self, graph_file, capsys):
        code, out, _ = run(capsys, "verify", graph_file(goldens.PAIR10.dag))
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_layer_criterion_mismatch_exits_2(self, graph_file, capsys):
        code, out, err = run(capsys, "verify", graph_file(goldens.SKIP7))
        assert code == 2
        assert json.loads(out)["consistent"] is False
        assert "disagree" in err

    def test_inconclusive_numeric_exits_3(self, graph_file, capsys, monkeypatch):
        """Draws with ``A = 0`` reach rank 1 of 5, so no draw attains the
        generic dimension."""
        sample = fixednodes.numeric._draw_weights

        def zero_weights(rng, count, edges):
            return np.zeros_like(sample(rng, count, edges))

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", zero_weights)
        code, _, err = run(capsys, "verify", graph_file(goldens.SINGLE7.dag))
        assert code == 3
        assert "inconclusive" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["verify"], ["fixed", "--method", "numeric"]], ids=["verify", "fixed-numeric"]
    )
    def test_bad_tolerance_exits_1(self, graph_file, capsys, command, tol):
        """The threshold is fixed, so any ``--tol`` is a usage error: exit 1,
        never a false exit 2 or an inconclusive exit 3."""
        code, out, err = run(
            capsys, *command, graph_file(goldens.SINGLE7.dag), "--tol", tol
        )
        assert (code, out) == (1, "")
        assert "usage:" in err and "--tol" in err


# Trial counts and seeds out of range, refused on every graph subcommand and method
NUMERIC_FLAGS = {
    "negative-trials": ("--trials", "-5"),
    "zero-trials": ("--trials", "0"),
    "negative-seed": ("--seed", "-1"),
}
GRAPH_COMMANDS = {
    "verify": ("verify",),
    **{
        f"fixed-{method}": ("fixed", "--method", method)
        for method in ("layered", "oracle", "numeric", "all")
    },
    **{
        f"export-dot-{method}": ("export-dot", "--method", method)
        for method in ("layered", "oracle", "numeric")
    },
}
USAGE_ERRORS = {
    "unknown-flag": ("verify", "--no-such-flag"),
    "bad-int": ("verify", "--trials", "abc"),
    "removed-no-prune": ("verify", "--no-prune"),
    "removed-enum-cap": ("verify", "--enum-cap", "5"),
    "removed-allow-nonsource-leaders": ("verify", "--allow-nonsource-leaders"),
    **{
        f"removed-allow-nonsource-leaders-{command}": (command, "--allow-nonsource-leaders")
        for command in ("label", "dim", "fixed", "export-dot")
    },
    **{
        f"{flag}-{name}": (*command, *argv)
        for flag, argv in NUMERIC_FLAGS.items()
        for name, command in GRAPH_COMMANDS.items()
    },
}


class TestUsage:
    """Usage errors exit 1, never 2, which ``verify`` keeps for a disagreement."""

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_usage_error_exits_1(self, graph_file, capsys, argv):
        """A trial count below 1 or a negative seed is refused by every
        subcommand and method, whether or not the numeric route would run."""
        code, out, err = run(capsys, argv[0], graph_file(goldens.PAIR9.dag), *argv[1:])
        assert (code, out) == (1, "")
        assert "usage:" in err
        if argv[-2] in ("--trials", "--seed"):
            assert f"argument {argv[-2]}:" in err

    @pytest.mark.parametrize("argv", [("--seed", "-1"), ("--seed", "x")], ids=["negative", "bad-int"])
    def test_gen_seed_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(
            capsys, "gen", "--p", "3", "--width", "2", "--edges", "4", "--leaders", "1", *argv
        )
        assert (code, out) == (1, "")
        assert "usage:" in err and "argument --seed:" in err

    @pytest.mark.parametrize(
        "command", [("fixed",), ("verify",), ("export-dot",)], ids=lambda c: c[0]
    )
    def test_tol_is_not_an_option(self, graph_file, capsys, command):
        code, out, err = run(capsys, *command, graph_file(goldens.PAIR9.dag), "--tol", "1e-8")
        assert (code, out) == (1, "")
        assert "usage:" in err and "--tol" in err

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "usage:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0 and "usage:" in out


class TestParserBuiltOnce:
    """One parser serves every ``main`` call in a process, and each call exits
    and prints exactly as with a parser built afresh for it."""

    def test_repeated_calls_match_fresh_parsers(self, graph_file, capsys):
        path = graph_file(goldens.PAIR9.dag)
        calls = [
            ("verify", path, "--no-such-flag"),
            ("verify", path, "--trials", "5"),
            ("--help",),
            ("--help",),
            ("fixed", "--help"),
            ("label", path),
            ("dim", path),
            ("fixed", path, "--method", "numeric", "--trials", "5", "--seed", "2"),
            ("fixed", path, "--trials", "abc"),
            ("export-dot", path, "--method", "oracle"),
            ("gen", "--p", "3", "--width", "3", "--edges", "8", "--leaders", "2", "--seed", "4"),
            (),
        ]
        build = fixednodes.cli._build_parser
        fresh = []
        for argv in calls:
            build.cache_clear()
            fresh.append(run(capsys, *argv))
        build.cache_clear()
        repeated = [run(capsys, *argv) for argv in calls]
        assert build.cache_info().misses == 1
        assert repeated == fresh
        assert [code for code, _, _ in repeated] == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
        assert repeated[2] == repeated[3] and "usage:" in repeated[2][1]


class TestGen:
    def test_generates_requested_shape(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        code, _, _ = run(
            capsys,
            "gen", "--p", "6", "--width", "10", "--edges", "80",
            "--leaders", "4", "--seed", "7", "-o", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["n"] == 60
        assert len(payload["edges"]) == 80
        assert payload["leaders"] == [1, 2, 3, 4]

    def test_generated_graph_analyzes_cleanly(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        run(capsys, "gen", "--p", "4", "--width", "4", "--edges", "18",
            "--leaders", "2", "--seed", "3", "-o", str(out_path))
        code, out, _ = run(capsys, "fixed", str(out_path), "--trials", "10")
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_infeasible_request_exits_1(self, capsys):
        code, _, err = run(
            capsys, "gen", "--p", "2", "--width", "2", "--edges", "50", "--leaders", "2"
        )
        assert code == 1
        assert "error" in err


class TestExportDot:
    def test_dot_output(self, graph_file, capsys):
        code, out, _ = run(capsys, "export-dot", graph_file(goldens.SINGLE7.dag))
        assert code == 0
        assert out.startswith("digraph")
        assert out.count('class="fixed"') == 3

    def test_method_choice(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "export-dot", graph_file(goldens.SKIP7), "--method", "oracle"
        )
        assert code == 0
        assert out.count('class="fixed"') == len(goldens.SKIP7_ORACLE_FIXED)


_GRAPH_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ("fixed",),
        ("fixed", "--method", "layered"),
        ("verify",),
        ("export-dot",),
        ("export-dot", "--method", "oracle"),
        ("label",),
        ("dim",),
    ],
    ids=lambda argv: "-".join(argv),
)


class TestValidateOnce:
    """Every subcommand computes its graph's validation once: the CLI and
    ``analyze`` both call ``validate``, which reads the graph's cached result.
    The dimension flow, cached the same way, is solved at most once."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        find = fixednodes.graph._find_violations

        def counting(dag):
            calls.append(dag)
            return find(dag)

        monkeypatch.setattr(fixednodes.graph, "_find_violations", counting)
        return calls

    @_GRAPH_COMMANDS
    def test_one_validation_per_call(self, graph_file, capsys, validations, argv):
        command, *flags = argv
        code, _, _ = run(capsys, command, graph_file(goldens.PAIR13.dag), *flags)
        assert code == 0
        assert len(validations) == 1

    @_GRAPH_COMMANDS
    def test_one_solve_per_call(self, graph_file, capsys, solves, argv):
        """Every route reads the graph's one cached dimension flow, so a call
        solves it once, or never when it only labels."""
        command, *flags = argv
        code, _, _ = run(capsys, command, graph_file(goldens.PAIR13.dag), *flags)
        assert code == 0
        assert len(solves) == (0 if command == "label" else 1)

    def test_analyze_alone_validates(self, validations):
        dag = goldens.PAIR13.dag
        fresh = dag.with_leaders(dag.leaders)  # a new graph, its validation not yet cached
        analyze(fresh, ("oracle",))
        analyze(fresh, ("layered",))
        assert validations == [fresh]


class TestPeelOnce:
    """Validation, labeling, the dimension flow, the layered sweep and the
    matched-set enumeration share the graph's one cached source peel."""

    @pytest.mark.parametrize("name", ["pair13", "skip200"])
    def test_one_peel_per_fixed_call(self, capsys, monkeypatch, name):
        peeled = []
        peel = fixednodes.graph._peel_layers

        def counting(dag):
            peeled.append(dag)
            return peel(dag)

        monkeypatch.setattr(fixednodes.graph, "_peel_layers", counting)
        path = str(DATA / f"{name}.graph.json")
        code, _, _ = run(capsys, "fixed", path, "--method", "all", "--trials", "5")
        assert code == 0
        assert len(peeled) == 1

    def test_one_labeling_per_fixed_call(self, capsys, monkeypatch):
        built = []
        labeling = fixednodes.graph.LayerLabeling

        def counting(*args):
            built.append(args)
            return labeling(*args)

        monkeypatch.setattr(fixednodes.graph, "LayerLabeling", counting)
        path = str(DATA / "pair13.graph.json")
        code, _, _ = run(capsys, "fixed", path, "--method", "all", "--trials", "5")
        assert code == 0
        assert len(built) == 1


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, graph_file, capsys):
        path = graph_file(goldens.PAIR13.dag)
        _, first_report, _ = run(capsys, "fixed", path, "--trials", "20", "--seed", "9")
        _, second_report, _ = run(capsys, "fixed", path, "--trials", "20", "--seed", "9")
        assert first_report == second_report
        _, first_dot, _ = run(capsys, "export-dot", path)
        _, second_dot, _ = run(capsys, "export-dot", path)
        assert first_dot == second_dot
