from __future__ import annotations

import json

import pytest

import goldens
from fixednodes import StructuredDag, graph_to_json
from fixednodes.cli import main


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
        code, out, _ = run(
            capsys, "fixed", graph_file(goldens.PAIR13.dag), "--method", "layered", "--enum-cap", "5"
        )
        layers = json.loads(out)["methods"]["layered"]["layers"]
        assert all("matched_sets" not in entry for entry in layers)

    def test_output_file(self, graph_file, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "fixed", graph_file(goldens.SINGLE7.dag), "-o", str(out_path)
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["generic_dim"] == 5

    def test_nonsource_leaders_need_flag_and_skip_layered(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "edges": [[1, 2]], "leaders": [1, 2]}')
        code, _, err = run(capsys, "fixed", str(path), "--method", "oracle")
        assert code == 1
        code, out, err = run(
            capsys, "fixed", str(path), "--method", "oracle", "--allow-nonsource-leaders"
        )
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["methods"]["oracle"]["fixed"] == [1, 2]
        code, _, err = run(
            capsys, "fixed", str(path), "--method", "layered", "--allow-nonsource-leaders"
        )
        assert code == 1
        assert "source leaders" in err

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

    def test_inconclusive_numeric_exits_3(self, graph_file, capsys):
        code, _, err = run(
            capsys, "verify", graph_file(goldens.SINGLE7.dag), "--tol", "10.0"
        )
        assert code == 3
        assert "inconclusive" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["verify"], ["fixed", "--method", "numeric"]], ids=["verify", "fixed-numeric"]
    )
    def test_bad_tolerance_exits_1(self, graph_file, capsys, command, tol):
        code, out, err = run(
            capsys, *command, graph_file(goldens.SINGLE7.dag), "--tol", tol
        )
        assert (code, out) == (1, "")
        assert "tolerance must be finite and positive" in err


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


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, graph_file, capsys):
        path = graph_file(goldens.PAIR13.dag)
        _, first_report, _ = run(capsys, "fixed", path, "--trials", "20", "--seed", "9")
        _, second_report, _ = run(capsys, "fixed", path, "--trials", "20", "--seed", "9")
        assert first_report == second_report
        _, first_dot, _ = run(capsys, "export-dot", path)
        _, second_dot, _ = run(capsys, "export-dot", path)
        assert first_dot == second_dot
