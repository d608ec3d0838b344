import json
import shlex
from pathlib import Path

import pytest

from monotree import Colour, ColouredGraph, dumps, loads
from monotree.cli import build_parser, main

R, G, B = Colour.RED, Colour.GREEN, Colour.BLUE


@pytest.fixture
def triangle_file(tmp_path):
    cg = ColouredGraph.from_edge_colours(
        3, [(0, 1, R), (0, 2, R), (1, 2, R)]
    )
    path = tmp_path / "triangle.txt"
    path.write_text(dumps(cg))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_gen_writes_parseable_instance(self, capsys, tmp_path):
        out = str(tmp_path / "g.txt")
        code, _ = run(capsys, "gen", "--n", "10", "--p", "0.5", "--seed", "3", "--out", out)
        assert code == 0
        cg = loads(open(out).read())
        assert cg.n == 10

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run(capsys, "gen", "--n", "15", "--p", "0.4", "--seed", "9", "--out", a)
        run(capsys, "gen", "--n", "15", "--p", "0.4", "--seed", "9", "--out", b)
        assert open(a).read() == open(b).read()

    def test_gen_three_star(self, capsys):
        code, out = run(
            capsys, "gen", "--n", "12", "--p", "0.5", "--seed", "1",
            "--colouring", "three-star",
        )
        assert code == 0
        assert loads(out).n == 12


class TestComponents:
    def test_triangle_components(self, capsys, triangle_file):
        code, out = run(capsys, "components", triangle_file)
        assert code == 0
        data = json.loads(out)
        assert data["red"] == [[0, 1, 2]]
        assert data["green"] == [[0], [1], [2]]
        assert data["blue"] == [[0], [1], [2]]


class TestShortcut:
    def test_emits_closure_in_text_format(self, capsys, tmp_path):
        cg = ColouredGraph.from_edge_colours(3, [(0, 1, R), (1, 2, R)])
        src = tmp_path / "path.txt"
        src.write_text(dumps(cg))
        code, out = run(capsys, "shortcut", str(src))
        assert code == 0
        closure = loads(out)
        assert closure.graph.edge_count() == 3
        assert closure.colour_of(0, 2) == R


class TestHyper:
    def test_reports_numbers(self, capsys, triangle_file):
        code, out = run(capsys, "hyper", triangle_file)
        assert code == 0
        data = json.loads(out)
        assert data["tau"] == 1
        assert data["nu"] == 1
        assert data["nu_link"] == 3
        assert data["tau_cover"] == [["red", 0]]
        assert len(data["hyperedges"]) == 3

    def test_pivot_flag(self, capsys, triangle_file):
        code, out = run(capsys, "hyper", triangle_file, "--pivot", "g")
        assert code == 0
        assert json.loads(out)["link_pivot"] == "green"


class TestSolve:
    def test_valid_cover_exit_zero(self, capsys, triangle_file):
        code, out = run(capsys, "solve", triangle_file)
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["size"] == 1
        assert data["trace"]["branch"] == "egp"


class TestOracle:
    def test_minimum_cover(self, capsys, triangle_file):
        code, out = run(capsys, "oracle", triangle_file)
        assert code == 0
        assert json.loads(out)["tau"] == 1

    def test_k_max_exceeded(self, capsys, tmp_path):
        cg = ColouredGraph.from_edge_colours(3, [])
        src = tmp_path / "empty.txt"
        src.write_text(dumps(cg))
        code, out = run(capsys, "oracle", str(src), "--k-max", "2")
        assert code == 1
        assert json.loads(out)["tau"] is None


class TestCheckPseudo:
    def test_report_shape(self, capsys):
        code, out = run(
            capsys, "check-pseudo", "--n", "300", "--p", "0.5", "--seed", "2",
            "--pair-size", "30", "--max-tuple", "2", "--density-samples", "20",
            "--neighbourhood-samples", "20",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"degrees", "edge_density", "common_neighbourhoods"}


class TestProbe:
    def test_probe_stdout(self, capsys):
        code, out = run(
            capsys, "probe", "--n", "8,10", "--p", "0.5", "--trials", "3",
            "--seed", "4", "--mode", "random",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,p,mode,trials,frac_le3")
        assert len(lines) == 3

    def test_probe_exponent_form(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        code, _ = run(
            capsys, "probe", "--n", "30", "--p-exp", "1/6", "--p-scale", "1.0",
            "--trials", "2", "--seed", "4", "--out", out_path,
        )
        assert code == 0
        assert len(open(out_path).read().strip().split("\n")) == 2

    def test_probe_scale_defaults_to_one(self, capsys):
        args = ("probe", "--n", "30", "--p-exp", "1/6", "--trials", "2", "--seed", "4")
        code, default = run(capsys, *args)
        assert code == 0
        assert run(capsys, *args, "--p-scale", "1.0") == (0, default)


class TestErrors:
    def test_malformed_file_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\n0 0 r\n")
        code = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_zero_denominator_exponent_reports_error(self, capsys):
        code = main(["probe", "--n", "20", "--p-exp", "1/0", "--trials", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "1/0" in err

    def test_repeated_cell_reports_error(self, capsys):
        code = main(["probe", "--n", "20", "--p", "0.5,0.5", "--trials", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: cell (n=20, p=0.5, mode=random) is listed more than once\n"
        )

    def test_infeasible_grid_reports_error(self, capsys):
        code = main(
            ["probe", "--n", "30,40", "--p-exp", "1/6", "--p-scale", "1.0,1.5", "--trials", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cell (n=30) has p=1.0435414142893742 outside (0, 1]\n"

    @pytest.mark.parametrize(
        "extra",
        [("--p-exp", "1/6"), ("--p-scale", "1.0,2.0"), ("--p-exp", "1/6", "--p-scale", "1.0,2.0")],
        ids=["p-exp", "p-scale", "both"],
    )
    def test_explicit_p_rejects_exponent_options(self, capsys, extra):
        code = main(["probe", "--n", "20", "--p", "0.5", *extra, "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --p cannot be combined with --p-exp or --p-scale\n"

    def test_missing_file_reports_error(self, capsys):
        code = main(["solve", "/nonexistent/file.txt"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["solve", "FILE"], ["probe", "--n", "20", "--p", "0.5", "--trials", "1"]],
        ids=["solve", "probe"],
    )
    def test_exact_limit_flag_is_unrecognised(self, capsys, triangle_file, argv):
        argv = [triangle_file if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--exact-limit", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: unrecognized arguments: --exact-limit 5" in captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Argument lists of the `monotree ...` lines in README's Command line
    block, with backslash continuations joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["monotree"]:
            commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands()


def test_readme_lists_every_subcommand():
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(
        ["gen", "components", "shortcut", "hyper", "solve", "oracle", "check-pseudo", "probe"]
    )


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_parses(argv):
    # a flag that the parser no longer knows exits with status 2
    build_parser().parse_args(argv)
