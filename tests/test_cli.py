import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monotree import (
    Colour,
    build_component_hypergraph,
    dumps,
    loads,
    monochromatic_components,
)
from monotree.cli import build_parser, main
from monotree.graphs import MAX_VERTICES

import support

R, G, B = Colour.RED, Colour.GREEN, Colour.BLUE


@pytest.fixture
def triangle_file(tmp_path):
    cg = support.from_edge_colours(
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

    @pytest.mark.parametrize("p", ["1e-17", "5e-324"])
    def test_gen_below_the_float_step_writes_the_empty_graph(self, capsys, p):
        # 1 - p rounds to 1 for these p
        assert run(capsys, "gen", "--n", "10", "--p", p) == (0, "n 10\n")


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
        cg = support.from_edge_colours(3, [(0, 1, R), (1, 2, R)])
        src = tmp_path / "path.txt"
        src.write_text(dumps(cg))
        code, out = run(capsys, "shortcut", str(src))
        assert code == 0
        closure = loads(out)
        assert support.adjacency(closure).edge_count() == 3
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

    def test_outputs_pinned(self, capsys, tmp_path):
        # SHA-256 of `hyper` with every pivot on ten seeded `gen` instances
        # (τ up to 27, ν_link up to 32): pins `tau_cover`, `nu_matching`,
        # `nu_link` and `konig_cover`.  Each `tau_cover` is a cover of the
        # size the reference search finds.
        instances = [
            (12, 0.5, 1, "random"), (16, 0.4, 2, "three-star"), (30, 0.2, 3, "random"),
            (40, 0.1, 4, "random"), (45, 0.3, 5, "three-star"), (50, 0.08, 5, "random"),
            (60, 0.05, 6, "random"), (70, 0.05, 7, "random"), (80, 0.04, 8, "random"),
            (90, 0.03, 9, "random"),
        ]
        path = tmp_path / "g.txt"
        digest = hashlib.sha256()
        for n, p, seed, colouring in instances:
            run(capsys, "gen", "--n", str(n), "--p", str(p), "--seed", str(seed),
                "--colouring", colouring, "--out", str(path))
            h = build_component_hypergraph(monochromatic_components(loads(path.read_text())))
            tau = len(support.reference_tau_exact(h))
            for pivot in "rgb":
                code, out = run(capsys, "hyper", str(path), "--pivot", pivot)
                assert code == 0
                cover = tuple((Colour[name.upper()], cid) for name, cid in json.loads(out)["tau_cover"])
                assert support.is_cover(h, cover)
                assert len(cover) == tau
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "e2d65293c86362c209a2505a167c5d78fefb68e75caf3d2a47c65378caa2cd2b"
        )


class TestSolve:
    def test_valid_cover_exit_zero(self, capsys, triangle_file):
        code, out = run(capsys, "solve", triangle_file)
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["size"] == 1
        assert data["trace"]["branch"] == "egp"

    def test_cover_is_verified_once(self, capsys, monkeypatch, tmp_path):
        # solve_cover verifies its own cover, so `solve` needs no second
        # check; the CLI's own binding is counted too.
        import monotree.cli
        import monotree.solver

        verify = monotree.solver.verify_cover
        calls = []

        def counted(cg, cover):
            calls.append(cover)
            return verify(cg, cover)

        monkeypatch.setattr(monotree.solver, "verify_cover", counted)
        monkeypatch.setattr(monotree.cli, "verify_cover", counted)
        path = tmp_path / "g.txt"
        assert main(["gen", "--n", "40", "--p", "0.1", "--seed", "7", "--out", str(path)]) == 0
        code, out = run(capsys, "solve", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["valid"], data["violations"]) == (True, [])
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "gen, digest",
        [
            ([], "236bf04eb6245821ead5f4cc30ade8969afbfe20cfe81836242cfd74e22fe892"),
            (
                ["--p", "2e-4", "--seed", "1"],
                "5e013758e94cace3337cbc86c78e61bf4568ec81c88dfc1589d459c687804813",
            ),
        ],
        ids=["edgeless", "sparse"],
    )
    def test_solve_at_scale_pinned(self, capsys, tmp_path, gen, digest):
        # n = 16384: the edgeless graph, whose 49,152 components are all
        # singletons, and G(16384, 2e-4) coloured as `gen` colours it.  The
        # digests are of the bytes `solve` wrote before the labelling kept
        # its spanning forest.  Each solve took under 1 s on a 2-vCPU
        # machine.
        path = tmp_path / "g.txt"
        if gen:
            assert main(["gen", "--n", "16384", *gen, "--out", str(path)]) == 0
        else:
            path.write_text("n 16384\n")
        start = time.perf_counter()
        code, out = run(capsys, "solve", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOracle:
    def test_minimum_cover(self, capsys, triangle_file):
        code, out = run(capsys, "oracle", triangle_file)
        assert code == 0
        assert json.loads(out)["tau"] == 1

    def test_k_max_exceeded(self, capsys, tmp_path):
        cg = support.from_edge_colours(3, [])
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "2.0"], "edge probability must lie in [0, 1], got 2.0"),
            (["--p", "-1"], "edge probability must lie in [0, 1], got -1.0"),
            (["--p", "nan"], "edge probability must lie in [0, 1], got nan"),
            (["--p", "0.5", "--epsilon", "nan"], "epsilon must be finite and positive, got nan"),
        ],
        ids=["p-above-one", "p-negative", "p-nan", "epsilon-nan"],
    )
    def test_bad_parameters_on_a_file_exit_2(self, capsys, tmp_path, args, message):
        path = str(tmp_path / "g.txt")
        assert main(["gen", "--n", "60", "--p", "0.5", "--seed", "1", "--out", path]) == 0
        code = main(["check-pseudo", "--file", path, *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "n, p, note",
        [
            ("1", "0.5", "no qualifying set size: fewer than 2 vertices (1)"),
            ("100", "0", "no qualifying set size: 10 ln(n)/p is unbounded at p = 0"),
        ],
        ids=["one-vertex", "p-zero"],
    )
    def test_density_without_a_qualifying_size_names_the_reason(self, capsys, n, p, note):
        code, out = run(capsys, "check-pseudo", "--n", n, "--p", p)
        assert code == 0
        (density,) = json.loads(out)["edge_density"]["outcomes"]
        assert density["status"] == "vacuous"
        assert density["passes"] == 0
        assert density["notes"] == [note]

    def test_file_reports_as_the_sampled_graph(self, capsys, tmp_path):
        # --file checks the union of the text's colour rows, which is the
        # graph that the same --n, --p and --seed sample
        path = str(tmp_path / "g.txt")
        assert main(["gen", "--n", "300", "--p", "0.3", "--seed", "4", "--out", path]) == 0
        sampled = run(capsys, "check-pseudo", "--n", "300", "--p", "0.3", "--seed", "4")
        from_file = run(capsys, "check-pseudo", "--file", path, "--p", "0.3", "--seed", "4")
        assert sampled[0] == 0
        assert from_file == sampled

    def test_size_factor_flag_is_unrecognised(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-pseudo", "--n", "300", "--p", "0.5", "--size-constant", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: unrecognized arguments: --size-constant 5" in captured.err


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

    def test_probe_dash_writes_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ("probe", "--n", "8,10", "--p", "0.5", "--trials", "3", "--seed", "4")
        code, out = run(capsys, *args, "--out", "-")
        assert code == 0
        assert run(capsys, *args, "--out", "rows.csv") == (0, "")
        assert out.encode() == (tmp_path / "rows.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["rows.csv"]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["gen", "--n", "12", "--p", "1", "--colouring", "three-star"],
                "no pairwise non-adjacent triple in the sample",
            ),
            (["probe", "--n", "20", "--trials", "1"], "provide --p or --p-exp with --p-scale"),
        ],
        ids=["three-star-on-a-complete-graph", "probe-without-p"],
    )
    def test_unusable_arguments_exit_2(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "-5", "--p", "0.5"], "n values must be non-negative, got n=-5"),
            (["--n", "0", "--p-exp", "1/6"], "p_exponent needs every n >= 2, got n=0"),
        ],
        ids=["negative", "exponent-below-two"],
    )
    def test_bad_n_leaves_out_file_untouched(self, capsys, tmp_path, argv, message):
        out = tmp_path / "grid.csv"
        out.write_bytes(b"earlier results\n")
        code = main(["probe", *argv, "--trials", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert out.read_bytes() == b"earlier results\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--out", "OUT"], "vertex count {n} exceeds the limit of {limit}"),
            (["check-pseudo"], "vertex count {n} exceeds the limit of {limit}"),
            (["probe", "--trials", "1", "--out", "OUT"], "n values must be at most {limit}, got n={n}"),
        ],
        ids=["gen", "check-pseudo", "probe"],
    )
    def test_sampled_size_over_the_limit_exits_2(self, capsys, tmp_path, argv, message):
        # Refused before anything is drawn or any output file is opened.
        n = MAX_VERTICES + 1
        message = message.format(n=n, limit=MAX_VERTICES)
        out = tmp_path / "out.txt"
        out.write_bytes(b"earlier results\n")
        argv = [str(out) if a == "OUT" else a for a in argv]
        code = main([*argv, "--n", str(n), "--p", "1e-9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert out.read_bytes() == b"earlier results\n"

    @pytest.mark.parametrize(
        "command, unbuffered",
        [("gen", None), ("gen", "1"), ("shortcut", None), ("shortcut", "1")],
        ids=["unset", "1", "shortcut-unset", "shortcut-1"],
    )
    def test_closed_stdout_stops_quietly(self, tmp_path, command, unbuffered):
        # `gen --n 400 --p 0.2` writes about 150 kB, and `shortcut` on that
        # file about 1 MB, row by row: more than a pipe buffer holds, so a
        # write fails once the reader has closed the pipe.  An unbuffered
        # stdout (PYTHONUNBUFFERED=1) may first take part of a write, which
        # must not end the output early without an error.
        gen = ["gen", "--n", "400", "--p", "0.2"]
        if command == "gen":
            argv = gen
        else:
            path = tmp_path / "g.txt"
            assert main([*gen, "--out", str(path)]) == 0
            argv = ["shortcut", str(path)]
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "monotree", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
        )
        assert proc.stdout.read(10).startswith(b"n 400\n")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

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
