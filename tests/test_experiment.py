import hashlib
import json
import math
import time

import pytest

from monotree import (
    CSV_HEADER,
    ExperimentConfig,
    SimpleGraph,
    first_nonadjacent_triple,
    generate_gnp,
    probe_threshold,
    run_trial,
)
from monotree import experiment
from monotree.cli import main
from monotree.experiment import MODE_RANDOM, MODE_THREE_STAR, MODES, _mix, _run_unit, trial_seed
from monotree.graphs import MAX_VERTICES
from monotree.solver import solve_cover

import support


def small_config(**overrides):
    base = dict(
        n_values=(12, 20),
        trials=4,
        seed=7,
        p_values=(0.4, 0.8),
        modes=(MODE_RANDOM, MODE_THREE_STAR),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# small_config() as `monotree probe` arguments, less --out
SMALL_ARGV = [
    "probe", "--n", "12,20", "--trials", "4", "--seed", "7", "--p", "0.4,0.8", "--mode", "both",
]


class TestConfig:
    def test_cells_sorted_and_complete(self):
        cfg = small_config()
        cells = cfg.cells()
        assert len(cells) == 2 * 2 * 2
        assert cells == sorted(cells)

    def test_exponent_form_of_p(self):
        cfg = ExperimentConfig(
            n_values=(100,),
            trials=1,
            seed=0,
            p_exponent=1 / 6,
            p_scales=(1.0, 1.5),
        )
        base = (math.log(100) / 100) ** (1 / 6)
        assert cfg.p_for(100) == (base, 1.5 * base)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(p_values=(1.2,))
        with pytest.raises(ValueError):
            small_config(p_values=(), p_exponent=None)
        with pytest.raises(ValueError):
            small_config(modes=("bogus",))
        with pytest.raises(ValueError):
            small_config(n_values=(3,))  # three-star needs n >= 4
        with pytest.raises(ValueError, match="p_scales requires p_exponent"):
            small_config(p_scales=(1.0, 2.0))  # would be ignored beside p_values
        with pytest.raises(ValueError, match="^need at least one n value$"):
            small_config(n_values=())
        with pytest.raises(ValueError, match="^p_exponent requires p_scales$"):
            small_config(p_values=(), p_exponent=1 / 6)

    def test_rejects_empty_modes(self):
        with pytest.raises(ValueError, match="^need at least one colouring mode$"):
            ExperimentConfig(n_values=(10,), trials=1, seed=0, p_values=(0.5,), modes=())

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match=r"^n values must be non-negative, got n=-5$"):
            ExperimentConfig(n_values=(10, -5), trials=1, seed=0, p_values=(0.5,))
        ExperimentConfig(n_values=(0, 1), trials=1, seed=0, p_values=(0.5,))

    def test_rejects_n_over_the_vertex_limit(self):
        with pytest.raises(
            ValueError, match=rf"^n values must be at most {MAX_VERTICES}, got n={MAX_VERTICES + 1}$"
        ):
            ExperimentConfig(n_values=(10, MAX_VERTICES + 1), trials=1, seed=0, p_values=(1e-9,))

    @pytest.mark.parametrize("n", [0, 1])
    def test_exponent_form_rejects_n_below_two(self, n):
        # ln n / n is undefined at 0 and gives p = 0 at 1
        with pytest.raises(ValueError, match=rf"^p_exponent needs every n >= 2, got n={n}$"):
            ExperimentConfig(
                n_values=(10, n), trials=1, seed=0, p_exponent=1 / 6, p_scales=(1.0,)
            )

    def test_rejects_repeated_cell(self):
        repeated = r"cell \(n=20, p=0\.5, mode=random\) is listed more than once"
        with pytest.raises(ValueError, match=repeated):
            ExperimentConfig(n_values=(20,), trials=3, seed=1, p_values=(0.5, 0.5))
        with pytest.raises(ValueError, match=repeated):
            ExperimentConfig(n_values=(20, 20), trials=3, seed=1, p_values=(0.5,))
        with pytest.raises(ValueError, match="n=20, p=.*, mode=three-star"):
            ExperimentConfig(
                n_values=(20,), trials=3, seed=1, p_exponent=1 / 6,
                p_scales=(1.0, 1.0), modes=(MODE_THREE_STAR,),
            )

    def test_exponent_and_values_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                n_values=(10,), trials=1, seed=0, p_values=(0.5,), p_exponent=0.5
            )


class TestTrialSeeds:
    def test_independent_of_anything_but_coordinates(self):
        a = trial_seed(1, 100, 0.5, MODE_RANDOM, 3)
        assert a == trial_seed(1, 100, 0.5, MODE_RANDOM, 3)
        assert a != trial_seed(1, 100, 0.5, MODE_RANDOM, 4)
        assert a != trial_seed(1, 100, 0.5, MODE_THREE_STAR, 3)
        assert a != trial_seed(1, 101, 0.5, MODE_RANDOM, 3)
        assert a != trial_seed(1, 100, 0.25, MODE_RANDOM, 3)
        assert a != trial_seed(2, 100, 0.5, MODE_RANDOM, 3)


class TestRunTrial:
    def test_deterministic_records(self):
        cfg = ExperimentConfig(
            n_values=(200,), trials=1, seed=7, p_values=(0.6,),
            modes=(MODE_THREE_STAR,),
        )
        a = run_trial(cfg, 200, 0.6, MODE_THREE_STAR, 0)
        b = run_trial(cfg, 200, 0.6, MODE_THREE_STAR, 0)
        assert a == b
        assert not a.skipped
        assert a.size == 3

    def test_complete_graph_uses_pair_search(self):
        cfg = ExperimentConfig(
            n_values=(6,), trials=1, seed=3, p_values=(1.0,), modes=(MODE_RANDOM,)
        )
        rec = run_trial(cfg, 6, 1.0, MODE_RANDOM, 0)
        assert rec.branch == "egp"
        assert rec.size is not None and rec.size <= 2

    def test_three_star_skip_on_complete_graph(self):
        cfg = ExperimentConfig(
            n_values=(6,), trials=1, seed=3, p_values=(1.0,),
            modes=(MODE_THREE_STAR,),
        )
        rec = run_trial(cfg, 6, 1.0, MODE_THREE_STAR, 0)
        assert rec.skipped
        assert rec.size is None

    def test_exact_bound_respected(self):
        cfg = ExperimentConfig(
            n_values=(30,), trials=1, seed=5, p_values=(0.5,), modes=(MODE_RANDOM,)
        )
        rec = run_trial(cfg, 30, 0.5, MODE_RANDOM, 0)
        assert rec.exact_size is not None
        assert rec.size is not None
        assert rec.size >= rec.exact_size

    def test_exact_oracle_disabled(self, monkeypatch):
        # Trial 0 of (100, 0.05) at seed 42 has 62 components, two more than
        # a record reports an exact size for.  No strategy covers it, so the
        # solver's trace still carries the exact size; the record does not.
        traces = []

        def solve_and_keep(cg):
            cover, trace = solve_cover(cg)
            traces.append(trace)
            return cover, trace

        monkeypatch.setattr(experiment, "solve_cover", solve_and_keep)
        cfg = ExperimentConfig(n_values=(100,), trials=1, seed=42, p_values=(0.05,))
        rec = run_trial(cfg, 100, 0.05, MODE_RANDOM, 0)
        (trace,) = traces
        assert (rec.branch, rec.size, rec.exact_size) == ("fallback", 4, None)
        assert (trace.component_count, trace.exact_size) == (62, 4)

    def test_unbounded_search_trials_finish(self):
        # Trials of (100, 0.03) at seed 42 that no strategy covers, where the
        # plain branch and bound ran for seconds to minutes.  The digests of
        # four of them are the ones pinned in perfbench/pins.json.
        cfg = ExperimentConfig(n_values=(100,), trials=1, seed=42, p_values=(0.03,))
        sizes = {20: 37, 21: 38, 30: 33, 35: 32, 55: 33, 87: 36, 113: 33, 129: 34, 152: 34}
        pinned = {
            20: "ce50bc5d6391cc57850cad56feccd526d3b7c8468669d8bc6ac3f8d15c943393",
            21: "fc50a5d78d286d90df641ca96bdb0046163ad6dc2e3466e9f63df09a57989b4b",
            35: "2b55ad222660170b5070d0c5039e386aca11c4ff05ee489d93c083d491bb7a3e",
            113: "194a90ffcadeebf28ae510dd6ba3ca0bcebc37c59ee54ad1e3403e5498354fe5",
        }
        start = time.perf_counter()
        records = {t: run_trial(cfg, 100, 0.03, MODE_RANDOM, t) for t in sizes}
        elapsed = time.perf_counter() - start
        assert {t: (r.size, r.branch) for t, r in records.items()} == {
            t: (size, "fallback") for t, size in sizes.items()
        }
        for t, digest in pinned.items():
            core = [records[t].size, records[t].branch, records[t].exact_size]
            assert hashlib.sha256(json.dumps(core).encode()).hexdigest() == digest
        # About 0.1 s in all; the bound leaves room for a loaded machine.
        assert elapsed < 3.0

    def test_three_star_trial_size_and_exact_minimum(self):
        # the trial reports a 3-tree cover; the exact search, run directly
        # on the unit's graph, sampled from the random mode's seed, confirms
        # 3 is the minimum
        from monotree import (
            Colour,
            build_component_hypergraph,
            colour_three_stars,
            monochromatic_components,
            tau_exact,
        )

        cfg = ExperimentConfig(
            n_values=(200,), trials=1, seed=7, p_values=(0.6,),
            modes=(MODE_THREE_STAR,),
        )
        rec = run_trial(cfg, 200, 0.6, MODE_THREE_STAR, 0)
        assert rec.size == 3
        base = trial_seed(7, 200, 0.6, MODE_RANDOM, 0)  # the unit's graph seed
        g = generate_gnp(200, 0.6, _mix(base, 0))
        triple = first_nonadjacent_triple(g.adj)
        cg = colour_three_stars(g, *triple, base=Colour.RED)
        cover = tau_exact(build_component_hypergraph(monochromatic_components(cg)))
        assert cover is not None and len(cover) == 3


class TestFirstNonadjacentTriple:
    def test_complete_graph_has_none(self):
        assert first_nonadjacent_triple(support.complete_graph(8).adj) is None

    def test_empty_graph_lex_smallest(self):
        assert first_nonadjacent_triple(SimpleGraph.empty(5).adj) == (0, 1, 2)

    def test_found_triple_is_nonadjacent(self):
        from monotree import generate_gnp

        g = generate_gnp(40, 0.5, seed=9)
        t = first_nonadjacent_triple(g.adj)
        assert t is not None
        x, y, z = t
        assert not g.has_edge(x, y) and not g.has_edge(x, z) and not g.has_edge(y, z)


class TestProbeThreshold:
    def test_rows_and_header(self, tmp_path):
        out = str(tmp_path / "rows.csv")
        assert main([*SMALL_ARGV, "--out", out]) == 0
        rows = probe_threshold(small_config())
        text = open(out).read()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert len(rows) == 8
        assert lines[1:] == [row.csv_row() for row in rows]

    def test_complete_graph_row_fraction_one(self, tmp_path):
        cfg = ExperimentConfig(
            n_values=(6, 9), trials=5, seed=1, p_values=(1.0,), modes=(MODE_RANDOM,)
        )
        for row in probe_threshold(cfg):
            assert row.frac_le3 == 1.0
            assert row.branch_counts[0] == 5  # all through the pair search

    def test_repeat_runs_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main([*SMALL_ARGV, "--out", a]) == 0
        assert main([*SMALL_ARGV, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_json_output(self, tmp_path):
        out = str(tmp_path / "rows.json")
        assert main([*SMALL_ARGV, "--out", out]) == 0
        rows = probe_threshold(small_config())
        data = json.loads(open(out).read())
        assert len(data) == len(rows)
        assert data[0]["n"] == rows[0].n
        assert "branch_egp" in data[0]
        assert data == [row.to_json() for row in rows]

    def test_unwritable_path_fails_before_running(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(cg):
            calls.append(cg)
            return solve_cover(cg)

        monkeypatch.setattr(experiment, "solve_cover", counted)
        out = str(tmp_path / "missing" / "out.csv")
        assert main([*SMALL_ARGV, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert calls == []

    def test_sizes_never_below_exact(self):
        for row, cell_records in _rows_with_records(small_config()):
            for rec in cell_records:
                if rec.exact_size is not None and rec.size is not None:
                    assert rec.size >= rec.exact_size

    def test_probability_sweep_fractions_reported(self):
        # fraction of trials covered by <= 3 trees is expected to rise
        # with p; deviations are reported, not failed
        cfg = ExperimentConfig(
            n_values=(60,),
            trials=8,
            seed=23,
            p_values=(0.2, 0.4, 0.6, 0.8),
            modes=(MODE_RANDOM,),
        )
        rows = probe_threshold(cfg)
        fracs = [row.frac_le3 for row in rows]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        if fracs != sorted(fracs):
            print(f"note: fraction(<=3) not monotone in p: {fracs}")


def _union_rows(cg):
    return [r | g | b for r, g, b in zip(*cg.colour_adj)]


class TestPairedTrials:
    """A unit (n, p, trial) samples one graph and colours it in every mode."""

    @pytest.mark.parametrize("n, p", [(60, 0.5), (100, 0.05)], ids=["dense", "sparse"])
    def test_modes_of_a_unit_colour_one_graph(self, monkeypatch, n, p):
        solved = []

        def keep(cg):
            solved.append(cg)
            return solve_cover(cg)

        monkeypatch.setattr(experiment, "solve_cover", keep)
        cfg = small_config(n_values=(n,), p_values=(p,), trials=3)
        probe_threshold(cfg)
        # per unit, in mode order: random, then three-star
        assert len(solved) == 2 * cfg.trials
        for t in range(cfg.trials):
            random_cg, star_cg = solved[2 * t : 2 * t + 2]
            assert random_cg.colour_adj != star_cg.colour_adj
            base = trial_seed(cfg.seed, n, p, MODE_RANDOM, t)
            sampled = list(generate_gnp(n, p, _mix(base, 0)).adj)
            assert _union_rows(random_cg) == _union_rows(star_cg) == sampled

    def test_one_mode_gives_that_modes_rows_of_both(self, capsys):
        argv = ["probe", "--n", "60,100", "--p", "0.03,0.05,0.08", "--trials", "8", "--seed", "42",
                "--out", "-"]
        outputs = {}
        for mode in ("both", MODE_RANDOM, MODE_THREE_STAR):
            assert main([*argv, "--mode", mode]) == 0
            outputs[mode] = capsys.readouterr().out.splitlines()
        header, *rows = outputs["both"]
        assert len(rows) == 12
        for mode in (MODE_RANDOM, MODE_THREE_STAR):
            assert outputs[mode] == [header, *(row for row in rows if row.split(",")[2] == mode)]

    # the cells of the sparse-exact benchmark, which calls run_trial
    @pytest.mark.parametrize("n, p", [(100, 0.03), (100, 0.05), (100, 0.08), (60, 0.1)])
    def test_run_trial_is_the_units_record(self, n, p):
        cfg = ExperimentConfig(n_values=(n,), trials=12, seed=42, p_values=(p,), modes=MODES)
        for t in range(cfg.trials):
            random_rec, star_rec = _run_unit(cfg, n, p, t, MODES)
            assert run_trial(cfg, n, p, MODE_RANDOM, t) == random_rec
            assert run_trial(cfg, n, p, MODE_THREE_STAR, t) == star_rec

    def test_three_star_only_unit_draws_no_colours(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("three-star trials draw no colours")

        monkeypatch.setattr(experiment, "colour_random", refuse)
        monkeypatch.setattr(experiment, "random_coloured_gnp", refuse)
        cfg = small_config(modes=(MODE_THREE_STAR,))
        assert [row.mode for row in probe_threshold(cfg)] == [MODE_THREE_STAR] * 4

    def test_random_only_unit_samples_in_one_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a random-only unit samples through random_coloured_gnp")

        monkeypatch.setattr(experiment, "generate_gnp", refuse)
        monkeypatch.setattr(experiment, "colour_random", refuse)
        cfg = small_config(modes=(MODE_RANDOM,))
        assert [row.mode for row in probe_threshold(cfg)] == [MODE_RANDOM] * 4


class TestGoldenProbe:
    """Pinned probe bytes.  The three-star rows are those of one graph per
    unit, sampled from the random mode's seed; the random rows are those
    that random trials gave before units shared their graph."""

    def test_sparse_grid_both_modes(self, capsys):
        argv = ["probe", "--n", "60,100", "--p", "0.03,0.05,0.08", "--trials", "8",
                "--mode", "both", "--seed", "42", "--out", "-"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "fa22617cf18797c7fa650ae1e08b633db4edae83f05972afd676f7734b1cb943"


def _rows_with_records(cfg):
    out = []
    for n, p, mode in cfg.cells():
        records = [run_trial(cfg, n, p, mode, t) for t in range(cfg.trials)]
        from monotree.experiment import _summarise

        out.append((_summarise(n, p, mode, records), records))
    return out
