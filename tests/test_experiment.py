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
    probe_threshold,
    run_trial,
)
from monotree import experiment
from monotree.experiment import MODE_RANDOM, MODE_THREE_STAR, trial_seed
from monotree.solver import solve_cover


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
        assert a.core() == b.core()
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
        # on the identically seeded instance, confirms 3 is the minimum
        from monotree import (
            Colour,
            build_component_hypergraph,
            colour_three_stars,
            generate_gnp,
            monochromatic_components,
            tau_exact,
        )
        from monotree.experiment import _mix

        cfg = ExperimentConfig(
            n_values=(200,), trials=1, seed=7, p_values=(0.6,),
            modes=(MODE_THREE_STAR,),
        )
        rec = run_trial(cfg, 200, 0.6, MODE_THREE_STAR, 0)
        assert rec.size == 3
        base = trial_seed(7, 200, 0.6, MODE_THREE_STAR, 0)
        g = generate_gnp(200, 0.6, _mix(base, 0))
        triple = first_nonadjacent_triple(g)
        cg = colour_three_stars(g, *triple, base=Colour.RED)
        cert = tau_exact(build_component_hypergraph(monochromatic_components(cg)))
        assert cert is not None and cert.size == 3


class TestFirstNonadjacentTriple:
    def test_complete_graph_has_none(self):
        assert first_nonadjacent_triple(SimpleGraph.complete(8)) is None

    def test_empty_graph_lex_smallest(self):
        assert first_nonadjacent_triple(SimpleGraph.empty(5)) == (0, 1, 2)

    def test_found_triple_is_nonadjacent(self):
        from monotree import generate_gnp

        g = generate_gnp(40, 0.5, seed=9)
        t = first_nonadjacent_triple(g)
        assert t is not None
        x, y, z = t
        assert not g.has_edge(x, y) and not g.has_edge(x, z) and not g.has_edge(y, z)


class TestProbeThreshold:
    def test_rows_and_header(self, tmp_path):
        out = str(tmp_path / "rows.csv")
        rows = probe_threshold(small_config(out_path=out))
        text = open(out).read()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert len(rows) == 8

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
        probe_threshold(small_config(out_path=a))
        probe_threshold(small_config(out_path=b))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_json_output(self, tmp_path):
        out = str(tmp_path / "rows.json")
        rows = probe_threshold(small_config(out_path=out))
        data = json.loads(open(out).read())
        assert len(data) == len(rows)
        assert data[0]["n"] == rows[0].n
        assert "branch_egp" in data[0]

    def test_unwritable_path_fails_before_running(self, tmp_path):
        cfg = small_config(out_path=str(tmp_path / "missing" / "out.csv"))
        with pytest.raises(OSError):
            probe_threshold(cfg)

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


def _rows_with_records(cfg):
    out = []
    for n, p, mode in cfg.cells():
        records = [run_trial(cfg, n, p, mode, t) for t in range(cfg.trials)]
        from monotree.experiment import _summarise

        out.append((_summarise(n, p, mode, records), records))
    return out
