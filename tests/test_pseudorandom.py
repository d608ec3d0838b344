import pytest

from monotree import (
    PseudorandomConfig,
    SimpleGraph,
    check_common_neighbourhoods,
    check_degrees,
    check_edge_density,
    generate_gnp,
)

import support


def star(n: int) -> SimpleGraph:
    return support.graph_from_edges(n, [(0, v) for v in range(1, n)])


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PseudorandomConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            PseudorandomConfig(max_tuple=7)
        with pytest.raises(ValueError):
            PseudorandomConfig(pair_size=0)
        with pytest.raises(ValueError, match="^sample counts must be positive$"):
            PseudorandomConfig(density_samples=0)
        for epsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^epsilon must be finite and positive, got "):
                PseudorandomConfig(epsilon=epsilon)


@pytest.mark.parametrize("p", [-1.0, 1.5, 2.0, float("nan")])
@pytest.mark.parametrize(
    "check",
    [
        lambda g, p, cfg: check_degrees(g, p, cfg),
        lambda g, p, cfg: check_edge_density(g, p, cfg, seed=1),
        lambda g, p, cfg: check_common_neighbourhoods(g, p, cfg, seed=1),
    ],
    ids=["degrees", "edge-density", "common-neighbourhoods"],
)
def test_checks_reject_p_outside_unit_interval(check, p):
    g = generate_gnp(60, 0.5, seed=1)
    with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\], got "):
        check(g, p, PseudorandomConfig())


class TestEdgeDensity:
    def test_complete_graph_all_pass(self):
        g = support.complete_graph(200)
        cfg = PseudorandomConfig(epsilon=0.1, pair_size=40, density_samples=50)
        out = support.outcome(check_edge_density(g, 1.0, cfg, seed=1), "edge-density")
        assert support.all_passed(out)
        assert out.passes == 50

    def test_empty_graph_all_fail(self):
        g = SimpleGraph.empty(200)
        cfg = PseudorandomConfig(epsilon=0.1, pair_size=40, density_samples=20)
        out = support.outcome(check_edge_density(g, 0.5, cfg, seed=1), "edge-density")
        assert out.fails == 20
        assert not support.all_passed(out)

    def test_too_small_graph_is_vacuous(self):
        g = support.complete_graph(10)
        cfg = PseudorandomConfig(pair_size=8)
        out = support.outcome(check_edge_density(g, 1.0, cfg, seed=0), "edge-density")
        assert out.status == "vacuous"
        assert not support.all_passed(out)
        assert out.passes == 0

    def test_p_zero_is_vacuous(self):
        report = check_edge_density(support.complete_graph(30), 0.0, PseudorandomConfig(), seed=0)
        out = support.outcome(report, "edge-density")
        assert out.status == "vacuous"

    def test_default_size_uses_constant(self):
        # C ln(n) / p = 10 * ln(100) / 0.9 ~ 51 > n/2, so vacuous
        g = generate_gnp(100, 0.9, seed=0)
        report = check_edge_density(g, 0.9, PseudorandomConfig(), seed=2)
        out = support.outcome(report, "edge-density")
        assert out.status == "vacuous"

    def test_deterministic(self):
        g = generate_gnp(300, 0.5, seed=5)
        cfg = PseudorandomConfig(pair_size=30, density_samples=40)
        a = check_edge_density(g, 0.5, cfg, seed=9)
        b = check_edge_density(g, 0.5, cfg, seed=9)
        assert a == b


class TestDegrees:
    def test_complete_graph_passes(self):
        g = support.complete_graph(200)
        out = support.outcome(check_degrees(g, 1.0, PseudorandomConfig(epsilon=0.01)), "degrees")
        assert support.all_passed(out)

    def test_tiny_epsilon_on_complete_graph_noted(self):
        g = support.complete_graph(100)
        out = support.outcome(check_degrees(g, 1.0, PseudorandomConfig(epsilon=0.001)), "degrees")
        assert out.fails == 100
        assert out.notes  # the epsilon >= 1/n caveat

    def test_empty_graph_fails(self):
        g = SimpleGraph.empty(50)
        out = support.outcome(check_degrees(g, 0.5, PseudorandomConfig()), "degrees")
        assert out.fails == 50

    def test_empty_vertex_set_is_vacuous(self):
        report = check_degrees(SimpleGraph.empty(0), 0.5, PseudorandomConfig())
        out = support.outcome(report, "degrees")
        assert out.status == "vacuous"

    def test_sampled_graph_concentrates(self):
        g = generate_gnp(800, 0.5, seed=13)
        out = support.outcome(check_degrees(g, 0.5, PseudorandomConfig(epsilon=0.15)), "degrees")
        assert out.fails == 0
        assert out.passes == 800


class TestCommonNeighbourhoods:
    def test_complete_graph_pairs(self):
        g = support.complete_graph(100)
        cfg = PseudorandomConfig(epsilon=0.05, max_tuple=2, neighbourhood_samples=30)
        report = check_common_neighbourhoods(g, 1.0, cfg, seed=3)
        out = support.outcome(report, "common-neighbourhood i=2")
        assert support.all_passed(out)  # n-2 inside (1 +- 0.05) n for n = 100

    def test_star_graph_fails(self):
        g = star(50)
        cfg = PseudorandomConfig(epsilon=0.25, max_tuple=2, neighbourhood_samples=30)
        report = check_common_neighbourhoods(g, 0.5, cfg, seed=4)
        out = support.outcome(report, "common-neighbourhood i=2")
        assert out.fails == 30

    def test_regime_invalid_flagged(self):
        g = generate_gnp(60, 0.2, seed=6)
        cfg = PseudorandomConfig(epsilon=0.25, max_tuple=4)
        report = check_common_neighbourhoods(g, 0.2, cfg, seed=6)
        # p^4 n = 0.096 < 4 = 1/epsilon
        out = support.outcome(report, "common-neighbourhood i=4")
        assert out.status == "regime-invalid"
        assert out.passes == 0 and not support.all_passed(out)

    def test_tiny_graph_vacuous(self):
        report = check_common_neighbourhoods(
            support.complete_graph(2), 1.0, PseudorandomConfig(max_tuple=3), seed=0
        )
        assert support.outcome(report, "common-neighbourhood i=2").status == "vacuous"

    def test_sampled_graph_passes(self):
        g = generate_gnp(1500, 0.5, seed=8)
        cfg = PseudorandomConfig(epsilon=0.25, max_tuple=3, neighbourhood_samples=40)
        report = check_common_neighbourhoods(g, 0.5, cfg, seed=8)
        for i in (1, 2, 3):
            out = support.outcome(report, f"common-neighbourhood i={i}")
            assert out.status == "ok"
            assert support.pass_fraction(out) >= 0.99

    def test_quadruple_neighbourhoods_at_scale(self):
        # expected quadruple count 0.5^4 * 5000 = 312.5, far above the
        # validity floor 1/epsilon = 4; concentration makes misses rare
        g = generate_gnp(5000, 0.5, seed=12)
        cfg = PseudorandomConfig(epsilon=0.25, max_tuple=4, neighbourhood_samples=100)
        report = check_common_neighbourhoods(g, 0.5, cfg, seed=12)
        out = support.outcome(report, "common-neighbourhood i=4")
        assert out.status == "ok"
        assert support.pass_fraction(out) >= 0.99

    def test_deterministic(self):
        g = generate_gnp(200, 0.4, seed=2)
        cfg = PseudorandomConfig(epsilon=0.3, max_tuple=2)
        a = check_common_neighbourhoods(g, 0.4, cfg, seed=11)
        b = check_common_neighbourhoods(g, 0.4, cfg, seed=11)
        assert a == b

    def test_json_shape(self):
        g = generate_gnp(100, 0.5, seed=1)
        report = check_common_neighbourhoods(
            g, 0.5, PseudorandomConfig(max_tuple=2), seed=1
        )
        data = report.to_json()
        assert {o["label"] for o in data["outcomes"]} == {
            "common-neighbourhood i=1",
            "common-neighbourhood i=2",
        }


class TestCompleteGraphBoundary:
    def test_every_check_passes_at_epsilon_six_over_n(self):
        n = 120
        g = support.complete_graph(n)
        cfg = PseudorandomConfig(
            epsilon=6 / n,
            max_tuple=4,
            pair_size=20,
            density_samples=30,
            neighbourhood_samples=30,
        )
        assert support.all_passed(support.outcome(check_degrees(g, 1.0, cfg), "degrees"))
        density = check_edge_density(g, 1.0, cfg, seed=3)
        assert support.all_passed(support.outcome(density, "edge-density"))
        report = check_common_neighbourhoods(g, 1.0, cfg, seed=3)
        for out in report.outcomes:
            assert support.all_passed(out)


def _report_cases():
    gnp = generate_gnp
    return {
        "degrees-witnesses": check_degrees(gnp(60, 0.3, seed=1), 0.3, PseudorandomConfig()),
        "degrees-complete-note": check_degrees(
            support.complete_graph(20), 1.0, PseudorandomConfig(epsilon=0.01)
        ),
        "degrees-vacuous": check_degrees(SimpleGraph.empty(0), 0.5, PseudorandomConfig()),
        "density-witnesses": check_edge_density(
            gnp(200, 0.3, seed=2), 0.3,
            PseudorandomConfig(pair_size=20, density_samples=12), seed=5,
        ),
        "density-vacuous": check_edge_density(
            support.complete_graph(10), 1.0, PseudorandomConfig(pair_size=8), seed=0
        ),
        # mean 0.5 and epsilon 1.5: an empty pair lies inside the band and
        # fails only because a pair must span at least one edge
        "density-epsilon-1.5": check_edge_density(
            gnp(100, 0.02, seed=3), 0.02,
            PseudorandomConfig(epsilon=1.5, pair_size=5, density_samples=12), seed=7,
        ),
        "common-witnesses": check_common_neighbourhoods(
            star(40), 0.5,
            PseudorandomConfig(epsilon=0.25, max_tuple=2, neighbourhood_samples=10),
            seed=4,
        ),
        "common-mixed": check_common_neighbourhoods(
            gnp(80, 0.4, seed=3), 0.4,
            PseudorandomConfig(epsilon=0.2, max_tuple=4, neighbourhood_samples=10),
            seed=9,
        ),
        "common-vacuous": check_common_neighbourhoods(
            support.complete_graph(3), 1.0,
            PseudorandomConfig(max_tuple=3, neighbourhood_samples=5), seed=0,
        ),
    }


# Literal `to_json()["outcomes"]` of each case above, generated before the
# three checks shared one tally.
REPORT_PINS = {
    "degrees-witnesses": [
        {"label": "degrees", "status": "ok", "passes": 23, "fails": 37,
         "worst_deviation": 0.4444444444444444,
         "witnesses": [[0, 14], [2, 22], [5, 13], [6, 16], [8, 24], [10, 22], [12, 25],
                       [14, 20]],
         "notes": []},
    ],
    "degrees-complete-note": [
        {"label": "degrees", "status": "ok", "passes": 0, "fails": 20,
         "worst_deviation": 0.05,
         "witnesses": [[0, 19], [1, 19], [2, 19], [3, 19], [4, 19], [5, 19], [6, 19],
                       [7, 19]],
         "notes": ["complete-graph degree n-1 needs epsilon >= 1/n = 0.05"]},
    ],
    "degrees-vacuous": [
        {"label": "degrees", "status": "vacuous", "passes": 0, "fails": 0,
         "worst_deviation": 0.0, "witnesses": [], "notes": ["empty graph"]},
    ],
    "density-witnesses": [
        {"label": "edge-density", "status": "ok", "passes": 11, "fails": 1,
         "worst_deviation": 0.11666666666666667, "witnesses": [[6, 106]], "notes": []},
    ],
    "density-vacuous": [
        {"label": "edge-density", "status": "vacuous", "passes": 0, "fails": 0,
         "worst_deviation": 0.0, "witnesses": [],
         "notes": ["no two disjoint sets of size 8 fit in 10 vertices"]},
    ],
    "density-epsilon-1.5": [
        {"label": "edge-density", "status": "ok", "passes": 3, "fails": 9,
         "worst_deviation": 1.0,
         "witnesses": [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [8, 0], [9, 0], [10, 0]],
         "notes": []},
    ],
    "common-witnesses": [
        {"label": "common-neighbourhood i=1", "status": "ok", "passes": 0, "fails": 10,
         "worst_deviation": 0.95,
         "witnesses": [[(11,), 1], [(1,), 1], [(39,), 1], [(17,), 1], [(37,), 1],
                       [(37,), 1], [(0,), 39], [(1,), 1]],
         "notes": []},
        {"label": "common-neighbourhood i=2", "status": "ok", "passes": 0, "fails": 10,
         "worst_deviation": 0.9,
         "witnesses": [[(13, 24), 1], [(13, 25), 1], [(6, 37), 1], [(32, 38), 1],
                       [(23, 29), 1], [(8, 29), 1], [(5, 35), 1], [(6, 18), 1]],
         "notes": []},
    ],
    "common-mixed": [
        {"label": "common-neighbourhood i=1", "status": "ok", "passes": 8, "fails": 2,
         "worst_deviation": 0.25, "witnesses": [[(18,), 40], [(55,), 24]], "notes": []},
        {"label": "common-neighbourhood i=2", "status": "ok", "passes": 6, "fails": 4,
         "worst_deviation": 0.6406249999999997,
         "witnesses": [[(50, 77), 16], [(10, 61), 9], [(17, 48), 21], [(47, 75), 16]],
         "notes": []},
        {"label": "common-neighbourhood i=3", "status": "ok", "passes": 3, "fails": 7,
         "worst_deviation": 0.9531249999999997,
         "witnesses": [[(9, 26, 27), 3], [(15, 60, 68), 10], [(24, 65, 68), 3],
                       [(24, 44, 50), 3], [(22, 53, 66), 7], [(12, 46, 67), 1],
                       [(14, 25, 37), 3]],
         "notes": []},
        {"label": "common-neighbourhood i=4", "status": "regime-invalid", "passes": 0,
         "fails": 0, "worst_deviation": 0.0, "witnesses": [],
         "notes": ["expected count 2.05 below 1/epsilon"]},
    ],
    "common-vacuous": [
        {"label": "common-neighbourhood i=1", "status": "regime-invalid", "passes": 0,
         "fails": 0, "worst_deviation": 0.0, "witnesses": [],
         "notes": ["expected count 3 below 1/epsilon"]},
        {"label": "common-neighbourhood i=2", "status": "regime-invalid", "passes": 0,
         "fails": 0, "worst_deviation": 0.0, "witnesses": [],
         "notes": ["expected count 3 below 1/epsilon"]},
        {"label": "common-neighbourhood i=3", "status": "vacuous", "passes": 0,
         "fails": 0, "worst_deviation": 0.0, "witnesses": [],
         "notes": ["need more than 3 vertices"]},
    ],
}


def test_reports_pinned():
    cases = _report_cases()
    assert cases.keys() == REPORT_PINS.keys()
    for name, report in cases.items():
        assert report.to_json()["outcomes"] == REPORT_PINS[name], name
