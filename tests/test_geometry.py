"""Metric validation, hull projection, and joint-feasibility solver."""

from __future__ import annotations

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delibsim.geometry
from delibsim import (
    APPROVAL_MARGIN,
    EuclideanMetric,
    ExplicitMetric,
    FeasibilityResult,
    GeneratorConfig,
    MetricError,
    approves,
    best_common_proposal,
    distance,
    generate_scenario,
    nearest_point_in_hull,
    separated_proposal,
)


def assert_projection(target, generators, point, dist):
    """Certify that ``point`` is the projection of ``target`` onto conv(generators)."""
    from scipy.optimize import nnls

    # In the hull: nonnegative weights summing to one reproduce the point.
    columns = [list(g) + [1.0] for g in generators]
    matrix = [list(row) for row in zip(*columns)]
    _, residual = nnls(matrix, list(point) + [1.0])
    assert residual <= 1e-9, (point, residual)
    # Optimal: no generator lies beyond the plane through p normal to t - p.
    for g in generators:
        assert sum((gi - pi) * (ti - pi) for gi, pi, ti in zip(g, point, target)) <= 1e-9, g
    assert dist == pytest.approx(math.dist(target, point), abs=1e-12)


class TestEuclideanMetric:
    def test_distance(self):
        m = EuclideanMetric(2)
        assert distance((0.0, 0.0), (3.0, 4.0), m) == 5.0

    def test_dimension_bounds(self):
        with pytest.raises(MetricError) as err:
            EuclideanMetric(0)
        assert err.value.clause == "space.dimension"
        with pytest.raises(MetricError):
            EuclideanMetric(9)
        assert EuclideanMetric(8).dimension == 8

    def test_rejects_wrong_arity(self):
        with pytest.raises(MetricError) as err:
            distance((0.0,), (1.0, 2.0), EuclideanMetric(2))
        assert err.value.clause == "space.dimension"

    def test_rejects_point_ids(self):
        with pytest.raises(MetricError) as err:
            distance("a", "b", EuclideanMetric(2))
        assert err.value.clause == "metric.kind"


class TestExplicitMetric:
    def good(self):
        return ExplicitMetric(
            ("r", "a", "b"),
            ((0.0, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0)),
        )

    def test_lookup(self):
        m = self.good()
        assert distance("a", "b", m) == 1.5
        assert distance("a", "a", m) == 0.0

    def test_unknown_id(self):
        with pytest.raises(MetricError) as err:
            distance("a", "zz", self.good())
        assert err.value.clause == "metric.unknown_id"

    def test_rejects_coordinates(self):
        with pytest.raises(MetricError) as err:
            distance((0.0,), (1.0,), self.good())
        assert err.value.clause == "metric.kind"

    @pytest.mark.parametrize(
        "matrix, clause",
        [
            (((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)), "metric.shape"),
            (((0.5, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0)), "metric.diagonal"),
            (((0.0, 1.0, 2.0), (1.1, 0.0, 1.5), (2.0, 1.5, 0.0)), "metric.symmetry"),
            (((0.0, 0.0, 2.0), (0.0, 0.0, 1.5), (2.0, 1.5, 0.0)), "metric.positivity"),
            (((0.0, 1.0, 9.0), (1.0, 0.0, 1.5), (9.0, 1.5, 0.0)), "metric.triangle"),
            (((0.0, 1.0, math.inf), (1.0, 0.0, 1.5), (math.inf, 1.5, 0.0)), "metric.finite"),
        ],
    )
    def test_validation(self, matrix, clause):
        with pytest.raises(MetricError) as err:
            ExplicitMetric(("r", "a", "b"), matrix)
        assert err.value.clause == clause

    def test_duplicate_ids(self):
        with pytest.raises(MetricError) as err:
            ExplicitMetric(("r", "r"), ((0.0, 1.0), (1.0, 0.0)))
        assert err.value.clause == "metric.ids"

    @pytest.mark.parametrize("ids", [("r", 1), ("r", None), ("r", ["a"])])
    def test_ids_must_be_strings(self, ids):
        with pytest.raises(MetricError) as err:
            ExplicitMetric(ids, ((0.0, 1.0), (1.0, 0.0)))
        assert err.value.clause == "metric.ids"

    def test_triangle_slack_tolerated(self):
        # violation of 1e-13 sits inside the 1e-12 slack
        eps = 1e-13
        ExplicitMetric(
            ("r", "a", "b"),
            ((0.0, 1.0, 2.0 + eps), (1.0, 0.0, 1.0), (2.0 + eps, 1.0, 0.0)),
        )


class TestApproval:
    def test_strictly_closer(self):
        m = EuclideanMetric(1)
        assert approves((2.0,), (1.0,), (0.0,), m)
        assert not approves((2.0,), (5.0,), (0.0,), m)

    def test_tie_is_rejected(self):
        m = EuclideanMetric(1)
        assert not approves((2.0,), (4.0,), (0.0,), m)


class TestNearestPointInHull:
    def test_projects_onto_segment(self):
        point, dist = nearest_point_in_hull((0.0, 0.0), [(-1.0, 3.0), (1.0, 3.0)])
        assert point == pytest.approx((0.0, 3.0), abs=1e-9)
        assert dist == pytest.approx(3.0, abs=1e-9)

    def test_inside_hull_is_zero(self):
        point, dist = nearest_point_in_hull(
            (0.0, 0.0), [(-1.0, -1.0), (2.0, 0.0), (0.0, 2.0)]
        )
        assert dist <= 1e-9
        assert point == pytest.approx((0.0, 0.0), abs=1e-6)

    def test_nearest_vertex(self):
        point, dist = nearest_point_in_hull((0.0,), [(3.0,), (5.0,)])
        assert point == pytest.approx((3.0,), abs=1e-9)
        assert dist == pytest.approx(3.0, abs=1e-9)

    def test_duplicate_generators(self):
        point, dist = nearest_point_in_hull(
            (0.0, 0.0), [(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)]
        )
        assert point == pytest.approx((2.0, 2.0), abs=1e-12)
        assert dist == pytest.approx(math.sqrt(8.0), abs=1e-9)

    def test_empty_generators_rejected(self):
        with pytest.raises(MetricError):
            nearest_point_in_hull((0.0,), [])

    def test_non_finite_target_rejected(self):
        with pytest.raises(MetricError) as err:
            nearest_point_in_hull((math.nan, 0.0), [(1.0, 1.0), (2.0, 0.5)])
        assert err.value.clause == "space.coords"

    def test_ragged_generators_rejected(self):
        ragged = [(1.0, 1.0), (2.0,)]
        for solve in (
            lambda: nearest_point_in_hull((0.0, 0.0), ragged),
            lambda: best_common_proposal(ragged, (0.0, 0.0)),
        ):
            with pytest.raises(MetricError) as err:
                solve()
            assert err.value.clause == "space.dimension"

    @pytest.mark.parametrize(
        "target, generators",
        [
            ((0.0, 0.0), [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (-1.0, 2.0)]),
            ((0.0, 0.0), [(1.0, -1.0), (1.0, 0.0), (1.0, 2.0), (1.0, 3.0)]),
            ((0.0, 0.0, 0.0), [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 0.5, 1.0)]),
            ((0.0, 0.0, 0.0), [(1.0, -1.0, 2.0), (-1.0, 1.0, 2.0), (1.0, 1.0, 2.0), (-1.0, -1.0, 2.0)]),
            ((0.5, 0.0), [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
            ((0.25, 0.25, 0.5), [(0.0, 0.0, 0.0), (0.5, 0.5, 1.0), (3.0, -1.0, 0.0)]),
            ((1.5, -2.0), [(1.5, -2.0), (1.5, -2.0)]),
            ((0.0,), [(0.0,)]),
        ],
        ids=[
            "collinear-2d", "collinear-facing-2d", "coplanar-3d", "coplanar-square-3d",
            "target-on-edge-2d", "target-on-edge-3d", "generators-at-target-2d",
            "generator-at-target-1d",
        ],
    )
    def test_degenerate_inputs_end_at_the_projection(self, target, generators):
        point, dist = nearest_point_in_hull(target, generators)
        assert_projection(target, generators, point, dist)

    def test_affinely_dependent_system_is_singular(self):
        assert delibsim.geometry._affine_minimizer([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]) is None
        assert delibsim.geometry._affine_minimizer([(1.0,), (-1.0,)]) == [0.5, 0.5]

    def test_singular_system_keeps_a_hull_point(self, monkeypatch):
        monkeypatch.setattr(delibsim.geometry, "_affine_minimizer", lambda rows: None)
        generators = [(2.0, 1.0), (-1.0, 3.0), (3.0, 3.0)]
        point, dist = nearest_point_in_hull((0.0, 0.0), generators)
        assert point == (2.0, 1.0)
        assert dist == pytest.approx(math.sqrt(5.0), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.tuples(
                st.tuples(*[st.integers(-50_000, 50_000)] * d),
                st.lists(st.tuples(*[st.integers(-50_000, 50_000)] * d), min_size=1, max_size=8),
            )
        )
    )
    def test_result_is_certified_projection(self, drawn):
        target, *generators = (tuple(c / 10_000 for c in p) for p in (drawn[0], *drawn[1]))
        point, dist = nearest_point_in_hull(target, generators)
        assert_projection(target, generators, point, dist)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-50_000, 50_000)] * d), min_size=2, max_size=8)
        )
    )
    def test_affine_minimizer_matches_reference_kkt_solve(self, drawn):
        import numpy as np

        points = [tuple(c / 10_000 for c in p) for p in drawn]
        # Wolfe's active sets are affinely independent: at most d + 1 rows.
        for m in range(2, min(len(points), len(points[0]) + 1) + 1):
            rows = points[:m]
            q = np.array(rows)
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = q @ q.T
            kkt[m, m] = 0.0
            if np.linalg.cond(kkt) > 1e6:
                continue  # too close to affinely dependent to compare at 1e-9
            reference = np.linalg.solve(kkt, np.eye(m + 1)[m])[:m]
            weights = delibsim.geometry._affine_minimizer(rows)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
            x = q.T @ np.array(weights)
            scale = max(np.linalg.norm(q, axis=1))
            for u in q[1:] - q[0]:
                assert abs(x @ u) <= 1e-9 * scale * np.linalg.norm(u)
            tolerance = 1e-9 * max(1.0, *map(abs, reference))
            assert weights == pytest.approx(list(reference), rel=1e-9, abs=tolerance)


class TestSeparatedProposal:
    def test_one_sided_agents_get_a_proposal(self):
        agents = [(-1.0, 3.0), (1.0, 3.0)]
        quo = (0.0, 0.0)
        point = separated_proposal(agents, quo)
        assert point is not None
        m = EuclideanMetric(2)
        for a in agents:
            assert distance(a, point, m) < distance(a, quo, m)

    def test_status_quo_inside_hull(self):
        assert separated_proposal([(-1.0, 0.0), (1.0, 0.0)], (0.0, 0.0)) is None

    def test_near_tangent_counts_as_inside(self):
        # hull distance below the approval margin must not separate
        assert separated_proposal([(-1.0, 0.0), (1.0, 5e-10)], (0.0, 0.0)) is None

    def test_non_finite_status_quo_rejected(self):
        with pytest.raises(MetricError) as err:
            separated_proposal([(1.0, 1.0), (2.0, 0.5)], (math.inf, 0.0))
        assert err.value.clause == "space.coords"


def wolfe_separation(agents, status_quo):
    """Wolfe's projection decided against the margin: the 1-D reference."""
    point, dist = nearest_point_in_hull(status_quo, agents)
    return point if dist > APPROVAL_MARGIN else None


class TestSeparationOnALine:
    @pytest.mark.parametrize(
        "quo, agents",
        [
            (0.0, [(1.0,), (-1.0,)]),
            (0.5, [(1.5,), (-0.5,), (2.0,)]),
            (0.0, [(2.0,), (-2.0,), (2.0,)]),
            (1.25, [(3.0,), (2.0,), (2.0,), (4.5,)]),
            (-0.3, [(-1.3,), (-2.5,), (-1.3,)]),
            (0.5, [(0.5,), (1.5,)]),
            (0.5, [(0.5,)]),
            (0.0, [(1.5e-9,), (2.0,)]),
            (0.0, [(0.5e-9,), (2.0,)]),
            (0.0, [(APPROVAL_MARGIN,), (2.0,)]),
            (0.0, [(-1.5e-9,), (-4.0,)]),
            (0.0, [(1.5e-9,), (-2.0,)]),
            (1.25, [(1.25 + 1.5e-9,), (3.0,)]),
            (1.25, [(1.25 - 0.5e-9,), (-3.0,)]),
        ],
        ids=[
            "tie-opposite", "tie-opposite-offset-quo", "duplicates-opposite", "duplicates-one-side",
            "duplicates-negative-side", "agent-at-quo", "only-agent-at-quo", "just-above-margin",
            "just-below-margin", "at-margin", "just-above-margin-negative", "near-margin-opposite",
            "just-above-margin-offset-quo", "just-below-margin-offset-quo",
        ],
    )
    def test_closed_form_matches_wolfe(self, quo, agents):
        assert separated_proposal(agents, (quo,)) == wolfe_separation(agents, (quo,))

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-50_000, 50_000),
        st.lists(st.integers(-50_000, 50_000), min_size=1, max_size=8),
    )
    def test_closed_form_matches_wolfe_on_the_grid(self, quo, agents):
        quo = (quo / 10_000,)
        agents = [(v / 10_000,) for v in agents]
        assert separated_proposal(agents, quo) == wolfe_separation(agents, quo)


class TestBestCommonProposal:
    def test_singleton(self):
        res = best_common_proposal([(1.0,)], (0.0,))
        assert res.witness == pytest.approx((1.0,), abs=1e-9)
        assert res.margin == pytest.approx(-1.0, abs=1e-9)
        assert res.feasible

    def test_two_containing_balls_1d(self):
        res = best_common_proposal([(2.0,), (6.0,)], (0.0,))
        assert res.margin == pytest.approx(-2.0, abs=1e-7)

    def test_tangent_balls_have_zero_margin(self):
        res = best_common_proposal([(-4.0, 0.0), (4.0, 0.0)], (0.0, 0.0))
        assert abs(res.margin) <= 1e-7
        assert not res.feasible

    def test_square_corners(self):
        agents = [(-3.0, 3.0), (-3.0, 4.0), (3.0, 3.0), (3.0, 4.0)]
        res = best_common_proposal(agents, (0.0, 0.0))
        assert res.margin == pytest.approx(3.0 - math.sqrt(18.0), abs=1e-7)
        assert res.feasible
        m = EuclideanMetric(2)
        for a in agents:
            assert distance(a, res.witness, m) < distance(a, (0.0, 0.0), m)

    def test_margin_matches_witness(self):
        agents = [(1.5, 0.5), (-0.5, 2.0), (0.5, 1.5)]
        quo = (0.0, 0.0)
        res = best_common_proposal(agents, quo)
        m = EuclideanMetric(2)
        exact = max(distance(a, res.witness, m) - distance(a, quo, m) for a in agents)
        assert res.margin == pytest.approx(exact, abs=1e-12)

    def test_empty_non_finite_and_mismatched_input_rejected(self):
        for agents, quo, clause in [
            ([], (0.0,), "space.coords"),
            ([(math.nan, 0.0)], (0.0, 0.0), "space.coords"),
            ([(1.0, 0.0)], (math.inf, 0.0), "space.coords"),
            ([(1.0, 0.0)], (0.0,), "space.dimension"),
        ]:
            with pytest.raises(MetricError) as err:
                best_common_proposal(agents, quo)
            assert err.value.clause == clause


def slsqp_margin(agents, quo):
    """Reference margin: SLSQP in epigraph form from several deterministic starts.

    Starts at the status quo, each agent and the centroid; the best
    converged start wins, ties by start order, and the margin is recomputed
    exactly at its point.  None if no start converges.
    """
    import numpy as np
    from scipy.optimize import minimize

    pts = np.asarray(agents, dtype=float)
    r = np.asarray(quo, dtype=float)
    radii = np.linalg.norm(pts - r, axis=1)

    def max_slack(p):
        return float((np.linalg.norm(pts - p, axis=1) - radii).max())

    if pts.shape[0] == 1:
        return -float(radii[0])
    d = pts.shape[1]
    objective_grad = np.zeros(d + 1)
    objective_grad[-1] = 1.0

    def constraint_values(z):
        return z[-1] - (np.linalg.norm(pts - z[:-1], axis=1) - radii)

    def constraint_jac(z):
        diffs = z[:-1] - pts
        norms = np.linalg.norm(diffs, axis=1)
        norms = np.where(norms < 1e-12, 1.0, norms)
        jac = np.empty((pts.shape[0], d + 1))
        jac[:, :d] = -diffs / norms[:, None]
        jac[:, -1] = 1.0
        return jac

    best = None
    for p0 in [r] + list(pts) + [pts.mean(axis=0)]:
        result = minimize(
            lambda z: z[-1],
            np.append(p0, max_slack(p0) + 1.0),
            jac=lambda z: objective_grad,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": constraint_values, "jac": constraint_jac}],
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if result.success:
            value = max_slack(result.x[:-1])
            if best is None or value < best:
                best = value
    return best


class TestMarginAgainstSlsqp:
    """The exact margin against the SLSQP multistart it replaced."""

    def assert_matches_reference(self, agents, quo):
        exact = best_common_proposal(agents, quo)
        reference = slsqp_margin(agents, quo)
        assert reference is not None, (agents, quo)
        assert abs(exact.margin - reference) <= 1e-9, (agents, quo, exact.margin, reference)
        assert exact.margin <= reference + 1e-12, (agents, quo, exact.margin, reference)
        witness_slack = max(math.dist(v, exact.witness) - math.dist(v, quo) for v in agents)
        assert exact.margin == witness_slack
        return exact

    def test_generated_instances(self):
        config = GeneratorConfig(mode="continuous", min_agents=1, max_agents=8, dimensions=(1, 2, 3))
        shapes = set()
        for seed in range(1, 121):
            space, _ = generate_scenario(config, seed)
            agents = [space.agent_location(v) for v in space.agent_ids]
            shapes.add((space.dimension, len(agents)))
            self.assert_matches_reference(agents, space.status_quo)
        assert {d for d, _ in shapes} == {1, 2, 3}
        assert {n for _, n in shapes} == set(range(1, 9))

    @pytest.mark.parametrize("agents, quo", [
        pytest.param([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], (0.0, 1.0), id="collinear-2d"),
        pytest.param([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 3.0, 0.0)],
                     (0.0, 0.0, 1.0), id="coplanar-3d"),
        pytest.param([(1.0, 2.0), (1.0, 2.0), (3.0, 1.0)], (0.0, 0.0), id="duplicate-agents"),
        pytest.param([(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)], (0.0, 0.0), id="agent-on-status-quo"),
        pytest.param([(2.5, -1.0, 0.5)], (1.0, 1.0, 1.0), id="single-agent"),
        pytest.param([(-1.0,), (2.0,), (5.0,)], (0.5,), id="line"),
    ])
    def test_degenerate_instances(self, agents, quo):
        self.assert_matches_reference(agents, quo)

    def test_tangent_pair(self):
        exact = self.assert_matches_reference([(-4.0, 0.0), (4.0, 0.0)], (0.0, 0.0))
        assert abs(exact.margin) <= 1e-12


class TestLazyImports:
    def test_runs_with_numpy_and_scipy_blocked(self, tmp_path):
        code = (
            "import contextlib, io, math, sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "import delibsim, delibsim.cli\n"
            "from delibsim import DeliberationSpace, builtin_fixture\n"
            f"out = {str(tmp_path)!r}\n"
            "commands = [\n"
            "    ['run', '--fixture', 'example4', '--policy', 'compromise', '--out', out + '/t.json'],\n"
            "    ['batch', '--gen', '{\"mode\": \"continuous\", \"max_agents\": 4}',\n"
            "     '--policies', 'compromise', '--seeds', '1..3', '--out', out + '/rows.csv'],\n"
            "    ['transitions', '--fixture', 'example4'],\n"
            "    ['oracle', '--fixture', 'example3', '--explore'],\n"
            "]\n"
            "for argv in commands:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert delibsim.cli.main(argv) == 0, argv\n"
            "fixture, _ = builtin_fixture('example4')\n"
            "space = DeliberationSpace(fixture.metric, fixture.agents, fixture.status_quo)\n"
            "agents = [space.agent_location(v) for v in space.agent_ids]\n"
            "margin = delibsim.best_common_proposal(agents, space.status_quo).margin\n"
            "assert math.isfinite(margin), margin\n"
            "assert space.common_report(space.agent_ids).margin == margin\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestFeasibilityResult:
    def test_threshold_is_the_approval_margin(self):
        assert FeasibilityResult((0.0,), -2 * APPROVAL_MARGIN).feasible
        assert not FeasibilityResult((0.0,), -0.5 * APPROVAL_MARGIN).feasible
        assert not FeasibilityResult((0.0,), 0.0).feasible
