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
    MetricError,
    approves,
    best_common_proposal,
    distance,
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


class TestLazyImports:
    def test_numpy_and_scipy_loaded_only_by_the_margin_solver(self):
        code = (
            "import contextlib, io, math, sys\n"
            "import delibsim, delibsim.cli\n"
            "from delibsim import DeliberationSpace, Policy, builtin_fixture\n"
            "heavy = ('numpy', 'scipy')\n"
            "assert not set(heavy) & set(sys.modules), 'loaded on import'\n"
            "fixture, _ = builtin_fixture('example4')\n"
            "space = DeliberationSpace(fixture.metric, fixture.agents, fixture.status_quo)\n"
            "policy = Policy.parse('compromise', seed=1)\n"
            "trace = delibsim.run(space, delibsim.default_initial_structure(space), policy)\n"
            "assert trace.steps, 'continuous run made no step'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert delibsim.cli.main(['oracle', '--fixture', 'example3', '--explore']) == 0\n"
            "assert not set(heavy) & set(sys.modules), sorted(set(heavy) & set(sys.modules))\n"
            "agents = [space.agent_location(v) for v in space.agent_ids]\n"
            "margin = delibsim.best_common_proposal(agents, space.status_quo).margin\n"
            "assert math.isfinite(margin), margin\n"
            "assert set(heavy) <= set(sys.modules), 'margin solver ran without them'\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestFeasibilityResult:
    def test_threshold_is_the_approval_margin(self):
        assert FeasibilityResult((0.0,), -2 * APPROVAL_MARGIN).feasible
        assert not FeasibilityResult((0.0,), -0.5 * APPROVAL_MARGIN).feasible
        assert not FeasibilityResult((0.0,), 0.0).feasible
