"""Deliberation space validation, approval queries, and the support oracle."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

import delibsim.space
from delibsim import (
    TRANSITION_KINDS,
    DeliberationSpace,
    EuclideanMetric,
    ExplicitMetric,
    GeneratorConfig,
    OracleCapError,
    Policy,
    SpaceError,
    builtin_fixture,
    enumerate_transitions,
    generate_scenario,
    run,
    separated_proposal,
)

from conftest import line_space


def tiny_explicit():
    return ExplicitMetric(
        ("r", "a", "v1", "v2"),
        (
            (0.0, 2.0, 1.0, 3.0),
            (2.0, 0.0, 1.5, 1.5),
            (1.0, 1.5, 0.0, 2.5),
            (3.0, 1.5, 2.5, 0.0),
        ),
    )


class TestValidation:
    def test_reserved_agent_id(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(
                EuclideanMetric(1), [("r", (1.0,))], (0.0,), [("a", (1.0,))]
            )
        assert err.value.clause == "space.agent_ids"

    def test_duplicate_agent_id(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(
                EuclideanMetric(1), [("v", (1.0,)), ("v", (2.0,))], (0.0,), [("a", (1.0,))]
            )
        assert err.value.clause == "space.agent_ids"

    def test_duplicate_proposal_id(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(
                EuclideanMetric(1), [("v", (1.0,))], (0.0,), [("a", (1.0,)), ("a", (2.0,))]
            )
        assert err.value.clause == "space.proposal_ids"

    def test_continuous_needs_euclidean(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(tiny_explicit(), [("v1", "v1")], "r", None)
        assert err.value.clause == "space.continuous_metric"

    def test_euclidean_rejects_id_locations(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(EuclideanMetric(1), [("v", "v")], (0.0,), None)
        assert err.value.clause == "space.coords"

    def test_explicit_rejects_coordinates(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(tiny_explicit(), [("v1", (0.0,))], "r", [("a", "a")])
        assert err.value.clause == "space.coords"

    def test_dimension_mismatch(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(EuclideanMetric(2), [("v", (1.0,))], (0.0, 0.0), None)
        assert err.value.clause == "space.dimension"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates(self, bad):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(EuclideanMetric(2), [("v", (1.0, bad))], (0.0, 0.0), None)
        assert err.value.clause == "space.coords"

    def test_unknown_metric_point(self):
        with pytest.raises(SpaceError) as err:
            DeliberationSpace(tiny_explicit(), [("v1", "zz")], "r", [("a", "a")])
        assert err.value.clause == "space.unknown_id"


class TestQueries:
    def test_approval_set_finite(self):
        space = line_space([1.0], {"a": 1.5, "b": -3.0})
        assert space.approval_set("v1") == {"a"}

    def test_approval_set_undefined_on_continuous(self):
        space = line_space([1.0])
        with pytest.raises(SpaceError) as err:
            space.approval_set("v1")
        assert err.value.clause == "space.continuous"

    def test_status_quo_reference(self):
        space = line_space([1.0], {"a": 1.0})
        assert space.proposal_location("r") == (0.0,)
        assert not space.approves("v1", "r")

    def test_continuous_approves_coordinates(self):
        space = line_space([2.0])
        assert space.approves("v1", (1.5,))
        assert not space.approves("v1", (4.0,))
        assert not space.approves("v1", (-2.0,))  # tie with the status quo

    def test_supporters(self):
        space = line_space([1.0, 1.0, -1.0], {"a": 1.0})
        assert space.supporters(space.agent_ids, "a") == {"v1", "v2"}

    def test_sort_agents_declaration_order(self):
        space = line_space([1.0, 2.0, 3.0], {"a": 1.0})
        assert space.sort_agents({"v3", "v1"}) == ["v1", "v3"]

    def test_explicit_space_queries(self):
        space = DeliberationSpace(
            tiny_explicit(), [("v1", "v1"), ("v2", "v2")], "r", [("a", "a")]
        )
        assert space.agent_distance("v1", "a") == 1.5
        assert not space.approves("v1", "a")  # 1.5 > dist(v1, r) = 1.0
        assert space.approves("v2", "a")  # 1.5 < 3.0
        assert space.approval_set("v2") == {"a"}


class TestApprovalRelation:
    @pytest.mark.parametrize("mode", ["finite", "continuous"])
    def test_each_pair_decided_once(self, mode, monkeypatch):
        decided = Counter()
        real = delibsim.space.approves

        def counted(agent, proposal, status_quo, metric):
            decided[agent, proposal] += 1
            return real(agent, proposal, status_quo, metric)

        monkeypatch.setattr(delibsim.space, "approves", counted)
        config = GeneratorConfig(mode=mode, min_agents=5, max_agents=6, dimensions=(2,))
        space, initial = generate_scenario(config, 4)
        for kind in TRANSITION_KINDS:
            enumerate_transitions(initial, space, kind)
        trace = run(space, initial, Policy.parse(",".join(TRANSITION_KINDS), seed=4))
        assert trace.steps and decided
        agents_at = Counter(loc for _, loc in space.agents)
        assert all(count <= agents_at[agent] for (agent, _), count in decided.items())

    @pytest.mark.parametrize(
        "space, known, unknown",
        [
            (line_space([1.0, 2.0], {"a": 1.0}), "a", "zz"),
            (line_space([1.0, 2.0]), (1.0,), "zz"),
        ],
        ids=["finite", "continuous"],
    )
    def test_unknown_ids_raise_after_memo(self, space, known, unknown):
        assert space.approves("v1", known)
        assert space.supporters(["v1", "v2"], known) == {"v1", "v2"}
        for query in (
            lambda: space.approves("ghost", known),
            lambda: space.supporters(["v1", "ghost"], known),
        ):
            with pytest.raises(SpaceError) as err:
                query()
            assert err.value.clause == "space.unknown_id"
        for query in (
            lambda: space.approves("v1", unknown),
            lambda: space.supporters(["v1"], unknown),
        ):
            with pytest.raises(SpaceError) as err:
                query()
            assert err.value.clause == "structure.unknown_proposal"


class TestMaxSupport:
    def test_example2_exact_count(self):
        space, _ = builtin_fixture("example2")
        report = space.max_support()
        assert report.m_star == 7
        assert report.witnesses == ("a",)

    def test_example6_two_witnesses(self):
        space, _ = builtin_fixture("example6")
        report = space.max_support()
        assert report.m_star == 5
        assert report.witnesses == ("p", "e")

    def test_no_support_means_zero(self):
        space = line_space([1.0, -1.0], {"a": 5.0})
        report = space.max_support()
        assert report.m_star == 0
        assert report.witnesses == ()

    def test_continuous_full_overlap(self):
        space = line_space([2.0, 6.0])
        report = space.max_support()
        assert report.m_star == 2
        (witness,) = report.witnesses
        assert all(space.approves(v, witness) for v in space.agent_ids)

    def test_continuous_disjoint_sides(self):
        # opposite approval balls only meet at r, so no pair is feasible
        space = line_space([2.0, -2.0])
        report = space.max_support()
        assert report.m_star == 1

    def test_continuous_agent_at_quo_ineligible(self):
        space = line_space([0.0, 2.0])
        report = space.max_support()
        assert report.m_star == 1

    def test_all_agents_at_quo(self):
        space = line_space([0.0, 0.0])
        assert space.max_support().m_star == 0

    def test_oracle_cap(self):
        space = line_space([float(i + 1) for i in range(17)])
        with pytest.raises(OracleCapError):
            space.max_support()

    def test_memoized(self):
        space = line_space([2.0, 6.0])
        assert space.max_support() is space.max_support()


class TestFeasibleWitness:
    def test_witness_approved_by_all(self):
        space = line_space([2.0, 3.0, 6.0])
        witness = space.feasible_witness({"v1", "v2", "v3"})
        assert witness is not None
        assert all(space.approves(v, witness) for v in ("v1", "v2", "v3"))

    def test_antipodal_pair_infeasible(self):
        space = line_space([2.0, -2.0, 3.0])
        assert space.feasible_witness({"v1", "v2"}) is None
        assert space.feasible_witness({"v1", "v2", "v3"}) is None

    def test_empty_set(self):
        space = line_space([2.0])
        assert space.feasible_witness(set()) is None

    def test_barely_separated_set_is_feasible(self):
        # The hull of all seven agents misses r by 4.1e-5, but the best
        # worst-case distance slack is only -2e-10: a margin test on that
        # slack against APPROVAL_MARGIN wrongly reported m* = 6.
        agents = [
            (-2.9921, 1.6712, 3.9016),
            (-0.6379, 4.4133, -2.8701),
            (4.3364, -4.95, -2.4999),
            (-0.5258, 1.7707, -1.1573),
            (0.1389, 4.9702, -3.7312),
            (2.8432, 3.3731, 0.7153),
            (4.9004, -0.4325, 0.5457),
        ]
        space = DeliberationSpace(
            EuclideanMetric(3),
            [(f"v{i + 1}", loc) for i, loc in enumerate(agents)],
            (0.0, 0.0, 0.0),
            None,
        )
        report = space.max_support()
        assert report.m_star == 7
        (witness,) = report.witnesses
        assert all(space.approves(v, witness) for v in space.agent_ids)

    def test_hull_decision_matches_solver(self):
        config = GeneratorConfig(mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3))
        for seed in range(1, 31):
            space, _ = generate_scenario(config, seed)
            for size in range(1, 7):
                for subset in itertools.combinations(space.agent_ids, size):
                    witness = space.feasible_witness(subset)
                    separated = separated_proposal(
                        [space.agent_location(v) for v in subset], space.status_quo
                    )
                    assert (witness is None) == (separated is None), (seed, subset)
                    assert (witness is not None) == space.common_report(subset).feasible, (seed, subset)
                    if witness is not None:
                        assert all(space.approves(v, witness) for v in subset), (seed, subset)
