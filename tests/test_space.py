"""Deliberation space validation, approval queries, and the support oracle."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

import delibsim.space
from delibsim import (
    TRANSITION_KINDS,
    DeliberationSpace,
    EuclideanMetric,
    ExplicitMetric,
    GeneratorConfig,
    MetricError,
    Policy,
    SpaceError,
    SubsetCapError,
    Transition,
    apply_transition,
    builtin_fixture,
    default_initial_structure,
    enumerate_transitions,
    generate_scenario,
    run,
    approves,
    separated_proposal,
)

from conftest import line_space, plane_space, structure


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


class TestBoundaryValidation:
    """Coordinates from outside the space are checked where they enter it."""

    @pytest.fixture
    def space(self):
        fixture, _ = builtin_fixture("example4")
        return DeliberationSpace(fixture.metric, fixture.agents, fixture.status_quo)

    def test_non_finite_proposal_queries_rejected(self, space):
        for query in (
            lambda: space.approvers((math.inf, 0.0)),
            lambda: space.approves("v1", (math.nan, 0.0)),
        ):
            with pytest.raises((SpaceError, MetricError)) as err:
                query()
            assert err.value.clause == "space.coords"
        assert space.approves("v1", (-3.0, 3.0))

    def test_continuous_agents_and_status_quo_bounded(self):
        # above about 1e77 the hull solver's normal equations overflow
        big = 1e80
        for build in (lambda: line_space([1.0, big]), lambda: line_space([1.0], quo=-big)):
            with pytest.raises(SpaceError) as err:
                build()
            assert err.value.clause == "space.coords"
        # the solver never reads proposals, and finite spaces never run it
        assert line_space([1.0]).approvers((big,)) == frozenset()
        assert line_space([1e200], {"a": 1e200}).approves("v1", "a")

    def test_witness_past_the_bound_by_round_off_replays(self):
        # the merge witness r + (v - r) rounds to -1.0000000000000002e64
        initial = structure((("v1",), (-1e64,)), (("v2",), (-1e64,)))
        (move,) = enumerate_transitions(initial, line_space([-1e64, -1e64], quo=5e63), "merge")
        assert abs(move.target_proposal[0]) > 1e64
        merged = apply_transition(initial, line_space([-1e64, -1e64], quo=5e63), move)
        assert merged[0].proposal == move.target_proposal

    @pytest.mark.parametrize("kind", ["merge", "compromise", "subsume"])
    def test_forged_non_finite_target_rejected(self, space, kind):
        initial = default_initial_structure(space)
        movers = tuple(initial[i].members for i in (0, 1))
        forged = Transition(kind, (0, 1), (math.inf, 0.0), movers)
        with pytest.raises((SpaceError, MetricError)) as err:
            apply_transition(initial, space, forged)
        assert err.value.clause == "space.coords"


class TestQueries:
    def test_approval_set_finite(self):
        space = line_space([1.0], {"a": 1.5, "b": -3.0})
        assert space.approval_set("v1") == {"a"}

    def test_approval_set_undefined_on_continuous(self):
        space = line_space([1.0])
        for query in (lambda: space.approval_set("v1"), lambda: space.profile(["v1"])):
            with pytest.raises(SpaceError) as err:
                query()
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
        real = delibsim.space._approving

        def counted(dist, agents, proposal):
            def decide(agent, loc):
                decided[agent, loc] += 1
                return dist(agent, loc)

            return real(decide, agents, proposal)

        monkeypatch.setattr(delibsim.space, "_approving", counted)
        config = GeneratorConfig(mode=mode, min_agents=5, max_agents=6, dimensions=(2,))
        space, initial = generate_scenario(config, 4)
        for kind in TRANSITION_KINDS:
            enumerate_transitions(initial, space, kind)
        trace = run(space, initial, Policy.parse(",".join(TRANSITION_KINDS), seed=4))
        assert trace.steps and decided
        agents_at = Counter(loc for _, loc in space.agents)
        assert all(count <= agents_at[agent] for (agent, _), count in decided.items())

    def test_profile_counts_and_masks(self):
        config = GeneratorConfig(mode="finite", min_agents=5, max_agents=6, dimensions=(2,))
        for seed in range(10):
            space, _ = generate_scenario(config, seed)
            ids = space.candidate_ids
            for size in range(len(space.agent_ids) + 1):
                for members in itertools.combinations(space.agent_ids, size):
                    counts = tuple(len(set(members) & space.approvers(pid)) for pid in ids)
                    approves = [[pid in space.approval_set(v) for v in members] for pid in ids]
                    reach = sum(any(row) << k for k, row in enumerate(approves))
                    full = sum(all(row) << k for k, row in enumerate(approves))
                    assert space.profile(members) == (counts, reach, full), (seed, members)

    def test_profile_built_once_per_set(self, monkeypatch):
        space, _ = generate_scenario(GeneratorConfig(mode="finite", min_agents=5, max_agents=6), 3)
        queried = Counter()
        real = DeliberationSpace.approvers

        def counted(self, ref):
            queried[ref] += 1
            return real(self, ref)

        monkeypatch.setattr(DeliberationSpace, "approvers", counted)
        sets = [space.agent_ids[:k] for k in range(len(space.agent_ids) + 1)]
        once = {pid: len(sets) for pid in space.candidate_ids}
        first = [space.profile(members) for members in sets]
        assert queried == once
        assert [space.profile(frozenset(members)) for members in sets] == first
        assert queried == once

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
        with pytest.raises(SubsetCapError):
            space.max_support()

    def test_oracle_cap_counts_only_eligible_agents(self):
        # the agent on the status quo approves nothing, so 16 agents are searched
        space = line_space([0.0] + [float(i + 1) for i in range(16)])
        assert space.max_support().m_star == 16

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

    def test_witness_clears_approval_by_the_squared_hull_distance(self):
        # |v - r|^2 - |v - q|^2 >= h^2 for every member v, with h = |q - r|:
        # APPROVAL_MARGIN bounds h, so the approval slack can be far smaller.
        config = GeneratorConfig(mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3))
        found = 0
        for seed in range(1, 31):
            space, _ = generate_scenario(config, seed)
            quo = space.status_quo
            for size in range(1, len(space.agent_ids) + 1):
                for subset in itertools.combinations(space.agent_ids, size):
                    witness = space.feasible_witness(subset)
                    if witness is None:
                        continue
                    found += 1
                    h_sq = math.dist(witness, quo) ** 2
                    for v in subset:
                        loc = space.agent_location(v)
                        slack = math.dist(loc, quo) ** 2 - math.dist(loc, witness) ** 2
                        assert slack >= h_sq - 1e-12, (seed, subset, v)
        assert found

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


class TestFeasibleSets:
    def test_declaration_order_largest_first(self):
        space = line_space([1.0, 2.0, -1.0])
        found = list(space.feasible_sets(["v3", "v1", "v2"], 1))
        assert [members for members, _ in found] == [
            {"v1", "v2"}, {"v1"}, {"v2"}, {"v3"},
        ]
        for members, witness in found:
            assert members <= space.approvers(witness)

    def test_joins_base_and_stops_at_min_size(self):
        space = line_space([1.0, 2.0, -1.0, 3.0])
        assert [m for m, _ in space.feasible_sets(["v2", "v4"], 1, frozenset({"v1"}))] == [
            {"v1", "v2", "v4"}, {"v1", "v2"}, {"v1", "v4"},
        ]
        assert [m for m, _ in space.feasible_sets(["v1", "v2", "v4"], 3)] == [{"v1", "v2", "v4"}]
        assert list(space.feasible_sets(["v1", "v2"], 1, frozenset({"v3"}))) == []

    @pytest.mark.parametrize("n, raises", [(16, False), (17, True)])
    def test_cap_counts_pool_and_base(self, n, raises):
        space = line_space([float(i + 1) for i in range(n)])
        walk = space.feasible_sets(space.agent_ids[1:], n - 1, frozenset({"v1"}))
        if raises:
            with pytest.raises(SubsetCapError):
                next(walk)
        else:
            assert [m for m, _ in walk] == [frozenset(space.agent_ids)]


class TestHullRejectedSets:
    def count_core_calls(self, monkeypatch):
        calls = []
        real = delibsim.space._separated_proposal

        def counted(rows, status_quo):
            calls.append(len(rows))
            return real(rows, status_quo)

        monkeypatch.setattr(delibsim.space, "_separated_proposal", counted)
        return calls

    def test_superset_of_a_hull_rejected_set_costs_no_solve(self, monkeypatch):
        space = plane_space([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (3.0, 3.0)])
        calls = self.count_core_calls(monkeypatch)
        assert space.feasible_witness({"v1", "v2"}) is None
        assert space.feasible_witness({"v1", "v2", "v3"}) is None
        assert space.feasible_witness({"v1", "v2", "v3", "v4"}) is None
        assert calls == [2]
        assert space.feasible_witness({"v1", "v3", "v4"}) is not None
        assert calls == [2, 3]

    def test_approval_recheck_rejection_is_not_propagated(self, monkeypatch):
        space = plane_space([(2.0, 0.0), (0.0, 2.0), (2.0, 2.0)])
        # A hull point that v2 does not strictly approve, as round-off at a
        # near-tangent projection could give.
        monkeypatch.setattr(delibsim.space, "_separated_proposal", lambda rows, quo: (2.0, 0.0))
        assert space.feasible_witness({"v1", "v2"}) is None
        monkeypatch.undo()
        calls = self.count_core_calls(monkeypatch)
        witness = space.feasible_witness({"v1", "v2", "v3"})
        assert calls == [3]
        assert witness is not None
        assert space.approvers(witness) == {"v1", "v2", "v3"}

    def test_memoized_decisions_match_a_fresh_solve(self):
        config = GeneratorConfig(mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3))
        propagated = 0
        for seed in range(1, 31):
            space, initial = generate_scenario(config, seed)
            for policy in ("compromise", "subsume>compromise"):
                run(space, initial, Policy.parse(policy, seed=seed))
            quo = space.status_quo
            for key, witness in space._feasibility.items():
                locs = [space.agent_location(v) for v in space.sort_agents(key)]
                expected = separated_proposal(locs, quo)
                if expected is not None and not all(approves(v, expected, quo, space.metric) for v in locs):
                    expected = None
                assert witness == expected, (seed, sorted(key))
            rejected = space._hull_rejected
            propagated += sum(any(key - {v} in rejected for v in key) for key in rejected)
        assert propagated
