"""Transition enumeration and application for all five kinds."""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional

import pytest

from delibsim import transitions
from delibsim import (
    TRANSITION_KINDS,
    DeliberationSpace,
    GeneratorConfig,
    Policy,
    StaleTransitionError,
    SubsetCapError,
    Transition,
    TransitionError,
    apply_transition,
    builtin_fixture,
    enumerate_transitions,
    generate_scenario,
    run,
)

from conftest import line_space, structure


def kinds_count(struct, space):
    return {
        kind: len(enumerate_transitions(struct, space, kind))
        for kind in ("single_agent", "follow", "merge", "compromise", "subsume")
    }


def by_kind(struct, space, kind):
    return enumerate_transitions(struct, space, kind)


class TestFixtureEnumerations:
    def test_example1(self):
        space, init = builtin_fixture("example1")
        assert kinds_count(init, space) == {
            "single_agent": 1,
            "follow": 1,
            "merge": 1,
            "compromise": 1,
            "subsume": 2,
        }
        (sa,) = by_kind(init, space, "single_agent")
        assert sa.sources == (1, 0)
        assert sa.target_proposal == "b"
        assert sa.movers == (frozenset({"v3"}), frozenset())
        (merge,) = by_kind(init, space, "merge")
        assert merge.sources == (0, 1)
        assert merge.target_proposal == "b"

    def test_example2(self):
        space, init = builtin_fixture("example2")
        assert kinds_count(init, space) == {
            "single_agent": 0,
            "follow": 1,
            "merge": 1,
            "compromise": 1,
            "subsume": 2,
        }
        (follow,) = by_kind(init, space, "follow")
        assert follow.sources == (1, 0)
        assert follow.target_proposal == "a"
        assert follow.movers[0] == frozenset({"v4", "v5", "v6", "v7"})

    def test_example3(self):
        space, init = builtin_fixture("example3")
        counts = kinds_count(init, space)
        assert counts["single_agent"] == 0
        assert counts["follow"] == 0
        assert counts["merge"] == 1
        (merge,) = by_kind(init, space, "merge")
        assert merge.target_proposal == "p"

    def test_example4(self):
        space, init = builtin_fixture("example4")
        assert kinds_count(init, space) == {
            "single_agent": 0,
            "follow": 0,
            "merge": 0,
            "compromise": 1,
            "subsume": 0,
        }
        (comp,) = by_kind(init, space, "compromise")
        assert comp.target_proposal == "p"
        assert comp.movers == (frozenset({"v1", "v2"}), frozenset({"v3", "v4"}))

    def test_example6_is_terminal(self):
        space, init = builtin_fixture("example6")
        assert kinds_count(init, space) == {
            "single_agent": 0,
            "follow": 0,
            "merge": 0,
            "compromise": 0,
            "subsume": 0,
        }


class TestSingleAgent:
    def test_destination_must_be_weakly_larger(self):
        space = line_space([1.0, 1.0, 2.0], {"a": 1.0, "b": 1.5})
        s = structure((("v1", "v2"), "a"), (("v3",), "b"))
        found = by_kind(s, space, "single_agent")
        # v3 may join the pair, but neither of the pair may join v3
        assert [(t.sources, next(iter(t.movers[0]))) for t in found] == [((1, 0), "v3")]

    def test_agent_must_approve_destination(self):
        space = line_space([1.0, 1.0, -1.0], {"a": 1.0, "c": -1.0})
        s = structure((("v1", "v2"), "a"), (("v3",), "c"))
        assert by_kind(s, space, "single_agent") == []

    def test_updates_both_coalitions_in_place(self):
        space = line_space([1.0, 1.0, 1.9, 1.9], {"a": 1.0, "b": 1.9})
        s = structure((("v1", "v2"), "a"), (("v3", "v4"), "b"))
        moves = [t for t in by_kind(s, space, "single_agent") if t.sources == (0, 1)]
        move_v1 = next(t for t in moves if t.movers[0] == frozenset({"v1"}))
        after = apply_transition(s, space, move_v1)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v2"], "a"),
            (["v1", "v3", "v4"], "b"),
        ]

    def test_emptied_source_is_dropped(self):
        space = line_space([1.0, 1.0, 2.0], {"a": 1.0, "b": 1.5})
        s = structure((("v1", "v2"), "a"), (("v3",), "b"))
        (move,) = by_kind(s, space, "single_agent")
        after = apply_transition(s, space, move)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v1", "v2", "v3"], "a"),
        ]


class TestFollow:
    def test_no_size_condition(self):
        # a 3-coalition follows a 2-coalition
        space = line_space([1.0, 1.0, 1.0, 1.8, 1.8], {"a": 1.0, "b": 1.8})
        s = structure((("v1", "v2", "v3"), "a"), (("v4", "v5"), "b"))
        sources = [t.sources for t in by_kind(s, space, "follow")]
        assert (0, 1) in sources

    def test_every_member_must_approve(self):
        space = line_space([1.0, 1.0, 1.0, 2.0], {"a": 1.0, "b": 2.0})
        s = structure((("v1", "v2", "v3"), "a"), (("v4",), "b"))
        # dist(1, b) = 1 equals dist(1, r): a tie, so the trio cannot follow b
        assert [t.sources for t in by_kind(s, space, "follow")] == [(1, 0)]

    def test_lands_at_destination_index(self):
        space, init = builtin_fixture("example2")
        (follow,) = by_kind(init, space, "follow")
        after = apply_transition(init, space, follow)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v1", "v2", "v3", "v4", "v5", "v6", "v7"], "a"),
            (["v10", "v8", "v9"], "c"),
        ]


class TestMerge:
    def test_result_at_lower_index(self):
        space, init = builtin_fixture("example3")
        (merge,) = by_kind(init, space, "merge")
        after = apply_transition(init, space, merge)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v1", "v2", "v3", "v4"], "p"),
        ]

    def test_continuous_synthesizes_witness(self):
        space = line_space([2.0, 6.0])
        s = structure((("v1",), (2.0,)), (("v2",), (6.0,)))
        (merge,) = by_kind(s, space, "merge")
        assert isinstance(merge.target_proposal, tuple)
        assert all(space.approves(v, merge.target_proposal) for v in ("v1", "v2"))

    def test_no_merge_without_common_point(self):
        space = line_space([2.0, -2.0])
        s = structure((("v1",), (2.0,)), (("v2",), (-2.0,)))
        assert by_kind(s, space, "merge") == []


class TestCompromise:
    def test_strands_non_approvers(self):
        space, init = builtin_fixture("example4")
        (comp,) = by_kind(init, space, "compromise")
        after = apply_transition(init, space, comp)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v5"], "a"),
            (["v6"], "b"),
            (["v1", "v2", "v3", "v4"], "p"),
        ]

    def test_movers_must_exceed_both_sizes(self):
        # three approvers of b never beat a pair of 3-coalitions
        space = line_space([1.0, 1.0, 2.0, -1.0, -1.0, -1.0], {"a": 1.0, "b": 2.0, "c": -1.0})
        s = structure((("v1", "v2", "v3"), "a"), (("v4", "v5", "v6"), "c"))
        assert by_kind(s, space, "compromise") == []

    def test_continuous_dedupes_mover_closures(self):
        space = line_space([2.0, 2.5, 6.0])
        s = structure((("v1", "v2"), (2.2,)), (("v3",), (6.0,)))
        found = by_kind(s, space, "compromise")
        closures = [t.moving_agents for t in found]
        assert len(closures) == len(set(closures))
        for t in found:
            assert len(t.moving_agents) > max(2, 1)

    @pytest.mark.parametrize("n, raises", [(16, False), (17, True)])
    def test_subset_cap(self, n, raises):
        # a union of n - 1 and 1 agents walks only itself, so the 16-agent case is cheap
        space = line_space([1.0 + 0.01 * k for k in range(n)])
        first = tuple(f"v{i + 1}" for i in range(n - 1))
        s = structure((first, (1.05,)), ((f"v{n}",), (1.16,)))
        if raises:
            with pytest.raises(SubsetCapError):
                by_kind(s, space, "compromise")
        else:
            (found,) = by_kind(s, space, "compromise")
            assert found.moving_agents == frozenset(space.agent_ids)


class TestSubsume:
    def test_second_coalition_moves_whole(self):
        space, init = builtin_fixture("example3")
        found = by_kind(init, space, "subsume")
        assert {t.sources for t in found} == {(0, 1), (1, 0)}
        for t in found:
            donors, whole = t.movers
            assert whole == init[t.sources[1]].members
            assert donors
            assert len(donors) + len(whole) > init[t.sources[0]].size

    def test_blocked_when_result_not_larger(self):
        space, init = builtin_fixture("example6")
        assert by_kind(init, space, "subsume") == []

    def test_leftovers_stay_and_union_appended(self):
        # v1 approves both candidates; v2 approves only a (|0.3 - 1.1| > 0.3)
        space = line_space([1.0, 0.3, 1.2, 1.1], {"a": 0.4, "b": 1.1})
        s = structure((("v1", "v2"), "a"), (("v3", "v4"), "b"))
        found = [t for t in by_kind(s, space, "subsume") if t.sources == (0, 1)]
        move = next(t for t in found if t.target_proposal == "b")
        assert move.movers == (frozenset({"v1"}), frozenset({"v3", "v4"}))
        after = apply_transition(s, space, move)
        assert [(sorted(c.members), c.proposal) for c in after] == [
            (["v2"], "a"),
            (["v1", "v3", "v4"], "b"),
        ]


class TestApplyGuards:
    def test_stale_transition_rejected(self):
        space, init = builtin_fixture("example1")
        (merge,) = by_kind(init, space, "merge")
        (sa,) = by_kind(init, space, "single_agent")
        after = apply_transition(init, space, merge)
        with pytest.raises(StaleTransitionError):
            apply_transition(after, space, sa)

    def test_fabricated_movers_rejected(self):
        space, init = builtin_fixture("example1")
        fake = Transition(
            "merge", (0, 1), "b", (frozenset({"v1"}), frozenset({"v3"}))
        )
        with pytest.raises(StaleTransitionError):
            apply_transition(init, space, fake)

    def test_unknown_kind(self):
        space, init = builtin_fixture("example1")
        with pytest.raises(TransitionError):
            enumerate_transitions(init, space, "teleport")


def _leftover_line():
    space = line_space([1.0, 0.3, 1.2, 1.1], {"a": 0.4, "b": 1.1})
    return space, structure((("v1", "v2"), "a"), (("v3", "v4"), "b"))


def _two_pairs_finite():
    space = line_space([1.0, 1.0, 1.9, 1.9], {"a": 1.0, "b": 1.9})
    return space, structure((("v1", "v2"), "a"), (("v3", "v4"), "b"))


def _trio_and_pair_finite():
    space = line_space([1.0, 1.0, 1.0, 1.8, 1.8], {"a": 1.0, "b": 1.8})
    return space, structure((("v1", "v2", "v3"), "a"), (("v4", "v5"), "b"))


def _three_finite():
    # v1 does not approve d (|1.0 - 2.2| > 1.0); v2 and v3 do
    space = line_space([1.0, 1.2, 1.4, -1.0], {"a": 1.0, "b": 1.4, "p": 1.2, "c": -1.0, "d": 2.2})
    return space, structure((("v1", "v2"), "a"), (("v3",), "b"), (("v4",), "c"))


def _two_pairs_continuous():
    space = line_space([2.0, 2.5, 6.0, 3.0, -1.0])
    s = structure((("v1", "v2"), (2.2,)), (("v3", "v4"), (6.0,)), (("v5",), (-1.0,)))
    return space, s


class Forgery(NamedTuple):
    """A legal move, an agent outside its movers, and a forged move that
    breaks the rule of its kind.

    The forged move's target is not the destination's proposal
    (single_agent, follow), is not approved by some member (merge), or has
    exact approvers that break the wholeness, size or at-least-one-donor
    rule (compromise, subsume).  ``bad_movers`` None means those exact
    approvers in each source.
    """

    build: Callable
    kind: str
    sources: tuple[int, int]
    target: object
    outsider: str
    bad_sources: tuple[int, int]
    bad_target: object
    bad_movers: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None


FORGERY_CASES = {
    "finite-single_agent": Forgery(
        _two_pairs_finite, "single_agent", (0, 1), "b", "v3", (0, 1), "a", (("v1",), ()),
    ),
    "finite-follow": Forgery(
        _trio_and_pair_finite, "follow", (0, 1), "b", "v4", (0, 1), "a", (("v1", "v2", "v3"), ()),
    ),
    "finite-merge": Forgery(
        _three_finite, "merge", (0, 1), "p", "v4", (0, 1), "d", (("v1", "v2"), ("v3",)),
    ),
    "finite-compromise": Forgery(
        lambda: builtin_fixture("example4"), "compromise", (0, 1), "p", "v5", (0, 1), "a",
    ),
    "finite-subsume": Forgery(_leftover_line, "subsume", (0, 1), "b", "v2", (1, 0), "b"),
    "continuous-single_agent": Forgery(
        _two_pairs_continuous, "single_agent", (1, 0), (2.2,), "v5", (1, 0), (6.0,), (("v3",), ()),
    ),
    "continuous-follow": Forgery(
        _two_pairs_continuous, "follow", (1, 0), (2.2,), "v5", (1, 0), (3.0,), (("v3", "v4"), ()),
    ),
    "continuous-merge": Forgery(
        _two_pairs_continuous, "merge", (0, 1), (2.0,), "v5", (0, 1), (5.0,),
        (("v1", "v2"), ("v3", "v4")),
    ),
    "continuous-compromise": Forgery(
        _two_pairs_continuous, "compromise", (0, 1), (2.0,), "v5", (0, 1), (5.0,),
    ),
    "continuous-subsume": Forgery(
        _two_pairs_continuous, "subsume", (0, 1), (2.0,), "v5", (2, 0), (2.0,),
    ),
}


@pytest.mark.parametrize("case", sorted(FORGERY_CASES))
class TestForgedPairMoves:
    """Forged moves of every kind fail revalidation."""

    def build_case(self, case):
        forgery = FORGERY_CASES[case]
        space, s = forgery.build()
        legal = next(
            t for t in by_kind(s, space, forgery.kind)
            if t.sources == forgery.sources and t.target_proposal == forgery.target
        )
        return space, s, legal, forgery

    def test_legal_move_applies(self, case):
        space, s, legal, _ = self.build_case(case)
        apply_transition(s, space, legal)

    def test_added_mover_rejected(self, case):
        space, s, legal, forgery = self.build_case(case)
        movers_i, movers_j = legal.movers
        forged = legal._replace(movers=(movers_i | {forgery.outsider}, movers_j))
        with pytest.raises(StaleTransitionError):
            apply_transition(s, space, forged)

    def test_dropped_mover_rejected(self, case):
        space, s, legal, _ = self.build_case(case)
        movers_i, movers_j = legal.movers
        forged = legal._replace(movers=(movers_i - {min(movers_i)}, movers_j))
        with pytest.raises(StaleTransitionError):
            apply_transition(s, space, forged)

    def test_rule_breaking_target_rejected(self, case):
        space, s, legal, forgery = self.build_case(case)
        i, j = forgery.bad_sources
        target = forgery.bad_target
        movers = forgery.bad_movers or (
            space.supporters(s[i].members, target), space.supporters(s[j].members, target)
        )
        forged = Transition(legal.kind, forgery.bad_sources, target, movers)
        with pytest.raises(StaleTransitionError):
            apply_transition(s, space, forged)


def _apply_every_enumerated_move(config):
    """Apply every move enumerated from the initial structures of seeds 1-30."""
    applied = 0
    for seed in range(1, 31):
        space, initial = generate_scenario(config, seed)
        for kind in TRANSITION_KINDS:
            for t in enumerate_transitions(initial, space, kind):
                apply_transition(initial, space, t)
                applied += 1
    return applied


def test_enumerated_finite_moves_apply():
    """Every move enumerated from a generated initial structure revalidates."""
    assert _apply_every_enumerated_move(GeneratorConfig(mode="finite")) > 0


def test_enumerated_continuous_moves_apply():
    """Every move enumerated from a generated initial structure revalidates."""
    config = GeneratorConfig(mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3))
    assert _apply_every_enumerated_move(config) > 0


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


FINITE_TEN = GeneratorConfig(mode="finite", min_agents=10, max_agents=10)


def _finite_run(seed=3):
    """A generated finite scenario, its run under every kind, and the run's structures."""
    space, initial = generate_scenario(FINITE_TEN, seed)
    trace = run(space, initial, Policy((TRANSITION_KINDS,), "uniform_random", seed))
    states = [initial]
    for step in trace.steps:
        states.append(apply_transition(states[-1], space, step.transition))
    return space, trace, states


class TestMoveMemo:
    """Each pair's moves are derived once per space and read back after."""

    def test_pair_moves_once_per_pair(self, monkeypatch):
        filled = _counted(monkeypatch, transitions, "_pair_moves")
        builds = Counter()
        profile = DeliberationSpace.profile

        def counted_profile(self, members):
            before = len(self._profiles)
            found = profile(self, members)
            builds[frozenset(members)] += len(self._profiles) - before
            return found

        monkeypatch.setattr(DeliberationSpace, "profile", counted_profile)
        space, trace, states = _finite_run()
        assert len(trace.steps) >= 5
        evaluations = 0
        for state in states:
            active = sum(c.size > 0 and not c.supports_status_quo for c in state)
            for kind in TRANSITION_KINDS:
                enumerate_transitions(state, space, kind)
                pairs = active * (active - 1)
                evaluations += pairs // 2 if kind in ("merge", "compromise") else pairs
        keys = Counter((kind, src, dst) for kind, src, dst, _ in filled)
        assert set(keys.values()) == {1}
        assert len(keys) < evaluations
        # every coalition a fill met had its profile built once, on first use
        met = {c.members for _, src, dst in keys for c in (src, dst)}
        assert set(builds) == met and set(builds.values()) == {1}
        before = len(filled)
        again = [enumerate_transitions(states[0], space, kind) for kind in TRANSITION_KINDS]
        assert len(filled) == before
        filled.clear()
        space._moves.clear()
        fresh = [enumerate_transitions(states[0], space, kind) for kind in TRANSITION_KINDS]
        assert filled and fresh == again
        assert set(builds.values()) == {1}

    def test_enumerated_moves_revalidate_from_memo(self, monkeypatch):
        space, initial = generate_scenario(FINITE_TEN, 3)
        moves = [t for kind in TRANSITION_KINDS for t in enumerate_transitions(initial, space, kind)]
        assert moves
        probed = _counted(monkeypatch, transitions, "_legal_movers")
        for t in moves:
            apply_transition(initial, space, t)
        assert probed == []

    @pytest.mark.parametrize("case", ["finite-subsume", "continuous-compromise"])
    def test_forged_move_asks_the_rule(self, monkeypatch, case):
        space, s, legal, forgery = TestForgedPairMoves().build_case(case)
        movers_i, movers_j = legal.movers
        forged = legal._replace(movers=(movers_i | {forgery.outsider}, movers_j))
        probed = _counted(monkeypatch, transitions, "_legal_movers")
        with pytest.raises(StaleTransitionError):
            apply_transition(s, space, forged)
        assert len(probed) == 1


class TestTransitionTuples:
    """A transition is a plain tuple, checked where it enters the package."""

    def test_enumerated_moves_equal_rebuilt_ones(self):
        space, _, states = _finite_run()
        assert issubclass(Transition, tuple)
        for kind in TRANSITION_KINDS:
            for t in enumerate_transitions(states[0], space, kind):
                rebuilt = Transition(*t)
                assert rebuilt == t == tuple(t) and hash(rebuilt) == hash(t)

    def test_constructor_stores_fields_as_given(self):
        t = Transition("merge", [0, 1], "a", [{"v1"}, set()])
        assert t.sources == [0, 1] and t.movers == [{"v1"}, set()]

    @pytest.mark.parametrize("kind", ["teleport", None])
    def test_apply_rejects_unknown_kind(self, kind):
        space, init = builtin_fixture("example1")
        (merge,) = by_kind(init, space, "merge")
        with pytest.raises(TransitionError, match="unknown transition kind"):
            apply_transition(init, space, merge._replace(kind=kind))

    @pytest.mark.parametrize("sources", [(0.0, 1), (0, 1.0), (False, 1), ("0", 1)])
    def test_apply_rejects_non_int_sources(self, sources):
        space, init = builtin_fixture("example1")
        (merge,) = by_kind(init, space, "merge")
        assert merge.sources == (0, 1)
        with pytest.raises(TransitionError, match="source indices must be integers"):
            apply_transition(init, space, merge._replace(sources=sources))
