"""Brute-force oracles and exhaustive state-space exploration."""

from __future__ import annotations

import pytest

from delibsim import oracle
from delibsim import (
    CoalitionStructure,
    DeliberationSpace,
    DeliberativeCoalition,
    GeneratorConfig,
    OracleError,
    TRANSITION_KINDS,
    apply_transition,
    builtin_fixture,
    canonical_key,
    canonicalize,
    enumerate_transitions,
    explore,
    generate_scenario,
    is_successful,
    naive_max_support,
    naive_transitions,
)

from conftest import line_space, structure


class TestNaiveMaxSupport:
    @pytest.mark.parametrize(
        "name", ["example1", "example2", "example3", "example4", "example6"]
    )
    def test_matches_space_oracle(self, name):
        space, _ = builtin_fixture(name)
        assert naive_max_support(space) == space.max_support()

    def test_random_scenarios(self):
        config = GeneratorConfig(mode="finite", max_agents=6, max_proposals=5)
        for seed in range(25):
            space, _ = generate_scenario(config, seed)
            assert naive_max_support(space) == space.max_support(), seed

    def test_rejects_continuous(self):
        with pytest.raises(OracleError):
            naive_max_support(line_space([1.0]))


class TestNaiveTransitions:
    @pytest.mark.parametrize("kind", TRANSITION_KINDS)
    def test_agrees_with_enumerators_on_fixtures(self, kind):
        for name in ("example1", "example2", "example3", "example4", "example6"):
            space, init = builtin_fixture(name)
            mine = set(enumerate_transitions(init, space, kind))
            naive = set(naive_transitions(init, space, kind))
            assert mine == naive, (name, kind)

    def test_agrees_on_every_explored_state(self, monkeypatch):
        # Explored states hold the coalitions that transitions build, so
        # the profile masks drop far more candidates there than at the
        # start.  The oracle loops over pairs, candidates and agents in
        # declaration order, so the lists agree element for element, not
        # only as sets.  The unfiltered pass sets every candidate's bit in
        # both masks and keeps the true counts, so ``_legal`` alone decides
        # there: the masks may only filter.  It runs on a fresh space of the
        # same seed, so it derives every pair's moves again instead of
        # reading the memo the filtered pass filled; structures are values
        # and carry over.
        config = GeneratorConfig(mode="finite", max_agents=6, max_proposals=5)
        grouped = 0
        real = DeliberationSpace.profile

        def unmasked(self, members):
            counts, _, _ = real(self, members)
            every = (1 << len(counts)) - 1
            return counts, every, every

        for seed in range(1, 41):
            space, init = generate_scenario(config, seed)
            states = explore(space, init, TRANSITION_KINDS).structures.values()
            cases = [(state, kind) for state in states for kind in TRANSITION_KINDS]
            filtered = [enumerate_transitions(state, space, kind) for state, kind in cases]
            for (state, kind), mine in zip(cases, filtered):
                assert mine == naive_transitions(state, space, kind), (seed, kind, state)
            fresh, _ = generate_scenario(config, seed)
            with monkeypatch.context() as patch:
                patch.setattr(DeliberationSpace, "profile", unmasked)
                unfiltered = [enumerate_transitions(state, fresh, kind) for state, kind in cases]
            assert filtered == unfiltered, seed
            grouped += sum(any(c.size > 1 for c in state) for state in states)
        assert grouped > 100

    def test_rejects_continuous(self):
        space = line_space([1.0, 2.0])
        s = structure((("v1",), (1.0,)), (("v2",), (2.0,)))
        with pytest.raises(OracleError):
            naive_transitions(s, space, "merge")

    def test_rejects_unknown_kind(self):
        space, init = builtin_fixture("example1")
        with pytest.raises(OracleError):
            naive_transitions(init, space, "teleport")


class TestExplore:
    def test_example1_graph(self):
        space, init = builtin_fixture("example1")
        report = explore(space, init, TRANSITION_KINDS)
        assert report.states_visited == 2
        assert report.edges == 6
        assert not report.truncated
        assert report.terminal_count == 1
        assert report.all_terminals_successful
        assert report.potential_monotone
        assert report.signature_monotone
        assert report.unsuccessful_witness is None

    def test_terminal_start_is_its_own_witness(self):
        space, init = builtin_fixture("example6")
        report = explore(space, init, TRANSITION_KINDS)
        assert report.states_visited == 1
        assert report.edges == 0
        assert report.terminal_count == 1
        assert not report.all_terminals_successful
        assert report.unsuccessful_witness == ()

    def test_kind_restriction_changes_graph(self):
        space, init = builtin_fixture("example2")
        only_single = explore(space, init, ("single_agent",))
        assert only_single.states_visited == 1
        assert only_single.unsuccessful_witness == ()
        full = explore(space, init, TRANSITION_KINDS)
        assert full.all_terminals_successful

    def test_state_cap_below_one(self):
        space, init = builtin_fixture("example1")
        for cap in (0, -1, 2.5, True):
            with pytest.raises(OracleError):
                explore(space, init, TRANSITION_KINDS, state_cap=cap)

    def test_step_that_changes_nothing_is_not_monotone(self, monkeypatch):
        monkeypatch.setattr(oracle, "apply_transition", lambda structure, space, t: structure)
        space, init = builtin_fixture("example3")
        report = explore(space, init, ("merge",))
        assert not report.potential_monotone
        assert report.signature_monotone
        space, init = builtin_fixture("example4")
        assert not explore(space, init, ("compromise",)).signature_monotone

    def test_repeated_kind(self):
        space, init = builtin_fixture("example2")
        assert explore(space, init, ["merge"]).edges == 1
        with pytest.raises(OracleError, match="'merge' appears twice"):
            explore(space, init, ["merge", "merge"])

    @pytest.mark.parametrize("state_cap", [oracle.DEFAULT_STATE_CAP, 20])
    def test_work_per_state_and_edge(self, monkeypatch, state_cap):
        # Keys are built once per visited state and measures once per state
        # reached, while every edge is still applied, and so revalidated.
        # A successor the cap drops is measured on each edge into it.
        config = GeneratorConfig(mode="finite", max_agents=6, max_proposals=5)
        calls = {}
        successors = []

        def counted(name, record=None):
            original = getattr(oracle, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                result = original(*args)
                if record is not None:
                    record.append(result)
                return result

            monkeypatch.setattr(oracle, name, wrapper)

        counted("canonical_key")
        counted("potential")
        counted("signature")
        counted("apply_transition", successors)
        truncated = 0
        for seed in (185, 237, 276):
            space, init = generate_scenario(config, seed)
            calls.clear()
            successors.clear()
            report = explore(space, init, TRANSITION_KINDS, state_cap=state_cap)
            dropped = sum(canonical_key(s) not in report.structures for s in successors)
            assert calls["canonical_key"] == report.states_visited, seed
            assert calls["apply_transition"] == report.edges, seed
            assert calls["potential"] <= report.states_visited + dropped, seed
            assert calls["signature"] <= report.states_visited + dropped, seed
            truncated += report.truncated
        assert truncated == (state_cap == 20) * 3

    def test_truncation(self):
        space, init = builtin_fixture("example1")
        report = explore(space, init, TRANSITION_KINDS, state_cap=1)
        assert report.truncated
        assert report.states_visited == 1

    def test_successors_are_public_values(self):
        # apply_transition builds coalitions and structures without the
        # public constructors' normalisation; the values must not differ.
        config = GeneratorConfig(mode="finite", max_agents=6, max_proposals=5)
        applied = 0
        for seed in range(1, 41):
            space, init = generate_scenario(config, seed)
            report = explore(space, init, TRANSITION_KINDS)
            for key, state in report.structures.items():
                assert canonical_key(state) == key, seed
                assert canonicalize(state) == state, seed
                for kind in TRANSITION_KINDS:
                    for move in enumerate_transitions(state, space, kind):
                        successor = apply_transition(state, space, move)
                        public = CoalitionStructure(tuple(
                            DeliberativeCoalition(c.members, c.proposal)
                            for c in successor
                        ))
                        assert successor == public, (seed, move)
                        assert hash(successor) == hash(public)
                        assert repr(successor) == repr(public)
                        for mine, theirs in zip(successor, public):
                            assert hash(mine) == hash(theirs)
                            assert mine.size == theirs.size
                        applied += 1
        assert applied > 1000

    def test_structures_keyed_canonically(self):
        space, init = builtin_fixture("example3")
        report = explore(space, init, TRANSITION_KINDS)
        for key, struct in report.structures.items():
            assert canonical_key(struct) == key

    def test_terminal_flags_match_success_oracle(self):
        space, init = builtin_fixture("example3")
        report = explore(space, init, TRANSITION_KINDS)
        for key, flag in zip(report.terminal_keys, report.terminal_successful):
            assert flag == is_successful(report.structures[key], space)
