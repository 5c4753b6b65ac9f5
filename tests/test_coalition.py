"""Coalition structures: validation, measures, orders, canonical form."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delibsim import (
    TRANSITION_KINDS,
    CoalitionStructure,
    DeliberativeCoalition,
    apply_transition,
    builtin_fixture,
    canonical_key,
    canonicalize,
    enumerate_transitions,
    is_successful,
    lex_less,
    potential,
    signature,
    validate_structure,
)

from conftest import line_space, structure


class TestCoalition:
    def test_coordinate_proposal_normalized(self):
        c = DeliberativeCoalition(frozenset({"v1"}), [1, 2])
        assert c.proposal == (1.0, 2.0)
        assert all(isinstance(x, float) for x in c.proposal)

    def test_status_quo_flag(self):
        assert DeliberativeCoalition(frozenset({"v1"}), "r").supports_status_quo
        assert not DeliberativeCoalition(frozenset({"v1"}), "a").supports_status_quo

    def test_size(self):
        assert DeliberativeCoalition(frozenset({"v1", "v2"}), "a").size == 2

    def test_from_pairs(self):
        s = CoalitionStructure.from_pairs([(("v1", "v2"), "a"), (("v3",), "b")])
        assert len(s) == 2
        assert s[0].members == frozenset({"v1", "v2"})


class TestValidateStructure:
    def space(self):
        # v4 at 0.5 ties with candidate a and approves nothing
        return line_space([1.0, 1.0, -1.0, 0.5], {"a": 1.0, "c": -1.0})

    def test_valid(self):
        s = structure((("v1", "v2"), "a"), (("v3",), "c"), (("v4",), "r"))
        assert validate_structure(s, self.space()) == []

    def test_unknown_agent(self):
        s = structure((("ghost", "v1", "v2"), "a"), (("v3",), "c"), (("v4",), "r"))
        clauses = [v.clause for v in validate_structure(s, self.space())]
        assert "structure.unknown_agent" in clauses

    def test_overlap_and_missing(self):
        s = structure((("v1", "v2"), "a"), (("v2", "v3"), "c"), (("v4",), "r"))
        found = validate_structure(s, self.space())
        assert any(v.clause == "structure.partition" and v.agent == "v2" for v in found)
        s2 = structure((("v1", "v2"), "a"), (("v4",), "r"))
        found2 = validate_structure(s2, self.space())
        assert any(v.clause == "structure.partition" and "v3" in v.detail for v in found2)

    def test_member_must_approve(self):
        s = structure((("v1", "v3"), "a"), (("v2",), "a"), (("v4",), "r"))
        found = validate_structure(s, self.space())
        assert any(v.clause == "structure.approval" and v.agent == "v3" for v in found)

    def test_status_quo_purity_finite(self):
        s = structure((("v2",), "a"), (("v3",), "c"), (("v1", "v4"), "r"))
        found = validate_structure(s, self.space())
        assert any(v.clause == "structure.status_quo" and v.agent == "v1" for v in found)

    def test_status_quo_purity_continuous(self):
        space = line_space([0.0, 2.0])
        good = structure((("v1",), "r"), (("v2",), (2.0,)))
        assert validate_structure(good, space) == []
        bad = structure((("v1", "v2"), "r"))
        found = validate_structure(bad, space)
        assert any(v.clause == "structure.status_quo" and v.agent == "v2" for v in found)

    def test_unknown_proposal(self):
        s = structure((("v1", "v2"), "zz"), (("v3",), "c"), (("v4",), "r"))
        found = validate_structure(s, self.space())
        assert any(v.clause == "structure.unknown_proposal" for v in found)


class TestMeasures:
    def test_potential_sums_squares(self):
        s = structure((("v1", "v2", "v3"), "a"), (("v4",), "c"))
        assert potential(s) == 10

    def test_signature_sorted_desc(self):
        s = structure((("v1",), "a"), (("v2", "v3", "v4"), "b"), (("v5", "v6"), "c"))
        assert signature(s) == (3, 2, 1)

    def test_empty_coalitions_dropped_from_signature(self):
        s = CoalitionStructure(
            (
                DeliberativeCoalition(frozenset({"v1"}), "a"),
                DeliberativeCoalition(frozenset(), "b"),
            )
        )
        assert signature(s) == (1,)
        assert potential(s) == 1

    def test_lex_less_cases(self):
        assert lex_less((2, 2), (3,))
        assert lex_less((3,), (3, 1))
        assert not lex_less((3, 1), (3, 1))
        assert not lex_less((4,), (3, 3))
        assert lex_less((), (1,))

    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=5),
        st.lists(st.integers(min_value=1, max_value=9), max_size=5),
    )
    def test_lex_less_matches_tuple_order(self, a, b):
        ga = tuple(sorted(a, reverse=True))
        gb = tuple(sorted(b, reverse=True))
        assert lex_less(ga, gb) == (ga < gb)


class TestSuccess:
    def test_successful_when_m_star_coalition_exists(self):
        space, _ = builtin_fixture("example3")
        s = structure((("v1", "v2", "v3", "v4"), "p"))
        assert is_successful(s, space)

    def test_not_successful_below_m_star(self):
        space, init = builtin_fixture("example3")
        assert not is_successful(init, space)

    def test_size_must_match_supporter_count(self):
        # a full-size coalition behind a proposal with more approvers elsewhere
        space = line_space([1.0, 1.0, 1.0], {"a": 1.0})
        s = structure((("v1", "v2"), "a"), (("v3",), "a"))
        assert not is_successful(s, space)

    def test_vacuous_success_with_no_approvals(self):
        space = line_space([1.0, -1.0], {"a": 9.0})
        s = structure((("v1", "v2"), "r"))
        assert is_successful(s, space)

    def test_status_quo_coalition_never_counts(self):
        space = line_space([0.0, 0.0])
        s = structure((("v1", "v2"), "r"))
        assert is_successful(s, space)  # m* = 0, vacuous


class TestCanonicalForm:
    def test_sorted_by_size_then_member(self):
        s = structure((("v9",), "c"), (("v2", "v1"), "a"), (("v4", "v3"), "b"))
        canon = canonicalize(s)
        assert [sorted(c.members) for c in canon] == [["v1", "v2"], ["v3", "v4"], ["v9"]]

    def test_key_ignores_declaration_order(self):
        a = structure((("v1", "v2"), "a"), (("v3",), "b"))
        b = structure((("v3",), "b"), (("v2", "v1"), "a"))
        assert canonical_key(a) == canonical_key(b)

    def test_key_distinguishes_proposals(self):
        a = structure((("v1",), "a"))
        b = structure((("v1",), "b"))
        assert canonical_key(a) != canonical_key(b)

    def test_coordinate_proposals_in_key(self):
        a = structure((("v1",), (1.0, 2.0)))
        b = structure((("v1",), (1.0, 2.0)))
        assert canonical_key(a) == canonical_key(b)

    @given(st.permutations(["v1", "v2", "v3", "v4", "v5"]))
    def test_key_stable_under_member_order(self, perm):
        base = structure((tuple(perm[:3]), "a"), (tuple(perm[3:]), "b"))
        ref = structure((("v1", "v2", "v3"), "a"), (("v4", "v5"), "b"))
        same = set(perm[:3]) == {"v1", "v2", "v3"}
        assert (canonical_key(base) == canonical_key(ref)) == same


class TestPickleAndHash:
    @pytest.mark.parametrize("name", ["example3", "example4"])
    def test_applied_structure_survives_pickle_and_copy(self, name):
        space, init = builtin_fixture(name)
        move = next(
            t for kind in TRANSITION_KINDS for t in enumerate_transitions(init, space, kind)
        )
        after = apply_transition(init, space, move)
        public = CoalitionStructure.from_pairs((c.members, c.proposal) for c in after)
        shallow = copy.copy(after)
        assert repr(public) == repr(shallow) == repr(after)
        # A rebuilt frozenset may list its members in another order, so the
        # reprs of pickled and deep copies are compared by evaluating them.
        names = {"CoalitionStructure": CoalitionStructure, "DeliberativeCoalition": DeliberativeCoalition}
        for other in (public, shallow, pickle.loads(pickle.dumps(after)), copy.deepcopy(after)):
            assert type(other) is CoalitionStructure
            assert all(type(c) is DeliberativeCoalition for c in other)
            assert other == after
            assert hash(other) == hash(after)
            assert eval(repr(other), names) == after

    def test_pickled_coalition_found_under_another_hash_seed(self):
        build = (
            "from delibsim import CoalitionStructure, DeliberativeCoalition\n"
            "coalition = DeliberativeCoalition(frozenset({'v1', 'v2', 'v3'}), [1, 2])\n"
            "structure = CoalitionStructure([coalition])\n"
        )
        dump = build + "import pickle, sys\nsys.stdout.write(pickle.dumps((coalition, structure)).hex())\n"
        load = build + (
            "import pickle, sys\n"
            "old, old_structure = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "print(old in {coalition}, old_structure in {structure})\n"
        )
        pickled = subprocess.run(
            [sys.executable, "-c", dump], env={**os.environ, "PYTHONHASHSEED": "1"},
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = subprocess.run(
            [sys.executable, "-c", load], env={**os.environ, "PYTHONHASHSEED": "2"},
            input=pickled, capture_output=True, text=True, check=True,
        ).stdout
        assert loaded.split() == ["True", "True"]
