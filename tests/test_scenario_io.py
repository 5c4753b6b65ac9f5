"""Scenario, trace, and summary serialization round trips."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delibsim import (
    BatchRow,
    FIXTURE_NAMES,
    Policy,
    ScenarioFormatError,
    ScenarioValidationError,
    TRANSITION_KINDS,
    builtin_fixture,
    dump_scenario,
    load_scenario,
    read_summary,
    read_trace,
    run,
    validate_structure,
    write_summary,
    write_trace,
)
from delibsim.cli import main
from delibsim.scenario_io import _dumps

from conftest import line_space, structure

TRICKY_TEXT = ["", '"', "\\", "\n\t\x00\x1f\x7f", "\u2028", "caf\u00e9", "\U0001f600", "</script>"]
TRICKY_FLOATS = [1e-15, -0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
JSON_TEXT = st.text() | st.sampled_from(TRICKY_TEXT)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from(TRICKY_FLOATS)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=25,
)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_roundtrip(self, name):
        space, init = builtin_fixture(name)
        text = dump_scenario(space, init)
        loaded_space, loaded_init = load_scenario(text)
        assert loaded_space.agents == space.agents
        assert loaded_space.proposals == space.proposals
        assert loaded_space.status_quo == space.status_quo
        assert loaded_init == init

    def test_continuous_roundtrip(self):
        space = line_space([2.0, -1.0])
        init = structure((("v1",), (2.0,)), (("v2",), (-1.0,)))
        loaded_space, loaded_init = load_scenario(dump_scenario(space, init))
        assert loaded_space.is_continuous
        assert loaded_init == init

    def test_dump_is_deterministic(self):
        space, init = builtin_fixture("example2")
        assert dump_scenario(space, init) == dump_scenario(space, init)

    def test_missing_structure_gets_default(self):
        space, _ = builtin_fixture("example2")
        text = dump_scenario(space)
        _, init = load_scenario(text)
        # every agent sits alone at its nearest approved candidate
        assert sorted(
            (sorted(c.members), c.proposal) for c in init
        ) == sorted(
            ([f"v{i}"], pid)
            for i, pid in zip(
                range(1, 11), ["a"] * 3 + ["b"] * 4 + ["c"] * 3
            )
        )


class TestScenarioErrors:
    def good(self) -> dict:
        return json.loads(dump_scenario(*builtin_fixture("example3")))

    def test_not_json(self):
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario("not json {")
        assert err.value.clause == "format"

    def test_not_an_object(self):
        with pytest.raises(ScenarioFormatError):
            load_scenario("[1, 2]")

    def test_bad_version(self):
        data = self.good()
        data["format_version"] = 99
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "format_version"

    def test_missing_key(self):
        data = self.good()
        del data["agents"]
        with pytest.raises(ScenarioFormatError):
            load_scenario(json.dumps(data))

    def test_unknown_metric_kind(self):
        data = self.good()
        data["space"] = {"metric": "manhattan", "dimension": 2}
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "metric.kind"

    def test_invalid_matrix_reports_metric_clause(self):
        data = self.good()
        data["space"] = {
            "metric": "explicit",
            "points": ["r", "a"],
            "matrix": [[0.0, 1.0], [2.0, 0.0]],
        }
        data["status_quo"] = "r"
        data["agents"] = [{"id": "v1", "point": "a"}]
        data["proposals"] = [{"id": "a", "point": "a"}]
        del data["initial_structure"]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "metric.symmetry"

    def test_invalid_initial_structure(self):
        data = self.good()
        data["initial_structure"] = [
            {"proposal": {"id": "a"}, "members": ["v1", "v2", "v3", "v4"]}
        ]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "structure.approval"

    @pytest.mark.parametrize("members", ["v1v2", [1, True], None])
    def test_initial_structure_members_must_be_agent_ids(self, members):
        data = self.good()
        data["initial_structure"][0]["members"] = members
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "format"

    @pytest.mark.parametrize(
        "fixture, path, value, clause",
        [
            ("example3", ("format_version",), True, "format_version"),
            ("example3", ("format_version",), 1.0, "format_version"),
            ("example3", ("agents", 0, "id"), 1, "space.agent_ids"),
            ("example3", ("proposals", 0, "id"), None, "space.proposal_ids"),
            ("example3", ("status_quo",), {"point": [1, 1]}, "format"),
            ("example3", ("agents", 0, "coords", 0), True, "space.coords"),
            ("example3", ("initial_structure", 0, "proposal", "id"), 7, "format"),
            ("example1", ("status_quo", "point"), None, "format"),
            ("example1", ("space", "points", 1), 7, "metric.ids"),
            ("example1", ("space", "matrix", 0, 1), "1", "metric.shape"),
            ("example1", ("space", "matrix", 0, 1), True, "metric.shape"),
            ("example1", ("space", "matrix"), 7, "metric.shape"),
        ],
    )
    def test_value_of_another_type_rejected(self, fixture, path, value, clause):
        data = json.loads(dump_scenario(*builtin_fixture(fixture)))
        _set(data, path, value)
        with pytest.raises((ScenarioFormatError, ScenarioValidationError)) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == clause

    def test_proposals_wrong_type(self):
        data = self.good()
        data["proposals"] = "all of them"
        with pytest.raises(ScenarioFormatError):
            load_scenario(json.dumps(data))

    def test_agent_dimension_mismatch(self):
        data = self.good()
        data["agents"][0]["coords"] = [1.0]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(data))
        assert err.value.clause == "space.dimension"


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestWriter:
    """``_dumps`` writes the text of ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json(self, payload):
        assert _dumps(payload) == json_text(payload)

    @pytest.mark.parametrize(
        "payload", [[], {}, [[]], {"a": {}}, TRICKY_FLOATS, TRICKY_TEXT, [True, None, 10**30]]
    )
    def test_edge_values_match_json(self, payload):
        assert _dumps(payload) == json_text(payload)

    def test_scalar_subclasses_match_json(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count()"

        class Real(float):
            def __repr__(self):
                return "Real()"

        payload = {"a": [Text("x"), Count(3), Real(0.5)], "b": Count(4), "c": {"d": Text("y")}}
        assert _dumps(payload) == json_text(payload)

    @pytest.mark.parametrize("bad", [(1, 2), {1, 2}, frozenset(), b"x", object()])
    @pytest.mark.parametrize(
        "place",
        [lambda b: b, lambda b: [b], lambda b: [1, [2], b], lambda b: {"k": {"v": b}}],
        ids=["top", "list", "mixed-list", "dict"],
    )
    def test_other_types_raise(self, bad, place):
        with pytest.raises(TypeError):
            _dumps(place(bad))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_dump_is_the_json_text(self, capsys, name):
        assert main(["fixtures", "--dump", name]) == 0
        out = capsys.readouterr().out
        assert out == json_text(json.loads(out))


class TestTraceRoundTrip:
    def make_trace(self):
        space, init = builtin_fixture("example1")
        policy = Policy.parse("subsume>compromise>merge>follow>single_agent", seed=9)
        return run(space, init, policy, scenario_ref="example1")

    def test_roundtrip_equality(self):
        trace = self.make_trace()
        assert read_trace(write_trace(trace)) == trace

    def test_write_is_deterministic(self):
        assert write_trace(self.make_trace()) == write_trace(self.make_trace())

    def test_continuous_trace_roundtrip(self):
        space = line_space([2.0, 3.0])
        init = structure((("v1",), (2.0,)), (("v2",), (3.0,)))
        trace = run(space, init, Policy.parse("merge", seed=4), scenario_ref="inline")
        again = read_trace(write_trace(trace))
        assert again == trace
        assert isinstance(again.steps[0].transition.target_proposal, tuple)

    def test_bad_trace_text(self):
        with pytest.raises(ScenarioFormatError):
            read_trace("{}")
        with pytest.raises(ScenarioFormatError):
            read_trace(json.dumps({"format_version": 1, "steps": "no"}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sources", [0.5, 1.9]),
            ("sources", [True, 1]),
            ("sources", ["0", 1]),
            ("sources", ["x", 1]),
            ("kind", "teleport"),
            ("index", 0.0),
            ("potential", 6.0),
            ("signature", [2, 1.0]),
            ("movers", ["v1v2", []]),
            ("movers", [["v1", 2], []]),
            ("seed", 1.7),
            ("seed", True),
            ("seed", -1),
            ("tiers", [["teleport"]]),
            ("step_cap", "90"),
            ("members", "v1v2"),
            ("members", [1, True]),
            ("classification", "banana"),
        ],
    )
    def test_malformed_value_rejected(self, field, value):
        data = json.loads(write_trace(self.make_trace()))
        if field in ("seed", "tiers"):
            data["policy"][field] = value
        elif field in ("step_cap", "classification"):
            data[field] = value
        elif field == "members":
            data["terminal_structure"][0]["members"] = value
        else:
            data["steps"][0][field] = value
        with pytest.raises(ScenarioFormatError) as err:
            read_trace(json.dumps(data))
        assert err.value.clause == "format"

    @pytest.mark.parametrize("block, field, value", [(None, "steps", 5), ("policy", "tiers", [7])])
    def test_wrong_shape_is_reported_as_such(self, block, field, value):
        data = json.loads(write_trace(self.make_trace()))
        (data if block is None else data[block])[field] = value
        with pytest.raises(ScenarioFormatError, match="has a field of the wrong shape") as err:
            read_trace(json.dumps(data))
        assert err.value.clause == "format"

    def test_missing_field_is_named(self):
        data = json.loads(write_trace(self.make_trace()))
        del data["steps"]
        with pytest.raises(ScenarioFormatError, match="is missing field 'steps'") as err:
            read_trace(json.dumps(data))
        assert err.value.clause == "format"


class TestSummaryRoundTrip:
    def rows(self):
        return [
            BatchRow(1, 4, 2, "5", "merge", 3, "successful", 3, 3),
            BatchRow(2, 6, 1, "continuous", "subsume>compromise", 0, "unsuccessful", 2, 1),
        ]

    def test_roundtrip(self):
        rows = self.rows()
        assert read_summary(write_summary(rows)) == rows

    def test_header(self):
        text = write_summary([])
        assert text.splitlines()[0] == (
            "seed,n,d,x_size,policy,steps,classification,m_star,max_terminal_coalition"
        )

    def test_header_mismatch_rejected(self):
        with pytest.raises(ScenarioFormatError):
            read_summary("wrong,header\n1,2\n")

    @pytest.mark.parametrize(
        "column, value",
        [("seed", "x"), ("n", "2.5"), ("steps", ""), ("m_star", "-1"), ("classification", "banana")],
    )
    def test_malformed_row_rejected(self, column, value):
        header, row = write_summary(self.rows()[:1]).splitlines()
        fields = row.split(",")
        fields[header.split(",").index(column)] = value
        with pytest.raises(ScenarioFormatError) as err:
            read_summary(f"{header}\n{','.join(fields)}\n")
        assert err.value.clause == "format"


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def _scalar_paths(node, path=()):
    """(path, value) of every scalar leaf of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _scalar_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _scalar_paths(child, path + (index,))
    else:
        yield path, node


def _other_types(value) -> list:
    """One value of each JSON scalar type other than ``value``'s.

    A float stands apart from an integer only at an integer leaf, since JSON
    has one number type.  Each stand-in is the likeliest to pass a coercion.
    """
    stand_ins = {str: json.dumps(value), int: 7, bool: bool(value), type(None): None}
    if type(value) is int:
        stand_ins[float] = float(value)
    if type(value) is float:
        del stand_ins[int]
    return [v for kind, v in stand_ins.items() if kind is not type(value)]


class TestTypeSweep:
    """Every scalar of a written scenario or trace, swapped for another JSON type, is refused."""

    @staticmethod
    def documents():
        policy = Policy((TRANSITION_KINDS,), seed=17)
        for name in FIXTURE_NAMES:
            space, init = builtin_fixture(name)
            yield load_scenario, dump_scenario(space, init)
            yield read_trace, write_trace(run(space, init, policy, scenario_ref=name))
        space = line_space([2.0, 3.0])
        init = structure((("v1",), (2.0,)), (("v2",), (3.0,)))
        yield read_trace, write_trace(run(space, init, Policy.parse("merge", seed=4)))

    def test_no_mutation_is_accepted(self):
        accepted = []
        count = 0
        for reader, text in self.documents():
            data = json.loads(text)
            for path, value in _scalar_paths(json.loads(text)):
                for other in _other_types(value):
                    count += 1
                    _set(data, path, other)
                    try:
                        reader(json.dumps(data))
                    except (ScenarioFormatError, ScenarioValidationError):
                        pass
                    else:
                        accepted.append((reader.__name__, path, other))
                    _set(data, path, value)
        assert count > 2000
        assert accepted == []


class TestFixtures:
    def test_names(self):
        assert FIXTURE_NAMES == (
            "example1",
            "example1_euclidean",
            "example2",
            "example3",
            "example4",
            "example5",
            "example6",
        )

    def test_unknown_fixture(self):
        with pytest.raises(ScenarioFormatError):
            builtin_fixture("example99")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_initial_structures_valid(self, name):
        space, init = builtin_fixture(name)
        assert validate_structure(init, space) == []

    def test_example5_reuses_example4(self):
        s4, i4 = builtin_fixture("example4")
        s5, i5 = builtin_fixture("example5")
        assert s4.agents == s5.agents
        assert s4.proposals == s5.proposals
        assert i4 == i5

    def test_explicit_and_euclidean_example1_agree(self):
        s_ex, _ = builtin_fixture("example1")
        s_eu, _ = builtin_fixture("example1_euclidean")
        for vid in s_ex.agent_ids:
            assert s_ex.approval_set(vid) == s_eu.approval_set(vid)
