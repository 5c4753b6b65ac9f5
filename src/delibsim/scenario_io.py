"""Scenario, trace and summary serialization, plus the builtin fixtures.

Scenario files are JSON with ``format_version: 1``.  Every writer is
deterministic (sorted keys, fixed separators, trailing newline) so identical
inputs produce byte-identical files.  Validation failures raise
``ScenarioValidationError`` with a machine-readable ``clause``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .coalition import CoalitionStructure, validate_structure
from .engine import (
    CLASSIFICATIONS, BatchRow, Policy, PolicyError, RunTrace, TraceStep, default_initial_structure,
)
from .geometry import EuclideanMetric, ExplicitMetric, InputError, MetricError
from .space import DeliberationSpace, SpaceError
from .transitions import Transition, check_kinds

FORMAT_VERSION = 1

SUMMARY_HEADER = [
    "seed", "n", "d", "x_size", "policy", "steps",
    "classification", "m_star", "max_terminal_coalition",
]


class ScenarioFormatError(InputError):
    """Structurally unreadable scenario/trace/summary text."""

    clause = "format"


class ScenarioValidationError(InputError):
    """Readable file whose contents violate a validation clause."""


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline, written
    directly: json drops to its pure-Python encoder whenever ``indent`` is set.
    Keys must be strings and arrays lists; a tuple or a set raises ``TypeError``."""
    return _encode(payload, "\n") + "\n"


# The JSON scalars' writers by exact type; a subclass takes the isinstance path.
_SCALARS = {
    str: encode_basestring_ascii, int: int.__repr__, bool: json.dumps, type(None): json.dumps,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
}


def _encode(value, newline: str) -> str:
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, list):
        try:  # an array of exact scalars in one pass
            items = [_SCALARS[type(item)](item) for item in value]
        except KeyError:
            items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _loads(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON ({what}): {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"top level of a {what} must be an object")
    return data


def _check_version(data: dict, what: str) -> None:
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ScenarioFormatError(
            f"unsupported {what} format_version {version!r}, expected {FORMAT_VERSION}",
            clause="format_version",
        )


# -- values -----------------------------------------------------------------------
# Each JSON type is checked once and no value is coerced: ids go as read to the
# space and the metric, which reject a non-string with their own clause.

def _typed(value, kind: type, what: str):
    """``value`` as read when its type is exactly ``kind`` (a bool is not an int)."""
    if type(value) is not kind:
        raise ScenarioFormatError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _decode_numbers(raw, what: str, clause: str) -> tuple:
    """A JSON list of numbers, bools excluded, as a tuple of the numbers read."""
    if type(raw) is not list or not all(type(x) in (int, float) for x in raw):
        raise ScenarioValidationError(f"{what} must be a list of numbers, got {raw!r}", clause=clause)
    return tuple(raw)


def _encode_point(ref, key: str) -> dict:
    return {key: ref} if isinstance(ref, str) else {"coords": list(ref)}


def _decode_point(data, what: str, key: str):
    """A point id (bare or under ``key``) or coordinates under ``coords``."""
    if isinstance(data, str):
        return data
    if isinstance(data, dict):
        if key in data:
            return _typed(data[key], str, f"{what} {key}")
        if "coords" in data:
            return _decode_numbers(data["coords"], f"{what} coords", "space.coords")
    raise ScenarioFormatError(f"{what} needs either {key!r} or 'coords', got {data!r}")


def _decode_located(entries, what: str) -> list:
    """(id, location) pairs of an agent or proposal list; the space checks the ids."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) and "id" in e for e in entries):
        raise ScenarioFormatError(f"{what}s must be a list of objects, each with an 'id'")
    return [(e["id"], _decode_point(e, f"{what} {e['id']!r}", "point")) for e in entries]


# -- scenarios --------------------------------------------------------------------

def load_scenario(text: str) -> tuple[DeliberationSpace, CoalitionStructure]:
    """Parse and validate a scenario; returns the space and initial structure.

    A missing ``initial_structure`` defaults to singletons at each agent's
    nearest approved proposal.
    """
    data = _loads(text, "scenario")
    _check_version(data, "scenario")
    for key in ("space", "status_quo", "agents", "proposals"):
        if key not in data:
            raise ScenarioFormatError(f"scenario is missing {key!r}")

    space_block = data["space"]
    if not isinstance(space_block, dict) or "metric" not in space_block:
        raise ScenarioFormatError("space block needs a 'metric' field")
    metric_kind = space_block["metric"]
    try:
        if metric_kind == "euclidean":
            metric = EuclideanMetric(space_block.get("dimension", 0))
        elif metric_kind == "explicit":
            points = space_block.get("points", [])
            if not isinstance(points, list):
                raise ScenarioValidationError(
                    f"points must be a list of ids, got {points!r}", clause="metric.ids"
                )
            matrix = space_block.get("matrix", [])
            if not isinstance(matrix, list):
                raise ScenarioValidationError(
                    f"matrix must be a list of rows, got {matrix!r}", clause="metric.shape"
                )
            metric = ExplicitMetric(
                points, [_decode_numbers(row, "matrix row", "metric.shape") for row in matrix]
            )
        else:
            raise ScenarioValidationError(
                f"unknown metric kind {metric_kind!r}", clause="metric.kind"
            )
    except MetricError as exc:
        raise ScenarioValidationError(str(exc), clause=exc.clause) from None

    raw_quo = data["status_quo"]
    if not isinstance(raw_quo, (str, dict)):
        raw_quo = {"coords": raw_quo}
    status_quo = _decode_point(raw_quo, "status_quo", "point")
    agents = _decode_located(data["agents"], "agent")
    proposals = (
        None if data["proposals"] == "continuous" else _decode_located(data["proposals"], "proposal")
    )

    try:
        space = DeliberationSpace(metric, agents, status_quo, proposals)
    except (SpaceError, MetricError) as exc:
        raise ScenarioValidationError(str(exc), clause=exc.clause) from None

    if "initial_structure" in data and data["initial_structure"] is not None:
        structure = _decode_structure(data["initial_structure"], "initial_structure")
        violations = validate_structure(structure, space)
        if violations:
            first = violations[0]
            raise ScenarioValidationError(
                f"invalid initial structure ({len(violations)} violation(s)): {first.detail}",
                clause=first.clause,
            )
    else:
        structure = default_initial_structure(space)
    return space, structure


def dump_scenario(space: DeliberationSpace, structure: Optional[CoalitionStructure] = None) -> str:
    """Serialize a space (and optional initial structure) to scenario JSON."""
    if isinstance(space.metric, EuclideanMetric):
        space_block = {"metric": "euclidean", "dimension": space.metric.dimension}
    else:
        space_block = {
            "metric": "explicit",
            "points": list(space.metric.ids),
            "matrix": [list(row) for row in space.metric.matrix],
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "space": space_block,
        "status_quo": _encode_point(space.status_quo, "point"),
        "agents": [dict(id=vid, **_encode_point(loc, "point")) for vid, loc in space.agents],
        "proposals": "continuous"
        if space.is_continuous
        else [dict(id=pid, **_encode_point(loc, "point")) for pid, loc in space.proposals],
    }
    if structure is not None:
        payload["initial_structure"] = encode_structure(structure)
    return _dumps(payload)


def encode_structure(structure: CoalitionStructure) -> list:
    return [
        {"proposal": _encode_point(c.proposal, "id"), "members": sorted(c.members)}
        for c in structure
    ]


def _decode_structure(entries, what: str) -> CoalitionStructure:
    """The one reader of an encoded structure, in scenarios and traces alike."""
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "proposal" in e and "members" in e for e in entries
    ):
        raise ScenarioFormatError(
            f"{what} must be a list of coalitions, each with 'proposal' and 'members'"
        )
    return CoalitionStructure.from_pairs(
        (_agent_set(e["members"], f"{what} members"), _decode_point(e["proposal"], what, "id"))
        for e in entries
    )


# -- traces -----------------------------------------------------------------------

def encode_transition(t: Transition) -> dict:
    """JSON form of a transition: kind, sources, proposal and sorted movers."""
    return {
        "kind": t.kind,
        "sources": list(t.sources),
        "proposal": _encode_point(t.target_proposal, "id"),
        "movers": [sorted(m) for m in t.movers],
    }


def write_trace(trace: RunTrace) -> str:
    """Serialize a run trace: the text of ``json.dumps(indent=2, sort_keys=True)``
    plus a newline, so identical runs give byte-identical text."""
    payload = {
        "format_version": FORMAT_VERSION,
        "scenario": trace.scenario,
        "policy": {
            "tiers": [list(tier) for tier in trace.policy.tiers],
            "selector": trace.policy.selector,
            "seed": trace.policy.seed,
        },
        "step_cap": trace.step_cap,
        "initial_structure": encode_structure(trace.initial),
        "steps": [
            {
                "index": step.index,
                **encode_transition(step.transition),
                "potential": step.potential,
                "signature": list(step.signature),
            }
            for step in trace.steps
        ],
        "terminal_structure": encode_structure(trace.terminal),
        "classification": trace.classification,
    }
    return _dumps(payload)


def _agent_set(value, what: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioFormatError(f"{what} must be a list of agent ids, got {value!r}")
    return frozenset(value)


def read_trace(text: str) -> RunTrace:
    """Parse a trace written by ``write_trace``.

    Counts, indices and the seed must be JSON integers, the scenario and ids
    strings, mover sets lists of agent ids and the policy and kinds valid;
    anything else is a ``ScenarioFormatError``, never coerced.
    """
    data = _loads(text, "trace")
    _check_version(data, "trace")
    try:
        policy_block = data["policy"]
        policy = Policy(policy_block["tiers"], policy_block["selector"], policy_block["seed"])
        if data["classification"] not in CLASSIFICATIONS:
            raise ScenarioFormatError(f"unknown trace classification {data['classification']!r}")
        steps = []
        for entry in data["steps"]:
            check_kinds((entry["kind"],), ScenarioFormatError)
            transition = Transition(
                entry["kind"],
                tuple(_typed(i, int, "trace step source") for i in entry["sources"]),
                _decode_point(entry["proposal"], "trace step proposal", "id"),
                tuple(_agent_set(m, "trace step movers") for m in entry["movers"]),
            )
            steps.append(
                TraceStep(
                    index=_typed(entry["index"], int, "trace step index"),
                    transition=transition,
                    potential=_typed(entry["potential"], int, "trace step potential"),
                    signature=tuple(_typed(s, int, "trace step signature") for s in entry["signature"]),
                )
            )
        return RunTrace(
            scenario=_typed(data["scenario"], str, "trace scenario"),
            policy=policy,
            step_cap=_typed(data["step_cap"], int, "trace step_cap"),
            initial=_decode_structure(data["initial_structure"], "trace initial_structure"),
            steps=tuple(steps),
            terminal=_decode_structure(data["terminal_structure"], "trace terminal_structure"),
            classification=data["classification"],
        )
    except (KeyError, TypeError) as exc:
        problem = "is missing field" if isinstance(exc, KeyError) else "has a field of the wrong shape:"
        raise ScenarioFormatError(f"trace {problem} {exc}") from None
    except PolicyError as exc:
        raise ScenarioFormatError(f"trace policy: {exc}") from None


# -- summaries --------------------------------------------------------------------

def write_summary(rows: Sequence[BatchRow]) -> str:
    """CSV with the fixed header; one row per run."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUMMARY_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.seed, row.n, row.d, row.x_size, row.policy,
                row.steps, row.classification, row.m_star, row.max_terminal_coalition,
            ]
        )
    return buffer.getvalue()


def read_summary(text: str) -> list[BatchRow]:
    """Parse a summary written by ``write_summary``; counts are unsigned decimal integers."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != SUMMARY_HEADER:
        raise ScenarioFormatError(f"summary header mismatch: {rows[0] if rows else 'empty file'}")
    out = []
    for raw in rows[1:]:
        if len(raw) != len(SUMMARY_HEADER):
            raise ScenarioFormatError(f"summary row has {len(raw)} fields")
        if raw[6] not in CLASSIFICATIONS or not all(raw[i].isdecimal() for i in (0, 1, 2, 5, 7, 8)):
            raise ScenarioFormatError(
                f"summary row needs integer counts and a known classification: {raw}"
            )
        out.append(
            BatchRow(
                seed=int(raw[0]), n=int(raw[1]), d=int(raw[2]), x_size=raw[3],
                policy=raw[4], steps=int(raw[5]), classification=raw[6],
                m_star=int(raw[7]), max_terminal_coalition=int(raw[8]),
            )
        )
    return out


# -- builtin fixtures ---------------------------------------------------------------

_EXAMPLE1_COORDS = {
    "r": (1.49, -0.4),
    "a": (0.0, -1.0),
    "b": (1.2, 0.45),
    "c": (1.5, 1.8),
    "d": (3.0, 0.5),
    "v1": (0.0, 0.0),
    "v2": (1.0, 1.0),
    "v3": (2.0, 1.0),
}


def _example1_explicit() -> tuple[DeliberationSpace, CoalitionStructure]:
    ids = ("r", "a", "b", "c", "d", "v1", "v2", "v3")
    matrix = tuple(
        tuple(math.dist(_EXAMPLE1_COORDS[p], _EXAMPLE1_COORDS[q]) for q in ids) for p in ids
    )
    metric = ExplicitMetric(ids, matrix)
    space = DeliberationSpace(
        metric,
        [("v1", "v1"), ("v2", "v2"), ("v3", "v3")],
        "r",
        [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d")],
    )
    structure = CoalitionStructure.from_pairs([(("v1", "v2"), "b"), (("v3",), "c")])
    return space, structure


def _example1_euclidean() -> tuple[DeliberationSpace, CoalitionStructure]:
    space = DeliberationSpace(
        EuclideanMetric(2),
        [(vid, _EXAMPLE1_COORDS[vid]) for vid in ("v1", "v2", "v3")],
        _EXAMPLE1_COORDS["r"],
        [(pid, _EXAMPLE1_COORDS[pid]) for pid in ("a", "b", "c", "d")],
    )
    structure = CoalitionStructure.from_pairs([(("v1", "v2"), "b"), (("v3",), "c")])
    return space, structure


def _example2() -> tuple[DeliberationSpace, CoalitionStructure]:
    agents = (
        [(f"v{i}", (1.0,)) for i in (1, 2, 3)]
        + [(f"v{i}", (5.0,)) for i in (4, 5, 6, 7)]
        + [(f"v{i}", (-1.0,)) for i in (8, 9, 10)]
    )
    space = DeliberationSpace(
        EuclideanMetric(1), agents, (0.0,), [("a", (1.0,)), ("b", (5.0,)), ("c", (-1.0,))]
    )
    structure = CoalitionStructure.from_pairs(
        [
            (("v1", "v2", "v3"), "a"),
            (("v4", "v5", "v6", "v7"), "b"),
            (("v8", "v9", "v10"), "c"),
        ]
    )
    return space, structure


def _example3() -> tuple[DeliberationSpace, CoalitionStructure]:
    space = DeliberationSpace(
        EuclideanMetric(2),
        [
            ("v1", (-3.0, 3.0)),
            ("v2", (-3.0, 4.0)),
            ("v3", (3.0, 3.0)),
            ("v4", (3.0, 4.0)),
        ],
        (0.0, 0.0),
        [("a", (-3.0, 3.0)), ("b", (3.0, 3.0)), ("p", (0.0, 3.0))],
    )
    structure = CoalitionStructure.from_pairs([(("v1", "v2"), "a"), (("v3", "v4"), "b")])
    return space, structure


def _example4() -> tuple[DeliberationSpace, CoalitionStructure]:
    space = DeliberationSpace(
        EuclideanMetric(2),
        [
            ("v1", (-3.0, 3.0)),
            ("v2", (-3.0, 4.0)),
            ("v3", (3.0, 3.0)),
            ("v4", (3.0, 4.0)),
            ("v5", (-4.0, 0.0)),
            ("v6", (4.0, 0.0)),
        ],
        (0.0, 0.0),
        [("a", (-3.0, 3.0)), ("b", (3.0, 3.0)), ("p", (0.0, 3.0))],
    )
    structure = CoalitionStructure.from_pairs(
        [(("v1", "v2", "v5"), "a"), (("v3", "v4", "v6"), "b")]
    )
    return space, structure


def _example6() -> tuple[DeliberationSpace, CoalitionStructure]:
    space = DeliberationSpace(
        EuclideanMetric(3),
        [
            ("v1", (3.0, 0.0, 0.0)),
            ("v2", (0.0, 3.0, 0.0)),
            ("v3", (-3.0, 0.0, 0.0)),
            ("v4", (0.0, -3.0, 0.0)),
            ("v5", (2.0, 0.0, 2.0)),
            ("v6", (0.0, 2.0, 2.0)),
            ("v7", (-2.0, 0.0, 2.0)),
            ("v8", (0.0, -2.0, 2.0)),
            ("v9", (0.0, 0.0, 3.0)),
        ],
        (0.0, 0.0, 0.0),
        [
            ("a", (2.0, 0.0, 0.0)),
            ("b", (0.0, 2.0, 0.0)),
            ("c", (-2.0, 0.0, 0.0)),
            ("d", (0.0, -2.0, 0.0)),
            ("p", (0.0, 0.0, 2.0)),
            ("e", (0.0, 0.0, 3.5)),
        ],
    )
    structure = CoalitionStructure.from_pairs(
        [
            (("v1", "v5"), "a"),
            (("v2", "v6"), "b"),
            (("v3", "v7"), "c"),
            (("v4", "v8"), "d"),
            (("v9",), "e"),
        ]
    )
    return space, structure


_FIXTURES = {
    "example1": _example1_explicit,
    "example1_euclidean": _example1_euclidean,
    "example2": _example2,
    "example3": _example3,
    "example4": _example4,
    "example5": _example4,  # same space and structure; exercised for compromise
    "example6": _example6,
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def builtin_fixture(name: str) -> tuple[DeliberationSpace, CoalitionStructure]:
    """Fresh copy of a named builtin scenario."""
    try:
        builder = _FIXTURES[name]
    except KeyError:
        raise ScenarioFormatError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}", clause="fixture"
        ) from None
    return builder()
