"""Golden traces: regenerate a fixed corpus of runs and compare bytes.

The corpus pins every builtin fixture under two policies and the first ten
scenarios of the continuous family shared by criteria 8-10 under three
policies.  It also pins ``explore`` over all five kinds on every builtin
fixture and the first ten small finite scenarios, and under two restricted
kind lists on two larger scenarios whose graphs end in unsuccessful
terminals, each at the default state cap and at two lower caps that
truncate the larger graphs: counts, flags, terminal keys, the witness and
the order of ``structures``.
A refactor that is meant to keep behaviour must leave every file
byte-identical.  To rewrite the corpus after an intended behaviour change,
first run ``PYTHONPATH=src python tests/test_golden.py --compare`` from the
repository root: it compares the corpus with fresh output as parsed JSON and
prints, per differing file, the largest float move and every other change.
Then run ``PYTHONPATH=src python tests/test_golden.py`` and give the reason
and the moves in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from delibsim import (
    FIXTURE_NAMES,
    TRANSITION_KINDS,
    GeneratorConfig,
    Policy,
    builtin_fixture,
    explore,
    generate_scenario,
    run,
    write_trace,
)
from delibsim.oracle import DEFAULT_STATE_CAP
from delibsim.scenario_io import encode_transition

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_KINDS = ",".join(TRANSITION_KINDS)
FIXTURE_RUNS = ((ALL_KINDS, 17), ("subsume>compromise", 5))
CONTINUOUS_POLICIES = ("compromise", "subsume>compromise", ALL_KINDS)
CONTINUOUS_SEEDS = range(1, 11)
CONTINUOUS_CONFIG = GeneratorConfig(
    mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3)
)
EXPLORE_CAPS = {"full": DEFAULT_STATE_CAP, "cap20": 20, "cap3": 3}
EXPLORE_SEEDS = range(1, 11)
EXPLORE_CONFIG = GeneratorConfig(mode="finite", max_agents=6, max_proposals=5)
EXPLORE_WITNESS_SEEDS = (185, 237)
EXPLORE_WITNESS_KINDS = ("merge", "single_agent,follow")


def _policy_tag(text: str) -> str:
    return "all" if text == ALL_KINDS else text.replace(">", "_over_")


def explore_text(space, initial, state_cap: int, kinds: str = ALL_KINDS) -> str:
    """Canonical JSON of everything an explore report pins."""
    report = explore(space, initial, kinds.split(","), state_cap=state_cap)
    witness = report.unsuccessful_witness
    payload = {
        "states_visited": report.states_visited,
        "edges": report.edges,
        "truncated": report.truncated,
        "terminal_keys": list(report.terminal_keys),
        "terminal_successful": list(report.terminal_successful),
        "potential_monotone": report.potential_monotone,
        "signature_monotone": report.signature_monotone,
        "unsuccessful_witness": (
            None if witness is None else [encode_transition(t) for t in witness]
        ),
        "structures": list(report.structures),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_cases() -> dict[str, object]:
    """File name -> zero-argument callable returning that file's trace text."""
    cases = {}
    for name in FIXTURE_NAMES:
        for text, seed in FIXTURE_RUNS:
            def make(name=name, text=text, seed=seed):
                space, initial = builtin_fixture(name)
                policy = Policy.parse(text, seed=seed)
                return write_trace(run(space, initial, policy, scenario_ref=f"fixture:{name}"))
            cases[f"{name}.{_policy_tag(text)}.seed{seed}.json"] = make
    for seed in CONTINUOUS_SEEDS:
        for text in CONTINUOUS_POLICIES:
            def make(seed=seed, text=text):
                space, initial = generate_scenario(CONTINUOUS_CONFIG, seed)
                policy = Policy.parse(text, seed=seed)
                return write_trace(
                    run(space, initial, policy, scenario_ref=f"gen:continuous:{seed}")
                )
            cases[f"continuous.{_policy_tag(text)}.seed{seed}.json"] = make
    for tag, cap in EXPLORE_CAPS.items():
        for name in FIXTURE_NAMES:
            def make(name=name, cap=cap):
                return explore_text(*builtin_fixture(name), cap)
            cases[f"explore.{name}.{tag}.json"] = make
        for seed in EXPLORE_SEEDS:
            def make(seed=seed, cap=cap):
                return explore_text(*generate_scenario(EXPLORE_CONFIG, seed), cap)
            cases[f"explore.finite.seed{seed}.{tag}.json"] = make
        for seed in EXPLORE_WITNESS_SEEDS:
            for kinds in EXPLORE_WITNESS_KINDS:
                def make(seed=seed, cap=cap, kinds=kinds):
                    return explore_text(*generate_scenario(EXPLORE_CONFIG, seed), cap, kinds)
                cases[f"explore.finite.seed{seed}.{kinds.replace(',', '_')}.{tag}.json"] = make
    return cases


CASES = golden_cases()


def test_corpus_is_complete():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


def pytest_generate_tests(metafunc):
    """One ``test_trace_matches_golden`` per case; a hook, so the module runs without pytest."""
    if metafunc.function is test_trace_matches_golden:
        metafunc.parametrize("name", sorted(CASES))


def test_trace_matches_golden(name):
    assert CASES[name]() == (GOLDEN_DIR / name).read_text()


def drift(old, new, path: str = "$") -> tuple[float, list[str]]:
    """Largest move between matching floats of two parsed JSON values, and the
    paths where anything else differs: a value, a type, a key set or a length."""
    if type(old) is float and type(new) is float:
        return abs(old - new), []
    if type(old) is not type(new):
        return 0.0, [path]
    if isinstance(old, dict) and old.keys() == new.keys():
        parts = [drift(old[key], new[key], f"{path}.{key}") for key in old]
    elif isinstance(old, list) and len(old) == len(new):
        parts = [drift(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return 0.0, [] if old == new else [path]
    return max((move for move, _ in parts), default=0.0), [p for _, paths in parts for p in paths]


def test_drift_separates_float_moves_from_other_changes():
    old = {"a": [1.0, 2, "x"], "b": {"c": 0.5}}
    assert drift(old, old) == (0.0, [])
    assert drift(old, {"a": [1.25, 2, "x"], "b": {"c": 0.5}}) == (0.25, [])
    assert drift(old, {"a": [1.0, 3, "y"], "b": {"c": 0.5, "d": 0.5}}) == (0.0, ["$.a[1]", "$.a[2]", "$.b"])
    assert drift([1.0, [2.0]], [1, [2.0, 3.0]]) == (0.0, ["$[0]", "$[1]"])


def compare() -> int:
    """Print the drift of every golden file from fresh output; 1 if any non-float changed."""
    changed = 0
    for name, make in sorted(CASES.items()):
        move, others = drift(json.loads((GOLDEN_DIR / name).read_text()), json.loads(make()))
        if move or others:
            print(f"{name}: largest float move {move:.3g}, {len(others)} other changes {others[:5]}")
        changed += bool(others)
    print(f"{len(CASES)} cases, {changed} with changes that are not float moves")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        sys.exit(compare())
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (GOLDEN_DIR / name).write_text(make())
    print(f"wrote {len(CASES)} traces to {GOLDEN_DIR}", file=sys.stderr)
