"""Golden traces: regenerate a fixed corpus of runs and compare bytes.

The corpus pins every builtin fixture under two policies and the first ten
scenarios of the continuous family shared by criteria 8-10 under three
policies.  A refactor that is meant to keep behaviour must leave every file
byte-identical.  To rewrite the corpus after an intended behaviour change,
run ``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and give the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from delibsim import (
    FIXTURE_NAMES,
    TRANSITION_KINDS,
    GeneratorConfig,
    Policy,
    builtin_fixture,
    generate_scenario,
    run,
    write_trace,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_KINDS = ",".join(TRANSITION_KINDS)
FIXTURE_RUNS = ((ALL_KINDS, 17), ("subsume>compromise", 5))
CONTINUOUS_POLICIES = ("compromise", "subsume>compromise", ALL_KINDS)
CONTINUOUS_SEEDS = range(1, 11)
CONTINUOUS_CONFIG = GeneratorConfig(
    mode="continuous", min_agents=2, max_agents=8, dimensions=(1, 2, 3)
)


def _policy_tag(text: str) -> str:
    return "all" if text == ALL_KINDS else text.replace(">", "_over_")


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
    return cases


CASES = golden_cases()


def test_corpus_is_complete():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    assert CASES[name]() == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (GOLDEN_DIR / name).write_text(make())
    print(f"wrote {len(CASES)} traces to {GOLDEN_DIR}", file=sys.stderr)
