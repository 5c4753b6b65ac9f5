"""Work counts on the benchmark's own scenarios.

The memos decide how much work a run does, and the counts below do not
depend on the hash seed, so an exact pin catches a memo that stops
remembering, or remembers under a different key, even when every output
stays the same.  The scenarios are the first 40 of a workload at seed 1,
built by ``bench/workloads.scenario_doc``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from delibsim import space as space_module
from delibsim import transitions
from delibsim.space import DeliberationSpace

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIOS = 40

# workload -> (_pair_moves fills, profile builds)
PINNED = {
    "finite_run": (36_576, 847),
    "explore_finite": (17_832, 465),
}

# continuous_run: (feasible_witness calls, hull solves)
PINNED_CONTINUOUS = (4_167, 1_211)


def _counted(monkeypatch, owner, name: str) -> list[int]:
    """Replace ``owner.name`` by a wrapper that counts its calls in the returned cell."""
    cell = [0]
    inner = getattr(owner, name)

    def counted(*args):
        cell[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return cell


def _run_scenarios(monkeypatch, name: str) -> list:
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    spaces = []
    for index in range(SCENARIOS):
        text, policy_seed, ref = workloads.scenario_doc(name, 1, index)
        spaces.append(workloads.execute(name, text, policy_seed, ref)[0])
    return spaces


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pair_move_fills_and_profile_builds(name, monkeypatch):
    fills = _counted(monkeypatch, transitions, "_pair_moves")
    spaces = _run_scenarios(monkeypatch, name)
    builds = sum(len(space._profiles) for space in spaces)
    assert (fills[0], builds) == PINNED[name]


def test_feasibility_calls_and_hull_solves(monkeypatch):
    calls = _counted(monkeypatch, DeliberationSpace, "feasible_witness")
    solves = _counted(monkeypatch, space_module, "_separated_proposal")
    _run_scenarios(monkeypatch, "continuous_run")
    assert (calls[0], solves[0]) == PINNED_CONTINUOUS
