"""Work counts on the benchmark's own scenarios.

The memos decide how much work a run does, and the counts below do not
depend on the hash seed, so an exact pin catches a memo that stops
remembering, or remembers under a different key, even when every output
stays the same.  The counts of moves built and applied, of explored states
and edges and of trace bytes catch a run that enumerates, walks or writes
more than it did.  The scenarios are the first 40 of a workload at seed 1,
built by ``bench/workloads.scenario_doc``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from delibsim import engine, oracle, transitions
from delibsim import space as space_module
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

# workload -> Transition tuples built, apply_transition calls, and the size of
# what the run produced: trace bytes, or explored states and edges
PINNED_OUTPUT = {
    "finite_run": {"built": 393, "applied": 393, "trace_bytes": 235_313},
    "continuous_run": {"built": 309, "applied": 309, "trace_bytes": 243_954},
    "explore_finite": {"built": 1_380, "applied": 1_380, "states": 1_062, "edges": 23_470},
}


def _counted(monkeypatch, owner, name: str) -> list[int]:
    """Replace ``owner.name`` by a wrapper that counts its calls in the returned cell."""
    cell = [0]
    inner = getattr(owner, name)

    def counted(*args):
        cell[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return cell


def _execute(monkeypatch, name: str) -> list[tuple]:
    """The space and the outputs (traces or explore reports) of each scenario."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    runs = []
    for index in range(SCENARIOS):
        text, policy_seed, ref = workloads.scenario_doc(name, 1, index)
        space, _, outputs = workloads.execute(name, text, policy_seed, ref)
        runs.append((space, outputs))
    return runs


def _run_scenarios(monkeypatch, name: str) -> list:
    return [space for space, _ in _execute(monkeypatch, name)]


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


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_moves_built_and_applied_and_output_size(name, monkeypatch):
    built = [_counted(monkeypatch, owner, "Transition") for owner in (transitions, engine, oracle)]
    applied = [_counted(monkeypatch, owner, "apply_transition") for owner in (engine, oracle)]
    outputs = [output for _, outputs in _execute(monkeypatch, name) for output in outputs]
    counts = {"built": sum(cell[0] for cell in built), "applied": sum(cell[0] for cell in applied)}
    if name == "explore_finite":
        counts["states"] = sum(report.states_visited for report in outputs)
        counts["edges"] = sum(report.edges for report in outputs)
    else:
        counts["trace_bytes"] = sum(len(text.encode()) for text in outputs)
    assert counts == PINNED_OUTPUT[name]
