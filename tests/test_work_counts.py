"""Work counts of the finite enumeration on the benchmark's own scenarios.

The memos decide how much work a run does, and the counts below do not
depend on the hash seed, so an exact pin catches a memo that stops
remembering, or remembers under a different key, even when every output
stays the same.  The scenarios are the first 40 of each finite workload at
seed 1, built by ``bench/workloads.scenario_doc``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from delibsim import transitions

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIOS = 40

# workload -> (_pair_moves fills, profile builds)
PINNED = {
    "finite_run": (36_576, 847),
    "explore_finite": (17_832, 465),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pair_move_fills_and_profile_builds(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    fills = 0
    fill = transitions._pair_moves

    def counted(*args):
        nonlocal fills
        fills += 1
        return fill(*args)

    monkeypatch.setattr(transitions, "_pair_moves", counted)
    builds = 0
    for index in range(SCENARIOS):
        text, policy_seed, ref = workloads.scenario_doc(name, 1, index)
        space, _, _ = workloads.execute(name, text, policy_seed, ref)
        builds += len(space._profiles)
    assert (fills, builds) == PINNED[name]
