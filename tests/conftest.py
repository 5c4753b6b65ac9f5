"""Shared builders for small deliberation spaces."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from delibsim import CoalitionStructure, DeliberationSpace, EuclideanMetric

# Child processes of the command-line tests import the package from src/ too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)


def line_space(agent_positions, candidates=None, quo=0.0):
    """1D euclidean space; agents named v1.. in the given order."""
    agents = [(f"v{i + 1}", (float(x),)) for i, x in enumerate(agent_positions)]
    proposals = None
    if candidates is not None:
        proposals = [(pid, (float(x),)) for pid, x in candidates.items()]
    return DeliberationSpace(EuclideanMetric(1), agents, (float(quo),), proposals)


def plane_space(agent_positions, candidates=None, quo=(0.0, 0.0)):
    """2D euclidean space; agents named v1.. in the given order."""
    agents = [(f"v{i + 1}", (float(x), float(y))) for i, (x, y) in enumerate(agent_positions)]
    proposals = None
    if candidates is not None:
        proposals = [(pid, (float(x), float(y))) for pid, (x, y) in candidates.items()]
    return DeliberationSpace(EuclideanMetric(2), agents, tuple(map(float, quo)), proposals)


def structure(*pairs):
    return CoalitionStructure.from_pairs([(tuple(members), prop) for members, prop in pairs])


@pytest.fixture
def two_groups_line():
    """Three agents at 1, one at -1; candidates on both sides."""
    space = line_space([1.0, 1.0, 1.0, -1.0], {"a": 1.0, "c": -1.0})
    init = structure((("v1", "v2", "v3"), "a"), (("v4",), "c"))
    return space, init
