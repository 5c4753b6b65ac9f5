"""The five coalition transition operators: enumeration and application.

Enumeration returns every available transition of a kind from a structure,
in a deterministic order.  Finite proposal spaces are scanned exactly;
continuous spaces synthesize witness proposals through the space's
joint-feasibility test, ``feasible_witness``.  ``apply_transition``
revalidates its input against the current structure, so a stale transition
(enumerated from a different structure) fails loudly instead of corrupting
the run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .coalition import CoalitionStructure, DeliberativeCoalition
from .space import DeliberationSpace, ProposalRef

TRANSITION_KINDS = ("single_agent", "follow", "merge", "compromise", "subsume")

SUBSET_SEARCH_CAP = 20


class TransitionError(ValueError):
    """Malformed transition request."""


class StaleTransitionError(RuntimeError):
    """A transition no longer matches the structure it is applied to."""


class SubsetCapError(RuntimeError):
    """A continuous compromise search exceeded the subset search cap."""


@dataclass(frozen=True)
class Transition:
    """One enumerated move between coalition structures.

    ``sources`` are indices into the originating structure.  ``movers``
    aligns with ``sources``: the agents leaving each source coalition.  For
    single_agent and follow the second mover set is empty (the destination
    coalition only absorbs).
    """

    kind: str
    sources: tuple[int, ...]
    target_proposal: ProposalRef
    movers: tuple[frozenset[str], ...]

    def __post_init__(self):
        if self.kind not in TRANSITION_KINDS:
            raise TransitionError(f"unknown transition kind {self.kind!r}")
        object.__setattr__(self, "sources", tuple(int(i) for i in self.sources))
        object.__setattr__(self, "movers", tuple(frozenset(m) for m in self.movers))
        prop = self.target_proposal
        if not isinstance(prop, str):
            object.__setattr__(self, "target_proposal", tuple(float(c) for c in prop))

    @property
    def moving_agents(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for m in self.movers:
            out |= m
        return out


def _active_indices(structure: CoalitionStructure) -> list[int]:
    """Indices of non-empty coalitions that do not support the status quo."""
    return [
        i
        for i, c in enumerate(structure)
        if c.size > 0 and not c.supports_status_quo
    ]


def enumerate_single_agent(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """Moves of one agent into a coalition at least as large as its own.

    The agent must approve the destination proposal; moves into or out of
    status quo coalitions never qualify.
    """
    out: list[Transition] = []
    active = _active_indices(structure)
    for i in active:
        src = structure[i]
        for j in active:
            if i == j or structure[j].size < src.size:
                continue
            dst = structure[j]
            for vid in space.sort_agents(src.members):
                if space.approves(vid, dst.proposal):
                    out.append(
                        Transition(
                            "single_agent", (i, j), dst.proposal, (frozenset({vid}), frozenset())
                        )
                    )
    return out


def enumerate_follow(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """Whole-coalition moves: every member approves the destination proposal."""
    out: list[Transition] = []
    active = _active_indices(structure)
    for i in active:
        src = structure[i]
        for j in active:
            if i == j:
                continue
            dst = structure[j]
            if all(space.approves(vid, dst.proposal) for vid in src.members):
                out.append(Transition("follow", (i, j), dst.proposal, (src.members, frozenset())))
    return out


def enumerate_merge(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """Two coalitions unite behind a proposal every member of both approves.

    Finite spaces scan every candidate; continuous spaces synthesize one
    witness per pair when the union's members share an approved point.
    """
    out: list[Transition] = []
    active = _active_indices(structure)
    for i, j in itertools.combinations(active, 2):
        union = structure[i].members | structure[j].members
        if space.is_continuous:
            witness = space.feasible_witness(union)
            if witness is not None:
                out.append(
                    Transition("merge", (i, j), witness, (structure[i].members, structure[j].members))
                )
        else:
            for pid in space.candidate_ids:
                if all(space.approves(vid, pid) for vid in union):
                    out.append(
                        Transition("merge", (i, j), pid, (structure[i].members, structure[j].members))
                    )
    return out


def _closure_transition(
    structure: CoalitionStructure,
    space: DeliberationSpace,
    kind: str,
    i: int,
    j: int,
    witness,
) -> Transition:
    movers_i = frozenset(space.supporters(structure[i].members, witness))
    movers_j = frozenset(space.supporters(structure[j].members, witness))
    return Transition(kind, (i, j), witness, (movers_i, movers_j))


def _subset_search_universe(structure, space, i, j) -> list[str]:
    union = structure[i].members | structure[j].members
    if len(union) > SUBSET_SEARCH_CAP:
        raise SubsetCapError(
            f"compromise subset search capped at {SUBSET_SEARCH_CAP} agents, pair has {len(union)}"
        )
    return space.sort_agents(union)


def enumerate_compromise(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """All approvers of some proposal leave a coalition pair to back it.

    The movers are exactly the approvers of the target within the union of
    the pair; their number must strictly exceed both coalition sizes, and
    non-approvers stay behind with the old proposals.  Finite spaces scan
    every candidate.  Continuous spaces search target subsets in descending
    cardinality and emit one representative transition per distinct mover
    closure, using the subset's feasibility witness as the target.
    """
    out: list[Transition] = []
    active = _active_indices(structure)
    for i, j in itertools.combinations(active, 2):
        size_i, size_j = structure[i].size, structure[j].size
        threshold = max(size_i, size_j)
        if space.is_continuous:
            universe = _subset_search_universe(structure, space, i, j)
            seen_closures: set[frozenset[str]] = set()
            for size in range(len(universe), threshold, -1):
                for subset in itertools.combinations(universe, size):
                    witness = space.feasible_witness(subset)
                    if witness is None:
                        continue
                    transition = _closure_transition(structure, space, "compromise", i, j, witness)
                    closure = transition.moving_agents
                    if len(closure) <= threshold or closure in seen_closures:
                        continue
                    seen_closures.add(closure)
                    out.append(transition)
        else:
            for pid in space.candidate_ids:
                movers_i = frozenset(space.supporters(structure[i].members, pid))
                movers_j = frozenset(space.supporters(structure[j].members, pid))
                if len(movers_i | movers_j) > threshold:
                    out.append(Transition("compromise", (i, j), pid, (movers_i, movers_j)))
    return out


def enumerate_subsume(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """Compromises in which the second coalition moves whole.

    Ordered pairs: every member of the second coalition approves the target,
    at least one member of the first does, and the resulting coalition is
    strictly larger than the first.
    """
    out: list[Transition] = []
    active = _active_indices(structure)
    for i in active:
        for j in active:
            if i == j:
                continue
            size_i, size_j = structure[i].size, structure[j].size
            if space.is_continuous:
                universe = _subset_search_universe(structure, space, i, j)
                donors = space.sort_agents(structure[i].members)
                seen_closures: set[frozenset[str]] = set()
                min_donors = max(1, size_i - size_j + 1)
                for take in range(size_i, min_donors - 1, -1):
                    for chosen in itertools.combinations(donors, take):
                        subset = set(chosen) | structure[j].members
                        witness = space.feasible_witness(subset)
                        if witness is None:
                            continue
                        transition = _closure_transition(structure, space, "subsume", i, j, witness)
                        movers_i, movers_j = transition.movers
                        if movers_j != structure[j].members or not movers_i:
                            continue
                        if len(movers_i) + size_j <= size_i:
                            continue
                        closure = transition.moving_agents
                        if closure in seen_closures:
                            continue
                        seen_closures.add(closure)
                        out.append(transition)
            else:
                for pid in space.candidate_ids:
                    movers_j = frozenset(space.supporters(structure[j].members, pid))
                    if movers_j != structure[j].members:
                        continue
                    movers_i = frozenset(space.supporters(structure[i].members, pid))
                    if not movers_i or len(movers_i) + size_j <= size_i:
                        continue
                    out.append(Transition("subsume", (i, j), pid, (movers_i, movers_j)))
    return out


_ENUMERATORS = {
    "single_agent": enumerate_single_agent,
    "follow": enumerate_follow,
    "merge": enumerate_merge,
    "compromise": enumerate_compromise,
    "subsume": enumerate_subsume,
}


def enumerate_transitions(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Dispatch to the enumerator for one transition kind."""
    try:
        enumerator = _ENUMERATORS[kind]
    except KeyError:
        raise TransitionError(f"unknown transition kind {kind!r}") from None
    return enumerator(structure, space)


def _revalidate(
    structure: CoalitionStructure, space: DeliberationSpace, t: Transition
) -> None:
    def fail(reason: str):
        raise StaleTransitionError(f"stale {t.kind} transition: {reason}")

    if len(t.sources) != 2 or len(t.movers) != 2:
        fail("expected exactly two sources")
    i, j = t.sources
    if not (0 <= i < len(structure) and 0 <= j < len(structure)) or i == j:
        fail("source indices out of range")
    src, dst = structure[i], structure[j]
    if src.supports_status_quo or dst.supports_status_quo:
        fail("status quo coalitions never participate")
    if src.size == 0 or dst.size == 0:
        fail("empty source coalition")
    movers_i, movers_j = t.movers

    if t.kind == "single_agent":
        if len(movers_i) != 1 or movers_j:
            fail("single_agent moves exactly one agent")
        (vid,) = movers_i
        if vid not in src.members:
            fail(f"agent {vid!r} is not in the source coalition")
        if dst.size < src.size:
            fail("destination is smaller than the source")
        if t.target_proposal != dst.proposal:
            fail("target proposal no longer matches the destination")
        if not space.approves(vid, dst.proposal):
            fail(f"agent {vid!r} does not approve the destination proposal")
    elif t.kind == "follow":
        if movers_i != src.members or movers_j:
            fail("follow moves the whole source coalition")
        if t.target_proposal != dst.proposal:
            fail("target proposal no longer matches the destination")
        if not all(space.approves(vid, dst.proposal) for vid in src.members):
            fail("some member does not approve the destination proposal")
    elif t.kind == "merge":
        if movers_i != src.members or movers_j != dst.members:
            fail("merge moves both coalitions whole")
        if not all(space.approves(vid, t.target_proposal) for vid in src.members | dst.members):
            fail("some member does not approve the merge proposal")
    elif t.kind == "compromise":
        expect_i = frozenset(space.supporters(src.members, t.target_proposal))
        expect_j = frozenset(space.supporters(dst.members, t.target_proposal))
        if movers_i != expect_i or movers_j != expect_j:
            fail("movers are not exactly the approvers of the target")
        if len(movers_i | movers_j) <= max(src.size, dst.size):
            fail("the new coalition would not outgrow both sources")
    elif t.kind == "subsume":
        expect_i = frozenset(space.supporters(src.members, t.target_proposal))
        expect_j = frozenset(space.supporters(dst.members, t.target_proposal))
        if movers_j != dst.members or expect_j != dst.members:
            fail("the second coalition must move whole")
        if movers_i != expect_i or not movers_i:
            fail("movers are not exactly the approvers of the target")
        if len(movers_i) + dst.size <= src.size:
            fail("the new coalition would not outgrow the first source")


def apply_transition(
    structure: CoalitionStructure, space: DeliberationSpace, t: Transition
) -> CoalitionStructure:
    """Apply a transition enumerated from this structure; drop empty coalitions.

    Untouched coalitions keep their order.  Merges land at the first source
    index, follows at the destination index, compromises and subsumes append
    the new coalition at the end and keep leftovers in place.
    """
    _revalidate(structure, space, t)
    i, j = t.sources
    movers_i, movers_j = t.movers
    new_list: list[Optional[DeliberativeCoalition]] = list(structure.coalitions)

    if t.kind == "single_agent":
        new_list[i] = DeliberativeCoalition(structure[i].members - movers_i, structure[i].proposal)
        new_list[j] = DeliberativeCoalition(structure[j].members | movers_i, structure[j].proposal)
    elif t.kind == "follow":
        new_list[j] = DeliberativeCoalition(
            structure[j].members | movers_i, structure[j].proposal
        )
        new_list[i] = None
    elif t.kind == "merge":
        first, second = min(i, j), max(i, j)
        new_list[first] = DeliberativeCoalition(
            structure[i].members | structure[j].members, t.target_proposal
        )
        new_list[second] = None
    else:  # compromise and subsume share the frame
        new_list[i] = DeliberativeCoalition(structure[i].members - movers_i, structure[i].proposal)
        new_list[j] = DeliberativeCoalition(structure[j].members - movers_j, structure[j].proposal)
        new_list.append(DeliberativeCoalition(movers_i | movers_j, t.target_proposal))

    result = tuple(c for c in new_list if c is not None and c.size > 0)
    return CoalitionStructure(result)
