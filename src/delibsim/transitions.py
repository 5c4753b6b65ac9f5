"""The five coalition transition operators: enumeration and application.

Enumeration returns every available transition of a kind from a structure,
in a deterministic order.  The rule of each pair move (merge, compromise,
subsume) is written once, in ``_pair_movers``; the enumerators and
revalidation both call it.  Only the targets it is tried on differ between
spaces (``_pair_targets``): finite spaces offer every candidate, continuous
spaces the witnesses of the space's joint-feasibility test,
``feasible_witness``.  ``apply_transition`` revalidates its input against
the current structure, so a stale transition (enumerated from a different
structure) fails loudly instead of corrupting the run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .coalition import CoalitionStructure, DeliberativeCoalition
from .space import DeliberationSpace, ProposalRef

TRANSITION_KINDS = ("single_agent", "follow", "merge", "compromise", "subsume")

# Kinds whose every step raises the potential by at least 2, and kinds whose
# every step strictly lex-increases the signature.
POTENTIAL_KINDS = ("single_agent", "follow", "merge", "subsume")
SIGNATURE_KINDS = ("compromise", "subsume")

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
    for i, j in itertools.permutations(_active_indices(structure), 2):
        src, dst = structure[i], structure[j]
        if dst.size < src.size:
            continue
        for vid in space.sort_agents(src.members):
            if space.approves(vid, dst.proposal):
                out.append(
                    Transition("single_agent", (i, j), dst.proposal, (frozenset({vid}), frozenset()))
                )
    return out


def enumerate_follow(
    structure: CoalitionStructure, space: DeliberationSpace
) -> list[Transition]:
    """Whole-coalition moves: every member approves the destination proposal."""
    out: list[Transition] = []
    for i, j in itertools.permutations(_active_indices(structure), 2):
        src, dst = structure[i], structure[j]
        if all(space.approves(vid, dst.proposal) for vid in src.members):
            out.append(Transition("follow", (i, j), dst.proposal, (src.members, frozenset())))
    return out


def _pair_movers(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
    target: ProposalRef,
) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """The mover sets of a legal ``kind`` move of ``src`` and ``dst`` to ``target``.

    Returns None when the move breaks the rule.  Merge moves both coalitions
    whole, and every member must approve the target.  Compromise moves the
    approvers of the target in both coalitions, and they must outnumber each
    source.  Subsume moves ``dst`` whole, all of whose members must approve
    the target, plus the approvers in ``src``, of which there must be at
    least one, and the result must outnumber ``src``.
    """
    if kind == "merge":
        if all(space.approves(vid, target) for vid in src.members | dst.members):
            return src.members, dst.members
        return None
    if kind == "compromise":
        movers_i = space.supporters(src.members, target)
        movers_j = space.supporters(dst.members, target)
        if len(movers_i) + len(movers_j) > max(src.size, dst.size):
            return movers_i, movers_j
        return None
    if space.supporters(dst.members, target) != dst.members:
        return None
    movers_i = space.supporters(src.members, target)
    if movers_i and len(movers_i) + dst.size > src.size:
        return movers_i, dst.members
    return None


def _pair_targets(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
) -> Iterator[ProposalRef]:
    """Target proposals to test ``_pair_movers`` on, in enumeration order.

    Finite spaces offer every candidate id.  Continuous spaces offer the
    feasibility witness of each agent subset that could back the move, and
    skip subsets with none: for merge the union of the pair; for compromise
    the subsets of the union larger than both sources, in descending size;
    for subsume the donor subsets of ``src``, largest first, each joined
    with all of ``dst``.
    """
    if not space.is_continuous:
        yield from space.candidate_ids
        return
    union = src.members | dst.members
    if kind == "merge":
        subsets: Iterable[Iterable[str]] = (union,)
    else:
        if len(union) > SUBSET_SEARCH_CAP:
            raise SubsetCapError(
                f"{kind} subset search capped at {SUBSET_SEARCH_CAP} agents, pair has {len(union)}"
            )
        if kind == "compromise":
            universe = space.sort_agents(union)
            subsets = (
                subset
                for size in range(len(universe), max(src.size, dst.size), -1)
                for subset in itertools.combinations(universe, size)
            )
        else:
            donors = space.sort_agents(src.members)
            min_donors = max(1, src.size - dst.size + 1)
            subsets = (
                dst.members.union(chosen)
                for take in range(src.size, min_donors - 1, -1)
                for chosen in itertools.combinations(donors, take)
            )
    for subset in subsets:
        witness = space.feasible_witness(subset)
        if witness is not None:
            yield witness


def _enumerate_pair_moves(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Merge, compromise or subsume moves: each target that passes the rule.

    Merge and compromise take unordered pairs, subsume ordered ones.  In a
    continuous space many witnesses give the same movers, and only the first
    witness for each distinct pair of mover sets is kept.
    """
    out: list[Transition] = []
    active = _active_indices(structure)
    pairs = (
        itertools.permutations(active, 2)
        if kind == "subsume"
        else itertools.combinations(active, 2)
    )
    dedupe = space.is_continuous
    for i, j in pairs:
        src, dst = structure[i], structure[j]
        seen: set[tuple[frozenset[str], frozenset[str]]] = set()
        for target in _pair_targets(kind, src, dst, space):
            movers = _pair_movers(kind, src, dst, space, target)
            if movers is None:
                continue
            if dedupe:
                if movers in seen:
                    continue
                seen.add(movers)
            out.append(Transition(kind, (i, j), target, movers))
    return out


def enumerate_transitions(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Every available transition of one kind, in a deterministic order."""
    if kind == "single_agent":
        return enumerate_single_agent(structure, space)
    if kind == "follow":
        return enumerate_follow(structure, space)
    if kind in TRANSITION_KINDS:
        return _enumerate_pair_moves(structure, space, kind)
    raise TransitionError(f"unknown transition kind {kind!r}")


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
    elif t.movers != _pair_movers(t.kind, src, dst, space, t.target_proposal):
        fail("movers are not the ones the rule gives for the target")


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
