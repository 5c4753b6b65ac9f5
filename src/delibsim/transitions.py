"""The five coalition transition operators: enumeration and application.

Enumeration returns every available transition of a kind from a structure,
in a deterministic order.  The rule of every kind (single_agent, follow,
merge, compromise, subsume) is written once, in ``_legal_movers``, which
gives the mover sets of each legal move of a pair of coalitions to a
target as subsets and intersections of the space's ``approvers``;
enumeration and revalidation both call it.  Only the targets it is tried
on differ (``_pair_targets``): single_agent and follow take the
destination's proposal, and the pair moves every candidate of a finite
space or the witnesses of a continuous space's joint-feasibility test,
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


def _legal_movers(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
    target: ProposalRef,
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The mover sets of every legal ``kind`` move of ``src`` and ``dst`` to ``target``.

    Single_agent and follow keep the destination's proposal, so they take
    no other target.  Single_agent moves one approver of the target out of
    ``src`` into a ``dst`` at least as large, one move per approver in
    declaration order.  Follow moves ``src`` whole, and every member must
    approve.  Merge moves both coalitions whole, and every member must
    approve the target.  Compromise moves the approvers of the target in
    both coalitions, and they must outnumber each source.  Subsume moves
    ``dst`` whole, all of whose members must approve the target, plus the
    approvers in ``src``, of which there must be at least one, and the
    result must outnumber ``src``.  An illegal move gives an empty list.
    """
    nobody: frozenset[str] = frozenset()
    if kind in ("single_agent", "follow"):
        if target != dst.proposal:
            return []
        if kind == "follow":
            if src.members <= space.approvers(target):
                return [(src.members, nobody)]
            return []
        if dst.size < src.size:
            return []
        return [
            (frozenset({vid}), nobody)
            for vid in space.sort_agents(src.members)
            if space.approves(vid, target)
        ]
    approvers = space.approvers(target)
    if kind == "merge":
        if src.members <= approvers and dst.members <= approvers:
            return [(src.members, dst.members)]
        return []
    movers_i = src.members & approvers
    if kind == "compromise":
        movers_j = dst.members & approvers
        if len(movers_i) + len(movers_j) > max(src.size, dst.size):
            return [(movers_i, movers_j)]
        return []
    if dst.members <= approvers and movers_i and len(movers_i) + dst.size > src.size:
        return [(movers_i, dst.members)]
    return []


def _pair_targets(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
) -> Iterator[ProposalRef]:
    """Target proposals to test ``_legal_movers`` on, in enumeration order.

    Single_agent and follow offer the destination's proposal.  Otherwise
    finite spaces offer every candidate id, and continuous spaces the
    feasibility witness of each agent subset that could back the move,
    skipping subsets with none: for merge the union of the pair; for
    compromise the subsets of the union larger than both sources, in
    descending size; for subsume the donor subsets of ``src``, largest
    first, each joined with all of ``dst``.
    """
    if kind in ("single_agent", "follow"):
        yield dst.proposal
        return
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


def enumerate_transitions(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Every available transition of one kind, in a deterministic order.

    Merge and compromise take unordered pairs of coalitions, the other kinds
    ordered ones.  In a continuous space many witnesses give the same movers,
    and only the first witness for each distinct pair of mover sets is kept.
    """
    if kind not in TRANSITION_KINDS:
        raise TransitionError(f"unknown transition kind {kind!r}")
    out: list[Transition] = []
    active = _active_indices(structure)
    pairs = (
        itertools.combinations(active, 2)
        if kind in ("merge", "compromise")
        else itertools.permutations(active, 2)
    )
    dedupe = space.is_continuous
    for i, j in pairs:
        src, dst = structure[i], structure[j]
        seen: set[tuple[frozenset[str], frozenset[str]]] = set()
        for target in _pair_targets(kind, src, dst, space):
            for movers in _legal_movers(kind, src, dst, space, target):
                if dedupe:
                    if movers in seen:
                        continue
                    seen.add(movers)
                out.append(Transition(kind, (i, j), target, movers))
    return out


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
    if t.movers not in _legal_movers(t.kind, src, dst, space, t.target_proposal):
        fail("movers are not the ones the rule gives for the target")


def apply_transition(
    structure: CoalitionStructure, space: DeliberationSpace, t: Transition
) -> CoalitionStructure:
    """Apply a transition enumerated from this structure; drop empty coalitions.

    Untouched coalitions keep their order.  Single_agent and follow move
    their movers from the source into the destination in place, merges land
    at the first source index, compromises and subsumes append the new
    coalition at the end and keep leftovers in place.
    """
    _revalidate(structure, space, t)
    i, j = t.sources
    movers_i, movers_j = t.movers
    new_list: list[Optional[DeliberativeCoalition]] = list(structure.coalitions)

    if t.kind in ("single_agent", "follow"):
        new_list[i] = DeliberativeCoalition(structure[i].members - movers_i, structure[i].proposal)
        new_list[j] = DeliberativeCoalition(structure[j].members | movers_i, structure[j].proposal)
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
