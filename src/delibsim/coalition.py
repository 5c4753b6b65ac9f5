"""Deliberative coalitions, coalition structures and their order measures.

A coalition pairs a member set with a proposal every member strictly
approves; a structure partitions the agents into coalitions.  Both are
tuples, so they hash and compare as tuples do: a coalition is the triple
``(members, proposal, size)`` and a structure is the tuple of its
coalitions.  The two measures used for termination arguments live here:
the potential (sum of squared coalition sizes) and the signature
(non-increasing size profile compared lexicographically).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Optional

from .space import STATUS_QUO_ID, DeliberationSpace, ProposalRef

Signature = tuple[int, ...]


class DeliberativeCoalition(namedtuple("DeliberativeCoalition", ("members", "proposal", "size"))):
    """A set of agent ids behind one proposal reference.

    Members normalise to a frozenset and coordinate proposals to a tuple of
    floats; ``size`` is the member count, stored because the measures read
    it far more often than coalitions are built.  The status quo coalition
    uses the reserved proposal id ``"r"``; its members approve nothing.  An
    empty member set is permitted transiently (it can appear mid-update)
    but every applied transition drops empties.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[str], proposal: ProposalRef) -> "DeliberativeCoalition":
        members = frozenset(members)
        if not isinstance(proposal, str):
            proposal = tuple(map(float, proposal))
        return tuple.__new__(cls, (members, proposal, len(members)))

    def __getnewargs__(self) -> tuple[frozenset[str], ProposalRef]:
        return self[:2]

    def __repr__(self) -> str:
        return f"DeliberativeCoalition(members={self.members!r}, proposal={self.proposal!r})"

    @property
    def supports_status_quo(self) -> bool:
        return self.proposal == STATUS_QUO_ID


class CoalitionStructure(tuple):
    """Ordered tuple of coalitions; order only matters for determinism."""

    __slots__ = ()

    def __new__(cls, coalitions: Iterable[DeliberativeCoalition]) -> "CoalitionStructure":
        return tuple.__new__(cls, coalitions)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Iterable[str], ProposalRef]]) -> "CoalitionStructure":
        return cls(DeliberativeCoalition(m, p) for m, p in pairs)

    def __repr__(self) -> str:
        return f"CoalitionStructure(coalitions={tuple.__repr__(self)})"


@dataclass(frozen=True)
class Violation:
    """One validation failure, machine readable."""

    clause: str
    detail: str
    coalition_index: Optional[int] = None
    agent: Optional[str] = None


def validate_structure(structure: CoalitionStructure, space: DeliberationSpace) -> list[Violation]:
    """All ways the structure fails to be a valid coalition structure.

    Checks: members are known agents, the member sets partition the agent
    set, every member approves its coalition's proposal, and status quo
    coalitions contain only agents with empty approval sets (finite spaces)
    or agents located exactly at the status quo (continuous spaces).
    """
    violations: list[Violation] = []
    seen: dict[str, int] = {}
    known = set(space.agent_ids)

    for index, coalition in enumerate(structure):
        for vid in sorted(coalition.members):
            if vid not in known:
                violations.append(
                    Violation("structure.unknown_agent", f"unknown agent {vid!r}", index, vid)
                )
                continue
            if vid in seen:
                violations.append(
                    Violation(
                        "structure.partition",
                        f"agent {vid!r} appears in coalitions {seen[vid]} and {index}",
                        index,
                        vid,
                    )
                )
            seen[vid] = index

        if coalition.supports_status_quo:
            for vid in sorted(coalition.members):
                if vid not in known:
                    continue
                if space.is_continuous:
                    if space.agent_location(vid) != space.status_quo:
                        violations.append(
                            Violation(
                                "structure.status_quo",
                                f"agent {vid!r} is not located at the status quo",
                                index,
                                vid,
                            )
                        )
                elif space.approval_set(vid):
                    violations.append(
                        Violation(
                            "structure.status_quo",
                            f"agent {vid!r} approves a candidate but sits in the status quo coalition",
                            index,
                            vid,
                        )
                    )
            continue

        try:
            space.proposal_location(coalition.proposal)
        except Exception as exc:
            clause = getattr(exc, "clause", "structure.unknown_proposal")
            violations.append(Violation(clause, str(exc), index, None))
            continue
        for vid in sorted(coalition.members):
            if vid in known and not space.approves(vid, coalition.proposal):
                violations.append(
                    Violation(
                        "structure.approval",
                        f"agent {vid!r} does not approve its coalition proposal",
                        index,
                        vid,
                    )
                )

    missing = known - set(seen)
    if missing:
        violations.append(
            Violation(
                "structure.partition",
                f"agents not covered by any coalition: {sorted(missing)}",
                None,
                None,
            )
        )
    return violations


def potential(structure: CoalitionStructure) -> int:
    """Sum of squared coalition sizes; bounded by n^2."""
    return sum(c.size * c.size for c in structure)


def signature(structure: CoalitionStructure) -> Signature:
    """Coalition sizes sorted non-increasingly, empty coalitions dropped."""
    return tuple(sorted((c.size for c in structure if c.size > 0), reverse=True))


def lex_less(a: Signature, b: Signature) -> bool:
    """Strict lexicographic order on signatures.

    Either the profiles agree up to some position where ``a`` is smaller,
    or ``a`` is a proper prefix of ``b``.
    """
    return a < b


def is_successful(structure: CoalitionStructure, space: DeliberationSpace) -> bool:
    """Whether some coalition realizes the maximum attainable support.

    True iff a coalition (C, p) has p != status quo, |C| equal to the
    space's maximum support, and exactly that many supporters of p across
    all agents.  A space where every approval set is empty counts as
    vacuously successful.
    """
    report = space.max_support()
    if report.m_star == 0:
        return True
    for coalition in structure:
        if coalition.supports_status_quo or coalition.size != report.m_star:
            continue
        if len(space.approvers(coalition.proposal)) == report.m_star:
            return True
    return False


def _proposal_key(ref: ProposalRef) -> str:
    if isinstance(ref, str):
        return ref
    return "(" + ",".join(repr(c) for c in ref) + ")"


def canonicalize(structure: CoalitionStructure) -> CoalitionStructure:
    """Drop empty coalitions and order the rest canonically.

    Coalitions sort by size descending, then by their smallest member id;
    the member sets are disjoint, so the order is total.
    """
    nonempty = [c for c in structure if c.size > 0]
    nonempty.sort(key=lambda c: (-c.size, min(c.members)))
    return CoalitionStructure(nonempty)


def canonical_key(structure: CoalitionStructure) -> str:
    """Deterministic string key of the canonical form, usable as a state id."""
    parts = []
    for coalition in canonicalize(structure):
        members = ",".join(sorted(coalition.members))
        parts.append(f"{_proposal_key(coalition.proposal)}|{members}")
    return ";".join(parts)
