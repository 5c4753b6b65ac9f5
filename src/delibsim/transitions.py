"""The five coalition transition operators: enumeration and application.

``candidates`` walks the space's move memo once per structure: the
``(kind, sources, moves)`` pair entries of a policy's highest non-empty
tier, in a deterministic order, and their move count.  ``engine.run`` draws
one move from them, ``oracle.explore`` walks them and
``enumerate_transitions`` flattens them.  ``created_coalitions`` gives what
a move leaves in place of its pair.

A move of a source coalition of ``s`` members and a destination of ``t``
members to a target proposal is judged by how many members of each approve
the target, ``a`` and ``b``.  The move is legal when, by kind (``_legal``
is the one place this is written):

    single_agent   a >= 1 and t >= s
    follow         a == s
    merge          a == s and b == t
    compromise     a + b > max(s, t)
    subsume        b == t and a >= 1 and a + t > s

The movers are always the target's approvers in each coalition:
single_agent moves them one at a time, follow moves the source's, and the
pair kinds move both.  Single_agent and follow keep the destination's
proposal.  ``_legal_movers`` applies the rule; revalidation calls it, and
so does enumeration, on the witnesses of ``_pair_targets`` in a continuous
space and on the candidates that pass ``_legal`` on the coalitions'
approval profiles (``DeliberationSpace.profile``) in a finite one.

The moves of a pair are a pure function of (kind, source coalition,
destination coalition) on an immutable space, and a step changes only the
two coalitions it touches, so enumeration memoizes them on the space: the
(target, movers) of every legal move, which ``_pair_moves`` derives the
first time the pair is met, with the continuous first-witness dedupe
applied while the entry is filled.  Empty results are stored too; a
``SubsetCapError`` raised mid-fill stores nothing.

A ``Transition`` is a plain named tuple and its constructor normalises
nothing.  A move can come from outside the package in two ways, and each
is checked where it enters: ``scenario_io.read_trace`` rejects a malformed
trace step, and ``apply_transition`` revalidates every move against the
current structure, so an unknown kind or a source index that is not an
``int`` raises ``TransitionError``, and a stale transition (enumerated from
a different structure) raises ``StaleTransitionError`` instead of
corrupting the run.  A move found in its pair's memo entry is legal,
because the entry came from ``_legal_movers`` on equal coalitions; any
other move (forged, built by hand, or a continuous witness other than the
first) is judged by ``_legal_movers`` itself.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Sequence

from .coalition import CoalitionStructure, DeliberativeCoalition
from .space import DeliberationSpace, ProposalRef, SubsetCapError  # noqa: F401 (re-exported)

TRANSITION_KINDS = ("single_agent", "follow", "merge", "compromise", "subsume")

# Kinds whose every step raises the potential by at least 2, and kinds whose
# every step strictly lex-increases the signature.
POTENTIAL_KINDS = ("single_agent", "follow", "merge", "subsume")
SIGNATURE_KINDS = ("compromise", "subsume")


class TransitionError(ValueError):
    """Malformed transition request."""


class StaleTransitionError(RuntimeError):
    """A transition no longer matches the structure it is applied to."""


def check_kinds(kinds: Sequence[str], error: type[Exception] = TransitionError) -> None:
    """Raise ``error`` unless every entry of ``kinds`` is a transition kind, listed once."""
    for index, kind in enumerate(kinds):
        if kind not in TRANSITION_KINDS:
            raise error(f"unknown transition kind {kind!r}")
        if kind in kinds[:index]:
            raise error(f"transition kind {kind!r} appears twice")


class Transition(NamedTuple):
    """One move between coalition structures.

    ``sources`` are indices into the originating structure.  ``movers``
    aligns with ``sources``: the agents leaving each source coalition.  For
    single_agent and follow the second mover set is empty (the destination
    coalition only absorbs).  The fields are stored as given.
    """

    kind: str
    sources: tuple[int, ...]
    target_proposal: ProposalRef
    movers: tuple[frozenset[str], ...]

    @property
    def moving_agents(self) -> frozenset[str]:
        return frozenset().union(*self.movers)


def _legal(kind: str, a: int, b: int, s: int, t: int) -> bool:
    """Whether the table in the module docstring allows the move."""
    if kind == "single_agent":
        return a >= 1 and t >= s
    if kind == "follow":
        return a == s
    if kind == "merge":
        return a == s and b == t
    if kind == "compromise":
        return a + b > max(s, t)
    return b == t and a >= 1 and a + t > s


def _legal_movers(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
    target: ProposalRef,
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The mover sets of every legal ``kind`` move of ``src`` and ``dst`` to ``target``.

    Single_agent gives one move per approver in ``src``, in declaration
    order.  An illegal move gives an empty list.
    """
    if kind in ("single_agent", "follow") and target != dst.proposal:
        return []
    approvers = space.approvers(target)
    movers_i, movers_j = src.members & approvers, dst.members & approvers
    if not _legal(kind, len(movers_i), len(movers_j), src.size, dst.size):
        return []
    if kind == "single_agent":
        return [(frozenset({vid}), frozenset()) for vid in space.sort_agents(movers_i)]
    # A coalition that moves whole moves as its own member set, which memo entries then share.
    if len(movers_i) == src.size:
        movers_i = src.members
    if len(movers_j) == dst.size:
        movers_j = dst.members
    if kind == "follow":
        return [(movers_i, frozenset())]
    return [(movers_i, movers_j)]


def _pair_targets(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
) -> Iterator[ProposalRef]:
    """Target proposals to test ``_legal_movers`` on, in enumeration order.

    Continuous spaces only; finite targets come from the pair's approval
    profiles in ``_pair_moves``.  Single_agent and follow offer the
    destination's proposal.  The pair kinds offer the feasibility witness of
    each agent set that could back the move, skipping sets with none: for
    merge the union of the pair; through ``DeliberationSpace.feasible_sets``,
    for compromise the subsets of the union larger than both sources, and
    for subsume the donor subsets of ``src`` joined with all of ``dst``.
    """
    if kind in ("single_agent", "follow"):
        yield dst.proposal
    elif kind == "merge":
        witness = space.feasible_witness(src.members | dst.members)
        if witness is not None:
            yield witness
    elif kind == "compromise":
        for _, witness in space.feasible_sets(src.members | dst.members, max(src.size, dst.size) + 1):
            yield witness
    else:
        for _, witness in space.feasible_sets(src.members, max(1, src.size - dst.size + 1), dst.members):
            yield witness


Move = tuple[ProposalRef, tuple[frozenset[str], frozenset[str]]]


def _pair_moves(
    kind: str,
    src: DeliberativeCoalition,
    dst: DeliberativeCoalition,
    space: DeliberationSpace,
) -> tuple[Move, ...]:
    """The (target, movers) of every legal ``kind`` move of the pair, in enumeration order.

    A finite space asks ``_legal`` about the candidates, in declaration
    order, that the profiles' masks leave possible, and builds mover sets
    only for the moves that pass.  In a continuous space many witnesses give
    the same movers, and only the first witness for each distinct pair of
    mover sets is kept.
    """
    found: list[Move] = []
    if not space.is_continuous:
        counts_i, reach_i, full_i = space.profile(src.members)
        counts_j, reach_j, full_j = space.profile(dst.members)
        candidate_ids = space._candidate_ids
        if kind in ("single_agent", "follow"):
            bits = 1 << candidate_ids.index(dst.proposal)
        elif kind == "merge":
            bits = full_i & full_j
        elif kind == "compromise":
            bits = reach_i & reach_j
        else:
            bits = reach_i & full_j
        while bits:  # set bits, lowest first
            k = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if _legal(kind, counts_i[k], counts_j[k], src.size, dst.size):
                pid = candidate_ids[k]
                for movers in _legal_movers(kind, src, dst, space, pid):
                    found.append((pid, movers))
        return tuple(found)
    seen: set[tuple[frozenset[str], frozenset[str]]] = set()
    for target in _pair_targets(kind, src, dst, space):
        for movers in _legal_movers(kind, src, dst, space, target):
            if movers not in seen:
                seen.add(movers)
                found.append((target, movers))
    return tuple(found)


def candidates(
    structure: CoalitionStructure, space: DeliberationSpace, tiers: Sequence[Sequence[str]]
) -> tuple[int, list[tuple[str, tuple[int, int], tuple[Move, ...]]]]:
    """The moves of the highest tier that has any: their count and their pairs' memo entries.

    Entries are ``(kind, sources, moves)`` for the pairs with a move, in
    enumeration order: kinds in tier order, then pairs of the non-empty
    coalitions off the status quo, unordered for merge and compromise and
    ordered for the other kinds.  A pair's moves are derived by
    ``_pair_moves`` the first time it is met.
    """
    active = [i for i, c in enumerate(structure) if c.size > 0 and not c.supports_status_quo]
    memo = space._moves
    for tier in tiers:
        total, entries = 0, []
        for kind in tier:
            pairs = itertools.combinations if kind in ("merge", "compromise") else itertools.permutations
            for sources in pairs(active, 2):
                i, j = sources
                src, dst = structure[i], structure[j]
                key = (kind, src, dst)
                moves = memo.get(key)
                if moves is None:
                    moves = memo[key] = _pair_moves(kind, src, dst, space)
                if moves:
                    entries.append((kind, sources, moves))
                    total += len(moves)
        if total:
            return total, entries
    return 0, []


def enumerate_transitions(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Every available transition of one kind, in a deterministic order: ``candidates``, flattened."""
    check_kinds((kind,))
    _, entries = candidates(structure, space, ((kind,),))
    return [Transition(kind, sources, *move) for _, sources, moves in entries for move in moves]


def _stale(t: Transition, reason: str) -> StaleTransitionError:
    return StaleTransitionError(f"stale {t.kind} transition: {reason}")


def _revalidate(
    structure: CoalitionStructure, space: DeliberationSpace, t: Transition
) -> tuple[DeliberativeCoalition, DeliberativeCoalition]:
    """The source and destination coalitions of a legal move, or raise."""
    if t.kind not in TRANSITION_KINDS:
        raise TransitionError(f"unknown transition kind {t.kind!r}")
    if len(t.sources) != 2 or len(t.movers) != 2:
        raise _stale(t, "expected exactly two sources")
    i, j = t.sources
    if type(i) is not int or type(j) is not int:
        raise TransitionError(f"source indices must be integers, got {t.sources!r}")
    if not (0 <= i < len(structure) and 0 <= j < len(structure)) or i == j:
        raise _stale(t, "source indices out of range")
    src, dst = structure[i], structure[j]
    if src.supports_status_quo or dst.supports_status_quo:
        raise _stale(t, "status quo coalitions never participate")
    if src.size == 0 or dst.size == 0:
        raise _stale(t, "empty source coalition")
    if (t.target_proposal, t.movers) in space._moves.get((t.kind, src, dst), ()):
        return src, dst
    if t.movers not in _legal_movers(t.kind, src, dst, space, t.target_proposal):
        raise _stale(t, "movers are not the ones the rule gives for the target")
    return src, dst


def created_coalitions(
    kind: str, src: DeliberativeCoalition, dst: DeliberativeCoalition, target: ProposalRef, movers: tuple
) -> tuple[DeliberativeCoalition, ...]:
    """The coalitions a move leaves where ``src`` and ``dst`` were, empty ones included.

    Single_agent and follow give the new pair, merge the union, and
    compromise and subsume both leftovers and then the new coalition.
    """
    movers_i, movers_j = movers
    coalition = DeliberativeCoalition
    if kind == "merge":
        return (coalition(src.members | dst.members, target),)
    if kind in ("single_agent", "follow"):
        return coalition(src.members - movers_i, src.proposal), coalition(dst.members | movers_i, dst.proposal)
    return (
        coalition(src.members - movers_i, src.proposal),
        coalition(dst.members - movers_j, dst.proposal),
        coalition(movers_i | movers_j, target),
    )


def apply_transition(
    structure: CoalitionStructure, space: DeliberationSpace, t: Transition
) -> CoalitionStructure:
    """Apply a transition enumerated from this structure; drop empty coalitions.

    Untouched coalitions keep their order.  Single_agent and follow move
    their movers from the source into the destination in place, merges land
    at the first source index, compromises and subsumes append the new
    coalition at the end and keep leftovers in place.
    """
    src, dst = _revalidate(structure, space, t)
    i, j = t.sources
    created = created_coalitions(t.kind, src, dst, t.target_proposal, t.movers)
    new_list: list[Optional[DeliberativeCoalition]] = list(structure)
    if t.kind == "merge":
        new_list[min(i, j)], new_list[max(i, j)] = created[0], None
    else:
        new_list[i], new_list[j] = created[:2]
        new_list.extend(created[2:])
    return CoalitionStructure([c for c in new_list if c is not None and c.size > 0])
