"""Brute-force oracles: naive recounts and exhaustive state-graph exploration.

The ``naive_*`` functions re-derive results from raw definitions, ignoring
the optimized paths in ``space`` and ``transitions``, so the two routes can
be compared in tests; ``explore`` walks the graph those paths give
(``candidates``) and applies only the edges that reach a new state.
Finite spaces only.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .coalition import (
    CoalitionStructure,
    DeliberativeCoalition,
    Signature,
    canonical_key,
    canonicalize,
    is_successful,
    lex_less,
    potential,
    signature,
)
from .geometry import InputError, approves
from .space import DeliberationSpace, ProposalRef, SupportReport
from .transitions import (
    POTENTIAL_KINDS,
    SIGNATURE_KINDS,
    Transition,
    apply_transition,
    candidates,
    check_kinds,
    created_coalitions,
    enumerate_transitions,  # noqa: F401 (re-exported for bench/tracer.py)
)

DEFAULT_STATE_CAP = 200_000

# A structure's state id in ``explore``: the set of its non-empty coalitions.
_StateId = frozenset[DeliberativeCoalition]


class OracleError(InputError):
    """Oracle asked for something outside its scope."""

    clause = "oracle"


def _approvers(space: DeliberationSpace, ref: ProposalRef) -> frozenset[str]:
    """Agents that strictly approve the proposal, from locations, not the space's memo."""
    loc = space.proposal_location(ref)
    return frozenset(
        vid for vid, vloc in space.agents if approves(vloc, loc, space.status_quo, space.metric)
    )


def naive_max_support(space: DeliberationSpace) -> SupportReport:
    """Double loop over candidates and agents; finite spaces only."""
    if space.is_continuous:
        raise OracleError("naive max-support needs a finite proposal list", clause="oracle.finite")
    best = 0
    witnesses: list[str] = []
    for pid, _ in space.proposals:
        count = len(_approvers(space, pid))
        if count > best:
            best = count
            witnesses = [pid]
        elif count == best and count > 0:
            witnesses.append(pid)
    if best == 0:
        return SupportReport(0, ())
    return SupportReport(best, tuple(witnesses))


def _subsets(members: Sequence[str]):
    for size in range(len(members) + 1):
        yield from itertools.combinations(members, size)


def naive_transitions(
    structure: CoalitionStructure, space: DeliberationSpace, kind: str
) -> list[Transition]:
    """Try every (pair, proposal, mover subset) combination against the rules.

    Exponential and proud of it; meant for cross-checking the structured
    enumerators on small finite scenarios.
    """
    if space.is_continuous:
        raise OracleError("naive enumeration needs a finite proposal list", clause="oracle.finite")
    check_kinds((kind,), OracleError)
    out: list[Transition] = []
    indices = range(len(structure))

    def eligible(idx: int) -> bool:
        c = structure[idx]
        return c.size > 0 and not c.supports_status_quo

    if kind == "single_agent":
        for i in indices:
            for j in indices:
                if i == j or not eligible(i) or not eligible(j):
                    continue
                if structure[j].size < structure[i].size:
                    continue
                approvers = _approvers(space, structure[j].proposal)
                for vid in space.sort_agents(structure[i].members):
                    if vid in approvers:
                        out.append(
                            Transition(
                                "single_agent",
                                (i, j),
                                structure[j].proposal,
                                (frozenset({vid}), frozenset()),
                            )
                        )
        return out

    if kind == "follow":
        for i in indices:
            for j in indices:
                if i == j or not eligible(i) or not eligible(j):
                    continue
                if structure[i].members <= _approvers(space, structure[j].proposal):
                    out.append(
                        Transition(
                            "follow", (i, j), structure[j].proposal,
                            (structure[i].members, frozenset()),
                        )
                    )
        return out

    if kind == "merge":
        for i in indices:
            for j in indices:
                if not (i < j) or not eligible(i) or not eligible(j):
                    continue
                for pid in space.candidate_ids:
                    if structure[i].members | structure[j].members <= _approvers(space, pid):
                        out.append(
                            Transition(
                                "merge", (i, j), pid,
                                (structure[i].members, structure[j].members),
                            )
                        )
        return out

    if kind == "compromise":
        for i in indices:
            for j in indices:
                if not (i < j) or not eligible(i) or not eligible(j):
                    continue
                members_i = space.sort_agents(structure[i].members)
                members_j = space.sort_agents(structure[j].members)
                for pid in space.candidate_ids:
                    approvers = _approvers(space, pid)
                    for sub_i in _subsets(members_i):
                        for sub_j in _subsets(members_j):
                            set_i, set_j = frozenset(sub_i), frozenset(sub_j)
                            if set_i != structure[i].members & approvers:
                                continue
                            if set_j != structure[j].members & approvers:
                                continue
                            if len(set_i | set_j) <= max(structure[i].size, structure[j].size):
                                continue
                            out.append(Transition("compromise", (i, j), pid, (set_i, set_j)))
        return out

    # subsume
    for i in indices:
        for j in indices:
            if i == j or not eligible(i) or not eligible(j):
                continue
            members_i = space.sort_agents(structure[i].members)
            for pid in space.candidate_ids:
                approvers = _approvers(space, pid)
                if not structure[j].members <= approvers:
                    continue
                for sub_i in _subsets(members_i):
                    set_i = frozenset(sub_i)
                    if not set_i:
                        continue
                    if set_i != structure[i].members & approvers:
                        continue
                    if len(set_i) + structure[j].size <= structure[i].size:
                        continue
                    out.append(Transition("subsume", (i, j), pid, (set_i, structure[j].members)))
    return out


@dataclass(frozen=True)
class ExploreReport:
    """Exhaustive reachability report over canonicalized structures.

    The search deduplicates states as sets of coalitions; ``structures``
    maps the ``canonical_key`` string of every visited state, built once per
    state, to its canonical structure, in the order the search reached them.
    ``terminal_keys`` lists the keys of states with no allowed transition,
    in the order they were expanded, with ``terminal_successful`` aligned.
    The witness path is a shortest transition sequence from the initial
    structure to some unsuccessful terminal, or None when every terminal is
    successful.  ``potential_monotone`` covers single_agent/follow/merge/
    subsume edges, ``signature_monotone`` covers compromise/subsume edges;
    both true means the explored graph is acyclic under the corresponding
    orders.
    """

    states_visited: int
    edges: int
    truncated: bool
    terminal_keys: tuple[str, ...]
    terminal_successful: tuple[bool, ...]
    unsuccessful_witness: Optional[tuple[Transition, ...]]
    potential_monotone: bool
    signature_monotone: bool
    structures: dict

    @property
    def terminal_count(self) -> int:
        return len(self.terminal_keys)

    @property
    def all_terminals_successful(self) -> bool:
        return all(self.terminal_successful)


def explore(
    space: DeliberationSpace,
    initial: CoalitionStructure,
    kinds: Sequence[str],
    state_cap: int = DEFAULT_STATE_CAP,
) -> ExploreReport:
    """Breadth-first search of every structure reachable under the kinds.

    A structure partitions the agents, so the set of its non-empty
    coalitions identifies its canonical form, and the search deduplicates
    states on that set.  An edge's successor id is the state id less the
    pair plus the move's non-empty ``created_coalitions``.  Only an edge to
    a new id builds and applies its ``Transition`` (so every reached state
    is revalidated) and measures the successor, once, also when the cap
    drops it.  The report's ``canonical_key`` strings are built once per
    visited state, after the search.  The kinds form one tier, each listed
    once.  The cap bounds visited states and a capped search reports
    ``truncated`` with the partial graph retained.
    """
    if space.is_continuous:
        raise OracleError("exploration needs a finite proposal list", clause="oracle.finite")
    if type(state_cap) is not int or state_cap < 1:
        raise OracleError(
            f"state cap must be an integer of at least 1, got {state_cap!r}", clause="oracle.state_cap"
        )
    check_kinds(kinds, OracleError)

    start = canonicalize(initial)
    start_id: _StateId = frozenset(start)
    # Keyed by state id, in the order the search reached the states.
    structures: dict[_StateId, CoalitionStructure] = {start_id: start}
    measures: dict[_StateId, tuple[int, Signature]] = {start_id: (potential(start), signature(start))}
    parents: dict[_StateId, tuple[Optional[_StateId], Optional[Transition]]] = {
        start_id: (None, None)
    }
    queue: deque[_StateId] = deque([start_id])
    terminals: list[tuple[_StateId, bool]] = []
    first_unsuccessful: Optional[_StateId] = None
    truncated = False
    edges = 0
    potential_monotone = True
    signature_monotone = True

    while queue:
        state_id = queue.popleft()
        state = structures[state_id]
        total, entries = candidates(state, space, (kinds,))
        if not total:
            ok = is_successful(state, space)
            terminals.append((state_id, ok))
            if not ok and first_unsuccessful is None:
                first_unsuccessful = state_id
            continue
        state_potential, state_signature = measures[state_id]
        for kind, sources, moves in entries:
            src, dst = state[sources[0]], state[sources[1]]
            rest = state_id - {src, dst}
            for target, movers in moves:
                edges += 1
                # apply_transition keeps the other coalitions and drops empty ones
                successor_id = rest.union(c for c in created_coalitions(kind, src, dst, target, movers) if c.size)
                measured = measures.get(successor_id)
                if measured is None:
                    move = Transition(kind, sources, target, movers)
                    successor = apply_transition(state, space, move)
                    measured = measures[successor_id] = (potential(successor), signature(successor))
                    if len(structures) >= state_cap:
                        truncated = True
                    else:
                        structures[successor_id] = canonicalize(successor)
                        parents[successor_id] = (state_id, move)
                        queue.append(successor_id)
                successor_potential, successor_signature = measured
                if kind in POTENTIAL_KINDS and successor_potential <= state_potential:
                    potential_monotone = False
                if kind in SIGNATURE_KINDS and not lex_less(state_signature, successor_signature):
                    signature_monotone = False

    witness: Optional[tuple[Transition, ...]] = None
    if first_unsuccessful is not None:
        path: list[Transition] = []
        cursor = first_unsuccessful
        while True:
            parent, move = parents[cursor]
            if parent is None:
                break
            path.append(move)
            cursor = parent
        witness = tuple(reversed(path))

    keys = {state_id: canonical_key(state) for state_id, state in structures.items()}
    return ExploreReport(
        states_visited=len(structures),
        edges=edges,
        truncated=truncated,
        terminal_keys=tuple(keys[state_id] for state_id, _ in terminals),
        terminal_successful=tuple(ok for _, ok in terminals),
        unsuccessful_witness=witness,
        potential_monotone=potential_monotone,
        signature_monotone=signature_monotone,
        structures={keys[state_id]: state for state_id, state in structures.items()},
    )
