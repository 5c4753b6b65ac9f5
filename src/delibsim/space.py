"""Deliberation spaces: agents, proposals and support queries over a metric.

Locations are validated once, on construction, and each agent's distance
to the status quo is stored then with ``distance``.  Queries work on those
validated values: a proposal is checked by ``proposal_location`` when it
first reaches the space, and deciding it costs one distance per agent.

A space is immutable after construction, so three memos live on it:

- the approval relation, per proposal (``approvers``), which every query
  reads as set algebra;
- per agent set, because the enumerators probe the same coalitions and
  subsets over and over: in finite spaces its approval profile, the
  approver count of each candidate with the masks of the candidates some
  or all of the set approve (``profile``); in continuous spaces its joint
  feasibility (``feasible_witness``), beside the sets whose hull reaches
  the status quo, which settle every set one agent larger without a solve;
- per (kind, source coalition, destination coalition), the legal moves of
  the pair (``_moves``), which ``transitions`` fills and reads: enumeration
  emits each pair's entry, and revalidation accepts a move found there and
  asks the legality rule about any other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .geometry import (
    APPROVAL_MARGIN,
    Coords,
    EuclideanMetric,
    FeasibilityResult,
    Metric,
    MetricError,
    _check_coords,
    _separated_proposal,
    best_common_proposal,
    distance,
)

STATUS_QUO_ID = "r"

ORACLE_CAP = 16

ProposalRef = Union[str, Coords]
PointRefLike = Union[str, Sequence]


class SpaceError(ValueError):
    """Invalid space definition or unsupported query."""

    def __init__(self, message: str, clause: str = "space"):
        super().__init__(message)
        self.clause = clause


class OracleCapError(RuntimeError):
    """The continuous support oracle was asked to search too many agents."""


def _approving(dist, agents, loc) -> frozenset[str]:
    """Ids of the agents strictly closer to ``loc`` than to the status quo.

    ``agents`` holds (id, location, distance to the status quo) triples and
    ``dist`` is the metric's distance on validated locations, so each pair
    compares the same two floats as ``geometry.approves``.
    """
    return frozenset([vid for vid, vloc, radius in agents if dist(vloc, loc) < radius])


@dataclass(frozen=True)
class SupportReport:
    """Maximum support over candidate proposals and the attaining witnesses.

    ``m_star == 0`` means every approval set is empty; then ``witnesses`` is
    empty as well.  Finite spaces list every attaining proposal id in
    declaration order; continuous spaces carry a single witness point.
    """

    m_star: int
    witnesses: tuple[ProposalRef, ...]


class DeliberationSpace:
    """Finite or continuous proposal space with named agents and a status quo.

    ``proposals`` is None for continuous spaces (every coordinate tuple of
    the right dimension is a candidate) or an ordered tuple of
    (id, location) pairs for the candidates other than the status quo.  The
    id ``"r"`` is reserved for the status quo and resolves to its location.
    """

    def __init__(
        self,
        metric: Metric,
        agents: Sequence[tuple[str, PointRefLike]] | Sequence,
        status_quo,
        proposals: Optional[Sequence] = None,
    ):
        self.metric = metric
        continuous = proposals is None
        if continuous and not isinstance(metric, EuclideanMetric):
            raise SpaceError(
                "continuous proposal spaces require a euclidean metric",
                clause="space.continuous_metric",
            )

        self.status_quo = self._check_location(status_quo, "status quo")

        self.agents = self._check_located(agents, "agent", "space.agent_ids")
        if not self.agents:
            raise SpaceError("need at least one agent", clause="space.agent_ids")
        self._agent_loc = dict(self.agents)
        self._agent_order = {vid: i for i, (vid, _) in enumerate(self.agents)}
        self._radii = tuple(
            (vid, loc, distance(loc, self.status_quo, metric)) for vid, loc in self.agents
        )
        self._dist = math.dist if isinstance(metric, EuclideanMetric) else metric.distance_between

        if continuous:
            self.proposals = None
        else:
            self.proposals = self._check_located(proposals, "proposal", "space.proposal_ids")
            self._proposal_loc = dict(self.proposals)
            self._candidate_ids = tuple(self._proposal_loc)

        self._approvers: dict[ProposalRef, frozenset[str]] = {}
        self._feasibility: dict[frozenset, Optional[Coords]] = {}
        # agent sets whose hull reaches the status quo
        self._hull_rejected: set[frozenset] = set()
        self._profiles: dict[frozenset, tuple[tuple[int, ...], int, int]] = {}
        # (kind, src, dst) -> (target, movers) of each legal move; filled by transitions
        self._moves: dict[tuple, tuple] = {}
        self._support: Optional[SupportReport] = None

    # -- construction helpers -------------------------------------------------

    def _check_located(self, entries: Iterable, what: str, clause: str) -> tuple:
        """Validated (id, location) pairs; ids are distinct non-empty strings other than "r"."""
        pairs: dict = {}
        for ident, loc in entries:
            if not isinstance(ident, str) or not ident:
                raise SpaceError(f"{what} id must be a non-empty string, got {ident!r}", clause=clause)
            if ident == STATUS_QUO_ID:
                raise SpaceError(f"{what} id {ident!r} is reserved for the status quo", clause=clause)
            if ident in pairs:
                raise SpaceError(f"duplicate {what} id {ident!r}", clause=clause)
            pairs[ident] = self._check_location(loc, f"{what} {ident!r}")
        return tuple(pairs.items())

    def _coords(self, coords, what: str) -> Coords:
        """``geometry._check_coords`` for this space, failing with a ``SpaceError``."""
        try:
            return _check_coords(coords, self.metric.dimension)
        except MetricError as exc:
            raise SpaceError(f"{what}: {exc}", clause=exc.clause) from None

    def _check_location(self, loc, what: str):
        if isinstance(self.metric, EuclideanMetric):
            if isinstance(loc, str):
                raise SpaceError(f"{what}: euclidean spaces use coordinates, not ids", clause="space.coords")
            return self._coords(loc, what)
        if not isinstance(loc, str):
            raise SpaceError(f"{what}: explicit metrics use point ids, not coordinates", clause="space.coords")
        if loc not in self.metric._index:
            raise SpaceError(f"{what}: unknown metric point id {loc!r}", clause="space.unknown_id")
        return loc

    # -- basic accessors ------------------------------------------------------

    @property
    def is_continuous(self) -> bool:
        return self.proposals is None

    @property
    def dimension(self) -> Optional[int]:
        return self.metric.dimension if isinstance(self.metric, EuclideanMetric) else None

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(vid for vid, _ in self.agents)

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        if self.is_continuous:
            raise SpaceError("continuous space has no finite candidate list", clause="space.continuous")
        return self._candidate_ids

    def agent_location(self, vid: str):
        try:
            return self._agent_loc[vid]
        except KeyError:
            raise SpaceError(f"unknown agent id {vid!r}", clause="space.unknown_id") from None

    def proposal_location(self, ref: ProposalRef):
        """Resolve a proposal reference (id or coordinates) to a location."""
        if isinstance(ref, str):
            if ref == STATUS_QUO_ID:
                return self.status_quo
            if self.is_continuous:
                raise SpaceError(
                    f"continuous space has no proposal id {ref!r}", clause="structure.unknown_proposal"
                )
            try:
                return self._proposal_loc[ref]
            except KeyError:
                raise SpaceError(
                    f"unknown proposal id {ref!r}", clause="structure.unknown_proposal"
                ) from None
        if not self.is_continuous:
            raise SpaceError(
                "finite spaces reference proposals by id", clause="structure.unknown_proposal"
            )
        return self._coords(ref, "proposal")

    def sort_agents(self, ids: Iterable[str]) -> list[str]:
        """Agents sorted by their declaration order in this space."""
        return sorted(ids, key=lambda v: self._agent_order[v])

    # -- approval queries ------------------------------------------------------

    def agent_distance(self, vid: str, ref: ProposalRef) -> float:
        return distance(self.agent_location(vid), self.proposal_location(ref), self.metric)

    def approvers(self, ref: ProposalRef) -> frozenset[str]:
        """Agents that strictly approve the proposal, memoized by id or coordinates.

        A reference met before is looked up as given; a new one is resolved
        and validated by ``proposal_location`` first.
        """
        try:
            return self._approvers[ref]
        except (KeyError, TypeError):  # new, or coordinates in a list
            pass
        location = self.proposal_location(ref)
        key = ref if isinstance(ref, str) and not self.is_continuous else location
        found = self._approvers.get(key)
        if found is None:
            found = self._approvers[key] = _approving(self._dist, self._radii, location)
        return found

    def approves(self, vid: str, ref: ProposalRef) -> bool:
        """Strict approval of a proposal reference by a named agent."""
        self.agent_location(vid)
        return vid in self.approvers(ref)

    def approval_set(self, vid: str) -> set[str]:
        """Candidate ids the agent strictly approves.  Finite spaces only."""
        return {pid for pid in self.candidate_ids if self.approves(vid, pid)}

    def profile(self, members: Iterable[str]) -> tuple[tuple[int, ...], int, int]:
        """(counts, reach, full) of an agent set over ``candidate_ids``, memoized per set.

        ``counts[k]`` is how many of the agents approve the k-th candidate;
        bit k of ``reach`` is set when that count is positive, and of ``full``
        when it is the size of the set.  Finite spaces only.
        """
        key = frozenset(members)
        found = self._profiles.get(key)
        if found is None:
            counts = tuple(len(key & self.approvers(pid)) for pid in self.candidate_ids)
            reach = sum((count > 0) << k for k, count in enumerate(counts))
            full = sum((count == len(key)) << k for k, count in enumerate(counts))
            found = self._profiles[key] = (counts, reach, full)
        return found

    def supporters(self, ids: Iterable[str], ref: ProposalRef) -> frozenset[str]:
        """Subset of the given agents that strictly approve the proposal."""
        ids = frozenset(ids)
        for vid in ids:
            self.agent_location(vid)
        return self.approvers(ref) & ids

    # -- joint feasibility (continuous synthesis) ------------------------------

    def common_report(self, ids: Iterable[str]) -> FeasibilityResult:
        """Best common proposal for the given agents (euclidean spaces)."""
        if not isinstance(self.metric, EuclideanMetric):
            raise SpaceError(
                "joint-proposal synthesis needs a euclidean metric", clause="space.continuous_metric"
            )
        ordered = self.sort_agents(set(ids))
        return best_common_proposal([self.agent_location(v) for v in ordered], self.status_quo)

    def feasible_witness(self, ids: Iterable[str]) -> Optional[Coords]:
        """Point every given agent strictly approves, or None.  Memoized per set.

        Each approval ball {p : |p - v| < |v - r|} has the status quo r on its
        boundary, so by Gordan's theorem the agents share an approved point
        exactly when r lies outside the convex hull of their locations.  The
        set is feasible when the hull misses r by more than
        ``APPROVAL_MARGIN`` (the ``separated_proposal`` test) and every member
        strictly approves the nearest hull point q, which is the witness: for
        each member v, |v - r|^2 - |v - q|^2 >= h^2 with h = |q - r|.
        ``APPROVAL_MARGIN`` bounds the hull distance h, not this approval
        slack: the seven agents of ``continuous_run`` seed 103, scenario
        1156 have h = 4.1e-5, and the worst member is closer to q than to r
        by only 1.2e-10 in distance.

        A set whose hull reaches r is remembered, and so is every superset
        found by removing one agent from a remembered set: its hull contains
        that one and reaches r too, so it is rejected without a solve.  A set
        rejected only because a member does not strictly approve q is not
        remembered, since that can be round-off at a near-tangent q.
        """
        key = frozenset(ids)
        if not key:
            return None
        try:
            return self._feasibility[key]
        except KeyError:
            pass
        rejected = self._hull_rejected
        if any(key.difference((v,)) in rejected for v in key):
            witness = None
        else:
            loc = self._agent_loc
            witness = _separated_proposal([loc[v] for v in self.sort_agents(key)], self.status_quo)
        if witness is None:
            rejected.add(key)
        elif not key <= self.approvers(witness):
            witness = None
        self._feasibility[key] = witness
        return witness

    # -- maximum support -------------------------------------------------------

    def max_support(self) -> SupportReport:
        """Maximum number of agents any single non-status-quo proposal attracts.

        Finite spaces count supporters of every candidate exactly.
        Continuous spaces search agent subsets in descending cardinality with
        the hull test of ``feasible_witness`` and stop at the first feasible
        subset; agents sitting on the status quo approve nothing and are
        skipped.  The continuous search refuses spaces of more than
        ``ORACLE_CAP`` agents.  Memoized.
        """
        if self._support is None:
            self._support = self._compute_max_support()
        return self._support

    def _compute_max_support(self) -> SupportReport:
        if not self.is_continuous:
            counts = {pid: len(self.approvers(pid)) for pid in self.candidate_ids}
            best = max(counts.values(), default=0)
            if best == 0:
                return SupportReport(0, ())
            return SupportReport(best, tuple(pid for pid, count in counts.items() if count == best))

        if len(self.agents) > ORACLE_CAP:
            raise OracleCapError(
                f"continuous support oracle capped at {ORACLE_CAP} agents, space has {len(self.agents)}"
            )
        eligible = [vid for vid, _, radius in self._radii if radius > APPROVAL_MARGIN]
        for size in range(len(eligible), 0, -1):
            for subset in itertools.combinations(eligible, size):
                witness = self.feasible_witness(subset)
                if witness is not None:
                    return SupportReport(size, (witness,))
        return SupportReport(0, ())
