"""Deliberation spaces: agents, proposals and support queries over a metric.

A space is immutable after construction.  The approval relation is memoized
per proposal (``approvers``), and every query reads it as set algebra;
feasibility is memoized per agent subset, because the subset oracle, the
merge synthesis and the compromise search all probe the same sets.
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
    approves,
    best_common_proposal,
    distance,
    separated_proposal,
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

        agent_pairs = []
        seen_agents = set()
        for entry in agents:
            vid, loc = entry
            if not isinstance(vid, str) or not vid:
                raise SpaceError(f"agent id must be a non-empty string, got {vid!r}", clause="space.agent_ids")
            if vid == STATUS_QUO_ID:
                raise SpaceError(f"agent id {STATUS_QUO_ID!r} is reserved", clause="space.agent_ids")
            if vid in seen_agents:
                raise SpaceError(f"duplicate agent id {vid!r}", clause="space.agent_ids")
            seen_agents.add(vid)
            agent_pairs.append((vid, self._check_location(loc, f"agent {vid!r}")))
        if not agent_pairs:
            raise SpaceError("need at least one agent", clause="space.agent_ids")
        self.agents = tuple(agent_pairs)
        self._agent_loc = dict(self.agents)
        self._agent_order = {vid: i for i, (vid, _) in enumerate(self.agents)}

        if continuous:
            self.proposals = None
        else:
            candidate_pairs = []
            seen_props = set()
            for entry in proposals:
                pid, loc = entry
                if not isinstance(pid, str) or not pid:
                    raise SpaceError(
                        f"proposal id must be a non-empty string, got {pid!r}", clause="space.proposal_ids"
                    )
                if pid == STATUS_QUO_ID:
                    raise SpaceError(
                        f"proposal id {STATUS_QUO_ID!r} is reserved for the status quo",
                        clause="space.proposal_ids",
                    )
                if pid in seen_props:
                    raise SpaceError(f"duplicate proposal id {pid!r}", clause="space.proposal_ids")
                seen_props.add(pid)
                candidate_pairs.append((pid, self._check_location(loc, f"proposal {pid!r}")))
            self.proposals = tuple(candidate_pairs)
            self._proposal_loc = dict(self.proposals)
            self._candidate_ids = tuple(self._proposal_loc)

        self._approvers: dict[ProposalRef, frozenset[str]] = {}
        self._feasibility: dict[frozenset, Optional[Coords]] = {}
        self._support: Optional[SupportReport] = None

    # -- construction helpers -------------------------------------------------

    def _check_location(self, loc, what: str):
        if isinstance(self.metric, EuclideanMetric):
            if isinstance(loc, str):
                raise SpaceError(f"{what}: euclidean spaces use coordinates, not ids", clause="space.coords")
            coords = tuple(float(c) for c in loc)
            if len(coords) != self.metric.dimension:
                raise SpaceError(
                    f"{what}: expected {self.metric.dimension} coordinates, got {len(coords)}",
                    clause="space.dimension",
                )
            if not all(math.isfinite(c) for c in coords):
                raise SpaceError(f"{what}: non-finite coordinate", clause="space.coords")
            return coords
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
        coords = tuple(float(c) for c in ref)
        if len(coords) != self.metric.dimension:
            raise SpaceError(
                f"proposal has {len(coords)} coordinates, expected {self.metric.dimension}",
                clause="space.dimension",
            )
        return coords

    def sort_agents(self, ids: Iterable[str]) -> list[str]:
        """Agents sorted by their declaration order in this space."""
        return sorted(ids, key=lambda v: self._agent_order[v])

    # -- approval queries ------------------------------------------------------

    def agent_distance(self, vid: str, ref: ProposalRef) -> float:
        return distance(self.agent_location(vid), self.proposal_location(ref), self.metric)

    def approvers(self, ref: ProposalRef) -> frozenset[str]:
        """Agents that strictly approve the proposal, memoized by id or coordinates."""
        key = ref if isinstance(ref, str) and not self.is_continuous else self.proposal_location(ref)
        if key not in self._approvers:
            loc = self.proposal_location(key)
            self._approvers[key] = frozenset(
                vid for vid, vloc in self.agents if approves(vloc, loc, self.status_quo, self.metric)
            )
        return self._approvers[key]

    def approves(self, vid: str, ref: ProposalRef) -> bool:
        """Strict approval of a proposal reference by a named agent."""
        self.agent_location(vid)
        return vid in self.approvers(ref)

    def approval_set(self, vid: str) -> set[str]:
        """Candidate ids the agent strictly approves.  Finite spaces only."""
        return {pid for pid in self.candidate_ids if self.approves(vid, pid)}

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
        each member v, |v - q|^2 <= |v - r|^2 - |q - r|^2.
        """
        key = frozenset(ids)
        if not key:
            return None
        if key in self._feasibility:
            return self._feasibility[key]
        ordered = self.sort_agents(key)
        witness = separated_proposal([self.agent_location(v) for v in ordered], self.status_quo)
        if witness is not None and not key <= self.approvers(witness):
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
        eligible = [
            vid
            for vid, loc in self.agents
            if distance(loc, self.status_quo, self.metric) > APPROVAL_MARGIN
        ]
        for size in range(len(eligible), 0, -1):
            for subset in itertools.combinations(eligible, size):
                witness = self.feasible_witness(subset)
                if witness is not None:
                    return SupportReport(size, (witness,))
        return SupportReport(0, ())
