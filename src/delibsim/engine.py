"""Deliberation runner: policies, seeded selection, scenario generation, batches.

A policy is an ordered list of kind tiers.  Each step counts the moves of
the highest tier that offers any (``transitions.candidates``) and draws an
index into that count, either 0 (the first enumerated) or a uniform draw
from the in-package SplitMix64 generator (so traces reproduce bit for bit
from a 64-bit seed, in any implementation of the same algorithm); only the
drawn move is built as a ``Transition``.  Runs are maximal: they stop only when no allowed transition
exists or the step cap trips, and the two outcomes are reported distinctly.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

from .coalition import (
    CoalitionStructure,
    DeliberativeCoalition,
    Signature,
    is_successful,
    lex_less,
    potential,
    signature,
)
from .geometry import MAX_COORDINATE, MAX_DIMENSION, EuclideanMetric, InputError
from .space import STATUS_QUO_ID, DeliberationSpace
from .transitions import (
    POTENTIAL_KINDS,
    SIGNATURE_KINDS,
    Transition,
    apply_transition,
    candidates,
    check_kinds,
    enumerate_transitions,  # noqa: F401 (re-exported for bench/tracer.py)
)

SELECTORS = ("uniform_random", "first_enumerated")

CLASSIFICATION_SUCCESSFUL = "successful"
CLASSIFICATION_UNSUCCESSFUL = "unsuccessful"
CLASSIFICATION_STEP_CAP = "step_cap_reached"
CLASSIFICATIONS = (CLASSIFICATION_SUCCESSFUL, CLASSIFICATION_UNSUCCESSFUL, CLASSIFICATION_STEP_CAP)

_MASK64 = (1 << 64) - 1


class PolicyError(InputError):
    """Malformed policy, step cap or scenario generator config."""

    clause = "policy"


class EngineInvariantError(RuntimeError):
    """A step broke a monotonicity guarantee; indicates an engine bug."""


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output is the mixed state.

    The mix is the standard xor-shift-multiply finalizer
    (z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31).  Bounded draws use rejection
    sampling, so every implementation of this algorithm yields identical
    streams for identical 64-bit seeds.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.randbelow(hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        frac = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * frac

    def choice(self, seq: Sequence):
        return seq[self.randbelow(len(seq))]


@dataclass(frozen=True)
class Policy:
    """Allowed transition kinds in priority tiers, plus selection behavior.

    ``tiers`` lists kind groups from highest to lowest priority; the runner
    only ever draws from the highest tier that is currently non-empty.  The
    textual form joins kinds in a tier with commas and tiers with ``>``,
    e.g. ``"subsume>compromise"`` or ``"follow,single_agent"``.
    """

    tiers: tuple[tuple[str, ...], ...]
    selector: str = "uniform_random"
    seed: int = 0

    def __post_init__(self):
        tiers = tuple(tuple(kinds) for kinds in self.tiers)
        if not tiers or any(not tier for tier in tiers):
            raise PolicyError("policy needs at least one non-empty tier")
        check_kinds([kind for tier in tiers for kind in tier], PolicyError)
        if self.selector not in SELECTORS:
            raise PolicyError(f"unknown selector {self.selector!r}", clause="policy.selector")
        if type(self.seed) is not int or self.seed < 0 or self.seed > _MASK64:
            raise PolicyError("seed must fit in an unsigned 64-bit integer", clause="policy.seed")
        object.__setattr__(self, "tiers", tiers)

    @classmethod
    def parse(cls, text: str, selector: str = "uniform_random", seed: int = 0) -> "Policy":
        tiers = []
        for tier_text in text.split(">"):
            kinds = tuple(k.strip() for k in tier_text.split(",") if k.strip())
            if not kinds:
                raise PolicyError(f"empty tier in policy {text!r}")
            tiers.append(kinds)
        return cls(tuple(tiers), selector=selector, seed=seed)

    def render(self) -> str:
        return ">".join(",".join(tier) for tier in self.tiers)


@dataclass(frozen=True)
class TraceStep:
    """One applied transition with the measures of the resulting structure."""

    index: int
    transition: Transition
    potential: int
    signature: Signature


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one maximal run."""

    scenario: str
    policy: Policy
    step_cap: int
    initial: CoalitionStructure
    steps: tuple[TraceStep, ...]
    terminal: CoalitionStructure
    classification: str


def default_step_cap(space: DeliberationSpace) -> int:
    return 10 * len(space.agents) ** 2


def default_initial_structure(space: DeliberationSpace) -> CoalitionStructure:
    """Singletons at each agent's nearest approved proposal.

    Finite spaces break distance ties by candidate declaration order; agents
    approving nothing share one status quo coalition.  Continuous spaces put
    each agent behind its own location, except agents sitting exactly at the
    status quo.
    """
    coalitions: list[DeliberativeCoalition] = []
    at_quo: list[str] = []
    for vid, loc in space.agents:
        if space.is_continuous:
            if loc == space.status_quo:
                at_quo.append(vid)
            else:
                coalitions.append(DeliberativeCoalition(frozenset({vid}), loc))
            continue
        approved = [
            (space.agent_distance(vid, pid), order, pid)
            for order, pid in enumerate(space.candidate_ids)
            if space.approves(vid, pid)
        ]
        if approved:
            approved.sort()
            coalitions.append(DeliberativeCoalition(frozenset({vid}), approved[0][2]))
        else:
            at_quo.append(vid)
    if at_quo:
        coalitions.append(DeliberativeCoalition(frozenset(at_quo), STATUS_QUO_ID))
    return CoalitionStructure(coalitions)


def _check_step_invariants(
    t: Transition, before: tuple[int, Signature], after: tuple[int, Signature]
) -> None:
    """Check a step's guarantee on the (potential, signature) around it."""
    (potential_before, signature_before), (potential_after, signature_after) = before, after
    if t.kind in POTENTIAL_KINDS:
        gain = potential_after - potential_before
        if gain < 2:
            raise EngineInvariantError(
                f"{t.kind} step raised the potential by {gain}, expected at least 2"
            )
    if t.kind in SIGNATURE_KINDS:
        if not lex_less(signature_before, signature_after):
            raise EngineInvariantError(
                f"{t.kind} step did not lex-increase the signature: "
                f"{signature_before} -> {signature_after}"
            )


def run(
    space: DeliberationSpace,
    initial: CoalitionStructure,
    policy: Policy,
    step_cap: Optional[int] = None,
    scenario_ref: str = "inline",
) -> RunTrace:
    """Run a maximal deliberation under the policy from the initial structure.

    Each step draws an index into the count of ``candidates`` and builds
    only that move's ``Transition``, which ``apply_transition`` revalidates.
    Every step is checked against the monotonicity guarantees of its kind
    (potential gain of at least 2 for single_agent/follow/merge/subsume,
    strict signature increase for compromise/subsume); a violation aborts
    with ``EngineInvariantError`` since it can only come from an engine bug.
    """
    cap = default_step_cap(space) if step_cap is None else step_cap
    if type(cap) is not int or cap < 0:
        raise PolicyError(f"step cap must be a non-negative integer, got {cap!r}", clause="policy.step_cap")
    rng = SplitMix64(policy.seed)
    current = initial
    measured = (potential(current), signature(current))
    steps: list[TraceStep] = []
    classification: str

    while True:
        total, entries = candidates(current, space, policy.tiers)
        if not total:
            classification = (
                CLASSIFICATION_SUCCESSFUL
                if is_successful(current, space)
                else CLASSIFICATION_UNSUCCESSFUL
            )
            break
        if len(steps) >= cap:
            classification = CLASSIFICATION_STEP_CAP
            break
        index = 0 if policy.selector == "first_enumerated" else rng.randbelow(total)
        for kind, sources, moves in entries:
            if index < len(moves):
                break
            index -= len(moves)
        chosen = Transition(kind, sources, *moves[index])
        after = apply_transition(current, space, chosen)
        after_measured = (potential(after), signature(after))
        _check_step_invariants(chosen, measured, after_measured)
        steps.append(TraceStep(len(steps), chosen, *after_measured))
        current, measured = after, after_measured

    return RunTrace(
        scenario=scenario_ref,
        policy=policy,
        step_cap=cap,
        initial=initial,
        steps=tuple(steps),
        terminal=current,
        classification=classification,
    )


# -- scenario generation -------------------------------------------------------

_CANDIDATE_LETTERS = [c for c in string.ascii_lowercase if c != STATUS_QUO_ID]


def _field_error(name: str, rule: str, value) -> PolicyError:
    return PolicyError(f"generator field {name!r} must be {rule}, got {value!r}", clause="generator")


@dataclass(frozen=True)
class GeneratorConfig:
    """Random scenario family: agent counts, dimensions, proposal counts.

    ``mode`` is "finite" (a sampled candidate list) or "continuous".  The
    status quo sits at the origin; all coordinates are drawn uniformly from
    [-coordinate_range, coordinate_range] and rounded to four decimals.  In
    continuous mode ``coordinate_range`` is at most ``MAX_COORDINATE``.
    """

    mode: str = "finite"
    min_agents: int = 2
    max_agents: int = 8
    max_proposals: int = 6
    dimensions: tuple[int, ...] = (1, 2, 3)
    coordinate_range: float = 5.0

    def __post_init__(self):
        if self.mode not in ("finite", "continuous"):
            raise _field_error("mode", "'finite' or 'continuous'", self.mode)
        for name in ("min_agents", "max_agents", "max_proposals"):
            if type(getattr(self, name)) is not int:
                raise _field_error(name, "an integer", getattr(self, name))
        if not (1 <= self.min_agents <= self.max_agents):
            raise PolicyError("agent bounds must satisfy 1 <= min <= max", clause="generator")
        if self.mode == "finite" and not 1 <= self.max_proposals <= len(_CANDIDATE_LETTERS):
            raise _field_error("max_proposals", f"in 1..{len(_CANDIDATE_LETTERS)}", self.max_proposals)
        dims = self.dimensions
        if (
            not isinstance(dims, (list, tuple))
            or not dims
            or any(type(d) is not int or not 1 <= d <= MAX_DIMENSION for d in dims)
        ):
            raise _field_error("dimensions", f"a non-empty list of integers in 1..{MAX_DIMENSION}", dims)
        span = self.coordinate_range
        # the width 2 * span drawn from must be finite; the hull solver bounds continuous spans
        top = MAX_COORDINATE if self.mode == "continuous" else math.nextafter(math.inf, 0) / 2
        if type(span) not in (int, float) or not 0 <= span <= top:
            raise _field_error("coordinate_range", f"a number in 0..{top:g} in {self.mode} mode", span)
        object.__setattr__(self, "dimensions", tuple(dims))

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise PolicyError(f"unknown generator field {key!r}", clause="generator")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "min_agents": self.min_agents,
            "max_agents": self.max_agents,
            "max_proposals": self.max_proposals,
            "dimensions": list(self.dimensions),
            "coordinate_range": self.coordinate_range,
        }


def generate_scenario(
    config: GeneratorConfig, seed: int
) -> tuple[DeliberationSpace, CoalitionStructure]:
    """Deterministically sample a scenario for (config, seed)."""
    rng = SplitMix64(seed)
    n = rng.randint(config.min_agents, config.max_agents)
    dim = rng.choice(config.dimensions)
    half = float(config.coordinate_range)

    def draw_point() -> tuple[float, ...]:
        return tuple(round(rng.uniform(-half, half), 4) for _ in range(dim))

    agents = [(f"v{i + 1}", draw_point()) for i in range(n)]
    status_quo = tuple(0.0 for _ in range(dim))
    if config.mode == "continuous":
        space = DeliberationSpace(EuclideanMetric(dim), agents, status_quo, None)
    else:
        k = rng.randint(1, config.max_proposals)
        proposals = [(_CANDIDATE_LETTERS[i], draw_point()) for i in range(k)]
        space = DeliberationSpace(EuclideanMetric(dim), agents, status_quo, proposals)
    return space, default_initial_structure(space)


# -- batch runs ------------------------------------------------------------------

@dataclass(frozen=True)
class BatchRow:
    """One summary row: scenario descriptors plus run outcome."""

    seed: int
    n: int
    d: int
    x_size: str
    policy: str
    steps: int
    classification: str
    m_star: int
    max_terminal_coalition: int


def batch(
    config: GeneratorConfig,
    policies: Sequence[Policy],
    seeds: Iterable[int],
    step_cap: Optional[int] = None,
) -> list[BatchRow]:
    """Run every policy on every generated scenario; one row per run.

    The scenario seed doubles as the selector seed of each run, so a row is
    reproducible from (config, policy, seed) alone.
    """
    rows: list[BatchRow] = []
    for seed in seeds:
        space, initial = generate_scenario(config, seed)
        report = space.max_support()
        x_size = "continuous" if space.is_continuous else str(len(space.proposals) + 1)
        for policy in policies:
            trace = run(
                space,
                initial,
                replace(policy, seed=seed),
                step_cap=step_cap,
                scenario_ref=f"gen:{config.mode}:{seed}",
            )
            largest = max((c.size for c in trace.terminal), default=0)
            rows.append(
                BatchRow(
                    seed=seed,
                    n=len(space.agents),
                    d=space.dimension,
                    x_size=x_size,
                    policy=policy.render(),
                    steps=len(trace.steps),
                    classification=trace.classification,
                    m_star=report.m_star,
                    max_terminal_coalition=largest,
                )
            )
    return rows


def summarize(rows: Sequence[BatchRow]) -> dict[str, dict]:
    """Per-policy aggregates: run count, success rate, step distribution."""
    summary: dict[str, dict] = {}
    for row in rows:
        entry = summary.setdefault(
            row.policy,
            {"runs": 0, "successful": 0, "step_histogram": {}, "max_steps": 0},
        )
        entry["runs"] += 1
        if row.classification == CLASSIFICATION_SUCCESSFUL:
            entry["successful"] += 1
        entry["step_histogram"][row.steps] = entry["step_histogram"].get(row.steps, 0) + 1
        entry["max_steps"] = max(entry["max_steps"], row.steps)
    for entry in summary.values():
        entry["success_rate"] = entry["successful"] / entry["runs"] if entry["runs"] else 0.0
    return summary
