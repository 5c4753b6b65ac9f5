"""Seeded scenario generators, workload bodies and output checks.

Every scenario is a JSON document built here from (workload, seed, index)
and handed to the program through ``scenario_io.load_scenario``, so the
program sees only generated inputs.  Coordinates are uniform in [-5, 5],
rounded to four decimals, with the status quo at the origin.

Inputs are stratified (see ``scenario_doc``): every run sees the same mix of
sizes and of approval structure, while the marginal distribution stays the
natural one.  Scenario cost spans three orders of magnitude, so without
strata the metrics of two seeds differ by more than a regression bound.

The workload bodies call the program through module attributes
(``scenario_io.load_scenario``, ``engine.run`` ...) so that the traced run's
wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import math
import random
import string

from delibsim import coalition, engine, geometry, oracle, scenario_io, transitions

COORD_RANGE = 5.0
CANDIDATE_IDS = [c for c in string.ascii_lowercase if c != "r"]
ALL_KINDS = transitions.TRANSITION_KINDS

FINITE_RUN_AGENTS = range(8, 17)
FINITE_RUN_CANDIDATES = 8
CONTINUOUS_AGENTS = range(2, 9)
CONTINUOUS_DIMENSIONS = (1, 2, 3)
CONTINUOUS_POLICIES = ("compromise", "subsume>compromise")
EXPLORE_AGENTS = 6
EXPLORE_CANDIDATES = 5
# Bounds the rare scenario whose reachable graph has thousands of states;
# a capped search counts in oracle.truncated, not as a failure.
EXPLORE_STATE_CAP = 100
COVARIATE_BINS = {"finite_run": 4, "explore_finite": 20}
CALIBRATION_DRAWS = 1000

POTENTIAL_KINDS = ("single_agent", "follow", "merge", "subsume")
SIGNATURE_KINDS = ("compromise", "subsume")


# -- input generation ---------------------------------------------------------

def _point(rng: random.Random, dim: int) -> list[float]:
    return [round(rng.uniform(-COORD_RANGE, COORD_RANGE), 4) for _ in range(dim)]


def approval_covariate(agents, proposals, quo) -> tuple[float, float]:
    """Input statistic that predicts the cost of a finite scenario.

    log of sum over candidates of 2**supporters, then the total approval
    margin to break ties.  Computed here with ``math.dist``, not by the
    program.
    """
    support = [0] * len(proposals)
    margin = 0.0
    for v in agents:
        radius = math.dist(v, quo)
        for j, p in enumerate(proposals):
            gain = radius - math.dist(v, p)
            if gain > 0:
                support[j] += 1
                margin += gain
    return math.log(sum(2 ** s for s in support)), margin


def _draw_finite(rng: random.Random, n: int, k: int):
    return [_point(rng, 2) for _ in range(n)], [_point(rng, 2) for _ in range(k)]


@functools.lru_cache(maxsize=None)
def _bin_edges(name: str, n: int, k: int) -> tuple:
    """Covariate quantiles of the natural distribution, from a fixed sample."""
    rng = random.Random(f"{name}/calibration/{n}/{k}")
    values = sorted(
        approval_covariate(*_draw_finite(rng, n, k), (0.0, 0.0)) for _ in range(CALIBRATION_DRAWS)
    )
    bins = COVARIATE_BINS[name]
    return tuple(values[len(values) * b // bins] for b in range(1, bins))


def strata(name: str) -> list[tuple]:
    if name == "finite_run":
        sizes = [(n, FINITE_RUN_CANDIDATES) for n in FINITE_RUN_AGENTS]
    elif name == "explore_finite":
        sizes = [(EXPLORE_AGENTS, EXPLORE_CANDIDATES)]
    elif name == "continuous_run":
        return list(itertools.product(CONTINUOUS_AGENTS, CONTINUOUS_DIMENSIONS))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [(n, k, b) for n, k in sizes for b in range(COVARIATE_BINS[name])]


def scenario_doc(name: str, seed: int, index: int) -> tuple[str, int, str]:
    """Scenario JSON text, a per-scenario policy seed and the trace reference.

    Scenarios come in blocks that hold every stratum once, in a seeded
    order.  A finite stratum is a size and an equiprobable bin of
    ``approval_covariate``; coordinates are redrawn until they fall in the
    bin, so each block follows the natural distribution.
    """
    order = strata(name)
    block, pos = divmod(index, len(order))
    random.Random(f"{name}/{seed}/block/{block}").shuffle(order)
    rng = random.Random(f"{name}/{seed}/scenario/{index}")
    if name == "continuous_run":
        n, d = order[pos]
        agents, proposals = [_point(rng, d) for _ in range(n)], None
    else:
        n, k, target = order[pos]
        d = 2
        edges = _bin_edges(name, n, k)
        while True:
            agents, proposals = _draw_finite(rng, n, k)
            if bisect.bisect_right(edges, approval_covariate(agents, proposals, (0.0, 0.0))) == target:
                break
    doc = {
        "format_version": 1,
        "space": {"metric": "euclidean", "dimension": d},
        "status_quo": [0.0] * d,
        "agents": [{"id": f"v{i + 1}", "coords": c} for i, c in enumerate(agents)],
        "proposals": "continuous"
        if proposals is None
        else [{"id": CANDIDATE_IDS[i], "coords": c} for i, c in enumerate(proposals)],
    }
    return json.dumps(doc, sort_keys=True), rng.getrandbits(63), f"bench:{name}:{seed}:{index}"


# -- workload bodies (the timed section) --------------------------------------

def execute(name: str, text: str, policy_seed: int, ref: str):
    """Load one scenario and run it; returns (space, initial, outputs)."""
    space, initial = scenario_io.load_scenario(text)
    if name == "explore_finite":
        report = oracle.explore(space, initial, ALL_KINDS, state_cap=EXPLORE_STATE_CAP)
        return space, initial, [report]
    policies = (
        [engine.Policy((ALL_KINDS,), "uniform_random", policy_seed)]
        if name == "finite_run"
        else [engine.Policy.parse(p, "uniform_random", policy_seed) for p in CONTINUOUS_POLICIES]
    )
    outputs = []
    for policy in policies:
        trace = engine.run(space, initial, policy, scenario_ref=ref)
        outputs.append(scenario_io.write_trace(trace))
    return space, initial, outputs


def fingerprint(name: str, outputs) -> str:
    """Pinnable summary of a scenario's outputs."""
    if name == "explore_finite":
        (report,) = outputs
        return "states={} edges={} terminals={} truncated={} all_successful={} monotone={}/{}".format(
            report.states_visited, report.edges, report.terminal_count, report.truncated,
            report.all_terminals_successful, report.potential_monotone, report.signature_monotone,
        )
    digest = hashlib.sha256()
    for text in outputs:
        digest.update(text.encode())
    return digest.hexdigest()[:16]


# -- output checks (outside the timed section) --------------------------------

def _step_problems(kind: str, before, after, where: str) -> list[str]:
    problems = []
    gain = coalition.potential(after) - coalition.potential(before)
    if kind in POTENTIAL_KINDS and gain < 2:
        problems.append(f"{where}: {kind} raised the potential by {gain}, expected >= 2")
    if kind in SIGNATURE_KINDS and not coalition.lex_less(
        coalition.signature(before), coalition.signature(after)
    ):
        problems.append(f"{where}: {kind} did not lex-increase the signature")
    return problems


def _terminal_problems(space, structure, successful: bool, where: str) -> list[str]:
    problems = [
        f"{where}: invalid terminal ({v.clause}): {v.detail}"
        for v in coalition.validate_structure(structure, space)
    ]
    if coalition.is_successful(structure, space) != successful:
        problems.append(f"{where}: classification disagrees with is_successful")
    return problems


def check_trace(space, initial, text: str) -> list[str]:
    """Replay a written trace step by step and re-check every rule."""
    trace = scenario_io.read_trace(text)
    if coalition.canonical_key(trace.initial) != coalition.canonical_key(initial):
        return ["trace initial structure differs from the scenario's"]
    current = trace.initial
    for step in trace.steps:
        where = f"step {step.index}"
        try:
            after = transitions.apply_transition(current, space, step.transition)
        except transitions.StaleTransitionError as exc:
            return [f"{where}: replay rejected: {exc}"]
        problems = _step_problems(step.transition.kind, current, after, where)
        if coalition.potential(after) != step.potential:
            problems.append(f"{where}: recorded potential {step.potential} is wrong")
        if coalition.signature(after) != step.signature:
            problems.append(f"{where}: recorded signature {step.signature} is wrong")
        if problems:
            return problems
        current = after
    if coalition.canonical_key(current) != coalition.canonical_key(trace.terminal):
        return ["replay does not end at the recorded terminal structure"]
    if trace.classification not in (engine.CLASSIFICATION_SUCCESSFUL, engine.CLASSIFICATION_UNSUCCESSFUL):
        return [f"run ended as {trace.classification}"]
    return _terminal_problems(
        space, trace.terminal, trace.classification == engine.CLASSIFICATION_SUCCESSFUL, "terminal"
    )


def check_finite_support(space) -> list[str]:
    fast, naive = space.max_support(), oracle.naive_max_support(space)
    if fast != naive:
        return [f"max_support {fast} differs from naive_max_support {naive}"]
    return []


def check_continuous_support(space) -> list[str]:
    """m* certified without the solver: the witness has m* approvers, and no
    m*+1 agents pass the hull separation test."""
    report = space.max_support()
    quo = space.status_quo
    locations = [loc for _, loc in space.agents]
    m_star = report.m_star
    if m_star:
        (witness,) = report.witnesses
        approvers = sum(math.dist(v, witness) < math.dist(v, quo) for v in locations)
        if approvers != m_star:
            return [f"m* witness has {approvers} approvers, m* is {m_star}"]
    for subset in itertools.combinations(locations, m_star + 1):
        if geometry.separated_proposal(subset, quo) is not None:
            return [f"{m_star + 1} agents share an approved proposal, m* is {m_star}"]
    return []


def check_explore(space, initial, report) -> list[str]:
    problems = []
    if not (report.potential_monotone and report.signature_monotone):
        problems.append("explored graph breaks potential or signature monotonicity")
    if report.states_visited > EXPLORE_STATE_CAP:
        problems.append(f"{report.states_visited} states exceed the cap")
    if not report.truncated and report.edges < report.states_visited - 1:
        problems.append("fewer edges than a spanning tree of the states")
    if report.all_terminals_successful != all(report.terminal_successful):
        problems.append("all_terminals_successful disagrees with the terminal flags")
    for key, ok in zip(report.terminal_keys, report.terminal_successful):
        problems += _terminal_problems(space, report.structures[key], ok, f"terminal {key}")
    if report.unsuccessful_witness is not None:
        current = coalition.canonicalize(initial)
        for index, move in enumerate(report.unsuccessful_witness):
            try:
                after = transitions.apply_transition(current, space, move)
            except transitions.StaleTransitionError as exc:
                return problems + [f"witness step {index}: replay rejected: {exc}"]
            problems += _step_problems(move.kind, current, after, f"witness step {index}")
            current = coalition.canonicalize(after)
        key = coalition.canonical_key(current)
        if dict(zip(report.terminal_keys, report.terminal_successful)).get(key) is not False:
            problems.append("unsuccessful witness does not end at an unsuccessful terminal")
    return problems


def check(name: str, space, initial, outputs) -> list[str]:
    """Every output check of one scenario; an empty list means it passed."""
    if name == "explore_finite":
        return check_explore(space, initial, outputs[0]) + check_finite_support(space)
    problems = []
    for text in outputs:
        problems += check_trace(space, initial, text)
    if name == "finite_run":
        problems += check_finite_support(space)
    else:
        problems += check_continuous_support(space)
    return problems
