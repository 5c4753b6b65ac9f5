"""Metric primitives and constructive proposal geometry.

Points are coordinate tuples under Euclidean metrics and string ids under
explicit (matrix-backed) metrics.  Every function here is pure; callers own
all state.  The public functions validate their input; the deliberation
space, whose locations are validated on construction, calls the unchecked
cores ``_separated_proposal`` and ``_nearest_point_in_hull`` directly.

Joint feasibility is decided exactly by hull separation: agents share a
proposal they all strictly approve iff the status quo lies outside the convex
hull of their locations, and ``separated_proposal`` accepts a set only when
the hull misses the status quo by more than ``APPROVAL_MARGIN``.  The hull
projection (``nearest_point_in_hull``) is Wolfe's method in plain Python on
coordinate tuples, its minor cycle on reduced normal equations; in one
dimension the separation core uses a closed form that returns the point
Wolfe returns, and Wolfe is its test reference.
``best_common_proposal`` reports the optimal worst-case approval margin: it
enumerates the support sets of a smallest enclosing ball of balls, exact up
to rounding in O(n^(d+2)), with no failure path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Union

Coords = tuple[float, ...]
PointRef = Union[Coords, str]

MAX_DIMENSION = 8
APPROVAL_MARGIN = 1e-9
HULL_ITERATION_CAP = 10_000

_TRIANGLE_SLACK = 1e-12
_WEIGHT_FLOOR = 1e-14


class MetricError(ValueError):
    """Invalid metric definition or unresolvable point reference."""

    def __init__(self, message: str, clause: str = "metric"):
        super().__init__(message)
        self.clause = clause


class SolverError(RuntimeError):
    """A solver failed to converge; nothing raises it, the benchmark tracer names it."""


@dataclass(frozen=True)
class EuclideanMetric:
    """Euclidean distance over coordinate tuples of a fixed dimension."""

    dimension: int

    def __post_init__(self):
        if type(self.dimension) is not int or not 1 <= self.dimension <= MAX_DIMENSION:
            raise MetricError(
                f"dimension must be an integer in 1..{MAX_DIMENSION}, got {self.dimension!r}",
                clause="space.dimension",
            )


@dataclass(frozen=True)
class ExplicitMetric:
    """Finite metric given as a symmetric distance matrix over named points.

    Validated on construction: distinct string ids, square shape, zero
    diagonal, symmetry, strictly positive off-diagonal entries, and the
    triangle inequality checked exhaustively over all ordered triples.
    """

    ids: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        if not all(isinstance(pid, str) for pid in ids):
            raise MetricError(f"point ids must be strings, got {ids!r}", clause="metric.ids")
        if len(ids) != len(set(ids)):
            raise MetricError("duplicate point ids in explicit metric", clause="metric.ids")
        k = len(ids)
        if k == 0:
            raise MetricError("explicit metric needs at least one point", clause="metric.ids")
        try:
            rows = tuple(tuple(float(x) for x in row) for row in self.matrix)
        except (TypeError, ValueError):
            raise MetricError(
                "distance matrix must be a list of rows of numbers", clause="metric.shape"
            ) from None
        if len(rows) != k or any(len(row) != k for row in rows):
            raise MetricError(f"distance matrix must be {k}x{k}", clause="metric.shape")
        for i in range(k):
            if rows[i][i] != 0.0:
                raise MetricError(
                    f"nonzero diagonal at {ids[i]!r}: {rows[i][i]}", clause="metric.diagonal"
                )
            for j in range(k):
                if not math.isfinite(rows[i][j]):
                    raise MetricError(
                        f"non-finite distance at ({ids[i]!r}, {ids[j]!r})", clause="metric.finite"
                    )
                if rows[i][j] != rows[j][i]:
                    raise MetricError(
                        f"asymmetric entries at ({ids[i]!r}, {ids[j]!r})", clause="metric.symmetry"
                    )
                if i != j and rows[i][j] <= 0.0:
                    raise MetricError(
                        f"non-positive distance between distinct points ({ids[i]!r}, {ids[j]!r})",
                        clause="metric.positivity",
                    )
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if rows[i][j] > rows[i][l] + rows[l][j] + _TRIANGLE_SLACK:
                        raise MetricError(
                            f"triangle inequality violated for ({ids[i]!r}, {ids[l]!r}, {ids[j]!r})",
                            clause="metric.triangle",
                        )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_index", {pid: i for i, pid in enumerate(ids)})

    def distance_between(self, a: str, b: str) -> float:
        try:
            return self.matrix[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise MetricError(f"unknown point id {exc.args[0]!r}", clause="metric.unknown_id") from None


Metric = Union[EuclideanMetric, ExplicitMetric]


def _check_coords(p: Sequence[float], dimension: int) -> Coords:
    coords = tuple(float(c) for c in p)
    if len(coords) != dimension:
        raise MetricError(
            f"expected {dimension} coordinates, got {len(coords)}", clause="space.dimension"
        )
    if not all(math.isfinite(c) for c in coords):
        raise MetricError("non-finite coordinate", clause="space.coords")
    return coords


def distance(a: PointRef, b: PointRef, metric: Metric) -> float:
    """Distance between two points under the given metric."""
    if isinstance(metric, EuclideanMetric):
        if isinstance(a, str) or isinstance(b, str):
            raise MetricError("euclidean metric takes coordinate tuples, not ids", clause="metric.kind")
        return math.dist(_check_coords(a, metric.dimension), _check_coords(b, metric.dimension))
    if not isinstance(a, str) or not isinstance(b, str):
        raise MetricError("explicit metric takes point ids, not coordinates", clause="metric.kind")
    return metric.distance_between(a, b)


def approves(agent: PointRef, proposal: PointRef, status_quo: PointRef, metric: Metric) -> bool:
    """Strict approval: the proposal is closer to the agent than the status quo.

    Ties count as not approved; there is no epsilon in this comparison.
    """
    return distance(agent, proposal, metric) < distance(agent, status_quo, metric)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a joint-proposal search: a witness point and its margin.

    ``margin ==`` max over the target agents of (distance to witness minus
    distance to the status quo); the witness is a joint-approval proposal
    iff the margin is below ``-APPROVAL_MARGIN``.
    """

    witness: Coords
    margin: float

    @property
    def feasible(self) -> bool:
        return self.margin < -APPROVAL_MARGIN


def _coord_rows(points: Iterable[Sequence[float]]) -> list[Coords]:
    rows = [tuple(map(float, p)) for p in points]
    if not rows:
        raise MetricError("need a non-empty sequence of coordinate points", clause="space.coords")
    dimension = len(rows[0])
    if any(len(row) != dimension for row in rows):
        raise MetricError("points of mixed dimension", clause="space.dimension")
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise MetricError("non-finite coordinate", clause="space.coords")
    return rows


def _solve(system: list[list[float]], size: int) -> Optional[list[list[float]]]:
    """Solve augmented rows [A | b_1 .. b_m], A size x size, in place.

    Gaussian elimination with partial pivoting (ties toward the lower row)
    gives one solution per right-hand column; None reports a zero pivot.
    """
    for col in range(size):
        pivot = col
        for r in range(col + 1, size):
            if abs(system[r][col]) > abs(system[pivot][col]):
                pivot = r
        top = system[pivot]
        if top[col] == 0.0:
            return None
        system[pivot] = system[col]
        system[col] = top
        for row in system[col + 1:]:
            factor = row[col] / top[col]
            if factor:
                for k in range(col, len(top)):
                    row[k] -= factor * top[k]
    solutions = []
    for rhs in range(size, len(system[0])):
        sol = [0.0] * size
        for i in range(size - 1, -1, -1):
            row = system[i]
            sol[i] = (row[rhs] - sum(map(mul, row[i + 1:size], sol[i + 1:]))) / row[i]
        solutions.append(sol)
    return solutions


def _affine_minimizer(active_rows: Sequence[Coords]) -> Optional[list[float]]:
    """Weights w minimizing ||sum_i w_i q_i|| subject to sum_i w_i = 1, or None.

    In u_i = q_i - q_0 the reduced normal equations U'U lam = -U'q_0 give
    w = (1 - sum lam, lam), solved in closed form for one or two u_i, else by
    ``_solve`` (d = 3 only); singular exactly when the rows are affinely dependent.
    """
    q0 = active_rows[0]
    diffs = [tuple(map(sub, q, q0)) for q in active_rows[1:]]
    normal = [[sum(map(mul, u, v)) for v in diffs] + [-sum(map(mul, u, q0))] for u in diffs]
    if len(diffs) == 1:
        ((a, r),) = normal
        lam = None if a == 0.0 else [r / a]
    elif len(diffs) == 2:
        (a, b, r), (_, c, s) = normal
        det = a * c - b * b
        lam = None if det == 0.0 else [(r * c - b * s) / det, (a * s - b * r) / det]
    else:
        solved = _solve(normal, len(diffs))
        lam = None if solved is None else solved[0]
    return None if lam is None else [1.0 - sum(lam), *lam]


def nearest_point_in_hull(
    target: Sequence[float], generators: Iterable[Sequence[float]]
) -> tuple[Coords, float]:
    """Nearest point of conv(generators) to the target, with its distance.

    Wolfe's minimum-norm-point scheme, the fully corrective conditional
    gradient method: major cycles add the generator most aligned with the
    descent direction, minor cycles re-solve the affine minimizer over the
    active set and drop generators whose weight would turn negative.  Ties
    break toward the lowest input index, so the result is deterministic in
    the generator order.  Terminates finitely in exact arithmetic; a cap of
    ``HULL_ITERATION_CAP`` major cycles guards float stalls.  Empty,
    non-finite or mixed-dimension input raises ``MetricError``.
    """
    rows = _coord_rows(generators)
    return _nearest_point_in_hull(_check_coords(target, len(rows[0])), rows)


def _nearest_point_in_hull(tgt: Coords, rows: Sequence[Coords]) -> tuple[Coords, float]:
    """``nearest_point_in_hull`` on validated float tuples of one dimension."""
    # Exact duplicates make the minor cycle degenerate; keep first occurrences.
    q = [tuple(map(sub, row, tgt)) for row in dict.fromkeys(rows)]
    sq_norms = [sum(map(mul, qi, qi)) for qi in q]
    stop_tol = 1e-12 * (1.0 + max(sq_norms))

    active = [sq_norms.index(min(sq_norms))]
    weights = [1.0]
    x = q[active[0]]

    for _ in range(HULL_ITERATION_CAP):
        dots = [sum(map(mul, qi, x)) for qi in q]
        candidate = dots.index(min(dots))
        if dots[candidate] >= sum(map(mul, x, x)) - stop_tol or candidate in active:
            break
        active.append(candidate)
        weights.append(0.0)
        while True:
            alpha = _affine_minimizer([q[a] for a in active])
            if alpha is None:
                # The candidate passed the descent test, so in exact
                # arithmetic it lies off the affine hull of the active set
                # and the system is regular; an exactly zero pivot means
                # round-off in x let an affinely dependent point in.  Keep
                # the current convex weights, a hull point, and stop.
                break
            if all(a > _WEIGHT_FLOOR for a in alpha):
                weights = alpha
                break
            ratios = [
                w / (w - a) if a <= _WEIGHT_FLOOR and w - a > 1e-300 else math.inf
                for w, a in zip(weights, alpha)
            ]
            drop = ratios.index(min(ratios))
            theta = min(1.0, ratios[drop])
            weights = [theta * a + (1.0 - theta) * w for w, a in zip(weights, alpha)]
            weights[drop] = 0.0
            weights = [0.0 if w < _WEIGHT_FLOOR else w for w in weights]
            if not any(weights):
                weights[drop] = 1.0
            active = [a for a, w in zip(active, weights) if w > 0.0]
            weights = [w for w in weights if w > 0.0]
            total = sum(weights)
            weights = [w / total for w in weights]
            if len(active) == 1:
                break
        x = tuple(sum(map(mul, weights, column)) for column in zip(*(q[a] for a in active)))
        if alpha is None:
            break

    point = tuple(map(add, x, tgt))
    return point, math.sqrt(sum(map(mul, x, x)))


def separated_proposal(
    agents: Iterable[Sequence[float]], status_quo: Sequence[float]
) -> Optional[Coords]:
    """Nearest hull point of the agents if it clears the status quo, else None.

    When the hull misses the status quo by more than ``APPROVAL_MARGIN`` the
    projection point q satisfies dist(v, r)^2 >= dist(v, q)^2 + h^2 for every
    generator v, with h = dist(q, r) the hull distance, so every agent
    strictly approves q.  ``APPROVAL_MARGIN`` bounds h, not the approval
    slack: dist(v, r)^2 - dist(v, q)^2 is only guaranteed to reach h^2, and
    dist(v, r) - dist(v, q) only h^2 / (2 dist(v, r)), far below h when the
    hull barely misses r.  Empty, non-finite or mixed-dimension input raises
    ``MetricError``.
    """
    rows = _coord_rows(agents)
    return _separated_proposal(rows, _check_coords(status_quo, len(rows[0])))


def _separated_proposal(rows: Sequence[Coords], status_quo: Coords) -> Optional[Coords]:
    """``separated_proposal`` on validated float tuples of one dimension.

    On a line the hull is an interval, so it misses r exactly when every
    offset v - r has the same strict sign, and its nearest point is r plus
    the offset smallest in magnitude.  That is Wolfe's first active point
    (the first smallest (v - r)^2), which then passes the descent test at
    once, so the closed form returns Wolfe's point and decision.  They differ
    only where Wolfe's stopping tolerance, 1e-12 (1 + max (v - r)^2), exceeds
    the product of the smallest offset and an opposite one: Wolfe then stops
    at that offset, and the closed form rightly rejects the mixed-sign set.
    """
    if len(status_quo) == 1:
        (quo,) = status_quo
        offsets = [v - quo for (v,) in rows]
        if not (min(offsets) > 0.0 or max(offsets) < 0.0):
            return None
        squares = [t * t for t in offsets]
        nearest = offsets[squares.index(min(squares))]
        return (nearest + quo,) if abs(nearest) > APPROVAL_MARGIN else None
    point, dist_to_hull = _nearest_point_in_hull(status_quo, rows)
    if dist_to_hull > APPROVAL_MARGIN:
        return point
    return None


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    No solver calls it; it stays because the benchmark tracer patches it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def best_common_proposal(
    agents: Iterable[Sequence[float]], status_quo: Sequence[float]
) -> FeasibilityResult:
    """Minimize the worst approval slack max_v (dist(v, p) - dist(v, r)).

    With rho_v = dist(v, r), c = max rho_v and t_v = c - rho_v, the slack at
    p is at most s iff B(p, s + c) contains B(v, t_v), so the optimal margin
    is the radius of the smallest ball enclosing these balls, minus c.  At
    most d + 1 tangent balls fix it (Fischer & Gaertner 2004): every support
    set of 1..d+1 agents, in declaration order, proposes its tangent centres,
    scored by exact slack; the first smallest wins.  Exact up to rounding in
    O(n^(d+2)); no failure path, as each agent is itself a candidate.
    """
    rows = _coord_rows(agents)
    quo = _check_coords(status_quo, len(rows[0]))
    radii = [math.dist(v, quo) for v in rows]
    top = max(radii)
    balls = [(v, top - rho) for v, rho in zip(rows, radii)]
    best = None
    for size in range(1, min(len(quo) + 1, len(rows)) + 1):
        for support in combinations(balls, size):
            for point in _tangent_centres(support):
                margin = max(math.dist(point, v) - rho for v, rho in zip(rows, radii))
                if best is None or margin < best.margin:
                    best = FeasibilityResult(point, margin)
    return best


def _tangent_centres(support: Sequence[tuple[Coords, float]]) -> list[Coords]:
    """Centres p in the affine hull of balls B(v_i, t_i) with |p - v_i| = R - t_i >= 0.

    With u_i = v_i - v_0 and p = v_0 + sum_j lam_j u_j, the differences
    |p - v_i|^2 - |p - v_0|^2 = (R - t_i)^2 - (R - t_0)^2 read G lam = a + R b,
    G the Gram matrix of the u_i (none on a zero pivot), and
    |p - v_0| = R - t_0 is then a quadratic in R.
    """
    (v0, t0), rest = support[0], support[1:]
    if not rest:
        return [v0]
    offsets = [tuple(map(sub, v, v0)) for v, _ in rest]
    system = [
        [sum(map(mul, u, w)) for w in offsets]
        + [(sum(map(mul, u, u)) + t0 * t0 - t * t) / 2.0, t - t0]
        for u, (_, t) in zip(offsets, rest)
    ]
    solved = _solve(system, len(offsets))
    if solved is None:
        return []
    fixed, slope = (tuple(sum(map(mul, lam, col)) for col in zip(*offsets)) for lam in solved)
    quad = sum(map(mul, slope, slope)) - 1.0
    half = sum(map(mul, fixed, slope)) + t0
    const = sum(map(mul, fixed, fixed)) - t0 * t0
    if quad == 0.0:
        roots = [-const / (2.0 * half)] if half else []
    else:
        disc = half * half - quad * const
        roots = [(-half - math.sqrt(disc)) / quad, (-half + math.sqrt(disc)) / quad] if disc >= 0.0 else []
    floor = max(t for _, t in support)
    return [tuple(c + f + rad * g for c, f, g in zip(v0, fixed, slope)) for rad in roots if rad >= floor]
