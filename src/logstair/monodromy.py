"""End-to-end reproduction of the covering-surface phenomena: construct
continuation paths to arbitrary targets, classify slit targets by winding
index against the exact lift oracle, and run the two-branch log-log example.

Path construction works in the lift plane: a polyline is routed from the base
lift point through the staircase interior (ascending over each glue threshold
before crossing it), and the actual path in C* is its exponential, whose
chords lift to within 1.25e-3 of the route (see _cut).  The routes form one
tree: every route into a column shares the trunk and that column's corridor
up or down its middle, and each leg is cut into chords on a grid anchored at
the leg's start, so routes share their vertices up to their last legs and
the continuation engine meets the same germs along them.  The tree is kept:
a spine (_Spine) holds the chords, lengths and lifts of the fixed part of
the routes, and a route is its spine's prefix plus its own last legs, the
only ones cut, checked and lifted afresh.  Every route is certified as it
is built: the exact oracle's segment test decides each spine segment once,
when a route adds it, and each route's own segments past the spine, each
cleared from its two end lifts since a route's chords keep well inside the
staircase (see _route), so crosscheck on a route decides nothing.  The
engine resumes the chain it has stepped along the spine, or along a spine
that shares its vertices, stepping and refreshing only past it.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .engine import ContinuationChain, _first_exit, _route_lock, continue_along
from .errors import NotOnSlit, RoutingFailure
from .paths import PathPolyline, _extend, validate_path
from .series import DEFAULT_ORDER, Germ, compose_log, log_germ
from .staircase import (
    BASE_LIFT,
    BASE_POINT,
    GEOM_TOL,
    TWO_PI,
    choose_lift_target,
    column,
    corner_at,
    in_interior,
    on_circle,
    slit_contains,
)

ROUTE_CLEARANCE = 0.05
EXP_STEP = 0.1


@dataclass(frozen=True)
class ClassificationReport:
    omega: complex
    M: int
    N: int
    lift_end: complex
    verdict: str  # "continuable" | "blocked" | "corner"

    @cached_property
    def witness_path(self) -> Optional[PathPolyline]:
        """A path to omega certified like reach_path's, whose lift ends at
        lift_end, when the verdict is continuable (else None).  It is routed
        on the first read: its length grows with the winding index, and the
        verdict needs none of it."""
        return _route(self.lift_end) if self.verdict == "continuable" else None


@dataclass(frozen=True)
class TruthTable:
    rows: tuple
    theorem_b_pass: bool


@dataclass(frozen=True)
class ExpExpReport:
    gamma: PathPolyline
    branch_a: ContinuationChain
    branch_b: ContinuationChain

    @property
    def fail_point(self) -> Optional[complex]:
        if self.branch_a.completed:
            return None
        return self.gamma.point_at(self.branch_a.t_fail)

    @property
    def final_value(self) -> Optional[complex]:
        if not self.branch_b.completed:
            return None
        return self.branch_b.final.coeffs[0]


def _route_lift(target: complex):
    """Waypoints from the base lift point to `target` inside the staircase,
    as (spine, tail): the route runs along spine, then one level or vertical
    leg from spine[-1] to tail[0] (none if they are equal), then along tail.
    The spine holds the waypoints other routes share: the trunk, a stop at a
    height other than the target's (1/2 above the floor, or the trunk's on a
    glue line), and the foot of a descent exactly on a glue line.

    Routes form one tree.  The trunk ascends ROUTE_CLEARANCE above each glue
    threshold before crossing to the next column's middle; a target left of
    the base column needs no crossing.  A target off the glue lines then
    moves level to its column's middle x_m = ct + 1/2 (at the base height in
    and left of the base column) and runs up or down that corridor.
    When the floor is its nearest wall and closer than 1/2, the corridor
    leg stops 1/2 above the floor, and the route runs level to the target's
    real part and descends onto it; otherwise the corridor leg stops at the
    target's height and one level leg, heading straight at the riser or away
    from it, ends the route.  A glue-line target rises to its height on the
    glue line and is reached by the same last two legs; the base lift point
    is reached by no leg at all.  The legs after the trunk need only stay
    interior: the target may sit closer to the boundary than the trunk
    clearance.  No two consecutive waypoints of spine or of tail are equal.
    """
    if target == BASE_LIFT:
        return (BASE_LIFT,), [BASE_LIFT]
    xt, yt = target.real, target.imag
    ct = column(xt)
    on_glue = abs(xt - ct) <= GEOM_TOL  # column() snapped xt onto glue line ct
    pts = [BASE_LIFT]

    def leg_to(x: float, y: float) -> None:
        if complex(x, y) != pts[-1]:
            pts.append(complex(x, y))

    for c in range(column(BASE_LIFT.real) + 1, ct + 1):
        leg_to(pts[-1].real, max(pts[-1].imag, TWO_PI * c + ROUTE_CLEARANCE))
        # land exactly on the glue line when it is the destination
        leg_to(float(c) if (c == ct and on_glue) else c + 0.5, pts[-1].imag)
    if on_glue:
        y_leg = max(pts[-1].imag, yt)
    else:
        leg_to(ct + 0.5, pts[-1].imag)
        floor = TWO_PI * ct
        near_floor = yt - floor < min(ct + 1 - xt, 0.5)
        y_leg = floor + 0.5 if near_floor else yt
    fixed = len(pts)
    leg_to(pts[-1].real, y_leg)
    if y_leg != yt:
        fixed = len(pts)
    leg_to(xt, y_leg)
    if y_leg != yt and xt == ct:
        fixed = len(pts)
    leg_to(xt, yt)
    return tuple(pts[:fixed]), pts[fixed:] or [pts[-1]]


def _grid(length: float) -> int:
    """The number of grid points k * EXP_STEP, k >= 1, below `length`."""
    k = int(length / EXP_STEP) + 1
    while k and not k * EXP_STEP < length:
        k -= 1
    return k


def _cut(out: list, pts) -> None:
    """Append to the chord vertices `out` those of the exponential of the
    lift polyline pts.  Each leg is cut at every multiple of EXP_STEP of
    lift from its start, the last chord taking the remainder, so routes
    whose legs leave the same waypoint in the same direction share their
    chord vertices bit for bit, however far each leg runs, and the engine
    refreshes at the same (center, lift) pairs along them.  A horizontal leg
    maps to a ray, whose chords lift exactly onto the leg.  On a vertical
    leg a chord spanning at most EXP_STEP lifts at most
    -ln cos(EXP_STEP/2) ~ 1.25e-3 left of the leg, far inside
    ROUTE_CLEARANCE.  A vertex equal to the last one is not appended."""

    def chord_to(p: complex) -> None:
        if p != out[-1]:
            out.append(p)

    for a, b in zip(pts, pts[1:]):
        length = abs(b - a)
        unit = (b - a) / length
        chord_to(cmath.exp(a))
        for k in range(1, _grid(length) + 1):
            chord_to(cmath.exp(a + unit * (k * EXP_STEP)))
    chord_to(cmath.exp(pts[-1]))


class _Spine:
    """The fixed part of the routes that share a spine of waypoints and
    leave its end in the direction `unit` (+-1 or +-i): the chords of its
    legs, then those of the open-ended leg from its last waypoint, cut as
    _cut cuts a leg and grown on demand.  It keeps the chord vertices with
    their cumulative lengths and lifts, its segments' distances from 0,
    marks[k], the number of vertices up to the open leg's k-th multiple of
    EXP_STEP, and steps, the only store of refreshed germs: the chain the
    engine has stepped along its vertices for the last (start germ, hook)
    pair that ran there, key.  Every segment it keeps has been certified
    (see _route).  Each step (j, s, center, lift, germ) is engine._step's
    result and the refreshed germ, or the reason a refresh failed, which
    ends the chain; a step with j + 1 <= n - 1 reads no vertex past the
    first n, so every route that shares those replays it, and routes on
    other spines take steps from it (see handed_over and
    engine.continue_along).  The spine cache and the spines' steps are read
    and written holding engine._route_lock, the package's one lock, and a
    chain holds it from its first step to its last, so chains that run at
    once refresh each kept step once.  The lock is re-entrant: a hook may
    route or continue a germ inside its chain."""

    def __init__(self, waypoints: tuple, unit: complex):
        self.start, self.unit = waypoints[-1], unit
        out = [cmath.exp(waypoints[0])]
        _cut(out, waypoints)
        out[0] = BASE_POINT  # exp(BASE_LIFT), which may miss it by an ulp
        self.points, self.cum, self.lifted, self.dist = [], [], [], []
        _extend(self.points, self.cum, self.lifted, self.dist, out)
        self.marks = [len(self.points)]
        self.key, self.steps = None, []

    def prefix(self, length: float) -> int:
        """The number of vertices an open leg of `length` takes from the
        spine: its grid points k * EXP_STEP < length, as _cut cuts it."""
        k = _grid(length)
        while len(self.marks) <= k:
            z = cmath.exp(self.start + self.unit * (len(self.marks) * EXP_STEP))
            if z != self.points[-1]:
                _extend(self.points, self.cum, self.lifted, self.dist, [z])
            self.marks.append(len(self.points))
        return self.marks[k]

    def handed_over(self, key, k: int, points: tuple):
        """Step k of the chain keyed key from the first kept spine, least
        recently used first, that keeps it on a prefix of points: the
        spine's vertices up to the step's far one, j + 1, are points' (None
        if no spine does).  The engine reaches the spine cache through a
        route's own spine, so it reads the spines kept when the chain runs.
        The caller holds engine._route_lock."""
        for other in _spines.values():
            step = other.steps[k] if other.key == key and k < len(other.steps) else None
            if step is not None and list(points[: step[0] + 2]) == other.points[: step[0] + 2]:
                return step
        return None


# The kept spines, least recently used first.  Only a route that adds or
# grows a spine can raise their chord vertices (about 120 bytes each, with
# the engine steps kept along them, the only refreshed germs kept); it sums
# them and drops the least recently used while more than one is kept and
# they hold more than SPINE_VERTICES.  Seed 1 of the benchmark: 400 sweep
# operations route 400 times, 21 adding or growing one of 7 spines of 762
# vertices, which keep 383 steps and end on a failed refresh on four; 2,000
# oracle operations route 499 times, 66 adding or growing one of 27 spines
# of 2,831 vertices.  A route reads and writes them holding _route_lock.
SPINE_VERTICES = 16384
_spines = OrderedDict()


def _route(target: complex) -> PathPolyline:
    """The exponential of the route to `target`, certified by the exact
    oracle as it is built.  Its first n vertices are its spine's, with their
    lengths, lifts, segment distances from 0 and engine steps; it carries
    its spine as _spine and n as _shared, and only the rest is cut, checked
    and lifted afresh.  A route that adds or grows its spine decides each
    new spine segment, holding _route_lock, and drops the spine again if
    one leaves the staircase, so every kept spine segment is certified; then
    it evicts.  Each route decides its own segments past the spine.  Raises
    RoutingFailure if a segment leaves the staircase or the lift ends
    further than 1e-7 from `target`; so continuable_exact on the route at
    GEOM_TOL decides no segment."""
    waypoints, tail = _route_lift(target)
    length = abs(tail[0] - waypoints[-1])
    unit = (tail[0] - waypoints[-1]) / length if length else 1j
    key = waypoints, unit
    with _route_lock:
        spine = _spines.get(key)
        if spine is None:
            spine, held = _Spine(waypoints, unit), 0
            _spines[key] = spine
        else:
            _spines.move_to_end(key)
            held = len(spine.points)
        n = spine.prefix(length)
        if len(spine.points) > held:
            bad = _first_exit(spine.points, spine.lifted, spine.dist, max(held - 1, 0), GEOM_TOL)
            if bad is not None:
                del _spines[key]
                raise RoutingFailure(f"route to {target}: exit (segment, fraction) {bad}")
            kept = sum(len(s.points) for s in _spines.values())
            while len(_spines) > 1 and kept > SPINE_VERTICES:
                kept -= len(_spines.popitem(last=False)[1].points)
    pts, cum, lifted = spine.points[:n], spine.cum[:n], spine.lifted[:n]
    dist = spine.dist[: n - 1]
    out = pts[-1:]
    _cut(out, tail)
    _extend(pts, cum, lifted, dist, out[1:])
    bad = _first_exit(pts, lifted, dist, n - 1, GEOM_TOL)
    if bad is not None or abs(lifted[-1] - target) > 1e-7:
        raise RoutingFailure(f"route to {target}: exit {bad}, lift end {lifted[-1]}")
    return PathPolyline(tuple(pts), tuple(cum), tuple(lifted), tuple(dist), spine, n)


def reach_path(omega) -> PathPolyline:
    """A path from 0.5 to omega along which the germ provably continues: its
    lift runs from the base lift point to choose_lift_target(omega) through
    the staircase interior."""
    return _route(choose_lift_target(complex(omega)))


def _verdict_of(lift_end: complex) -> str:
    if corner_at(lift_end, GEOM_TOL) is not None:
        return "corner"
    return "continuable" if in_interior(lift_end) else "blocked"


def classify(omega, M: int, N: int) -> ClassificationReport:
    """Verdict for continuing the germ to omega with winding index N, where
    omega lies on the modulus-e^M circle or the [e^(M-1), e^M] segment.

    The lift endpoint is built directly from (omega, M, N): circle targets
    land at M + i(arg0 + 2*pi*N) with arg0 in [-2*pi, 0), segment targets at
    ln(omega) + 2*pi*(N-1)i.  The verdict is the staircase status of that
    point alone; the report's witness_path, certified like reach_path's, is
    routed when it is first read.  A non-finite omega raises ValueError.
    """
    omega = complex(omega)
    if not cmath.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if not slit_contains(omega, M):
        raise NotOnSlit(f"{omega} is not on the circle/segment pair of index {M}")
    if on_circle(omega, M):
        a = cmath.phase(omega)
        arg0 = a if a < 0 else a - TWO_PI
        lift_end = complex(M, arg0 + TWO_PI * N)
    else:
        lift_end = complex(math.log(omega.real), TWO_PI * (N - 1))
    return ClassificationReport(omega, M, N, lift_end, _verdict_of(lift_end))


def truth_table(m_range, n_offsets, samples_per_slit: int) -> TruthTable:
    """classify() over a grid of slit indices, winding offsets, and sample
    points (circle arguments avoid the corner-adjacent values 0 and -2*pi;
    segment samples are interior).  The summary predicate is "continuable
    exactly when N > M" over the non-corner rows."""
    m_range = list(m_range)
    n_offsets = list(n_offsets)
    if not m_range:
        raise ValueError("m_range is empty")
    if not n_offsets:
        raise ValueError("n_offsets is empty")
    if samples_per_slit < 1:
        raise ValueError(f"samples_per_slit must be >= 1, got {samples_per_slit}")
    rows = []
    n_seg = max(1, samples_per_slit // 2)
    for M in m_range:
        args = [-TWO_PI * (j + 1) / (samples_per_slit + 1) for j in range(samples_per_slit)]
        lo, hi = math.exp(M - 1), math.exp(M)
        segs = [lo + (hi - lo) * (j + 1) / (n_seg + 1) for j in range(n_seg)]
        for d in n_offsets:
            N = M + d
            for a in args:
                rows.append(classify(cmath.exp(complex(M, a)), M, N))
            for s in segs:
                rows.append(classify(s, M, N))
    ok = all(
        (r.verdict == "continuable") == (r.N > r.M)
        for r in rows
        if r.verdict != "corner"
    )
    return TruthTable(tuple(rows), ok)


class _LogLogRefresh:
    """Engine refresh hook for log(log z) germs: the inner log is the path's
    lift shifted by inner_branch_im, the outer branch comes from the value of
    the germ being continued, prev, at the new center."""

    def __init__(self, inner_branch_im: float, order: int = DEFAULT_ORDER):
        self.inner_branch_im = inner_branch_im
        self.order = order

    def __call__(self, center: complex, lift: complex, prev: Germ) -> Germ:
        inner = lift + complex(0.0, self.inner_branch_im)
        return compose_log(log_germ(inner, prev.eval(center).imag, self.order), center)


def expexp_demo(order: int = DEFAULT_ORDER) -> ExpExpReport:
    """The two inverse branches of exp(exp(.)) at e, continued along the real
    segment from e to 1.

    Branch A composes the principal log with itself; its inner value runs
    into the logarithm's singularity at 0, so the chain must die near z = 1.
    Branch B shifts the inner branch by 2*pi*i and uses the outer log germ
    carried along the segment [1, 1+2*pi*i]; it continues all the way and
    lands on ln(2*pi) + i*pi/2.
    """
    gamma = validate_path([cmath.e, 1.0])

    ell2 = log_germ(1.0, 0.0, order)
    branch_a = continue_along(
        compose_log(ell2, cmath.e),
        gamma,
        refresh=_LogLogRefresh(0.0, order),
    )

    prep = continue_along(ell2, validate_path([1.0, complex(1.0, TWO_PI)]))
    if not prep.completed:  # a straight segment away from 0; cannot happen
        raise RoutingFailure("outer log germ failed along [1, 1+2*pi*i]")
    ell2_shifted = prep.final
    branch_b = continue_along(
        compose_log(ell2_shifted, cmath.e),
        gamma,
        refresh=_LogLogRefresh(TWO_PI, order),
    )
    return ExpExpReport(gamma, branch_a, branch_b)
