"""End-to-end reproduction of the covering-surface phenomena: construct
continuation paths to arbitrary targets, classify slit targets by winding
index against the exact lift oracle, and run the two-branch log-log example.

Path construction works in the lift plane: a polyline is routed from the base
lift point through the staircase interior (ascending over each glue threshold
before crossing it), and the actual path in C* is its exponential, whose
chords lift to within 1.25e-3 of the route (see _exp_path).  The routes form
one tree: every route into a column shares the trunk and that column's
corridor up or down its middle, and each leg is cut into chords on a grid
anchored at the leg's start, so routes share their vertices up to their last
legs and the continuation engine meets the same germs along them.  Every
route is certified by the exact oracle on the path the engine walks, which
samples only the segments it has not kept from earlier paths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .engine import ContinuationChain, continuable_exact, continue_along
from .errors import NotOnSlit, RoutingFailure
from .paths import PathPolyline, validate_path
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
    witness_path: Optional[PathPolyline] = None


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
    """Waypoints from the base lift point to `target` inside the staircase.

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
    glue line and is reached by the same last two legs.  The legs after the
    trunk need only stay interior: the target may sit closer to the boundary
    than the trunk clearance.  A waypoint equal to the last one is not
    appended, so no two consecutive waypoints are equal.
    """
    if target == BASE_LIFT:
        return [BASE_LIFT]
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
    leg_to(pts[-1].real, y_leg)
    leg_to(xt, y_leg)
    leg_to(xt, yt)
    return pts


def _exp_path(pts) -> PathPolyline:
    """Exponential of a lift polyline.  Each leg is cut at every multiple of
    EXP_STEP of lift from its start, the last chord taking the remainder, so
    routes whose legs leave the same waypoint in the same direction share
    their chord vertices bit for bit, however far each leg runs, and the
    engine refreshes at the same (center, lift) pairs along them.  A
    horizontal leg maps to a ray, whose chords lift exactly onto the leg.
    On a vertical leg a chord spanning at most EXP_STEP lifts at most
    -ln cos(EXP_STEP/2) ~ 1.25e-3 left of the leg, far inside
    ROUTE_CLEARANCE."""
    out = []
    for a, b in zip(pts, pts[1:]):
        length = abs(b - a)
        unit = (b - a) / length
        out.append(cmath.exp(a))
        k = 1
        while k * EXP_STEP < length:
            out.append(cmath.exp(a + unit * (k * EXP_STEP)))
            k += 1
    out.append(cmath.exp(pts[-1]))
    dedup = [out[0]]
    for p in out[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    if abs(dedup[0] - BASE_POINT) < 1e-12:
        dedup[0] = BASE_POINT
    return validate_path(dedup)


def _path_to_lift(target: complex) -> PathPolyline:
    """The exponential of the route to `target`, certified by the exact
    oracle: the path must be continuable and its lift must end within 1e-7
    of `target`.  Raises RoutingFailure otherwise."""
    path = _exp_path(_route_lift(target))
    verdict = continuable_exact(path)
    if verdict.verdict != "continuable" or abs(verdict.lift_end - target) > 1e-7:
        raise RoutingFailure(
            f"routed path failed the oracle: {verdict.verdict}, "
            f"lift end {verdict.lift_end} vs target {target}"
        )
    return path


def reach_path(omega) -> PathPolyline:
    """A path from 0.5 to omega along which the germ provably continues: its
    lift runs from the base lift point to choose_lift_target(omega) through
    the staircase interior."""
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    return _path_to_lift(choose_lift_target(omega))


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
    point; a witness path, certified like reach_path's, is attached when it
    is interior.
    """
    omega = complex(omega)
    if not slit_contains(omega, M):
        raise NotOnSlit(f"{omega} is not on the circle/segment pair of index {M}")
    if abs(abs(omega) - math.exp(M)) < GEOM_TOL:
        a = cmath.phase(omega)
        arg0 = a if a < 0 else a - TWO_PI
        lift_end = complex(M, arg0 + TWO_PI * N)
    else:
        lift_end = complex(math.log(omega.real), TWO_PI * (N - 1))
    verdict = _verdict_of(lift_end)
    witness = _path_to_lift(lift_end) if verdict == "continuable" else None
    return ClassificationReport(omega, M, N, lift_end, verdict, witness)


def truth_table(m_range, n_offsets, samples_per_slit: int) -> TruthTable:
    """classify() over a grid of slit indices, winding offsets, and sample
    points (circle arguments avoid the corner-adjacent values 0 and -2*pi;
    segment samples are interior).  The summary predicate is "continuable
    exactly when N > M" over the non-corner rows."""
    m_range = list(m_range)
    n_offsets = list(n_offsets)
    if not m_range or not n_offsets or samples_per_slit < 1:
        raise ValueError("ranges must be non-empty")
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
