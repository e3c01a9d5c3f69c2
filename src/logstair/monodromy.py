"""End-to-end reproduction of the covering-surface phenomena: construct
continuation paths to arbitrary targets, classify slit targets by winding
index against the exact lift oracle, and run the two-branch log-log example.

Path construction works in the lift plane: a polyline is routed from the base
lift point through the staircase interior (ascending over each glue threshold
before crossing it), and the actual path in C* is its exponential, sampled
finely enough for stable lifting.
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
    boundary_distance,
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

    Rightward travel ascends above each glue threshold (plus ROUTE_CLEARANCE)
    before crossing to the next column midline; leftward travel uses a single
    corridor above every threshold it passes.  The last two legs approach the
    target directly and are only required to stay interior -- the target may
    legitimately sit closer to the boundary than the trunk clearance.
    """
    x0, y0 = BASE_LIFT.real, BASE_LIFT.imag
    xt, yt = target.real, target.imag
    c0 = column(x0)
    ct = column(xt)
    on_glue = abs(xt - ct) <= GEOM_TOL  # column() snapped xt onto glue line ct
    pts = [complex(x0, y0)]
    x_cur, y_cur = x0, y0

    if ct >= c0:
        for c in range(c0 + 1, ct + 1):
            y_need = TWO_PI * c + ROUTE_CLEARANCE
            if y_cur < y_need:
                pts.append(complex(x_cur, y_need))
                y_cur = y_need
            # land exactly on the glue line when it is the destination
            x_next = float(c) if (c == ct and on_glue) else c + 0.5
            pts.append(complex(x_next, y_cur))
            x_cur = x_next
        y_f = max(y_cur, yt)
        if y_f > y_cur:
            pts.append(complex(x_cur, y_f))
            y_cur = y_f
        if x_cur != xt:
            pts.append(complex(xt, y_cur))
            x_cur = xt
    else:
        y_f = max(y0, yt)
        if y_f > y_cur:
            pts.append(complex(x_cur, y_f))
            y_cur = y_f
        pts.append(complex(xt, y_cur))
        x_cur = xt
    if y_cur != yt:
        pts.append(complex(xt, yt))

    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _verify_route(pts) -> None:
    """Interior check along every leg; trunk legs must also keep
    ROUTE_CLEARANCE (the final two legs are exempt, see _route_lift)."""
    n_legs = len(pts) - 1
    for i in range(n_legs):
        a, b = pts[i], pts[i + 1]
        relaxed = i >= n_legs - 2
        n_sub = max(1, math.ceil(abs(b - a) / (0.5 * ROUTE_CLEARANCE)))
        for j in range(n_sub + 1):
            p = a + (b - a) * (j / n_sub)
            if j == 0 and i == 0 and p == BASE_LIFT:
                continue
            if not in_interior(p) and p != pts[-1]:
                raise RoutingFailure(f"waypoint {p} left the staircase interior")
            if not relaxed and boundary_distance(p) < 0.999 * ROUTE_CLEARANCE:
                raise RoutingFailure(
                    f"waypoint {p} violates the routing clearance {ROUTE_CLEARANCE}"
                )


def _exp_path(pts) -> PathPolyline:
    """Exponential of a lift polyline, subdivided to at most EXP_STEP of lift
    arc per chord so the image is lifted stably."""
    out = []
    for a, b in zip(pts, pts[1:]):
        n_sub = max(1, math.ceil(abs(b - a) / EXP_STEP))
        for j in range(n_sub):
            out.append(cmath.exp(a + (b - a) * (j / n_sub)))
    out.append(cmath.exp(pts[-1]))
    dedup = [out[0]]
    for p in out[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    if abs(dedup[0] - BASE_POINT) < 1e-12:
        dedup[0] = BASE_POINT
    return validate_path(dedup)


def _path_to_lift(target: complex) -> PathPolyline:
    route = _route_lift(target)
    _verify_route(route)
    return _exp_path(route)


def reach_path(omega) -> PathPolyline:
    """A path from 0.5 to omega along which the germ provably continues: its
    lift runs from the base lift point to choose_lift_target(omega) through
    the staircase interior."""
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    zeta = choose_lift_target(omega)
    path = _path_to_lift(zeta)
    verdict = continuable_exact(path)
    if verdict.verdict != "continuable" or abs(verdict.lift_end - zeta) > 1e-7:
        raise RoutingFailure(
            f"routed path failed the oracle: {verdict.verdict}, "
            f"lift end {verdict.lift_end} vs target {zeta}"
        )
    return path


def _verdict_of(lift_end: complex, tol: float = GEOM_TOL) -> str:
    if corner_at(lift_end, tol) is not None:
        return "corner"
    return "continuable" if in_interior(lift_end, tol) else "blocked"


def classify(omega, M: int, N: int) -> ClassificationReport:
    """Verdict for continuing the germ to omega with winding index N, where
    omega lies on the modulus-e^M circle or the [e^(M-1), e^M] segment.

    The lift endpoint is built directly from (omega, M, N): circle targets
    land at M + i(arg0 + 2*pi*N) with arg0 in [-2*pi, 0), segment targets at
    ln(omega) + 2*pi*(N-1)i.  The verdict is the staircase status of that
    point; a witness path is attached when it is interior.
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
    lift shifted by inner_branch_im, the outer branch comes from the engine's
    continued value at the new center."""

    def __init__(self, inner_branch_im: float, order: int = DEFAULT_ORDER):
        self.inner_branch_im = inner_branch_im
        self.order = order

    def __call__(self, center: complex, lift: complex, hint: complex) -> Germ:
        inner = lift + complex(0.0, self.inner_branch_im)
        return compose_log(
            log_germ(inner, hint.imag, self.order), center, inner.imag, self.order
        )


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
        compose_log(ell2, cmath.e, 0.0, order),
        gamma,
        refresh=_LogLogRefresh(0.0, order),
    )

    prep = continue_along(ell2, validate_path([1.0, complex(1.0, TWO_PI)]))
    if not prep.completed:  # a straight segment away from 0; cannot happen
        raise RoutingFailure("outer log germ failed along [1, 1+2*pi*i]")
    ell2_shifted = prep.final
    branch_b = continue_along(
        compose_log(ell2_shifted, cmath.e, TWO_PI, order),
        gamma,
        refresh=_LogLogRefresh(TWO_PI, order),
    )
    return ExpExpReport(gamma, branch_a, branch_b)
