"""Transport germs along paths and compare against the exact lift oracle.

Numeric continuation can only observe radius collapse; the membership oracle
(continuable_exact) is exact for the specific germ family studied here, so
crosscheck() treats the oracle as ground truth and the engine as the thing
being validated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CenterMismatch, LogstairError, NoRefresh, WrongBasePoint
from .paths import PathPolyline, lift_at, lift_point
from .series import STEP_SAFETY, Germ, log_germ
from .staircase import BASE_POINT, GEOM_TOL, TWO_PI, _seg_dist, corner_at, in_interior

RADIUS_FLOOR = 1e-4
MAX_STEPS = 100_000
CROSS_TOL = 0.02

_ORACLE_ARC = 0.005  # lift-space sampling resolution of the exact oracle


@dataclass(frozen=True)
class ContinuationChain:
    """Chain of germs along a path; breakpoints are path parameters in [0,1]."""

    elements: tuple
    breakpoints: tuple
    status: str  # "completed" | "failed"
    t_fail: Optional[float] = None
    reason: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def final(self) -> Germ:
        return self.elements[-1]


@dataclass(frozen=True)
class OracleVerdict:
    verdict: str  # "continuable" | "blocked" | "corner"
    first_exit_t: Optional[float]
    lift_end: complex


@dataclass(frozen=True)
class CrosscheckReport:
    agree: bool
    chain: ContinuationChain
    oracle: OracleVerdict
    detail: str


def _vertex_params(path: PathPolyline):
    total = path.total_length
    if total == 0.0:
        return [0.0] * len(path.points)
    return [c / total for c in path._cumlen]


def _advance(path: PathPolyline, vert_ts, t0: float, center: complex, cap: float) -> float:
    """Largest parameter t >= t0 such that the sub-path [t0, t] stays within
    distance cap of center, located by bisection.  On a polyline the distance
    along each chord is convex, so checking interior vertices plus the moving
    endpoint is exact."""
    cap = cap * (1.0 - 1e-12)
    lo_idx = bisect.bisect_right(vert_ts, t0)

    def ok(t: float) -> bool:
        if abs(path.point_at(t) - center) > cap:
            return False
        idx = lo_idx
        while idx < len(vert_ts) and vert_ts[idx] < t:
            if abs(path.points[idx] - center) > cap:
                return False
            idx += 1
        return True

    if ok(1.0):
        return 1.0
    lo, hi = t0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def continue_along(
    start: Germ,
    path: PathPolyline,
    refresh: Optional[Callable[[complex, complex, complex], Germ]] = None,
) -> ContinuationChain:
    """Continue `start` along `path` by steps of at most STEP_SAFETY times the
    current radius estimate.

    Each step rebuilds an authoritative germ at the next center with
    `refresh(center, lift, hint)`, where lift is lift_at(path, t) at that
    center and hint is the current germ's value there.  A hook is a pure
    function of its arguments, so one hook serves any number of runs.  With
    no hook, a germ equal to log_germ(center, Im a_0, order) is rebuilt as
    the log branch through hint; any other germ needs a hook: a Taylor shift
    alone carries no radius it can trust, so a step without one raises
    NoRefresh.  Failure means the radius estimate dropped below RADIUS_FLOOR,
    MAX_STEPS ran out or the hook raised a LogstairError (ModelUnresolved,
    for one); t_fail is the furthest parameter reached.
    """
    if abs(start.center - path.start) > 1e-9:
        raise CenterMismatch(
            f"germ center {start.center} is not the path start {path.start}"
        )
    order = start.order
    if (
        refresh is None
        and order >= 1
        and start.center != 0
        and start == log_germ(start.center, start.coeffs[0].imag, order)
    ):
        refresh = lambda center, lift, hint: log_germ(center, hint.imag, order)
    vert_ts = _vertex_params(path)
    elements = [start]
    breaks = [0.0]
    g = start
    t = 0.0
    steps = 0

    def _failed(reason: str) -> ContinuationChain:
        return ContinuationChain(tuple(elements), tuple(breaks), "failed", t, reason)

    while True:
        if g.radius_est < RADIUS_FLOOR:
            return _failed(
                f"radius estimate {g.radius_est:.3e} below floor {RADIUS_FLOOR:.3e}"
            )
        if t >= 1.0:
            return ContinuationChain(tuple(elements), tuple(breaks), "completed")
        if steps >= MAX_STEPS:
            return _failed(f"exceeded {MAX_STEPS} steps")
        steps += 1
        t_next = _advance(path, vert_ts, t, g.center, STEP_SAFETY * g.radius_est)
        if not t_next > t:
            return _failed("no forward progress along the path")
        if refresh is None:
            raise NoRefresh("only a log germ has a default refresh; pass a hook")
        center = path.point_at(t_next)
        lift, hint = lift_at(path, t_next), g.eval(center)
        try:
            g_next = refresh(center, lift, hint)
        except LogstairError as exc:
            return _failed(f"refresh failed: {exc}")
        elements.append(g_next)
        breaks.append(t_next)
        g = g_next
        t = t_next


def continuable_exact(path: PathPolyline, geom_tol: float = GEOM_TOL) -> OracleVerdict:
    """Exact continuability oracle: the germ continues along `path` precisely
    when the logarithm lift (start branch 0) stays interior to the staircase.

    The lift is sampled at ~0.005 increments of lift arc length; the first
    non-interior sample is sharpened by bisection.  Exits are reported as
    "corner" only when the offending point sits at a staircase corner AND the
    path terminates there (a lift merely passing through a corner is an
    ordinary blocked exit).
    """
    if abs(path.start - BASE_POINT) > geom_tol:
        raise WrongBasePoint(f"oracle paths must start at 0.5, got {path.start}")
    lifted = path._lift
    lift_end = lifted[-1]
    pts = path.points
    cum = path._cumlen
    total = path.total_length

    if not in_interior(lifted[0], geom_tol):  # unreachable for base 0.5
        return OracleVerdict("blocked", 0.0, lift_end)

    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        d = b - a
        seg = abs(d)
        if seg == 0.0:
            continue
        theta_a = lifted[i].imag
        arc_bound = seg / _seg_dist(0j, a, b)
        n_sub = max(1, math.ceil(arc_bound / _ORACLE_ARC))
        s_prev = 0.0
        for j in range(1, n_sub + 1):
            s_bad = j / n_sub
            if in_interior(lift_point(a, theta_a, a + s_bad * d), geom_tol):
                s_prev = s_bad
                continue
            lo, hi = s_prev, s_bad
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if in_interior(lift_point(a, theta_a, a + mid * d), geom_tol):
                    lo = mid
                else:
                    hi = mid
            # nudge just past the flip so the reported parameter stays
            # non-interior under recomputation
            s_exit = hi + (s_bad - hi) * 1e-6
            exit_zeta = lift_point(a, theta_a, a + s_exit * d)
            t_exit = (cum[i] + s_exit * seg) / total
            corner = corner_at(exit_zeta, 2.0 * geom_tol)
            terminal = (
                corner is not None and abs(lift_end - corner) <= 2.0 * geom_tol
            )
            return OracleVerdict("corner" if terminal else "blocked", t_exit, lift_end)

    return OracleVerdict("continuable", None, lift_end)


def overlap_disagreement(chain: ContinuationChain, points_per_junction: int = 8) -> float:
    """Worst value disagreement between adjacent chain germs, probed on a
    circle of radius |step|/4 around each junction midpoint."""
    worst = 0.0
    for g1, g2 in zip(chain.elements, chain.elements[1:]):
        mid = 0.5 * (g1.center + g2.center)
        rho = 0.25 * abs(g2.center - g1.center)
        for j in range(points_per_junction):
            p = mid + rho * complex(
                math.cos(TWO_PI * j / points_per_junction),
                math.sin(TWO_PI * j / points_per_junction),
            )
            worst = max(worst, abs(g1.eval(p) - g2.eval(p)))
    return worst


def crosscheck(
    path: PathPolyline,
    f_germ: Germ,
    refresh: Optional[Callable[[complex, complex, complex], Germ]] = None,
) -> CrosscheckReport:
    """Run the numeric engine and the exact oracle on the same path and
    report whether they tell the same story: both continue, or both fail
    within CROSS_TOL of each other in the path parameter."""
    chain = continue_along(f_germ, path, refresh)
    oracle = continuable_exact(path)
    if oracle.verdict == "continuable":
        agree = chain.completed
        detail = (
            "both continue"
            if agree
            else f"oracle continuable but engine failed at t={chain.t_fail}"
        )
    else:
        if not chain.completed:
            gap = abs(chain.t_fail - oracle.first_exit_t)
            agree = gap < CROSS_TOL
            detail = (
                f"both fail (engine t={chain.t_fail:.6f}, "
                f"oracle t={oracle.first_exit_t:.6f}, gap {gap:.2e})"
            )
        else:
            agree = False
            detail = f"oracle {oracle.verdict} at t={oracle.first_exit_t} but engine completed"
    return CrosscheckReport(agree, chain, oracle, detail)
