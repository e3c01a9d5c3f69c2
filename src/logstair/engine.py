"""Transport germs along paths and compare against the exact lift oracle.

Numeric continuation can only observe radius collapse; the membership oracle
(continuable_exact) is exact for the specific germ family studied here, so
crosscheck() treats the oracle as ground truth and the engine as the thing
being validated.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CenterMismatch, LogstairError, NoRefresh, WrongBasePoint
from .paths import PathPolyline, lift_point
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


def _step(path: PathPolyline, i: int, u: float, center: complex, cap: float):
    """One engine step along `path` from fraction u of segment i: the
    furthest position (j, v), fraction v of segment j, up to which the path
    stays within distance cap of center, with its path parameter t, its
    point z and the log lift there, as (j, v, t, z, lift).  The path's end
    is (len(points) - 1, 0.0, 1.0, path.end, the last vertex's lift).

    The distance to center is convex along each chord, so the path stays
    inside while its vertices do.  On the first segment (a, b) whose far
    vertex lies outside, the exit is the larger root v of
    |a + v(b - a) - center| = cap, and z and the lift are computed from a and
    b alone: paths that share a run of segments step through the same bits.
    """
    cap = cap * (1.0 - 1e-12)
    pts, cum, lifted = path.points, path._cumlen, path._lift
    for j in range(i, len(pts) - 1):
        b = pts[j + 1]
        if abs(b - center) <= cap:
            continue
        a = pts[j]
        d, w = b - a, a - center
        qa = d.real * d.real + d.imag * d.imag
        qb = w.real * d.real + w.imag * d.imag
        qc = w.real * w.real + w.imag * w.imag - cap * cap
        # the discriminant qb^2 - qa qc, written as qa cap^2 - cross(w, d)^2
        # so that it does not cancel when a lies far from center
        cross = w.real * d.imag - w.imag * d.real
        root = math.sqrt(max(qa * cap * cap - cross * cross, 0.0))
        # the cancellation-free form of the larger root for either sign of qb
        v = min(1.0, (root - qb) / qa if qb <= 0.0 else -qc / (qb + root))
        z = a + v * d
        t = (cum[j] + v * (cum[j + 1] - cum[j])) / cum[-1]
        return j, v, t, z, lift_point(a, lifted[j].imag, z)
    return len(pts) - 1, 0.0, 1.0, path.end, lifted[-1]


def continue_along(
    start: Germ,
    path: PathPolyline,
    refresh: Optional[Callable[[complex, complex, Germ], Germ]] = None,
) -> ContinuationChain:
    """Continue `start` along `path` by steps of at most STEP_SAFETY times the
    current radius estimate.

    Each step rebuilds an authoritative germ at the next center with
    `refresh(center, lift, prev)`, where lift is the path's log lift at
    center and prev is the germ being continued; a hook that needs the
    continued value evaluates prev.eval(center) itself, and one that
    rebuilds from (center, lift) alone pays nothing for it.  Each step is
    located on one segment (see _step), so paths that share segments hand
    the hook bit-identical (center, lift) pairs there, and the last step
    hands it path.end and the lift of the last vertex.  A hook is a pure
    function of its arguments, so one hook serves any number of runs.  With
    no hook, a germ equal to log_germ(center, Im a_0, order) is rebuilt as
    the log branch through prev's value at the new center; any other germ
    needs a hook: a Taylor shift alone carries no radius it can trust, so a
    step without one raises NoRefresh.  Failure means the radius estimate
    dropped below RADIUS_FLOOR, MAX_STEPS ran out or the hook raised a
    LogstairError (ModelUnresolved, for one); t_fail is the furthest
    parameter reached.
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
        refresh = lambda center, lift, prev: log_germ(
            center, prev.eval(center).imag, order
        )
    elements = [start]
    breaks = [0.0]
    g = start
    i, u, t = 0, 0.0, 0.0
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
        j, v, t_next, center, lift = _step(
            path, i, u, g.center, STEP_SAFETY * g.radius_est
        )
        if not t_next > t:
            return _failed("no forward progress along the path")
        if refresh is None:
            raise NoRefresh("only a log germ has a default refresh; pass a hook")
        try:
            g_next = refresh(center, lift, g)
        except LogstairError as exc:
            return _failed(f"refresh failed: {exc}")
        elements.append(g_next)
        breaks.append(t_next)
        g = g_next
        i, u, t = j, v, t_next


# Exit fractions of the oracle's segments, least recently used dropped first.
# Routes from the base point form one tree, so different routes share the
# trunk and their column's corridor chord for chord; a path asked again
# keeps its own verdict (see continuable_exact). With no memo and with 512,
# 1,024 and 2,048 entries, 200 sweep operations sample 20,788, 1,230, 1,221
# and 1,221 segments afresh, and 600 oracle-paths operations 16,009, 5,035,
# 3,360 and 2,376 (bench/ workloads, seed 701).
SEGMENT_MEMO_CAPACITY = 1024
_segment_exits = OrderedDict()  # see continuable_exact


def continuable_exact(path: PathPolyline, geom_tol: float = GEOM_TOL) -> OracleVerdict:
    """Exact continuability oracle: the germ continues along `path` precisely
    when the logarithm lift (start branch 0) stays interior to the staircase.

    Each segment's lift is sampled by _segment_exit.  Exits are reported as
    "corner" only when the offending point sits at a staircase corner AND the
    path terminates there (a lift merely passing through a corner is an
    ordinary blocked exit).  The verdict is a pure function of the path's
    points and geom_tol, so the path keeps it, keyed by geom_tol: crosscheck
    on a path that reach_path or classify has certified looks it up.  A
    segment's exit fraction depends on its ends, the lift's angle at its
    start and geom_tol alone, so the last SEGMENT_MEMO_CAPACITY of them are
    kept too, keyed by those six doubles' bits, for the segments that
    different paths share; the path parameter and the exit point are
    recomputed from the fraction.
    """
    verdicts = path._verdicts
    if geom_tol in verdicts:
        return verdicts[geom_tol]
    if abs(path.start - BASE_POINT) > geom_tol:
        raise WrongBasePoint(f"oracle paths must start at 0.5, got {path.start}")
    verdict = verdicts[geom_tol] = _path_verdict(path, geom_tol)
    return verdict


def _path_verdict(path: PathPolyline, geom_tol: float) -> OracleVerdict:
    """continuable_exact's verdict, computed segment by segment."""
    lifted = path._lift
    lift_end = lifted[-1]
    pts = path.points
    cum = path._cumlen

    if not in_interior(lifted[0], geom_tol):  # unreachable for base 0.5
        return OracleVerdict("blocked", 0.0, lift_end)

    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        seg = abs(b - a)
        if seg == 0.0:
            continue
        theta_a = lifted[i].imag
        key = struct.pack("6d", a.real, a.imag, b.real, b.imag, theta_a, geom_tol)
        if key in _segment_exits:
            _segment_exits.move_to_end(key)
            s_exit = _segment_exits[key]
        else:
            s_exit = _segment_exits[key] = _segment_exit(a, b, theta_a, geom_tol)
            if len(_segment_exits) > SEGMENT_MEMO_CAPACITY:
                _segment_exits.popitem(last=False)
        if s_exit is not None:
            exit_zeta = lift_point(a, theta_a, a + s_exit * (b - a))
            t_exit = (cum[i] + s_exit * seg) / path.total_length
            corner = corner_at(exit_zeta, 2.0 * geom_tol)
            terminal = (
                corner is not None and abs(lift_end - corner) <= 2.0 * geom_tol
            )
            return OracleVerdict("corner" if terminal else "blocked", t_exit, lift_end)

    return OracleVerdict("continuable", None, lift_end)


def _segment_exit(a: complex, b: complex, theta_a: float, geom_tol: float):
    """The fraction of the segment from a to b at which its log lift, of
    angle theta_a at a, first leaves the staircase interior, or None if it
    stays inside.

    The lift is sampled at ~0.005 increments of lift arc length; the first
    non-interior sample is sharpened by bisection and the fraction nudged just
    past the flip, so it stays non-interior under recomputation."""
    d = b - a
    arc_bound = abs(d) / _seg_dist(0j, a, b)
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
        return hi + (s_bad - hi) * 1e-6
    return None


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
    refresh: Optional[Callable[[complex, complex, Germ], Germ]] = None,
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
