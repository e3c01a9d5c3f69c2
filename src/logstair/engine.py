"""Transport germs along paths and compare against the exact lift oracle.

Numeric continuation can only observe radius collapse; the membership oracle
(continuable_exact) is exact for the specific germ family studied here, so
crosscheck() treats the oracle as ground truth and the engine as the thing
being validated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CenterMismatch, LogstairError, NoRefresh, WrongBasePoint
from .paths import PathPolyline, _chord_lift, lift_point
from .series import Germ, log_germ
from .staircase import BASE_POINT, GEOM_TOL, TWO_PI, corner_at, in_interior

STEP_SAFETY = 0.5
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


def _step(path: PathPolyline, i: int, center: complex, cap: float):
    """One engine step along `path` from a point on segment i: the segment j
    of the furthest point up to which the path stays within distance cap of
    center, with that point's arc length s from the path's start, the point
    z and the log lift there, as (j, s, z, lift).  The path's end is
    (len(points) - 1, total length, path.end, the last vertex's lift).

    The distance to center is convex along each chord, so the path stays
    inside while its vertices do.  On the first segment (a, b) whose far
    vertex lies outside, the exit is the larger root v of
    |a + v(b - a) - center| = cap, and s, z and the lift are computed from
    the path up to b alone: paths that share a run of segments step through
    the same bits, and dividing s by each path's own total length gives its
    parameter t.
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
        s = cum[j] + v * (cum[j + 1] - cum[j])
        return j, s, z, lift_point(a, lifted[j].imag, z)
    return len(pts) - 1, cum[-1], path.end, lifted[-1]


_route_lock = threading.RLock()  # the package's one lock (see monodromy._Spine)


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
    parameter reached.  A path whose total length overflows has no
    parameter to step by, and raises ValueError before the first step.

    A route from monodromy carries its own spine (monodromy._Spine), with
    the steps it keeps and their key, and how many of its leading vertices
    are its spine's, n.  A chain keyed like its spine's steps, by
    (start, refresh) with the default hook as None, first replays the kept
    steps that read no vertex past the first n (j + 1 <= n - 1), a prefix
    of them since j never decreases.  The replay relies on how a spine's
    steps grow: only chains of its key append to them, each from the same
    start germ through the steps before, so every kept step passed the
    radius floor and MAX_STEPS on the germ before it.  It checks only what
    this path's own length changes: t, the step's arc length over that
    length, must increase (and a step at t = 1 ends it); a kept failure,
    which only the last kept step can be, ends the chain with its reason.
    The loop then checks the floor and MAX_STEPS on the germ the replay
    ended on, as on the start germ when nothing was replayed.  On the spine
    past its own kept steps a chain takes each step from a spine that the
    cache keeps when the chain runs and whose vertices up to the step's far
    one are the route's (see monodromy._Spine.handed_over); past them it
    steps and refreshes.  Its spine keeps each step it takes on the spine, a
    failed refresh as its reason, when the step is the chain's first or the
    spine holds the chain's key, so each is refreshed once per
    (start, refresh).
    The chain holds _route_lock from its first step to its last, so chains
    that run at once take turns, and every exit releases it.
    """
    if abs(start.center - path.start) > 1e-9:
        raise CenterMismatch(
            f"germ center {start.center} is not the path start {path.start}"
        )
    last, total = len(path.points) - 1, path.total_length
    if total == math.inf:
        raise ValueError("the path's total length exceeds the largest double")
    key = (start, refresh)
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
    own = path._spine
    on_spine = path._shared - 1  # j < on_spine: j + 1 <= n - 1
    elements = [start]
    breaks = [0.0]
    t = 0.0

    def _failed(reason: str) -> ContinuationChain:
        return ContinuationChain(tuple(elements), tuple(breaks), "failed", t, reason)

    with _route_lock:
        kept = own.steps if own is not None and own.key == key else ()
        add_element, add_break = elements.append, breaks.append
        for j, s, center, lift, g_next in kept:
            if j >= on_spine or t >= 1.0:
                break
            t_next = s / total
            if not t_next > t:
                return _failed("no forward progress along the path")
            add_element(g_next)
            add_break(t_next)
            t = t_next
        g = elements[-1]
        if isinstance(g, str):  # a kept failure, only ever its spine's last step
            del elements[-1], breaks[-1]
            t = breaks[-1]
            return _failed(g)
        i = kept[len(breaks) - 2][0] if len(breaks) > 1 else 0
        while True:
            if g.radius_est < RADIUS_FLOOR:
                return _failed(
                    f"radius estimate {g.radius_est:.3e} below floor {RADIUS_FLOOR:.3e}"
                )
            if t >= 1.0:
                return ContinuationChain(tuple(elements), tuple(breaks), "completed")
            if len(breaks) > MAX_STEPS:
                return _failed(f"exceeded {MAX_STEPS} steps")
            k = len(breaks) - 1
            new = k >= len(kept)
            step = own.handed_over(key, k, path.points) if new and i < on_spine else None
            if step is not None and step[0] < on_spine:
                j, s, center, lift, g_next = step
            else:
                j, s, center, lift = _step(path, i, g.center, STEP_SAFETY * g.radius_est)
                g_next = None
            t_next = s / total if j < last else 1.0
            if not t_next > t:
                return _failed("no forward progress along the path")
            if g_next is None:
                if refresh is None:
                    raise NoRefresh("only a log germ has a default refresh; pass a hook")
                try:
                    g_next = refresh(center, lift, g)
                except LogstairError as exc:
                    g_next = f"refresh failed: {exc}"
            if new and j < on_spine and (k == 0 or own.key == key):
                if k == 0:
                    own.key, own.steps = key, []
                own.steps.append((j, s, center, lift, g_next))
            if isinstance(g_next, str):
                return _failed(g_next)
            elements.append(g_next)
            breaks.append(t_next)
            g = g_next
            i, t = j, t_next


def continuable_exact(path: PathPolyline, geom_tol: float = GEOM_TOL) -> OracleVerdict:
    """Exact continuability oracle: the germ continues along `path` precisely
    when the logarithm lift (start branch 0) stays interior to the staircase.

    Each segment is decided by _segment_exit, in order (_first_exit):
    cleared from its two end lifts when the corner of their box is
    interior, and sampled otherwise.  Exits are reported as "corner" only
    when the offending point sits at a staircase corner AND the path
    terminates there (a lift merely passing through a corner is an ordinary
    blocked exit).  A route from monodromy had every segment decided by
    _segment_exit at GEOM_TOL as it was built, so at GEOM_TOL the oracle
    decides none of them, and crosscheck on a route or a classify witness
    decides none; at any other tolerance, and on every other path, it
    decides every segment.  An exit on a path whose total length overflows
    has no parameter, and raises ValueError, as continue_along does; a
    continuable verdict needs none.
    """
    if abs(path.start - BASE_POINT) > geom_tol:
        raise WrongBasePoint(f"oracle paths must start at 0.5, got {path.start}")
    pts, lifted = path.points, path._lift
    lift_end = lifted[-1]
    if not in_interior(lifted[0], geom_tol):  # reached when geom_tol >= 2*pi
        return OracleVerdict("blocked", 0.0, lift_end)
    if path._spine is not None and geom_tol == GEOM_TOL:
        return OracleVerdict("continuable", None, lift_end)
    found = _first_exit(pts, lifted, path._dist, 0, geom_tol)
    if found is None:
        return OracleVerdict("continuable", None, lift_end)
    if path.total_length == math.inf:
        raise ValueError("the path's total length exceeds the largest double")
    i, s_exit = found
    a, b = pts[i], pts[i + 1]
    exit_zeta = lift_point(a, lifted[i].imag, a + s_exit * (b - a))
    t_exit = (path._cumlen[i] + s_exit * abs(b - a)) / path.total_length
    corner = corner_at(exit_zeta, 2.0 * geom_tol)
    terminal = corner is not None and abs(lift_end - corner) <= 2.0 * geom_tol
    return OracleVerdict("corner" if terminal else "blocked", t_exit, lift_end)


def _first_exit(pts, lifted, dist, first: int, geom_tol: float):
    """(i, s) for the first segment i >= first of the polyline pts, whose
    vertices lift to lifted and whose segments pass dist from 0, on which
    the lift leaves the staircase interior at geom_tol, and the fraction s
    of it at which it does (_segment_exit, which the oracle and the routes
    of monodromy share); None if there is none.  A segment of length 0 is
    skipped."""
    for i in range(first, len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if a != b:
            s = _segment_exit(a, b, dist[i], lifted[i], lifted[i + 1], geom_tol)
            if s is not None:
                return i, s
    return None


def _segment_exit(
    a: complex, b: complex, dist: float, lift_a: complex, lift_b: complex, geom_tol: float
):
    """The fraction of the segment from a to b, which passes dist from 0
    (paths._extend measured it when it checked the segment), at which its
    log lift, lift_a at a and lift_b at b, first leaves the staircase
    interior, or None if it stays inside.

    The lift is sampled at ~0.005 increments of lift arc length (by the
    lift paths._chord_lift picks for the chord); the first
    non-interior sample is sharpened by bisection and the fraction nudged just
    past the flip, so it stays non-interior under recomputation.

    Before sampling, the two end lifts may settle the verdict.  |z| is
    convex along the chord, so log|z| peaks at an end; the lift's angle is
    monotone (see lift_point), so it lies between the ends' angles; and
    column is nondecreasing, so E keeps every point left of or above an
    interior point.  If the corner (max Re, min Im) of the end lifts' box,
    pushed outward by a rounding margin, is interior, every sample would be,
    and the chord is cleared with no sample taken.  The margin bounds how far
    a computed sample or end lift can stray from its exact value, with
    u = 2^-53, D = |b - a| and r = dist(0, [a, b]):
      - the samples run along a + s*(b - a) with b - a rounded, so the one at
        s = 1 is a + 1.0*(b - a), not b, and each sample lies within about
        2u*(|a| + D) of its exact point; that moves log|z| and phase(z/a) by
        up to 2u*(|a| + D)/|z| <= 2u*(1 + 2D/r), since |a| <= |z| + D: the
        phase loses about u*|a|/|z| near the chord's closest approach to 0;
      - abs, log, the division, the phase and theta_a + phase round to
        within u*(8 + |log|z|| + |theta_a| + |theta_b|), and |log|z|| < 745
        for every nonzero double.
    The end lifts are the path's vertex lifts.  The one at b is
    lift_point(a, theta_a, b) bit for bit; the one at a is log|a| + i theta_a,
    which differs from lift_point(a, theta_a, a) by the rounding of
    phase(a/a), at most u, inside the end lift's share of the margin.
    Counted at a sample and at an end, that is below 2,000 u times
    (1 + D/r)(1 + |theta_a| + |theta_b|); the margin takes 1e-12 (about
    4,500 u) times that product.  The computed in_interior is monotone as
    well, since rounding is, so a cleared chord is one on which sampling
    would have returned None: every verdict and exit is the sampled one.

    On a chord the box does not clear, a sample inside the disc |z| < r is
    interior with no lift computed, and only the samples outside it are
    lifted.  By the same margin no computed sample's angle falls below the
    box's lower edge, low = min(Im lift_a, Im lift_b) - margin.  Let c be
    the highest column whose floor low clears, low - 2 pi c > geom_tol as
    in_interior computes it (tried from floor((low - geom_tol) / 2 pi) + 1
    down to two below; r = 0 if none clears), and
    r = e^(c + 1 - |geom_tol|) (1 - 1e-12), 0 below e^-708, where exp leaves
    the normal range, and capped at e^709 (_disc).  The sample's abs(z) is
    the modulus whose log the lift takes, and for abs(z) < r that log lies
    below c + 1 - |geom_tol| by the 1e-12 less the roundings of the
    exponent, exp, the product and log, each under 1.2e-13 for exponents
    below 710 in modulus.  So its column, floor(log|z|) unless it snaps onto
    a glue line within geom_tol (none for a negative geom_tol), is at most
    c, and the computed 2 pi column is at most 2 pi c: Im - 2 pi column >=
    low - 2 pi c > geom_tol, and the sample is interior.

    The disc rises with the lift.  The lift's angle is monotone along the
    chord, so past a sample j every exact angle lies between j's and b's,
    at or above min(theta_j, Im lift_b).  A computed angle strays from the
    exact one by what the margin's count above allows a sample or an end,
    so two computed angles, at j and at a later sample or at b, stray by
    less than 2,000 u of the product between them: no later sample's
    computed angle falls below min(w_j, Im lift_b) - margin, w_j the angle
    lifted at j.  So once a lifted, interior sample has w_j - margin
    clearing the floor of column c + 1, and Im lift_b - margin clears it
    too, the rule above applies with c + 1 for c, and the disc grows to
    e^(c + 2 - |geom_tol|) (1 - 1e-12).  The chord subtends less than pi at
    0, so its angles span less than one column's height and the disc rises
    at most once; on a chord whose angle falls, Im lift_b is the lower end,
    b's floor is low's, and it does not rise.  The samples, the first
    non-interior one and the bisection are those of a chord that lifts
    every sample."""
    d = b - a
    arc_bound = abs(d) / dist
    theta_a = lift_a.imag
    margin = 1e-12 * (1.0 + arc_bound) * (1.0 + abs(lift_a.imag) + abs(lift_b.imag))
    worst = complex(
        max(lift_a.real, lift_b.real) + margin, min(lift_a.imag, lift_b.imag) - margin
    )
    if in_interior(worst, geom_tol):
        return None
    c, r = _disc(worst.imag, geom_tol)
    c_b, r_b = _disc(lift_b.imag - margin, geom_tol)
    floor_up = TWO_PI * c_b if c is not None and c_b == c + 1 else math.inf
    n_sub = max(1, math.ceil(arc_bound / _ORACLE_ARC))
    lift = _chord_lift(a, b, dist)
    s_prev = 0.0
    for j in range(1, n_sub + 1):
        s_bad = j / n_sub
        z = a + s_bad * d
        if abs(z) < r:
            s_prev = s_bad
            continue
        w = lift(a, theta_a, z)
        if in_interior(w, geom_tol):
            if w.imag - margin - floor_up > geom_tol:
                r = r_b
            s_prev = s_bad
            continue
        lo, hi = s_prev, s_bad
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if in_interior(lift(a, theta_a, a + mid * d), geom_tol):
                lo = mid
            else:
                hi = mid
        return hi + (s_bad - hi) * 1e-6
    return None


def _disc(low: float, geom_tol: float):
    """(c, r) for angles no lower than low: the highest column c whose
    floor low clears, low - 2 pi c > geom_tol as in_interior computes it
    (tried from floor((low - geom_tol) / 2 pi) + 1 down to two below), and
    the radius r = e^(c + 1 - |geom_tol|) (1 - 1e-12) of the disc in which
    every such point is interior, 0 below e^-708 and capped at e^709
    (see _segment_exit); (None, 0.0) if no floor is cleared."""
    c = math.floor((low - geom_tol) / TWO_PI) + 1
    for c in (c, c - 1, c - 2):
        if low - TWO_PI * c > geom_tol:
            x = c + 1 - abs(geom_tol)
            return c, math.exp(min(x, 709.0)) * (1.0 - 1e-12) if x > -708.0 else 0.0
    return None, 0.0


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
