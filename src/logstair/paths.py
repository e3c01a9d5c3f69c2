"""Polyline paths in the punctured plane and their continuous logarithm lifts.

A path is a polyline through points of C* = C \\ {0}, parameterized by
chord-length fraction t in [0, 1].  Lifting a path through the logarithm
assigns a continuous branch of log along it; the generalized winding number
is the integer part of the total imaginary increment of that lift divided
by 2*pi.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from .errors import EmptyPath, SegmentThroughOrigin
from .staircase import _seg_dist

# Snap tolerance for the floor in winding_number: protects exact k-fold loops
# from being pushed to k-1 by last-bit rounding in the angle accumulation.
_FLOOR_EPS = 1e-9

def _as_complex(p) -> complex:
    if isinstance(p, complex):
        return p
    if isinstance(p, (int, float)):
        return complex(p)
    re, im = p
    return complex(re, im)


@dataclass(frozen=True)
class PathPolyline:
    """A validated polyline in C*, parameterized by chord-length fraction.

    validate_path builds it with its cumulative chord lengths and the
    continuous log lift at its vertices (start branch 0).  A route from
    monodromy also carries how many of its leading segments the exact oracle
    has found interior at GEOM_TOL already (see engine.continuable_exact):
    its spine's certified prefix, or every segment once reach_path or
    classify has certified it.  It carries as well its own spine's engine
    step store with the spine cache's list of the kept spines' stores, and
    the number of its leading vertices that are its spine's (see
    engine.continue_along)."""

    points: tuple
    _cumlen: tuple = field(repr=False, compare=False)
    _lift: tuple = field(repr=False, compare=False)
    _certified: int = field(default=0, repr=False, compare=False)
    _steps: tuple = field(default=(), repr=False, compare=False)
    _shared: int = field(default=0, repr=False, compare=False)

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]

    @property
    def total_length(self) -> float:
        return self._cumlen[-1]

    def _locate(self, t: float):
        """(i, u): the point at chord-length fraction t lies at fraction u of
        the segment from vertex i; u is None when it is vertex i itself
        (a one-point path, zero total length, or a zero-length segment)."""
        acc = self._cumlen
        total = acc[-1]
        if total == 0.0:
            return 0, None
        s = min(1.0, max(0.0, t)) * total
        lo = min(bisect_right(acc, s) - 1, len(acc) - 2)
        seg_len = acc[lo + 1] - acc[lo]
        if seg_len == 0.0:
            return lo, None
        return lo, (s - acc[lo]) / seg_len

    def point_at(self, t: float) -> complex:
        """Point at chord-length fraction t in [0, 1]."""
        i, u = self._locate(t)
        if u is None:
            return self.points[i]
        a = self.points[i]
        return a + u * (self.points[i + 1] - a)


def lift_at(path: PathPolyline, t: float) -> complex:
    """Continuous-logarithm lift of path(t), start branch 0."""
    i, u = path._locate(t)
    if u is None:
        return path._lift[i]
    a = path.points[i]
    return lift_point(a, path._lift[i].imag, a + u * (path.points[i + 1] - a))


@dataclass(frozen=True)
class LogLift:
    """Continuous logarithm image of a path, sampled at the path's points."""

    points: tuple

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]

    @property
    def delta_im(self) -> float:
        return self.points[-1].imag - self.points[0].imag


def validate_path(points: Iterable) -> PathPolyline:
    """Check a point list against the path invariants and wrap it.

    Raises EmptyPath for an empty list and SegmentThroughOrigin (with the
    offending segment index) when any chord touches the origin.
    """
    pts, cum, lifted = [], [], []
    _extend(pts, cum, lifted, points)
    if not pts:
        raise EmptyPath("path must contain at least one point")
    return PathPolyline(tuple(pts), tuple(cum), tuple(lifted))


def _extend(pts: list, cum: list, lifted: list, new: Iterable) -> None:
    """Append the points `new` to the vertices pts of a valid path (or of
    none), their cumulative chord lengths to cum and their log lifts (start
    branch 0) to lifted.  The new points are checked as validate_path checks
    a path, every point before any segment, and a failed check raises
    before anything is appended."""
    new = [_as_complex(p) for p in new]
    for i, p in enumerate(new, len(pts)):
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise ValueError(f"point {i} is not finite: {p}")
        if p == 0:
            raise SegmentThroughOrigin(max(i - 1, 0))
    joined = pts[-1:] + new
    for i in range(len(joined) - 1):
        if _seg_dist(0j, joined[i], joined[i + 1]) <= 0.0:
            raise SegmentThroughOrigin(max(len(pts) - 1, 0) + i)
    for p in new:
        if pts:
            cum.append(cum[-1] + abs(p - pts[-1]))
            lifted.append(lift_point(pts[-1], lifted[-1].imag, p))
        else:
            cum.append(0.0)
            lifted.append(_start_lift(p, 0.0))
        pts.append(p)


def lift_point(a: complex, theta_a: float, z: complex) -> complex:
    """Lift of a point z on a segment from the vertex a, whose lift has
    imaginary part theta_a: log|z| + i(theta_a + Arg(z/a)).

    Along a straight chord z(t) = a + t(b - a) the derivative of arg(z) is
    Im(z' / z) = cross(a, b - a) / |z|^2, whose sign is constant in t, so the
    sweep is monotone; its magnitude (the angle the segment subtends at 0) is
    below pi whenever the segment misses 0.  The principal argument of z/a is
    therefore the sweep from a to z exactly -- no subdivision is ever needed.
    """
    return complex(math.log(abs(z)), theta_a + cmath.phase(z / a))


def _start_lift(p: complex, start_branch_im: float) -> complex:
    """Lift of a path's first point p: log|p| + i times the argument of p
    nearest start_branch_im (see lift_log)."""
    a0 = cmath.phase(p)
    turns = math.floor((start_branch_im - a0) / (2.0 * math.pi) + 0.5)
    return complex(math.log(abs(p)), a0 + 2.0 * math.pi * turns)


def lift_log(path: PathPolyline, start_branch_im: float = 0.0) -> LogLift:
    """Continuous branch of log along the path.

    The starting branch is the argument of the first point shifted by the
    multiple of 2*pi that lands nearest start_branch_im (for a path starting
    on the positive real axis that is start_branch_im itself).  A request
    exactly halfway between two branches takes the higher one, so shifting
    the request by 2*pi*k shifts the lift by exactly 2*pi*k.  This keeps
    exp(lift) == path exact at every vertex, whatever the start's argument.
    A start_branch_im that is not finite raises ValueError.
    """
    if not math.isfinite(start_branch_im):
        raise ValueError(f"start_branch_im must be finite, got {start_branch_im!r}")
    pts = path.points
    lifted = [_start_lift(pts[0], start_branch_im)]
    for a, b in zip(pts, pts[1:]):
        lifted.append(lift_point(a, lifted[-1].imag, b))
    return LogLift(tuple(lifted))


def winding_number(path: PathPolyline, start_branch_im: float = 0.0) -> int:
    """Integer part of the lift's total imaginary increment over 2*pi.

    Independent of the starting branch, since shifting the branch moves
    both endpoints of the lift equally.
    """
    lift = lift_log(path, start_branch_im)
    return math.floor(lift.delta_im / (2.0 * math.pi) + _FLOOR_EPS)
