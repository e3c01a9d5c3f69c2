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
from dataclasses import dataclass
from functools import cached_property
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
    """A validated polyline in C*, parameterized by chord-length fraction."""

    points: tuple

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]

    @cached_property
    def _cumlen(self):
        acc = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            acc.append(acc[-1] + abs(b - a))
        return acc

    @property
    def total_length(self) -> float:
        return self._cumlen[-1]

    @cached_property
    def _lift(self) -> tuple:
        """Continuous log lift at the vertices, start branch 0."""
        return lift_log(self).points

    @cached_property
    def _verdicts(self) -> dict:
        """The exact oracle's verdicts on this path, by geom_tol (see
        engine.continuable_exact)."""
        return {}

    def _locate(self, t: float):
        """(i, u): the point at chord-length fraction t lies at fraction u of
        the segment from vertex i; u is None when it is vertex i itself
        (a one-point path, zero total length, or a zero-length segment)."""
        acc = self._cumlen
        total = acc[-1]
        if total == 0.0:
            return 0, None
        s = min(1.0, max(0.0, t)) * total
        # find the segment containing arc length s
        lo, hi = 0, len(acc) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if acc[mid] <= s:
                lo = mid
            else:
                hi = mid
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
    pts = tuple(_as_complex(p) for p in points)
    if not pts:
        raise EmptyPath("path must contain at least one point")
    for i, p in enumerate(pts):
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise ValueError(f"point {i} is not finite: {p}")
        if p == 0:
            raise SegmentThroughOrigin(max(i - 1, 0))
    for i in range(len(pts) - 1):
        if _seg_dist(0j, pts[i], pts[i + 1]) <= 0.0:
            raise SegmentThroughOrigin(i)
    return PathPolyline(pts)


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


def lift_log(path: PathPolyline, start_branch_im: float = 0.0) -> LogLift:
    """Continuous branch of log along the path.

    The starting branch is the argument of the first point shifted by the
    multiple of 2*pi that lands nearest start_branch_im (for a path starting
    on the positive real axis that is start_branch_im itself).  A request
    exactly halfway between two branches takes the higher one, so shifting
    the request by 2*pi*k shifts the lift by exactly 2*pi*k.  This keeps
    exp(lift) == path exact at every vertex, whatever the start's argument.
    """
    pts = path.points
    a0 = cmath.phase(pts[0])
    turns = math.floor((start_branch_im - a0) / (2.0 * math.pi) + 0.5)
    theta = a0 + 2.0 * math.pi * turns
    lifted = [complex(math.log(abs(pts[0])), theta)]
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
