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
from typing import Iterable, Sequence

from .errors import EmptyPath, SegmentThroughOrigin

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


def _segment_origin_distance(a: complex, b: complex) -> float:
    """Distance from the segment [a, b] to 0, by projection."""
    d = b - a
    L2 = d.real * d.real + d.imag * d.imag
    if L2 == 0.0:
        return abs(a)
    t = -(a.real * d.real + a.imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d)


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

    def point_at(self, t: float) -> complex:
        """Point at chord-length fraction t in [0, 1]."""
        pts = self.points
        if len(pts) == 1:
            return pts[0]
        acc = self._cumlen
        total = acc[-1]
        if total == 0.0:
            return pts[0]
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
            return pts[lo]
        u = (s - acc[lo]) / seg_len
        return pts[lo] + u * (pts[lo + 1] - pts[lo])


@dataclass(frozen=True)
class LogLift:
    """Continuous logarithm image of a path, sampled at the path's points."""

    points: tuple
    start_branch_im: float

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
        if _segment_origin_distance(pts[i], pts[i + 1]) <= 0.0:
            raise SegmentThroughOrigin(i)
    return PathPolyline(pts)


def _segment_angle(a: complex, b: complex) -> float:
    """Signed angle swept by arg along the segment [a, b].

    Along a straight chord z(t) = a + t(b - a) the derivative of arg(z) is
    Im(z' / z) = cross(a, b - a) / |z|^2, whose sign is constant in t, so the
    sweep is monotone; its magnitude (the angle the segment subtends at 0) is
    below pi whenever the segment misses 0.  The principal argument of b/a is
    therefore the sweep exactly -- no subdivision is ever needed.
    """
    return cmath.phase(b / a)


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
        theta += _segment_angle(a, b)
        lifted.append(complex(math.log(abs(b)), theta))
    return LogLift(tuple(lifted), start_branch_im)


def winding_number(path: PathPolyline, start_branch_im: float = 0.0) -> int:
    """Integer part of the lift's total imaginary increment over 2*pi.

    Independent of the starting branch, since shifting the branch moves
    both endpoints of the lift equally.
    """
    lift = lift_log(path, start_branch_im)
    return math.floor(lift.delta_im / (2.0 * math.pi) + _FLOOR_EPS)
