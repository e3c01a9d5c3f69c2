"""Independent references the benchmark checks the library's answers against.

Everything here is written from the definitions (the staircase
E = {y > 2*pi*floor(x)}, the continuous logarithm along a polyline, the
minimal interior branch of log) and shares no code with logstair, so a
regression in the library cannot also move the reference.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi
GEOM_TOL = 1e-9


def interior(z: complex, tol: float = GEOM_TOL) -> bool:
    """Staircase membership. A point within tol of the glue line x = m
    belongs to column m, whose floor 2*pi*m is the stricter of the two."""
    return z.imag - TWO_PI * math.floor(z.real + tol) > tol


def min_branch_target(omega: complex) -> complex:
    """log(omega) on the lowest branch that lands inside the staircase."""
    x = math.log(abs(omega))
    a = math.atan2(omega.imag, omega.real)
    floor_y = TWO_PI * math.floor(x + GEOM_TOL)
    k = math.ceil((floor_y - a) / TWO_PI)
    while not interior(complex(x, a + TWO_PI * k)):
        k += 1
    while interior(complex(x, a + TWO_PI * (k - 1))):
        k -= 1
    return complex(x, a + TWO_PI * k)


def _start_angle(z: complex, start_im: float) -> float:
    """The argument of z closest to start_im."""
    theta = math.atan2(z.imag, z.real)
    return theta + TWO_PI * round((start_im - theta) / TWO_PI)


def lift_vertices(points, start_im: float = 0.0) -> list:
    """Continuous log of the polyline at each of its vertices."""
    pts = [complex(p) for p in points]
    theta = _start_angle(pts[0], start_im)
    out = [complex(math.log(abs(pts[0])), theta)]
    for a, b in zip(pts, pts[1:]):
        theta += cmath.phase(b / a)
        out.append(complex(math.log(abs(b)), theta))
    return out


def lift_point(points, t: float, start_im: float = 0.0) -> complex:
    """Continuous log of the polyline at chord-length fraction t, on the
    branch whose value at the first point has imaginary part closest to
    start_im."""
    pts = [complex(p) for p in points]
    theta = _start_angle(pts[0], start_im)
    lengths = [abs(b - a) for a, b in zip(pts, pts[1:])]
    target = min(max(t, 0.0), 1.0) * sum(lengths)
    for a, b, seg in zip(pts, pts[1:], lengths):
        if target <= seg and seg > 0.0:
            z = a + (b - a) * (target / seg)
            return complex(math.log(abs(z)), theta + cmath.phase(z / a))
        target -= seg
        theta += cmath.phase(b / a)
    return complex(math.log(abs(pts[-1])), theta)


def segment_origin_distance(a: complex, b: complex) -> float:
    d = b - a
    s = -(a.real * d.real + a.imag * d.imag) / (abs(d) ** 2)
    return abs(a + min(1.0, max(0.0, s)) * d)


def close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))
