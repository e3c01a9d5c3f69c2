"""Geometry of the staircase domain and the slit family it projects onto.

The domain is the union over all integers n of the half-strips
{x + iy : n <= x <= n+1, y > 2*pi*n}.  Its interior consists of the open
strips together with the glue half-lines x = m, y > 2*pi*m, so membership
reduces to a single floor comparison: z is interior iff y > 2*pi*floor(x),
with x snapped to the nearest integer when within tolerance (the glue rule
is the stricter of the two adjacent strips).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BadTruncation

TWO_PI = 2.0 * math.pi
GEOM_TOL = 1e-9

# Every path starts at the base point; its lift on branch 0 is the base lift
# point, where the disc map is normalized and routes begin.
BASE_POINT = 0.5 + 0j
BASE_LIFT = complex(math.log(0.5), 0.0)


def column(x: float, tol: float = GEOM_TOL) -> int:
    """Index n of the column whose floor 2*pi*n bounds the domain at real
    part x: floor(x), except that x within tol of an integer m snaps onto
    the glue line x = m and takes m, the higher of the two adjacent floors."""
    m = round(x)
    if abs(x - m) <= tol:
        return m
    return math.floor(x)


def in_interior(z: complex, tol: float = GEOM_TOL) -> bool:
    """True iff z lies in the interior of the staircase domain."""
    return z.imag - TWO_PI * column(z.real, tol) > tol


def corner_at(z: complex, tol: float) -> Optional[complex]:
    """The staircase corner (m, 2*pi*m), m = round(Re z), when z lies within
    tol of it; None otherwise."""
    m = round(z.real)
    corner = complex(m, TWO_PI * m)
    return corner if abs(z - corner) <= tol else None


def _seg_dist(z: complex, a: complex, b: complex) -> float:
    """Distance from z to the segment [a, b]."""
    d = b - a
    L2 = d.real * d.real + d.imag * d.imag
    if L2 == 0.0:
        return abs(z - a)
    t = ((z.real - a.real) * d.real + (z.imag - a.imag) * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def boundary_distance(z: complex) -> float:
    """Euclidean distance from z to the boundary of the staircase interior.

    The boundary consists of the floor segments [n, n+1] x {2*pi*n} and the
    riser segments {n} x [2*pi*(n-1), 2*pi*n].  Its corners (n, 2*pi*n) lie on
    the line y = 2*pi*x and all of it lies in the strip down to
    y = 2*pi*x - 2*pi, so the nearest segment is within two indices of
    n* = floor((x + 2*pi*y) / (1 + 4*pi^2)), the corner nearest to z's
    projection onto that line.  The search scans the union of the windows of
    +-2 around n*, z's column and its height's level.  n* lies between the
    other two, so a call never scans more than the levels from z's column to
    its height's level, widened by two.
    """
    x, y = z.real, z.imag
    centers = (
        math.floor(x),
        math.floor(y / TWO_PI),
        math.floor((x + TWO_PI * y) / (1.0 + TWO_PI * TWO_PI)),
    )
    best = math.inf
    for n in {n for c in centers for n in range(c - 2, c + 3)}:
        floor_y = TWO_PI * n
        best = min(best, _seg_dist(z, complex(n, floor_y), complex(n + 1, floor_y)))
        best = min(best, _seg_dist(z, complex(n, floor_y - TWO_PI), complex(n, floor_y)))
    return best


@dataclass(frozen=True)
class Truncation:
    """Bounded polygonal view of the staircase, for the conformal module.

    Covers columns n_min..n_max, capped above at y_max.  The cap must leave
    at least a full step of headroom over the highest floor.
    """

    n_min: int
    n_max: int
    y_max: float

    def __post_init__(self):
        if self.n_min >= self.n_max:
            raise BadTruncation(f"need n_min < n_max, got {self.n_min} >= {self.n_max}")
        if not self.y_max > TWO_PI * self.n_max + TWO_PI:
            raise BadTruncation(
                f"y_max={self.y_max} must exceed 2*pi*(n_max+1)={TWO_PI * (self.n_max + 1)}"
            )

    def vertices(self) -> list:
        """Polygon vertices, counterclockwise, starting at the top-left corner."""
        vs = [complex(self.n_min, self.y_max), complex(self.n_min, TWO_PI * self.n_min)]
        for n in range(self.n_min, self.n_max + 1):
            if n > self.n_min:
                vs.append(complex(n, TWO_PI * n))
            vs.append(complex(n + 1, TWO_PI * n))
        vs.append(complex(self.n_max + 1, self.y_max))
        return vs

    def contains(self, z: complex) -> bool:
        """True iff z is interior to the truncated domain."""
        if not in_interior(z):
            return False
        return (
            self.n_min + GEOM_TOL < z.real < self.n_max + 1 - GEOM_TOL
            and z.imag < self.y_max - GEOM_TOL
        )

    def boundary_distance(self, z: complex) -> float:
        """Distance from z to the truncation polygon's boundary."""
        vs = self.vertices()
        return min(
            _seg_dist(z, vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )


def slit_contains(omega: complex, M: int) -> bool:
    """True iff omega lies within GEOM_TOL of the circle of radius e^M or of
    the segment [e^(M-1), e^M]."""
    if omega == 0:
        return False
    if abs(abs(omega) - math.exp(M)) < GEOM_TOL:
        return True
    if abs(omega.imag) < GEOM_TOL:
        return math.exp(M - 1) - GEOM_TOL <= omega.real <= math.exp(M) + GEOM_TOL
    return False


def choose_lift_target(omega: complex) -> complex:
    """The logarithm of omega on the branch of minimal index that lands
    in the staircase interior.

    Returns ln|omega| + i*(Arg(omega) + 2*pi*k) with the smallest integer k
    making the point interior; such k always exists because for fixed real
    part every sufficiently high point is interior.
    """
    if omega == 0:
        raise ValueError("omega must be nonzero")
    x = math.log(abs(omega))
    a = cmath.phase(omega)
    if a <= -math.pi + 1e-15:  # phase returns (-pi, pi]; normalize the seam
        a = math.pi
    k = math.floor((TWO_PI * column(x) + GEOM_TOL - a) / TWO_PI) + 1
    zeta = complex(x, a + TWO_PI * k)
    while not in_interior(zeta):
        k += 1
        zeta = complex(x, a + TWO_PI * k)
    return zeta
