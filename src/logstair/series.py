"""Truncated power-series germs: log branches, the lacunary gap series h,
composition, and radius-of-convergence estimation.

A germ is the data (center, a_0..a_K, radius_est).  radius_est is an estimate,
not a certificate: constructors set it from structure (|z0| for log, 1-|z0|
for h), and composition uses a conservative contraction rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .errors import (
    CompositionOutOfRange,
    OutsideDisc,
    TooFewCoefficients,
    ZeroCenter,
)

DEFAULT_ORDER = 64
COEFF_TOL = 1e-12

# log of the largest magnitude allowed for a single series term; sums of
# many such terms still fit comfortably below the double-precision maximum.
_LOG_HUGE = 700.0


@dataclass(frozen=True)
class Germ:
    """Truncated Taylor expansion sum a_k (z - center)^k."""

    center: complex
    coeffs: tuple
    radius_est: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a germ needs at least one coefficient")
        if not cmath.isfinite(self.center) or not all(
            cmath.isfinite(c) for c in self.coeffs
        ):
            raise ValueError("germ data must be finite")
        if not self.radius_est > 0:
            raise ValueError(f"radius_est must be positive, got {self.radius_est!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, z):
        """Horner evaluation at z (scalar or ndarray); exact a_0 at the center."""
        u = z - self.center
        acc = self.coeffs[-1]
        for a in self.coeffs[-2::-1]:
            acc = acc * u + a
        return acc


def log_germ(z0, branch_im: float = 0.0, order: int = DEFAULT_ORDER) -> Germ:
    """Germ of the logarithm branch with Im = branch_im at z0.

    a_0 = ln|z0| + i branch_im, a_k = (-1)^(k-1) / (k z0^k); the radius is
    exactly |z0| (distance to the only singularity).

    Once k z0^k overflows (|z0| above about 6.6e4 at the default order),
    a_k and every later coefficient is 0: its magnitude is below
    1/(k * DBL_MAX).  The terms dropped are not small far from z0, so the
    radius shrinks to |z0| 2^(-53/k), inside which they sum to less than
    2^-53: the series stays accurate where radius_est says it is.  So every
    |z0| >= 1 gives a germ, however large.  Small |z0| has no such way out:
    once 1/(k z0^k) overflows, or z0^k underflows to 0 (at the default
    order, |z0| below about 1.43e-5), the order-`order` coefficients exceed
    the double range, and ValueError says so.  A branch_im that is not
    finite raises ValueError.
    """
    z0 = complex(z0)
    if z0 == 0:
        raise ZeroCenter("log germ centered at 0")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not math.isfinite(branch_im):
        raise ValueError(f"branch_im must be finite, got {branch_im!r}")
    radius = abs(z0)
    coeffs = [complex(math.log(radius), branch_im)]
    zk = z0
    for k in range(1, order + 1):
        kz = k * zk
        if not cmath.isfinite(kz):
            coeffs += [0j] * (order + 1 - k)
            radius *= 2.0 ** (-53 / k)
            break
        coeffs.append((-1.0) ** (k - 1) / kz if kz else math.inf)
        zk *= z0
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError(
            f"the order-{order} coefficients of a log germ at |z0| = {abs(z0)!r} "
            "exceed the double range"
        )
    return Germ(z0, tuple(coeffs), radius)


def eval_h(z) -> complex:
    """Sum of z^(2^nu) over nu >= 0, truncated once the geometric tail bound
    |z|^(2^(K+1)) / (1 - |z|) drops below COEFF_TOL."""
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise OutsideDisc(f"h is only defined for |z| < 1, got |z| = {r}")
    if z == 0:
        return 0j
    total = 0j
    p = z
    while True:
        total += p
        p = p * p
        if abs(p) / (1.0 - r) < COEFF_TOL:
            return total


def h_germ(z0, order: int = DEFAULT_ORDER) -> Germ:
    """Taylor germ of the gap series at z0, |z0| < 1.

    a_k = sum over nu with 2^nu >= k of C(2^nu, k) z0^(2^nu - k), accumulated
    in log space (the binomials and powers individually overflow long before
    the products do).  Levels are added until the largest remaining term is
    safely below COEFF_TOL; past the peak the terms decay faster than any
    geometric series, so the cut tail is below COEFF_TOL as well.
    radius_est = 1 - |z0|: nothing closer than the unit circle is singular.

    Very close to the circle the coefficients themselves exceed the double
    range (the peak term grows like C(n, k) with n ~ k / (1 - |z0|)); that is
    reported as OutsideDisc: at this order and precision the center is
    indistinguishable from a boundary point.
    """
    z0 = complex(z0)
    r = abs(z0)
    if r >= 1.0:
        raise OutsideDisc(f"h germ needs |z0| < 1, got |z0| = {r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coeffs = [0j] * (order + 1)
    if z0 == 0:
        nu = 0
        while (1 << nu) <= order:
            coeffs[1 << nu] = 1.0
            nu += 1
    else:
        lr = math.log(r)
        ph = cmath.phase(z0)
        log_tol = math.log(COEFF_TOL)
        nu = 0
        prev_top = math.inf
        while True:
            n = 1 << nu
            top = -math.inf
            for k, lb in enumerate(_log_binomials(nu, order)):
                lt = lb + (n - k) * lr
                if lt > _LOG_HUGE:
                    raise OutsideDisc(
                        f"coefficient magnitude exp({lt:.0f}) exceeds double "
                        f"precision: |z0| = {r} is numerically on the unit "
                        f"circle at order {order}"
                    )
                if lt > top:
                    top = lt
                if lt > log_tol - 3.0:
                    coeffs[k] += cmath.exp(complex(lt, (n - k) * ph))
            if n >= order and top <= prev_top and top < log_tol - 1.5:
                break
            prev_top = top
            nu += 1
    return Germ(z0, tuple(coeffs), 1.0 - r)


@lru_cache(maxsize=None)
def _log_binomials(nu: int, order: int) -> tuple:
    """ln C(n, k) for n = 2^nu and k = 0..min(order, n), each evaluated as
    lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) in that order."""
    n = 1 << nu
    lg_n = lgamma(n + 1)
    return tuple(
        lg_n - lgamma(k + 1) - lgamma(n - k + 1) for k in range(min(order, n) + 1)
    )


def compose(outer: Germ, inner: Germ) -> Germ:
    """Germ of outer(inner(.)) about inner.center, truncated to the shorter
    order.

    Requires inner's value at its center to lie inside outer's disc.  The
    composed radius_est is the largest r (capped at inner.radius_est) with
    |c_0| + sum |c_k| r^k <= outer.radius_est, c being inner's coefficients
    relative to outer.center -- i.e. the disc the inner germ provably cannot
    map outside outer's disc.

    The Horner steps multiply by the lower-triangular Toeplitz matrix of c,
    which is the truncated product with inner's series.
    """
    gap = abs(inner.coeffs[0] - outer.center)
    if not gap < outer.radius_est:
        raise CompositionOutOfRange(
            f"inner center value is {gap:.6g} from outer center, "
            f"radius {outer.radius_est:.6g}"
        )
    K = min(outer.order, inner.order)
    c = np.zeros(K + 2, dtype=complex)  # c[K + 1] fills the upper triangle
    c[0] = inner.coeffs[0] - outer.center
    c[1 : K + 1] = inner.coeffs[1 : K + 1]
    toeplitz = c[_toeplitz_index(K)]
    acc = np.zeros(K + 1, dtype=complex)
    acc[0] = outer.coeffs[K]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(K - 1, -1, -1):
            acc = toeplitz @ acc
            acc[0] += outer.coeffs[j]
    _check_finite(acc)
    radius = _composed_radius(np.abs(c[: K + 1]), outer.radius_est, inner.radius_est)
    return Germ(inner.center, tuple(acc), radius)


def compose_log(outer: Germ, center) -> Germ:
    """compose(outer, log_germ(center, Im outer.center, outer.order)), by one
    product with a table.  The log's value at center must be outer.center
    exactly, as it is for a lift made by paths.lift_point; otherwise raises
    ValueError.

    With v = (z - center) / center the inner series is then
    outer.center + log(1 + v), so coefficient n of the composition is
    center^-n sum_k [v^n] log(1 + v)^k outer_k: substituting a log is a
    fixed linear map.  The radius is compose's, from the same coefficients.
    """
    K = outer.order
    lam = log_germ(center, outer.center.imag, K)
    if lam.coeffs[0] != outer.center:
        raise ValueError(
            f"log at {lam.center} is {lam.coeffs[0]}, not the outer center "
            f"{outer.center}"
        )
    mag = np.abs(lam.coeffs[: K + 1])
    mag[0] = 0.0  # |c_0|, the gap to outer.center
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _log_power_table(K) @ np.array(outer.coeffs[: K + 1])
        acc *= lam.center ** -np.arange(K + 1)
    _check_finite(acc)
    radius = _composed_radius(mag, outer.radius_est, lam.radius_est)
    return Germ(lam.center, tuple(acc), radius)


def _check_finite(acc) -> None:
    if not np.all(np.isfinite(acc.view(float))):
        raise CompositionOutOfRange(
            "composed coefficients exceed double precision "
            "(outer germ varies too violently over inner's range)"
        )


@lru_cache(maxsize=None)
def _toeplitz_index(K: int):
    """Index into c[0..K+1] that gathers the (K+1)-square lower-triangular
    Toeplitz matrix of c[0..K], with c[K+1] = 0 above the diagonal."""
    n = np.arange(K + 1)
    index = n[:, None] - n[None, :]
    index[index < 0] = K + 1
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _log_power_table(K: int):
    """T[n, k] = [v^n] log(1 + v)^k for 0 <= n, k <= K: k!/n! times the
    Stirling numbers of the first kind, by the recurrence
    T[n+1, k] = (k T[n, k-1] - n T[n, k]) / (n + 1), whose two terms have
    the same sign."""
    table = np.zeros((K + 1, K + 1))
    table[0, 0] = 1.0
    k = np.arange(1, K + 1)
    for n in range(K):
        table[n + 1, 1:] = (k * table[n, :-1] - n * table[n, 1:]) / (n + 1)
    table = table.astype(complex)  # the products are with complex germs
    table.flags.writeable = False
    return table


def _composed_radius(mag, outer_radius: float, inner_radius: float) -> float:
    """Largest r <= inner_radius with sum mag[k] r^k <= outer_radius, by at
    most 80 halvings of [0, inner_radius] that stop at adjacent doubles (an
    infinite inner_radius is first replaced by a doubling bound).  The
    polynomial is evaluated by a plain-float Horner loop: at order 64 a
    numpy call per evaluation costs far more than the sum."""
    coeffs_desc = np.asarray(mag, dtype=float)[::-1].tolist()

    def reach(rr: float) -> float:
        acc = 0.0
        for m in coeffs_desc:
            acc = acc * rr + m
        return acc

    hi = inner_radius
    if not math.isfinite(hi):
        hi = 1.0
        while reach(hi) <= outer_radius and hi < 1e12:
            hi *= 2.0
    if reach(hi) <= outer_radius:
        return hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent doubles: no later step moves them
        if reach(mid) <= outer_radius:
            lo = mid
        else:
            hi = mid
    return lo


def estimate_radius(coeffs) -> float:
    """Cauchy-Hadamard estimate 1 / max |a_k|^(1/k) over the top half of the
    coefficient indices (zero coefficients skipped; +inf if all vanish)."""
    n = len(coeffs)
    if n < 8:
        raise TooFewCoefficients(f"need at least 8 coefficients, got {n}")
    best = 0.0
    for k in range(n // 2, n):
        m = abs(coeffs[k])
        if m > 0.0:
            root = m ** (1.0 / k)
            if root > best:
                best = root
    return math.inf if best == 0.0 else 1.0 / best
