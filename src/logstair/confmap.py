"""Numerical Riemann map of a truncated staircase polygon onto the unit disc.

The map is built by the geodesic algorithm: the polygon boundary is sampled
at graded nodes, each node is absorbed by an elementary slit map (a Moebius
transform composed with an upper-half-plane square root), the curve is closed
with a hyperbolic geodesic, and a final Moebius step carries the half-plane
to the disc with psi(zeta0) = 0 and psi'(zeta0) > 0.

Far from the base point the staircase crowds images exponentially close to
the unit circle, so a naive evaluation of the composition loses the entire
neighbourhood of zeta0 to cancellation.  Evaluation here is *anchored*: the
orbit of zeta0 through every elementary step is stored at construction time,
and evaluation propagates the difference delta = w - orbit through
cancellation-free forms of each step.  This keeps the region the germs live
in accurate to machine precision while distant points degrade gracefully.

The finished map is scaled by (1 - 1e-7): deep staircase pockets are crowded
so hard that their true distance to the circle is below double precision, and
the margin keeps rounded evaluations strictly inside the closed disc without
measurably moving anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTruncation,
    DegenerateBoundary,
    ModelUnresolved,
    OutsideDomain,
)
from .series import DEFAULT_ORDER, Germ, compose, compose_log, h_germ
from .staircase import BASE_LIFT, BASE_POINT, TWO_PI, Truncation

_SCALE = 1.0 - 1e-7
MIN_RESOLUTION = 64

# Ring radii of the local model, as fractions of the distance to the
# truncation boundary, tried in turn.  The radius that passes sets the germ's
# radius_est and so the engine's next step: the wide ring takes about a third
# fewer steps than 0.5 alone, and 0.5 catches the few points where it fails.
RING_LADDER = (0.85, 0.5)
# The ring's self-check: its mean against the map at the center, and its
# alias band against its largest coefficient (see local_model).
CENTER_TOL = 1e-6
ALIAS_TOL = 1e-3

# local_model's ring: m samples (the least power of two that is at least
# 2 * (DEFAULT_ORDER + 1), so 256), the m-th roots of unity, and the exponents
# 0..DEFAULT_ORDER that scale the FFT's coefficients to the germ's.
_RING_M = 1 << (2 * DEFAULT_ORDER + 1).bit_length()
_RING_UNIT = np.exp(1j * TWO_PI * np.arange(_RING_M) / _RING_M)
_RING_POWERS = np.arange(DEFAULT_ORDER + 1)
_RING_UNIT.flags.writeable = _RING_POWERS.flags.writeable = False


def _flip(s, w):
    """Branch correction mask for the upper-half-plane square root."""
    return (s.imag < 0) | ((s.imag == 0) & (w.real < 0))


def _grade_nodes(vertices, resolution: int) -> np.ndarray:
    """Boundary nodes: vertices[0:2] bound the initial straight edge, the
    rest of the polygon (except the closing edge back to vertices[0]) is
    sampled with cosine grading per edge, clustering nodes at the corners.

    Each edge's share of the nodes goes as length**0.75, not length: the
    zipper's error follows the local node spacing, and shares proportional
    to length leave the unit floors (about 3 nodes each) unresolved just
    above them, while the long risers get more nodes than they need."""
    vs = list(vertices)
    for i in range(len(vs) - 1):
        if vs[i] == vs[i + 1]:
            raise DegenerateBoundary(f"duplicate consecutive vertices at index {i}")
    edges = [(vs[i], vs[i + 1]) for i in range(1, len(vs) - 1)]
    weights = [abs(b - a) ** 0.75 for a, b in edges]
    total = sum(weights)
    nodes = [vs[0], vs[1]]
    budget = resolution - 2
    for (a, b), wt in zip(edges, weights):
        n_e = max(2, round(budget * wt / total))
        s = np.arange(1, n_e + 1) / n_e
        t = (1.0 - np.cos(math.pi * s)) / 2.0
        nodes.extend(a + (b - a) * t)
    return np.asarray(nodes, dtype=complex)


class ConformalMap:
    """Geodesic-composition approximation of the Riemann map of a truncated
    staircase onto the unit disc, normalized at the base lift point."""

    def __init__(self, truncation: Truncation, resolution: int):
        if resolution < MIN_RESOLUTION:
            raise ValueError(
                f"resolution must be >= {MIN_RESOLUTION}, got {resolution}"
            )
        if not truncation.contains(BASE_LIFT):
            raise BadTruncation(
                f"truncation {truncation} does not contain the base lift point "
                f"{BASE_LIFT}"
            )
        self.truncation = truncation
        nodes = _grade_nodes(truncation.vertices(), resolution)
        self.nodes = nodes
        self.v0, self.v1 = nodes[0], nodes[1]

        w = self._enter(nodes[2:])
        t = complex(self._enter(BASE_LIFT))
        # per absorbed node, only what _eval_raw reads: (k_in^2, -k_in/b,
        # 2 t_mid, s_t^2, s_t, -s_t, f_t > 0), with k_in = 1 - t_in/b (the
        # first two are None when b is infinite), s_t the unflipped square
        # root at the anchor, s_t^2 = t_mid^2 + c2 its radicand, and f_t the
        # sign that carries it into the upper half-plane.  All but the last
        # are 0-d arrays, which a ufunc takes in about half the time of a
        # Python complex.
        self.t_start = t
        steps = []
        v0_img = None  # image of v0 (infinity until the first finite b)
        for k in range(len(w)):
            a = complex(w[k])
            if not a.imag > 0:
                raise DegenerateBoundary(
                    f"node {k + 2} image left the upper half plane: {a}"
                )
            absq = a.real * a.real + a.imag * a.imag
            b = absq / a.real if a.real != 0.0 else math.inf
            c2 = (absq / a.imag) ** 2
            if math.isinf(b):
                t_mid, kk, mk = t, None, None
            else:
                k_in = 1.0 - t / b
                t_mid = t / k_in
                kk, mk = np.array(k_in * k_in), np.array(-k_in / b)
                w = w / (1.0 - w / b)
                # the Moebius step sends infinity to -b
                v0_img = -b if v0_img is None else v0_img / (1.0 - v0_img / b)
            sq = t_mid * t_mid + c2
            s_t = complex(np.sqrt(complex(sq)))
            pos = not _flip(s_t, t_mid)
            steps.append((
                kk, mk, np.array(2.0 * t_mid), np.array(sq), np.array(s_t),
                np.array(-s_t), pos,
            ))
            t = s_t if pos else -s_t
            s = np.sqrt(w * w + c2)
            w = np.where(_flip(s, w), -s, s)
            if v0_img is not None:
                s0 = complex(np.sqrt(complex(v0_img * v0_img + c2)))
                v0_img = -s0 if _flip(s0, v0_img) else s0
        self.steps = steps
        self.zeta_close = v0_img
        self.t_pre_close = t
        t_cl = t / (1.0 - t / v0_img)
        self.t_close = t_cl
        self.t_final = -(t_cl * t_cl)  # the disc-map pole parameter p

        self.rot = 1.0 + 0j
        r = min(0.1, 0.5 * truncation.boundary_distance(BASE_LIFT))
        th = TWO_PI * np.arange(64) / 64
        ring = self._eval_raw(BASE_LIFT + r * np.exp(1j * th))
        a1 = np.fft.fft(ring)[1] / 64 / r
        self.rot = _SCALE * abs(a1) / a1

    def _enter(self, z):
        """The entry map i*sqrt((z - v1)/(z - v0)), flipped into the upper
        half-plane: it opens the polygon at its first edge v0-v1."""
        w = 1j * np.sqrt((z - self.v1) / (z - self.v0))
        return np.where(w.imag < 0, -w, w)

    def _eval_raw(self, z):
        """Anchored evaluation; no domain check.  Accepts scalars or arrays."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        delta = self._enter(z) - self.t_start
        # scratch buffers; no product is written over one of its factors,
        # which for one-point arrays would change numpy's rounding.  The
        # loop makes about 2,300 ufunc calls on arrays of 1 to 257 points,
        # so their dispatch is most of its cost: outputs go positionally,
        # the ufuncs are locals and the branch check reads one view of
        # s_w.imag.
        u = np.empty_like(delta)
        s_w = np.empty_like(delta)
        prod = np.empty_like(delta)
        im = s_w.imag
        argmin, argmax = im.argmin, im.argmax
        add, subtract, multiply, divide, sqrt = (
            np.add, np.subtract, np.multiply, np.divide, np.sqrt
        )
        for kk, mk, two_t_mid, sq, s_t, neg_s_t, pos in self.steps:
            if kk is not None:
                # Moebius step: delta / (k_in^2 - (k_in/b) delta)
                multiply(delta, mk, u)
                add(u, kk, u)
                divide(delta, u, delta)
            # slit step: with w = t_mid + delta, w^2 + c2 = s_t^2 + prod
            add(delta, two_t_mid, u)
            multiply(delta, u, prod)
            add(prod, sq, s_w)
            sqrt(s_w, s_w)
            # the extreme imaginary part, NaN if any point's is NaN
            if im[argmin()] > 0.0 if pos else im[argmax()] < 0.0:
                # every point keeps the anchor's branch: only the
                # cancellation-free form is needed, its sign f_t folded
                # into the denominator
                if pos:
                    add(s_w, s_t, s_w)
                else:
                    subtract(neg_s_t, s_w, s_w)
                divide(prod, s_w, delta)
            else:
                # t_mid = two_t_mid / 2 and t_out = f_t s_t, both exact
                f_w = np.where(_flip(s_w, delta + 0.5 * two_t_mid), -1.0, 1.0)
                delta = np.where(
                    (f_w > 0) == pos,
                    f_w * prod / (s_w + s_t),
                    f_w * s_w - (s_t if pos else neg_s_t),
                )
        t = self.t_pre_close
        w_full = t + delta
        delta = delta / ((1.0 - w_full / self.zeta_close) * (1.0 - t / self.zeta_close))
        w_full = self.t_close + delta
        delta = -delta * (w_full + self.t_close)
        w_full = self.t_final + delta
        return self.rot * delta / (w_full - np.conj(self.t_final))

    def local_model(self, zeta) -> Germ:
        """Taylor germ of order DEFAULT_ORDER of the map at an interior point,
        by Cauchy-integral (FFT) sampling on a ring of _RING_M points about
        it.

        The ring radius is the first rung of RING_LADDER, as a fraction of
        the distance to the truncation boundary, whose samples pass the
        self-check: the ring's mean matches the map at zeta (evaluated in the
        same call) to CENTER_TOL, and the alias band of the FFT, the indices
        K < k < m - K that the order-K germ drops, stays below ALIAS_TOL times
        the largest coefficient past the constant.  That radius is the germ's
        radius_est.  Raises ModelUnresolved when no rung passes, or when the
        coefficients are not finite (a ring so small that r**K underflows).
        """
        zeta = complex(zeta)
        if not self.truncation.contains(zeta):
            raise OutsideDomain(f"{zeta} is not interior to the truncated staircase")
        d = self.truncation.boundary_distance(zeta)
        m, K = _RING_M, DEFAULT_ORDER
        for frac in RING_LADDER:
            r = frac * d
            vals = self._eval_raw(np.append(zeta + r * _RING_UNIT, zeta))
            coef = np.fft.fft(vals[:m]) / m
            mags = np.abs(coef[1:])
            if not (
                abs(coef[0] - vals[m]) <= CENTER_TOL
                and mags[K : m - K - 1].max() <= ALIAS_TOL * mags.max()
            ):
                continue
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                taylor = coef[: K + 1] / r**_RING_POWERS
            if np.all(np.isfinite(taylor)):
                return Germ(zeta, tuple(taylor), r)
        raise ModelUnresolved(
            f"no ring about {zeta} passed the local model's self-check "
            f"(distance to the boundary {d:.3e})"
        )

    def _f_germ(self, center: complex, lift: complex) -> Germ:
        """Germ at center of h(psi(log z)) on the log branch whose value at
        center is lift: h-germ composed with (local map model at lift
        composed with the log germ), at DEFAULT_ORDER.  The map keeps no
        germ: a route's steps are kept by its spine (monodromy._Spine)."""
        mid = compose_log(self.local_model(lift), center)
        return compose(h_germ(mid.coeffs[0]), mid)


def build_map(truncation, resolution: int) -> ConformalMap:
    """Construct the disc map of the truncated staircase at the given
    boundary-node resolution (at least 64)."""
    return ConformalMap(truncation, resolution)


def psi_eval(cmap: ConformalMap, z) -> complex:
    """Forward evaluation of the disc map at an interior point."""
    z = complex(z)
    if not cmap.truncation.contains(z):
        raise OutsideDomain(f"{z} is not interior to the truncated staircase")
    return complex(cmap._eval_raw(z)[0])


def f_germ_at_base(cmap: ConformalMap) -> Germ:
    """Germ at z = 0.5 of h(psi(log z)), log taken with branch value ln 0.5.

    The anchored normalization makes the inner value at 0.5 equal zero to
    machine precision, so the constant term is h(0) ~ 0.  Each call
    assembles the germ afresh (about 5 ms).
    """
    return cmap._f_germ(BASE_POINT, BASE_LIFT)


@dataclass(frozen=True)
class FRefresh:
    """Rebuilder of the h(psi(log z)) germ for the continuation engine:
    reassembles the composition at each new center on the log branch given
    by the path's lift there.  Holds no state but its map, and compares
    equal by it, so one object serves any number of runs and the engine
    keys the steps it keeps on route spines by the map: a step a spine
    holds is not refreshed again, by any hook on that map.  The germ being
    continued, prev, is not read: the lift alone fixes the branch."""

    cmap: ConformalMap

    def __call__(self, center: complex, lift: complex, prev: Germ) -> Germ:
        return self.cmap._f_germ(center, lift)


def _interior_grid(truncation: Truncation):
    """Deterministic 200-point interior sample grid: per column, an x line-up
    inset 0.051 from the risers and y levels from just above the floor to at
    most three steps up (or the truncation cap)."""
    count, inset = 200, 0.051
    cols = list(range(truncation.n_min, truncation.n_max + 1))
    per = [count // len(cols)] * len(cols)
    for i in range(count - sum(per)):
        per[i] += 1
    pts = []
    for n, k in zip(cols, per):
        nx = min(8, k)
        ny = math.ceil(k / nx)
        xs = np.linspace(n + inset, n + 1 - inset, nx)
        floor_y = TWO_PI * n
        ys = np.linspace(
            floor_y + inset, min(floor_y + 3 * TWO_PI, truncation.y_max - inset), ny
        )
        col_pts = [complex(x, y) for y in ys for x in xs]
        pts.extend(col_pts[:k])
    return np.asarray(pts[:count], dtype=complex)


def quality_report(cmap: ConformalMap) -> dict:
    """Self-certification of the built map: interior containment, discrete
    injectivity on a 200-point grid, and boundary adherence at 32 nodes.
    "passed" says whether the map is fit to use: every grid image inside the
    disc, the boundary images within 0.1 of the circle and within 0.05 on
    average, and no two grid images equal."""
    grid = _interior_grid(cmap.truncation)
    vals = cmap._eval_raw(grid)
    mods = np.abs(vals)
    diffs = np.abs(vals[:, None] - vals[None, :])
    diffs[np.arange(len(vals)), np.arange(len(vals))] = np.inf
    absorbed = cmap.nodes[2:]
    idx = np.unique(np.round(np.linspace(0, len(absorbed) - 1, 32)).astype(int))
    bmods = np.abs(cmap._eval_raw(absorbed[idx]))
    interior, sep = float(mods.max()), float(diffs.min())
    bmin, bmean = float(bmods.min()), float(bmods.mean())
    return {
        "interior_max_modulus": interior,
        "boundary_min_modulus": bmin,
        "boundary_mean_modulus": bmean,
        "grid_injectivity_min_separation": sep,
        "passed": interior < 1.0 and bmin > 0.9 and bmean > 0.95 and sep > 0.0,
    }
