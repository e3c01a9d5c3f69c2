import cmath
import math
import warnings
from fractions import Fraction
from math import lgamma

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstair import (
    CompositionOutOfRange,
    Germ,
    OutsideDisc,
    TooFewCoefficients,
    Truncation,
    ZeroCenter,
    build_map,
    compose,
    estimate_radius,
    eval_h,
    h_germ,
    log_germ,
    lift_at,
    reach_path,
)
from logstair.series import (
    _LOG_HUGE,
    COEFF_TOL,
    _composed_radius,
    _log_power_table,
    compose_log,
)

# Reference values for the gap series H(z) = sum_{nu>=0} z^(2^nu), computed
# with 40-digit arithmetic (mpmath) and rounded to double precision.
H_REFERENCE = {
    0.5: 0.81642150902189314,
    0.9: 3.0173864756323392,
    0.99: 6.3138998472365585,
    0.999: 9.6333153962244746,
}

# Taylor coefficients of H about z0 = 0.3+0.2j from the same 40-digit run.
H_TAYLOR_03_02 = {
    0: 0.33809752843835875 + 0.33171440136516778j,
    1: 1.5604378220976161 + 0.57875885807719215j,
    2: 1.2429922064309749 + 0.69688598096665107j,
    5: -0.44652122432898094 + 2.5867472524856292j,
    11: -26.014349899135823 + 5.3150698356201973j,
}


class TestGerm:
    def test_eval_at_center_is_exact(self):
        g = Germ(2.0 + 1.0j, (0.25 + 0j, 1.0 + 0j), 1.0)
        assert g.eval(2.0 + 1.0j) == 0.25 + 0j

    def test_eval_matches_polyval(self):
        g = log_germ(2.0 - 1.0j, 0.0, 24)
        w = 2.3 - 0.8j
        expected = complex(np.polyval(list(g.coeffs)[::-1], w - g.center))
        assert abs(g.eval(w) - expected) < 1e-13

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Germ(0.0, (math.inf, 1.0), 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Germ(0.0, (1.0,), 0.0)


class TestLogGerm:
    def test_coefficients_at_2(self):
        g = log_germ(2.0, 0.0, 2)
        assert g.coeffs[0] == pytest.approx(math.log(2.0))
        assert g.coeffs[1] == pytest.approx(0.5)
        assert g.coeffs[2] == pytest.approx(-0.125)
        assert g.radius_est == 2.0

    def test_coefficients_at_1(self):
        g = log_germ(1.0, 0.0, 3)
        assert g.coeffs[0] == 0.0
        assert g.coeffs[1] == 1.0
        assert g.coeffs[2] == -0.5

    def test_branch_only_moves_constant_term(self):
        a = log_germ(0.5, 0.0, 16)
        b = log_germ(0.5, 2 * math.pi, 16)
        assert b.coeffs[0] == complex(math.log(0.5), 2 * math.pi)
        assert a.coeffs[1:] == b.coeffs[1:]

    def test_zero_center(self):
        with pytest.raises(ZeroCenter):
            log_germ(0.0, 0.0)

    @pytest.mark.parametrize("z0", [1.2e-5, 1e-6, -2e-6j, 1e-300, 5e-324])
    def test_a_tiny_center_is_one_domain_error(self, z0):
        # 1/(k z0^k) overflows (1.2e-5) or z0^k underflows to 0 (the rest)
        # at order 64; a lower order keeps every coefficient finite
        with pytest.raises(ValueError, match=r"order-64 coefficients .* exceed the double range"):
            log_germ(z0, 0.0, 64)
        assert log_germ(1e-6, 0.0, 8).radius_est == 1e-6

    def test_value_near_center(self):
        g = log_germ(2.0 - 1.0j, cmath.phase(2.0 - 1.0j), 48)
        w = 2.2 - 0.9j
        assert abs(g.eval(w) - cmath.log(w)) < 1e-14


def _log_coeffs_unguarded(z0, order):
    """log_germ's coefficients as they were formed before the overflow
    guard: a_k = (-1)^(k-1) / (k z0^k) with z0^k by repeated products."""
    coeffs = [complex(math.log(abs(z0)), 0.0)]
    zk = z0
    for k in range(1, order + 1):
        coeffs.append((-1.0) ** (k - 1) / (k * zk))
        zk *= z0
    return tuple(coeffs)


class TestLogGermPastTheOverflow:
    """Once k z0^k overflows, the coefficients from k on are 0 and the
    radius shrinks to |z0| 2^(-53/k)."""

    @pytest.mark.parametrize("z0", [0.5, 2.0 - 1.0j, -3e4j, 6e4, 1e-4 + 1e-4j])
    def test_coefficients_are_unchanged_while_every_power_is_finite(self, z0):
        g = log_germ(z0, 0.0, 64)
        assert g.coeffs == _log_coeffs_unguarded(z0, 64)
        assert g.radius_est == abs(z0)

    def test_a_huge_center_gives_finite_coefficients(self):
        g = log_germ(1e200, 0.0)
        assert all(cmath.isfinite(c) for c in g.coeffs)
        assert g.coeffs[:2] == (complex(math.log(1e200), 0.0), 1e-200)
        assert set(g.coeffs[2:]) == {0j}
        assert g.radius_est == 1e200 * 2.0 ** (-53 / 2)

    @pytest.mark.parametrize("z0", [1e5, -7e9j, 1e30 * cmath.exp(1j), 1e100, 1e300])
    def test_the_series_is_accurate_inside_its_radius(self, z0):
        g = log_germ(z0, cmath.phase(z0))
        assert g.radius_est < abs(z0)
        for j in range(8):
            w = z0 + 0.99 * g.radius_est * cmath.exp(2j * math.pi * j / 8)
            want = complex(math.log(abs(w)), cmath.phase(z0) + cmath.phase(w / z0))
            assert abs(g.eval(w) - want) <= 1e-15 * abs(want)


class TestEvalH:
    @pytest.mark.parametrize("r,ref", sorted(H_REFERENCE.items()))
    def test_reference_values(self, r, ref):
        assert eval_h(r) == pytest.approx(ref, abs=1e-11)

    def test_complex_argument(self):
        z = 0.3 + 0.2j
        assert abs(eval_h(z) - H_TAYLOR_03_02[0]) < 1e-13

    def test_zero(self):
        assert eval_h(0.0) == 0.0

    def test_outside_disc(self):
        with pytest.raises(OutsideDisc):
            eval_h(1.0)
        with pytest.raises(OutsideDisc):
            eval_h(0.8 + 0.7j)

    def test_blow_up_toward_boundary(self):
        values = [eval_h(r).real for r in (0.5, 0.9, 0.99, 0.999)]
        assert values == sorted(values)
        assert values[-1] > 5.0


class TestHGerm:
    def test_lacunary_pattern_at_zero(self):
        g = h_germ(0.0, 8)
        assert [c.real for c in g.coeffs] == [0, 1, 1, 0, 1, 0, 0, 0, 1]
        assert g.radius_est == 1.0

    def test_radius_is_gap_to_circle(self):
        assert h_germ(0.5, 8).radius_est == pytest.approx(0.5)

    @pytest.mark.parametrize("k", sorted(H_TAYLOR_03_02))
    def test_taylor_against_reference(self, k):
        g = h_germ(0.3 + 0.2j, 12)
        assert abs(g.coeffs[k] - H_TAYLOR_03_02[k]) < 1e-11

    def test_germ_value_matches_eval(self):
        g = h_germ(0.4 + 0.1j, 64)
        w = 0.45 + 0.12j
        assert abs(g.eval(w) - eval_h(w)) < 1e-10

    def test_outside_disc(self):
        with pytest.raises(OutsideDisc):
            h_germ(1.0 + 0j)

    def test_numerically_on_boundary(self):
        # coefficients overflow double precision for centers this close to
        # the circle; reported as a domain error, not a crash
        with pytest.raises(OutsideDisc):
            h_germ(1.0 - 1e-9)


class TestCompose:
    def test_exp_after_log_is_identity(self):
        # outer: Taylor of exp about ln 2 (value 2); inner: log about 2
        order = 24
        exp_coeffs = tuple(2.0 / math.factorial(k) for k in range(order + 1))
        outer = Germ(math.log(2.0), exp_coeffs, math.inf)
        inner = log_germ(2.0, 0.0, order)
        g = compose(outer, inner)
        assert abs(g.coeffs[0] - 2.0) < 1e-14
        assert abs(g.coeffs[1] - 1.0) < 1e-13
        assert all(abs(c) < 1e-10 for c in g.coeffs[2:])

    def test_gap_series_of_half_argument(self):
        inner = Germ(0.0, (0.0, 0.5) + (0.0,) * 7, 10.0)
        g = compose(h_germ(0.0, 8), inner)
        expected = {1: 0.5, 2: 0.25, 4: 0.0625, 8: 2.0**-8}
        for k, c in enumerate(g.coeffs):
            assert abs(c - expected.get(k, 0.0)) < 1e-15

    def test_log_after_log(self):
        g = compose(log_germ(1.0, 0.0, 32), log_germ(math.e, 0.0, 32))
        assert abs(g.coeffs[0]) < 1e-15
        assert abs(g.coeffs[1] - 1.0 / math.e) < 1e-13

    def test_value_agreement(self):
        g = compose(log_germ(1.0, 0.0, 48), log_germ(math.e, 0.0, 48))
        for w in (math.e * 1.05, math.e - 0.1, math.e + 0.2j):
            assert abs(g.eval(w) - cmath.log(cmath.log(w))) < 1e-9

    def test_inner_value_outside_outer_disc(self):
        outer = log_germ(1.0, 0.0, 8)  # radius 1 around center 1
        inner = Germ(0.0, (3.0, 1.0), 1.0)  # value 3
        with pytest.raises(CompositionOutOfRange):
            compose(outer, inner)

    def test_composed_radius_is_conservative(self):
        g = compose(log_germ(1.0, 0.0, 32), log_germ(math.e, 0.0, 32))
        # the analytic safety bound is e - 1 (where -ln(1 - r/e) reaches 1);
        # the order-32 majorant may overshoot it by its own tail, ~1e-8
        assert 0 < g.radius_est < math.e - 1.0 + 1e-6


class TestEstimateRadius:
    def test_geometric_series(self):
        assert estimate_radius((1.0,) * 64) == pytest.approx(1.0, abs=0.02)

    def test_log_germ(self):
        est = estimate_radius(log_germ(2.0, 0.0, 64).coeffs)
        assert abs(est - 2.0) <= 0.2

    def test_gap_series(self):
        assert estimate_radius(h_germ(0.0, 64).coeffs) == pytest.approx(1.0)

    def test_needs_enough_coefficients(self):
        with pytest.raises(TooFewCoefficients):
            estimate_radius((1.0,) * 7)

    def test_polynomial_sentinel(self):
        assert estimate_radius((1.0,) + (0.0,) * 15) == math.inf


# ---------------------------------------------------------------------------
# property tests

centers = st.builds(
    complex,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
).filter(lambda z: abs(z) > 0.05)


@given(centers)
@settings(max_examples=150, deadline=None)
def test_log_germ_radius_estimate(z0):
    est = estimate_radius(log_germ(z0, 0.0, 64).coeffs)
    assert abs(est - abs(z0)) <= 0.1 * abs(z0)


@given(st.floats(0.05, 0.7), st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_h_germ_evaluation_consistency(r, a):
    z0 = r * cmath.exp(1j * a)
    g = h_germ(z0, 48)
    w = z0 * (1.0 + 0.05j)
    if abs(w - z0) < 0.3 * g.radius_est and abs(w) < 0.95:
        assert abs(g.eval(w) - eval_h(w)) < 1e-7


def _composed_radius_polyval(mag, outer_radius, inner_radius):
    """Reference: the composed-radius bisection evaluated with np.polyval."""
    coeffs_desc = mag[::-1]

    def reach(rr):
        return float(np.polyval(coeffs_desc, rr))

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
        if reach(mid) <= outer_radius:
            lo = mid
        else:
            hi = mid
    return lo


@given(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=65),
    st.floats(1e-3, 1e3),
    st.one_of(st.floats(1e-4, 10.0), st.just(math.inf)),
)
@settings(max_examples=200, deadline=None)
def test_composed_radius_matches_polyval_bisection(mag, outer_radius, inner_radius):
    mag = np.asarray(mag)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _composed_radius_polyval(mag, outer_radius, inner_radius)
    assert _composed_radius(mag, outer_radius, inner_radius) == expected


# ---------------------------------------------------------------------------
# kernels against the code they replaced


def _horner(mag, r):
    acc = 0.0
    for m in mag[::-1]:
        acc = acc * r + m
    return acc


def _search_top(mag, outer_radius, inner_radius):
    """The upper end of _composed_radius's bisection."""
    if math.isfinite(inner_radius):
        return inner_radius
    hi = 1.0
    while _horner(mag, hi) <= outer_radius and hi < 1e12:
        hi *= 2.0
    return hi


# 80 halvings of [0, top] leave an interval of about top * 2^-80, and a
# double r has its neighbours at least r * 2^-53 away, so from top * 2^-27
# up, with a bit to spare for the rounded midpoints, the bisection ends on
# adjacent doubles; below that it may stop short
_HALVINGS_GUARD = 2.0 ** (53 + 1 - 80)


@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e12)), max_size=64),
    st.floats(1e-9, 1e3),
    st.one_of(st.floats(1e-6, 1e3), st.just(math.inf)),
)
@example(0.0, [1.0, 1.0], 3.0, math.inf)  # infinite radius, doubled to 2 then bisected
@example(0.0, [1e-20], 1.0, math.inf)  # infinite radius, doubling passes at 2^40
@example(0.1, [0.1], 1.0, 0.5)  # inner_radius passes
@example(2.0, [1.0], 1.0, 1.0)  # no positive radius passes
@example(0.5, [1e12] * 64, 1.0, 1.0)  # below the guard: 80 halvings stop short
@example(0.0, [2.0**26], 1.0, 1.0)  # the answer 2^-26, at the guard
@settings(max_examples=500, deadline=None)
def test_composed_radius_matches_the_bisection(gap, tail, outer_radius, inner_radius):
    # |c_0| is the gap to the outer center, below the outer radius
    mag = [gap * outer_radius] + tail
    got = _composed_radius(mag, outer_radius, inner_radius)
    hi = _search_top(mag, outer_radius, inner_radius)
    # the answer passes (0.0 by convention) and does not exceed the top
    assert 0.0 <= got <= hi
    assert got == 0.0 or _horner(mag, got) <= outer_radius
    # where the halvings reach adjacent doubles it is the largest passing
    # double below the top
    if got >= hi * _HALVINGS_GUARD:
        assert got == hi or _horner(mag, math.nextafter(got, math.inf)) > outer_radius


def _compose_convolve(outer, inner):
    """Reference: compose with its Horner steps as np.convolve calls."""
    gap = abs(inner.coeffs[0] - outer.center)
    if not gap < outer.radius_est:
        raise CompositionOutOfRange("gap")
    K = min(outer.order, inner.order)
    c = np.empty(K + 1, dtype=complex)
    c[0] = inner.coeffs[0] - outer.center
    c[1:] = inner.coeffs[1 : K + 1]
    acc = np.zeros(K + 1, dtype=complex)
    acc[0] = outer.coeffs[K]
    for j in range(K - 1, -1, -1):
        acc = np.convolve(acc, c)[: K + 1]
        acc[0] += outer.coeffs[j]
    if not np.all(np.isfinite(acc.view(float))):
        raise CompositionOutOfRange("overflow")
    radius = _composed_radius(np.abs(c), outer.radius_est, inner.radius_est)
    return Germ(inner.center, tuple(acc), radius)


def _h_germ_inline(z0, order):
    """Reference: h_germ with its lgamma calls inline and an ndarray
    accumulator."""
    z0 = complex(z0)
    r = abs(z0)
    if r >= 1.0:
        raise OutsideDisc(f"h germ needs |z0| < 1, got |z0| = {r}")
    coeffs = np.zeros(order + 1, dtype=complex)
    if z0 == 0:
        nu = 0
        while (1 << nu) <= order:
            coeffs[1 << nu] = 1.0
            nu += 1
    else:
        lr = math.log(r)
        ph = cmath.phase(z0)
        log_tol = math.log(COEFF_TOL)
        lg_k = [lgamma(k + 1) for k in range(order + 1)]
        nu = 0
        prev_top = math.inf
        while True:
            n = 1 << nu
            lg_n = lgamma(n + 1)
            top = -math.inf
            for k in range(min(order, n) + 1):
                lt = lg_n - lg_k[k] - lgamma(n - k + 1) + (n - k) * lr
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


def _scaled_gap(got, ref, rho):
    """max |got_k - ref_k| rho^k / max |ref_k| rho^k."""
    w = rho ** np.arange(len(ref.coeffs))
    diff = np.max(np.abs(np.subtract(got.coeffs, ref.coeffs)) * w)
    return diff and diff / np.max(np.abs(ref.coeffs) * w)


def _raises(fn, *args):
    """The CompositionOutOfRange fn raises, or its result."""
    try:
        return fn(*args)
    except CompositionOutOfRange as exc:
        return exc


unit_coeffs = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@given(
    st.lists(unit_coeffs, min_size=1, max_size=65),
    st.lists(unit_coeffs, min_size=1, max_size=65),
    st.floats(-3.0, 4.5),
    st.floats(-3.0, 4.5),
    st.floats(0.0, 1.5),
    st.floats(0.1, 10.0),
)
@example([1j] * 65, [1.0] * 65, 3.0, 3.0, 0.0, 1.0)  # overflows
@example([1.0] * 65, [1.0] * 65, 0.0, 0.0, 1.0, 1.0)  # gap on the radius
@settings(max_examples=200, deadline=None)
def test_toeplitz_horner_matches_convolve(outer_m, inner_m, e_out, e_in, gap, radius):
    # outer_k = m_k 10^(k e_out), inner_k = m_k 10^(k e_in); the inner value
    # sits gap radii from outer's center
    outer = Germ(
        0.3 - 0.2j,
        [m * 10.0 ** (k * e_out) for k, m in enumerate(outer_m)],
        radius,
    )
    inner = Germ(
        1.0 + 1.0j,
        [0.3 - 0.2j + gap * radius * outer_m[0]]
        + [m * 10.0 ** (k * e_in) for k, m in enumerate(inner_m)][1:],
        2.0,
    )
    with np.errstate(all="ignore"):
        ref = _raises(_compose_convolve, outer, inner)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _raises(compose, outer, inner)
    if isinstance(ref, CompositionOutOfRange):
        assert isinstance(got, CompositionOutOfRange)
        return
    assert isinstance(got, Germ)
    assert got.center == ref.center and got.radius_est == ref.radius_est
    # rounding is bounded by the same composition on magnitudes
    gaps = np.abs(np.subtract(inner.coeffs, (outer.center,) + (0,) * inner.order))
    magnitudes = _raises(
        _compose_convolve,
        Germ(0.0, np.abs(outer.coeffs), math.inf),
        Germ(0.0, gaps, 1.0),
    )
    if isinstance(magnitudes, CompositionOutOfRange):
        return  # the bound itself overflows
    bound = np.abs(magnitudes.coeffs)
    diff = np.abs(np.array(got.coeffs) - np.array(ref.coeffs))
    assert np.all(diff <= 1e-12 * bound)


def test_overflowing_composition_raises_without_a_warning():
    outer = Germ(0.0, (1e200,) * 65, 1e300)
    inner = Germ(1.0, (0.0,) + (1e10,) * 64, 1.0)
    log_outer = Germ(log_germ(1e-3).coeffs[0], (1e300,) * 65, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CompositionOutOfRange):
            compose(outer, inner)
        with pytest.raises(CompositionOutOfRange):
            compose_log(log_outer, 1e-3)


def _stirling_ratio_rows(K):
    """Exact [v^n] log(1+v)^k = k!/n! s(n, k), s the signed Stirling numbers
    of the first kind."""
    s = [[1] + [0] * K]
    for n in range(K):
        prev = s[-1]
        s.append([0] + [prev[k - 1] - n * prev[k] for k in range(1, K + 1)])
    return [
        [Fraction(math.factorial(k) * s[n][k], math.factorial(n)) for k in range(K + 1)]
        for n in range(K + 1)
    ]


class TestLogSubstitution:
    def test_table_is_the_stirling_table(self):
        table = _log_power_table(64)
        for n, row in enumerate(_stirling_ratio_rows(64)):
            for k, exact in enumerate(row):
                entry = table[n, k]
                assert entry.imag == 0.0
                if exact == 0:
                    assert entry == 0.0
                else:
                    assert abs(Fraction(entry.real) / exact - 1) <= 1e-15
        np.testing.assert_array_equal(_log_power_table(8), table[:9, :9])

    def test_rejects_a_center_off_the_log_value(self):
        # the log's value at 2 is not the outer center (ln 2 != 0.7), as for
        # a lift not made by lift_point
        outer = Germ(0.7 + 0.1j, [1.0, 0.5, 0.25, 0.125], 1.0)
        with pytest.raises(ValueError, match="not the outer center"):
            compose_log(outer, 2.0)

    @given(
        st.lists(unit_coeffs, min_size=2, max_size=65),
        st.floats(0.05, 20.0),
        st.floats(-math.pi, math.pi),
        st.floats(-10.0, 10.0),
        st.floats(0.05, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_compose(self, outer_m, modulus, angle, branch, radius):
        center = cmath.rect(modulus, angle)
        order = len(outer_m) - 1
        lam = log_germ(center, branch, order)
        outer = Germ(
            lam.coeffs[0], [m / radius**k for k, m in enumerate(outer_m)], radius
        )
        ref = _compose_convolve(outer, lam)
        got = compose_log(outer, center)
        assert got.center == ref.center and got.radius_est == ref.radius_est
        assert got.coeffs[0] == ref.coeffs[0]
        assert _scaled_gap(got, ref, got.radius_est) <= 1e-13

    def test_matches_compose_on_map_lifts(self):
        # the local models the refresh composes, along routed paths
        cmap = build_map(Truncation(-2, 2, 8 * math.pi), 256)
        checked = 0
        for target in (2j, 2.5, -1j, 0.2, 1 + 0.01j):
            path = reach_path(target)
            for t in np.linspace(0.0, 1.0, 24):
                center, lift = path.point_at(t), lift_at(path, t)
                outer = cmap.local_model(lift)
                ref = _compose_convolve(outer, log_germ(center, lift.imag, 64))
                got = compose_log(outer, center)
                assert got.radius_est == ref.radius_est
                assert got.coeffs[0] == ref.coeffs[0]
                assert _scaled_gap(got, ref, got.radius_est) <= 1e-13
                checked += 1
        assert checked == 120


class TestHGermTable:
    @given(
        st.floats(0.0, 0.999),
        st.floats(-math.pi, math.pi),
        st.sampled_from([8, 33, 64]),
    )
    @example(0.999, 0.3, 64)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_inline_loop(self, r, a, order):
        z0 = cmath.rect(r, a)
        assert h_germ(z0, order) == _h_germ_inline(z0, order)

    def test_equals_the_inline_loop_at_zero(self):
        for order in (1, 8, 64):
            got = h_germ(0j, order)
            assert got == _h_germ_inline(0j, order)

    def test_raises_as_the_inline_loop(self):
        z0 = cmath.rect(0.99999, 1.0)
        with pytest.raises(OutsideDisc) as ref:
            _h_germ_inline(z0, 64)
        with pytest.raises(OutsideDisc) as got:
            h_germ(z0, 64)
        assert str(got.value) == str(ref.value)
