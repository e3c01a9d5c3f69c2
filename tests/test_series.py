import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstair import (
    CompositionOutOfRange,
    Germ,
    OutsideDisc,
    StepTooLarge,
    TooFewCoefficients,
    ZeroCenter,
    compose,
    estimate_radius,
    eval_h,
    h_germ,
    log_germ,
    recenter,
)
from logstair.series import _composed_radius

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

    def test_value_near_center(self):
        g = log_germ(2.0 - 1.0j, cmath.phase(2.0 - 1.0j), 48)
        w = 2.2 - 0.9j
        assert abs(g.eval(w) - cmath.log(w)) < 1e-14


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


class TestRecenter:
    def test_log_shift(self):
        g = recenter(log_germ(2.0, 0.0, 48), 2.5)
        assert g.center == 2.5
        assert abs(g.coeffs[0] - math.log(2.5)) < 1e-12
        assert abs(g.coeffs[1] - 0.4) < 1e-12
        assert g.radius_est == pytest.approx(1.5)  # conservative: 2 - 0.5

    def test_too_far(self):
        with pytest.raises(StepTooLarge):
            recenter(log_germ(2.0, 0.0, 8), 4.5)

    def test_evaluation_agrees_on_overlap(self):
        g = log_germ(2.0, 0.0, 64)
        s = recenter(g, 2.0 + 0.5j)
        for w in (2.1 + 0.2j, 1.9 + 0.4j, 2.2 + 0.3j):
            assert abs(g.eval(w) - s.eval(w)) < 1e-12


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


@given(centers, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
@settings(max_examples=150, deadline=None)
def test_recenter_preserves_values(z0, dre, dim):
    g = log_germ(z0, 0.0, 64)
    d = complex(dre, dim) * abs(z0) * 0.5
    s = recenter(g, z0 + d)
    w = z0 + d * 0.5
    assert abs(g.eval(w) - s.eval(w)) < 1e-9


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
