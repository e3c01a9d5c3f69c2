import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstair import (
    BadTruncation,
    Truncation,
    boundary_distance,
    choose_lift_target,
    in_interior,
    slit_contains,
)
from logstair.staircase import _seg_dist

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


class TestMembership:
    def test_base_lift_point(self):
        assert in_interior(complex(-LN2, 0.0))

    def test_origin_is_boundary(self):
        assert not in_interior(0j)

    def test_high_point_in_column_zero(self):
        assert in_interior(complex(0.5, 10.0))

    def test_below_column_one_floor(self):
        assert not in_interior(complex(1.0, 3.0))

    def test_glue_line_above_threshold(self):
        assert in_interior(complex(1.0, TWO_PI + 0.01))
        assert not in_interior(complex(1.0, TWO_PI - 0.01))

    def test_floor_is_boundary(self):
        assert not in_interior(complex(0.5, 0.0))
        assert not in_interior(complex(2.5, 2 * TWO_PI))

    def test_negative_columns(self):
        assert in_interior(complex(-1.5, -12.0))  # floor at -4*pi ~ -12.566
        assert not in_interior(complex(-1.5, -13.0))

    def test_deep_well(self):
        assert in_interior(complex(2.5, 2 * TWO_PI + 1e-6))


class TestBoundaryDistance:
    def test_mid_column_point(self):
        assert boundary_distance(complex(0.5, 1.0)) == pytest.approx(0.5)

    def test_corner_point(self):
        assert boundary_distance(0j) == 0.0

    def test_point_below_a_riser(self):
        # nearest feature is the riser at x = -1 half a unit away, not the
        # floor overhead
        assert boundary_distance(complex(-0.5, -7.0)) == pytest.approx(0.5)

    def test_base_point(self):
        assert boundary_distance(complex(-LN2, 0.0)) == pytest.approx(LN2)

    def test_agrees_with_interior_predicate(self):
        for z in [complex(0.3, 2.0), complex(-1.7, -3.0), complex(2.2, 14.0)]:
            assert in_interior(z) == (boundary_distance(z) > 0 and in_interior(z))


class TestSlits:
    def test_circle_point(self):
        assert slit_contains(-1.0, 0)

    def test_segment_point(self):
        assert slit_contains(0.5, 0)

    def test_off_slit(self):
        assert not slit_contains(2.0, 0)

    def test_shifted_index(self):
        assert slit_contains(math.e * cmath.exp(0.7j), 1)
        assert slit_contains(-math.e**2, 2)
        assert slit_contains(math.exp(-3) * 0.5 + math.exp(-2) * 0.5, -2)

    def test_segment_endpoints(self):
        assert slit_contains(math.exp(-1), 0)
        assert slit_contains(1.0, 0)

    def test_zero_rejected(self):
        assert not slit_contains(0j, 0)


class TestLiftTarget:
    def test_upper_half(self):
        assert choose_lift_target(2j) == pytest.approx(complex(LN2, math.pi / 2))

    def test_base(self):
        assert choose_lift_target(0.5) == pytest.approx(complex(-LN2, 0.0))

    def test_deep_column(self):
        assert choose_lift_target(-math.e**3) == pytest.approx(complex(3.0, 7 * math.pi))

    def test_exp_section(self):
        for omega in [1.2, -0.3 + 0.1j, 5j, -7.0, 0.05 - 0.02j]:
            zeta = choose_lift_target(omega)
            assert abs(cmath.exp(zeta) - omega) < 1e-12
            assert in_interior(zeta)

    def test_minimality(self):
        # one fewer turn would leave the staircase
        for omega in [1.2, -math.e**3, 2j, -0.3 + 0.1j]:
            zeta = choose_lift_target(omega)
            assert not in_interior(zeta - TWO_PI * 1j)


class TestTruncation:
    def test_contains_and_reject(self):
        t = Truncation(-2, 2, 8 * math.pi)
        assert t.contains(complex(-LN2, 0.0))
        assert t.contains(complex(2.5, 14.0))
        assert not t.contains(complex(3.5, 14.0))  # beyond the right wall
        assert not t.contains(complex(0.5, 9 * math.pi))  # above the roof
        assert not t.contains(complex(1.5, 3.0))  # below the staircase

    def test_needs_roof_above_last_floor(self):
        with pytest.raises(BadTruncation):
            Truncation(-2, 2, 5 * math.pi)
        with pytest.raises(BadTruncation):
            Truncation(2, -2, 8 * math.pi)

    def test_vertices_walk_the_staircase(self):
        t = Truncation(-1, 1, 5 * math.pi)
        vs = t.vertices()
        assert vs[0] == complex(-1, 5 * math.pi)
        assert vs[1] == complex(-1, -TWO_PI)
        assert vs[-1] == complex(2, 5 * math.pi)
        # staircase corners appear in order
        assert complex(0, 0) in vs and complex(1, TWO_PI) in vs

    def test_distance_capped_by_truncation(self):
        t = Truncation(-2, 2, 8 * math.pi)
        z = complex(-1.9, 0.0)
        assert t.boundary_distance(z) == pytest.approx(0.1)
        assert boundary_distance(z) > t.boundary_distance(z)


# ---------------------------------------------------------------------------
# property tests

points = st.builds(
    complex,
    st.floats(-4.0, 4.0),
    st.floats(-30.0, 30.0),
)


@given(points)
@settings(max_examples=300, deadline=None)
def test_translation_invariance(z):
    # the staircase is invariant under z -> z + 1 + 2*pi*i
    if boundary_distance(z) < 1e-6:  # avoid tolerance-window flips
        return
    assert in_interior(z) == in_interior(z + complex(1.0, TWO_PI))


@given(points, st.floats(0.0, TWO_PI))
@settings(max_examples=300, deadline=None)
def test_distance_certifies_open_ball(z, ang):
    d = boundary_distance(z)
    if not in_interior(z) or d < 1e-6:
        return
    w = z + 0.5 * d * cmath.exp(1j * ang)
    assert in_interior(w)
    # 1-Lipschitz property of a distance function
    assert abs(boundary_distance(w) - d) <= 0.5 * d + 1e-12


@given(st.floats(0.02, 50.0), st.floats(-math.pi, math.pi))
@settings(max_examples=300, deadline=None)
def test_lift_target_section(r, a):
    omega = r * cmath.exp(1j * a)
    zeta = choose_lift_target(omega)
    assert in_interior(zeta)
    assert abs(cmath.exp(zeta) - omega) < 1e-9 * max(1.0, r)


def _boundary_distance_loop(z):
    """Distance to the staircase boundary by scanning every level between
    z's column and its height's level; the reference for the windowed
    search in boundary_distance."""
    x, y = z.real, z.imag
    n_lo = min(math.floor(x), math.floor(y / TWO_PI)) - 2
    n_hi = max(math.ceil(x), math.ceil(y / TWO_PI)) + 2
    best = math.inf
    for n in range(n_lo, n_hi + 1):
        floor_y = TWO_PI * n
        best = min(best, _seg_dist(z, complex(n, floor_y), complex(n + 1, floor_y)))
        best = min(best, _seg_dist(z, complex(n, floor_y - TWO_PI), complex(n, floor_y)))
    return best


@given(
    st.one_of(
        points,
        st.builds(complex, st.floats(-60.0, 60.0), st.floats(-600.0, 600.0)),
    )
)
@example(z=1e6j)  # the column and level windows alone give 159153.0
@example(z=0.5 + 1000j)
@settings(max_examples=300, deadline=None)
def test_boundary_distance_matches_level_scan(z):
    assert boundary_distance(z) == _boundary_distance_loop(z)
