import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstair import (
    EmptyPath,
    SegmentThroughOrigin,
    lift_at,
    lift_log,
    validate_path,
    winding_number,
)
from logstair.paths import _extend

TWO_PI = 2.0 * math.pi


def circle_loop(k: int, radius: float = 0.5, chords: int = 64, start: complex = None):
    """Polyline tracing k full turns (negative k = clockwise)."""
    if start is None:
        start = radius + 0j
    n = max(1, abs(k)) * chords
    phase0 = cmath.phase(start)
    pts = [
        abs(start) * cmath.exp(1j * (phase0 + TWO_PI * k * j / n)) for j in range(n + 1)
    ]
    pts[0] = start
    return validate_path(pts)


class TestWinding:
    def test_full_ccw_loop(self):
        assert winding_number(circle_loop(1)) == 1

    def test_full_cw_loop(self):
        assert winding_number(circle_loop(-1)) == -1

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_k_fold_loops_exact(self, k):
        assert winding_number(circle_loop(k)) == k

    def test_half_loop(self):
        pts = [0.5 * cmath.exp(1j * math.pi * j / 32) for j in range(33)]
        assert winding_number(validate_path(pts)) == 0

    def test_three_quarter_loop(self):
        pts = [0.5 * cmath.exp(1j * 1.5 * math.pi * j / 48) for j in range(49)]
        assert winding_number(validate_path(pts)) == 0

    def test_radial_segment(self):
        assert winding_number(validate_path([0.5, 2.0])) == 0

    @pytest.mark.parametrize("branch", [-2 * TWO_PI, -TWO_PI, -1.0, 0.0, 2.5, TWO_PI, 2 * TWO_PI])
    def test_branch_invariance(self, branch):
        loop = circle_loop(2)
        assert winding_number(loop, branch) == winding_number(loop, 0.0) == 2


class TestLift:
    def test_start_value(self):
        lift = lift_log(validate_path([2.0, 2j]), start_branch_im=TWO_PI)
        assert lift.points[0] == complex(math.log(2.0), TWO_PI)

    @pytest.mark.parametrize("branch", [math.inf, -math.inf, math.nan])
    def test_non_finite_branch_is_rejected(self, branch):
        with pytest.raises(ValueError, match="start_branch_im must be finite"):
            lift_log(validate_path([2.0, 2j]), branch)

    def test_exp_inverts_lift(self):
        path = validate_path([0.5, 1j, -2.0, -0.5 - 0.5j, 3.0])
        lift = lift_log(path)
        for w, z in zip(lift.points, path.points):
            assert abs(cmath.exp(w) - z) < 1e-12

    def test_loop_increment(self):
        lift = lift_log(circle_loop(1))
        assert lift.delta_im == pytest.approx(TWO_PI, abs=1e-12)
        # same modulus at both ends
        assert lift.points[-1].real == pytest.approx(lift.points[0].real, abs=1e-12)

    @pytest.mark.parametrize("radius", [1e-315, 1e-320, 1e300, 1.5e308])
    def test_vertex_lifts_are_exact_at_both_ends_of_the_double_range(self, radius):
        # z / a rounds at subnormal quanta or overflows out here; the lift
        # of each vertex is still its own argument plus whole turns
        path = circle_loop(3, radius)
        for p, z in zip(path.points, path._lift):
            turns = (z.imag - cmath.phase(p)) / TWO_PI
            assert abs(turns - round(turns)) < 1e-12
            assert z.real == math.log(abs(p))
        assert winding_number(path) == 3

    def test_imaginary_part_is_continuous(self):
        # jumps between consecutive lift points stay below pi even though the
        # path itself crosses the negative real axis
        path = validate_path([1.0, 1j, -1.0, -1j, 1.0])
        lift = lift_log(path)
        for a, b in zip(lift.points, lift.points[1:]):
            assert abs(b.imag - a.imag) < math.pi


class TestValidation:
    def test_empty(self):
        with pytest.raises(EmptyPath):
            validate_path([])

    def test_single_point_path(self):
        p = validate_path([0.5])
        assert p.total_length == 0.0
        assert p.point_at(0.7) == 0.5

    def test_vertex_at_origin(self):
        with pytest.raises(SegmentThroughOrigin):
            validate_path([1.0, 0.0, -1.0])

    def test_segment_through_origin(self):
        with pytest.raises(SegmentThroughOrigin) as exc:
            validate_path([1.0, 1 + 1j, -1 - 1j])
        assert exc.value.segment_index == 1

    @pytest.mark.parametrize(
        "points",
        [
            [0.5, 1e200, -1e200],  # |b - a|^2 overflows in _seg_dist
            [0.5, 1e200j, -1e200j],
            [0.5, 0.1 + 0.3j, -0.2 - 0.6j],  # -2a exactly; rounding misses 0
            [0.5, 1e300 + 1e-300j, -1e300 - 1e-300j],
        ],
    )
    def test_a_segment_through_origin_is_rejected_at_every_scale(self, points):
        with pytest.raises(SegmentThroughOrigin) as exc:
            validate_path(points)
        assert exc.value.segment_index == 1

    def test_a_segment_beside_origin_is_kept_at_every_scale(self):
        for points in (
            [0.5, 1 + 1j, -1 - 1.0000001j],
            [0.5, 1e200, -1e200 + 1e190j],
            [0.5, 1e300 + 1e-300j, -1e300 - 2e-300j],
        ):
            assert validate_path(points).points == tuple(complex(p) for p in points)
        # rounding puts 0 on this segment; accepting it would hand the
        # oracle a zero distance to 0
        with pytest.raises(SegmentThroughOrigin):
            validate_path([0.5, 1e-20])

    def test_non_finite_point(self):
        with pytest.raises(ValueError):
            validate_path([1.0, complex(math.nan, 0.0)])

    def test_points_are_checked_before_segments(self):
        # segment 1 passes through 0, but the bad point after it is reported
        with pytest.raises(SegmentThroughOrigin) as exc:
            validate_path([1.0, 1 + 1j, -1 - 1j, 0.0])
        assert exc.value.segment_index == 2
        with pytest.raises(ValueError, match="point 3 is not finite"):
            validate_path([1.0, 1 + 1j, -1 - 1j, complex(math.nan, 0.0)])

    @pytest.mark.parametrize(
        "points", [[0.5, 1.5e308 + 1.5e308j], [1.5e308 + 1.5e308j], [0.5, -1e308, 1.7e308 + 1e308j]]
    )
    def test_a_modulus_past_the_largest_double_is_rejected(self, points):
        # both parts of the last point are finite, its modulus is not
        with pytest.raises(ValueError, match=f"point {len(points) - 1}'s modulus exceeds"):
            validate_path(points)

    @pytest.mark.parametrize(
        "points", [[0.5, 1e308 + 1e308j, -1e308 + 1e307j], [0.5, 1e308, 1.7e308j, -1e308]]
    )
    def test_a_segment_length_past_the_largest_double_is_rejected(self, points):
        # every point is in range, a chord is not: its difference overflows,
        # or only its modulus does
        with pytest.raises(ValueError, match="segment 1's length exceeds the largest double"):
            validate_path(points)

    def test_a_failed_extension_appends_nothing(self):
        path = validate_path([0.5, 1j])
        pts, cum, lifted = list(path.points), list(path._cumlen), list(path._lift)
        for bad in (
            [2j, -1j], [2.0, math.inf], [0.0], [1.5e308 + 1.5e308j], [1e308 + 1e308j, -1e308 + 1e307j]
        ):
            with pytest.raises((ValueError, SegmentThroughOrigin)):
                _extend(pts, cum, lifted, bad)
            assert (pts, cum, lifted) == (list(path.points), list(path._cumlen), list(path._lift))
        _extend(pts, cum, lifted, [-1.0, -1j])
        assert validate_path(pts) == validate_path([0.5, 1j, -1.0, -1j])
        assert (tuple(cum), tuple(lifted)) == (validate_path(pts)._cumlen, validate_path(pts)._lift)

    def test_point_at_endpoints(self):
        p = validate_path([1.0, 1j])
        assert p.point_at(0.0) == 1.0
        assert p.point_at(1.0) == 1j
        assert abs(p.point_at(0.5) - (0.5 + 0.5j)) < 1e-15


# ---------------------------------------------------------------------------
# property tests


polylines = st.lists(
    st.tuples(st.floats(0.1, 10.0), st.floats(-math.pi, math.pi)),
    min_size=2,
    max_size=20,
).map(lambda polar: [r * cmath.exp(1j * a) for r, a in polar])


def _safe(pts):
    try:
        return validate_path(pts)
    except SegmentThroughOrigin:
        return None


@given(polylines)
@settings(max_examples=200, deadline=None)
def test_exp_of_lift_recovers_path(pts):
    path = _safe(pts)
    if path is None:
        return
    lift = lift_log(path)
    err = max(abs(cmath.exp(w) - z) for w, z in zip(lift.points, path.points))
    assert err < 1e-10


@given(polylines, st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_winding_branch_invariance(pts, k):
    path = _safe(pts)
    if path is None:
        return
    assert winding_number(path, TWO_PI * k) == winding_number(path)


@given(polylines)
@settings(max_examples=100, deadline=None)
def test_refinement_invariance(pts):
    # inserting chord midpoints changes neither the winding number nor the
    # lift endpoint
    path = _safe(pts)
    if path is None:
        return
    refined = [path.points[0]]
    for a, b in zip(path.points, path.points[1:]):
        refined.extend([(a + b) / 2, b])
    fine = _safe(refined)
    if fine is None:  # a midpoint can sit closer to 0 than either endpoint
        return
    assert winding_number(fine) == winding_number(path)
    assert abs(lift_log(fine).points[-1] - lift_log(path).points[-1]) < 1e-9


@given(polylines, st.integers(-3, 3), st.floats(-10.0, 10.0))
@example(pts=[-1 + 1.2e-16j, 1], k=1, branch=0.0)  # request exactly between two branches
@settings(max_examples=100, deadline=None)
def test_lift_branch_behaviour(pts, k, branch):
    path = _safe(pts)
    if path is None:
        return
    base = lift_log(path, branch)
    # the chosen start branch is the admissible argument nearest the request
    assert abs(base.points[0].imag - branch) <= math.pi + 1e-9
    assert abs(cmath.exp(base.points[0]) - path.points[0]) < 1e-10
    # shifting the request by a full turn shifts the whole lift by exactly it
    shifted = lift_log(path, branch + TWO_PI * k)
    for a, b in zip(base.points, shifted.points):
        assert a.real == b.real
        assert abs((b.imag - a.imag) - TWO_PI * k) < 1e-9


@given(polylines, st.lists(st.floats(0.0, 1.0), max_size=8))
@settings(max_examples=200, deadline=None)
def test_lift_at_is_the_vertex_lift_between_vertices(pts, ts):
    path = _safe(pts)
    if path is None:
        return
    total = path.total_length
    vertex_lift = lift_log(path).points
    for c, w in zip(path._cumlen, vertex_lift):
        assert abs(lift_at(path, c / total if total else 0.0) - w) < 1e-12
    for t in ts:
        z = path.point_at(t)
        assert abs(cmath.exp(lift_at(path, t)) - z) <= 1e-12 * abs(z)
    # lift_at has filled the path's start-branch-0 cache; other branches
    # are still lifted from their own start
    shifted = lift_log(path, TWO_PI)
    for a, b in zip(vertex_lift, shifted.points):
        assert a.real == b.real
        assert abs((b.imag - a.imag) - TWO_PI) < 1e-12
