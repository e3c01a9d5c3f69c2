import bisect
import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logstair import engine
from logstair import (
    CenterMismatch,
    Germ,
    NoRefresh,
    WrongBasePoint,
    continuable_exact,
    continue_along,
    crosscheck,
    eval_h,
    h_germ,
    lift_at,
    lift_log,
    log_germ,
    overlap_disagreement,
    validate_path,
)

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


def ccw_loop(radius=0.5, chords=64, turns=1):
    n = chords * abs(turns)
    return validate_path(
        [radius * cmath.exp(2j * math.pi * turns * k / n) for k in range(n + 1)]
    )


def spiral_out(path_pts, target):
    return validate_path(list(path_pts) + [target])


class TestContinueAlong:
    def test_log_around_loop_gains_2pi(self):
        chain = continue_along(log_germ(0.5, 0.0), ccw_loop())
        assert chain.completed
        assert abs(chain.final.coeffs[0] - complex(math.log(0.5), TWO_PI)) < 1e-10

    def test_log_along_segment(self):
        chain = continue_along(log_germ(0.5, 0.0), validate_path([0.5, 2.0]))
        assert chain.completed
        assert abs(chain.final.coeffs[0] - LN2) < 1e-12
        # breakpoints increase and end at 1
        assert list(chain.breakpoints) == sorted(chain.breakpoints)
        assert chain.breakpoints[-1] >= 1.0 - 1e-12

    def test_refresh_receives_the_lift(self):
        # a hook that rebuilds the log germ from the lift alone picks up the
        # period around the loop, and sees exp(lift) == center at every step
        seen = []

        def refresh(center, lift, hint):
            seen.append(abs(cmath.exp(lift) - center))
            return log_germ(center, lift.imag)

        chain = continue_along(log_germ(0.5, 0.0), ccw_loop(), refresh=refresh)
        assert chain.completed
        assert abs(chain.final.coeffs[0] - complex(math.log(0.5), TWO_PI)) < 1e-10
        assert len(seen) == len(chain.elements) - 1
        assert max(seen) < 1e-14

    def test_h_germ_refreshes_by_rebuild(self):
        chain = continue_along(
            h_germ(0.1, 64),
            validate_path([0.1, 0.4]),
            refresh=lambda center, lift, hint: h_germ(center, 64),
        )
        assert chain.completed
        assert abs(chain.final.coeffs[0] - eval_h(0.4)) < 1e-11

    def test_center_must_match_path_start(self):
        with pytest.raises(CenterMismatch):
            continue_along(log_germ(1.0, 0.0), validate_path([0.5, 2.0]))

    def test_radius_floor_failure(self):
        tiny = Germ(0.5, (0.0, 1.0), 5e-5)
        chain = continue_along(tiny, validate_path([0.5, 2.0]))
        assert not chain.completed
        assert chain.t_fail == 0.0
        assert "floor" in chain.reason

    def test_step_without_refresh_raises(self):
        # only a germ equal to a log germ has a default refresh: an h germ
        # and log coefficients with another radius need a hook (a Taylor
        # shift alone carried log coefficients to 2 with the value -4e28)
        with pytest.raises(NoRefresh):
            continue_along(h_germ(0.1, 64), validate_path([0.1, 0.4]))
        g = log_germ(0.5, 0.0)
        bare = Germ(g.center, g.coeffs, 0.4)
        with pytest.raises(NoRefresh):
            continue_along(bare, validate_path([0.5, 2.0]))
        # with a hook the same germ continues
        chain = continue_along(
            bare,
            validate_path([0.5, 2.0j]),
            refresh=lambda center, lift, hint: log_germ(center, lift.imag),
        )
        assert chain.completed
        assert abs(chain.final.coeffs[0] - complex(LN2, math.pi / 2)) < 1e-10

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_STEPS", 3)
        chain = continue_along(log_germ(0.5, 0.0), ccw_loop(turns=3))
        assert not chain.completed
        assert "step" in chain.reason

    def test_cw_loop_loses_2pi(self):
        chain = continue_along(log_germ(0.5, 0.0), ccw_loop(turns=-1))
        assert chain.completed
        assert abs(chain.final.coeffs[0] - complex(math.log(0.5), -TWO_PI)) < 1e-10


class TestOracle:
    def test_real_segment_blocked_at_one(self):
        v = continuable_exact(validate_path([0.5, 2.0]))
        assert v.verdict == "blocked"
        assert v.first_exit_t == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert abs(v.lift_end - LN2) < 1e-12

    def test_loop_then_out_is_continuable(self):
        path = spiral_out(ccw_loop().points, 2.0)
        v = continuable_exact(path)
        assert v.verdict == "continuable"
        assert v.first_exit_t is None
        assert abs(v.lift_end - complex(LN2, TWO_PI)) < 1e-10

    def test_corner_verdict_for_terminal_corner(self):
        # exp of the straight lift segment from the base point to the
        # staircase corner at 0: the path ends exactly where its lift meets
        # the corner, which is a corner hit rather than a crossing
        zeta0 = complex(math.log(0.5), 0.0)
        pts = [cmath.exp(zeta0 * (1 - s / 64)) for s in range(65)]
        pts[-1] = 1.0
        v = continuable_exact(validate_path(pts))
        assert v.verdict == "corner"

    def test_wrong_base_point(self):
        with pytest.raises(WrongBasePoint):
            continuable_exact(validate_path([1.0, 2.0]))

    def test_upward_path_continuable(self):
        v = continuable_exact(validate_path([0.5, 0.5 + 0.5j, 1j]))
        assert v.verdict == "continuable"

    def test_lift_at(self):
        seg = validate_path([0.5, 2.0])
        assert abs(lift_at(seg, 1.0 / 3.0)) < 1e-12  # z = 1 lifts to 0
        assert abs(lift_at(seg, 0.0) - complex(math.log(0.5), 0)) < 1e-15


class TestCrosscheck:
    def test_agreement_on_completable_loop(self):
        path = spiral_out(ccw_loop().points, 2.0)
        report = crosscheck(path, log_germ(0.5, 0.0))
        assert report.agree
        assert report.chain.completed
        assert report.oracle.verdict == "continuable"

    def test_detects_disagreement(self):
        # the log germ sails through z=1, but the staircase oracle blocks
        # there: crosscheck must flag the mismatch
        report = crosscheck(validate_path([0.5, 2.0]), log_germ(0.5, 0.0))
        assert not report.agree
        assert report.chain.completed
        assert report.oracle.verdict == "blocked"


class TestOverlap:
    def test_log_chain_junctions_agree(self):
        chain = continue_along(log_germ(0.5, 0.0), validate_path([0.5, 2.0, 2j]))
        assert chain.completed
        assert overlap_disagreement(chain, 8) < 1e-10

    def test_single_germ_chain(self):
        chain = continue_along(log_germ(0.5, 0.0), validate_path([0.5, 0.55]))
        assert overlap_disagreement(chain, 8) < 1e-12


# ---------------------------------------------------------------------------
# property tests

polar = st.tuples(st.floats(0.3, 3.0), st.floats(-2.0, 2.0))


@given(st.lists(polar, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_completed_log_chain_matches_lift(polar_pts):
    pts = [r * cmath.exp(1j * a) for r, a in polar_pts]
    pts[0] = 0.5  # anchor for comparability with the lift oracle
    try:
        path = validate_path(pts)
    except Exception:
        return
    chain = continue_along(log_germ(0.5, 0.0), path)
    if not chain.completed:
        return
    lift_end = lift_log(path).points[-1]
    assert abs(chain.final.coeffs[0] - lift_end) < 1e-9
    assert overlap_disagreement(chain, 4) < 1e-8


@given(st.lists(polar, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_log_chain_radii_track_centers(polar_pts):
    pts = [r * cmath.exp(1j * a) for r, a in polar_pts]
    pts[0] = 0.5
    try:
        path = validate_path(pts)
    except Exception:
        return
    chain = continue_along(log_germ(0.5, 0.0), path)
    for t, g in zip(chain.breakpoints, chain.elements):
        assert abs(g.radius_est - abs(g.center)) <= 0.15 * abs(g.center)


def _bisected_step(path, t0, center, cap):
    """Largest parameter t >= t0 such that the sub-path [t0, t] stays within
    distance cap of center, by 60 bisections over the path parameter: the
    engine's step before it was solved on one segment."""
    total = path.total_length
    if total == 0.0:
        vert_ts = [0.0] * len(path.points)
    else:
        vert_ts = [c / total for c in path._cumlen]
    cap = cap * (1.0 - 1e-12)
    lo_idx = bisect.bisect_right(vert_ts, t0)

    def ok(t):
        if abs(path.point_at(t) - center) > cap:
            return False
        idx = lo_idx
        while idx < len(vert_ts) and vert_ts[idx] < t:
            if abs(path.points[idx] - center) > cap:
                return False
            idx += 1
        return True

    if ok(1.0):
        return 1.0
    lo, hi = t0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# a vertex flagged True is repeated, which makes a zero-length segment
vertex = st.tuples(polar, st.booleans())


@given(st.lists(vertex, max_size=6), st.lists(st.floats(0.01, 2.0), min_size=1, max_size=8))
@example([((0.5, 0.0), True), ((0.5, 0.0), False)], [0.3])  # all points equal
@example([], [0.3])  # a single point
@settings(max_examples=150, deadline=None)
def test_step_solves_the_exit_on_one_segment(vertices, caps):
    pts = [0.5]
    for (r, a), repeat in vertices:
        pts.extend([r * cmath.exp(1j * a)] * (2 if repeat else 1))
    try:
        path = validate_path(pts)
    except Exception:
        assume(False)
    last = len(path.points) - 1
    i, u, t, center = 0, 0.0, 0.0, path.start
    for cap in caps:
        if t >= 1.0:
            break
        j, v, t_next, z, lift = engine._step(path, i, u, center, cap)
        limit = cap * (1.0 - 1e-12)
        if j == last:
            assert (v, t_next, z, lift) == (0.0, 1.0, path.end, path._lift[-1])
        else:
            assert abs(abs(z - center) - limit) <= 1e-12 * limit
            assert abs(lift - lift_at(path, t_next)) < 1e-12
        assert all(abs(p - center) <= limit for p in path.points[i + 1 : j + 1])
        assert abs(t_next - _bisected_step(path, t, center, cap)) <= 1e-12
        assert t_next > t
        i, u, t, center = j, v, t_next, z
