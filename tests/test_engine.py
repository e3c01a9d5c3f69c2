import bisect
import cmath
import math
from collections import OrderedDict

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logstair import engine
from logstair import (
    CenterMismatch,
    Germ,
    LogstairError,
    NoRefresh,
    WrongBasePoint,
    continuable_exact,
    continue_along,
    crosscheck,
    eval_h,
    expexp_demo,
    h_germ,
    lift_at,
    lift_log,
    log_germ,
    overlap_disagreement,
    reach_path,
    validate_path,
)
from logstair.engine import OracleVerdict
from logstair.paths import lift_point
from logstair.series import compose_log
from logstair.staircase import GEOM_TOL, _seg_dist, corner_at, in_interior

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

        def refresh(center, lift, prev):
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
            refresh=lambda center, lift, prev: h_germ(center, 64),
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
            refresh=lambda center, lift, prev: log_germ(center, lift.imag),
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


@pytest.fixture
def segment_runs(monkeypatch):
    """Counts the oracle's fresh segment samplings, starting from an empty
    segment memo."""
    runs = []
    inner = engine._segment_exit

    def counted(a, b, theta_a, geom_tol):
        runs.append((a, b, theta_a, geom_tol))
        return inner(a, b, theta_a, geom_tol)

    monkeypatch.setattr(engine, "_segment_exit", counted)
    monkeypatch.setattr(engine, "_segment_exits", OrderedDict())
    return runs


def _oracle_unmemoized(path, geom_tol=GEOM_TOL):
    """Reference: continuable_exact as it was before its segment memo, the
    lift sampled afresh segment by segment."""
    if abs(path.start - 0.5) > geom_tol:
        raise WrongBasePoint(path.start)
    lifted, pts, cum = path._lift, path.points, path._cumlen
    lift_end = lifted[-1]
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        d = b - a
        seg = abs(d)
        if seg == 0.0:
            continue
        theta_a = lifted[i].imag
        n_sub = max(1, math.ceil(seg / _seg_dist(0j, a, b) / engine._ORACLE_ARC))
        s_prev = 0.0
        for j in range(1, n_sub + 1):
            s_bad = j / n_sub
            if in_interior(lift_point(a, theta_a, a + s_bad * d), geom_tol):
                s_prev = s_bad
                continue
            lo, hi = s_prev, s_bad
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if in_interior(lift_point(a, theta_a, a + mid * d), geom_tol):
                    lo = mid
                else:
                    hi = mid
            s_exit = hi + (s_bad - hi) * 1e-6
            exit_zeta = lift_point(a, theta_a, a + s_exit * d)
            t_exit = (cum[i] + s_exit * seg) / path.total_length
            corner = corner_at(exit_zeta, 2.0 * geom_tol)
            terminal = corner is not None and abs(lift_end - corner) <= 2.0 * geom_tol
            return OracleVerdict("corner" if terminal else "blocked", t_exit, lift_end)
    return OracleVerdict("continuable", None, lift_end)


class TestOracleMemo:
    """continuable_exact keeps the exit fraction of each segment it samples,
    keyed by the segment's ends, the lift's angle at its start and geom_tol,
    so paths that share segments sample each shared segment once.  A path
    also keeps its own verdicts, by geom_tol, so a repeat that should reach
    the segment memo runs on a fresh validate_path of the same points."""

    def test_repeat_returns_the_verdict(self, segment_runs):
        path = validate_path([0.5, 2.0])
        first = continuable_exact(path)
        assert first.verdict == "blocked"
        assert continuable_exact(path) is first  # the path's own verdict
        assert continuable_exact(validate_path([0.5, 2.0]), GEOM_TOL) == first
        assert len(segment_runs) == 1

    def test_one_entry(self, segment_runs):
        # a segment shared by two paths is sampled once and kept once
        a = validate_path([0.5, 0.5 + 0.5j, 1j])
        b = validate_path([0.5, 0.5 + 0.5j, -0.5 + 0.5j])
        verdicts = [continuable_exact(p) for p in (a, b, a, b)]
        assert len(segment_runs) == len(engine._segment_exits) == 3
        assert verdicts == [_oracle_unmemoized(p) for p in (a, b, a, b)]

    def test_shared_blocked_segment_keeps_each_paths_exit(self, segment_runs):
        # the segment from 0.5 to 2.0, lifted from angle 0, is blocked where
        # it crosses 1; the second path reaches it after a detour of 0.2
        a = validate_path([0.5, 2.0])
        b = validate_path([0.5, 0.6, 0.5, 2.0])
        assert b._lift[2].imag == a._lift[0].imag
        va, vb = continuable_exact(a), continuable_exact(b)
        assert len(segment_runs) == 3
        assert va == _oracle_unmemoized(a) and vb == _oracle_unmemoized(b)
        assert va.first_exit_t == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert vb.first_exit_t == pytest.approx(0.7 / 1.7, abs=1e-6)
        assert continuable_exact(a) == va

    def test_the_lift_angle_is_part_of_the_key(self, segment_runs):
        # after a loop about 0 the segment from 0.5 to 2.0 lifts 2 pi higher,
        # above the floor its first lift crosses
        blocked = continuable_exact(validate_path([0.5, 2.0]))
        looped = validate_path([0.5, 0.5j, -0.5, -0.5j, 0.5, 2.0])
        assert looped._lift[-2].imag == pytest.approx(TWO_PI)
        v = continuable_exact(looped)
        assert blocked.verdict == "blocked" and v.verdict == "continuable"
        assert v == _oracle_unmemoized(looped)
        assert len(segment_runs) == len(looped.points)

    def test_geom_tol_is_part_of_the_key(self, segment_runs):
        # the lift runs 1e-7 above the corner at 0 and the floor of column
        # 0: clear of the boundary at 1e-9, on it at 1e-6
        up = 0.5 * cmath.exp(1e-7j)
        path = validate_path([0.5, up, math.exp(0.5) * cmath.exp(1e-7j)])
        fine = continuable_exact(path, 1e-9)
        coarse = continuable_exact(path, 1e-6)
        assert fine.verdict == "continuable"
        assert coarse.verdict == "blocked"
        assert path._verdicts == {1e-9: fine, 1e-6: coarse}
        assert continuable_exact(validate_path(path.points), 1e-9) == fine
        assert continuable_exact(validate_path(path.points), 1e-6) == coarse
        assert coarse == _oracle_unmemoized(path, 1e-6)
        assert len(segment_runs) == 4

    def test_memo_is_bounded(self, segment_runs, monkeypatch):
        monkeypatch.setattr(engine, "SEGMENT_MEMO_CAPACITY", 8)
        path = reach_path(2j)
        assert len(path.points) > 9
        segment_runs.clear()
        first = continuable_exact(validate_path(path.points))
        assert len(engine._segment_exits) == 8
        # every entry was evicted before its reuse: the second call samples
        # each segment again and gets the same verdict
        again = continuable_exact(validate_path(path.points))
        assert again == first == _oracle_unmemoized(path)
        assert len(segment_runs) == 2 * (len(path.points) - 1)
        assert len(engine._segment_exits) == 8

    def test_crosscheck_after_reach_path_runs_one_oracle(self, segment_runs, monkeypatch):
        # reach_path certified the route; crosscheck looks that verdict up
        # on the path and does not read the segment memo
        path = reach_path(-0.5)
        assert len(segment_runs) == len(path.points) - 1
        certified = continuable_exact(path)
        segment_runs.clear()
        monkeypatch.setattr(engine, "_segment_exits", None)
        report = crosscheck(path, log_germ(0.5, 0.0))
        assert segment_runs == []
        assert report.oracle is certified
        assert report.oracle == _oracle_unmemoized(path)
        assert report.oracle.verdict == "continuable"

    def test_raising_call_is_not_stored(self, segment_runs):
        path = validate_path([1.0, 2.0])
        for _ in range(2):
            with pytest.raises(WrongBasePoint):
                continuable_exact(path)
        assert segment_runs == []
        assert not engine._segment_exits
        assert path._verdicts == {}


def _handed_the_value(hook):
    """A hook written for the engine's old contract, which computed the
    value prev.eval(center) before the hook ran and handed it over in place
    of the germ."""
    return lambda center, lift, prev: hook(center, lift, prev.eval(center))


_log_by_value = _handed_the_value(lambda center, lift, value: log_germ(center, value.imag))


class TestHookGetsTheGerm:
    """The engine hands a hook the germ being continued, not its value at
    the new center: hooks that read the value evaluate it themselves, with
    the same Horner sum, so their chains are the chains of hooks that were
    handed the value."""

    def test_default_log_chain_is_unchanged(self):
        path = reach_path(2j)
        chain = continue_along(log_germ(0.5, 0.0), path)
        assert chain.completed
        assert chain == continue_along(log_germ(0.5, 0.0), path, refresh=_log_by_value)

    def test_expexp_demo_is_unchanged(self):
        def loglog(inner_branch_im):
            def hook(center, lift, value):
                inner = lift + complex(0.0, inner_branch_im)
                return compose_log(log_germ(inner, value.imag), center)

            return _handed_the_value(hook)

        report = expexp_demo()
        gamma = report.gamma
        ell2 = log_germ(1.0, 0.0)
        branch_a = continue_along(compose_log(ell2, cmath.e), gamma, loglog(0.0))
        up = validate_path([1.0, complex(1.0, TWO_PI)])
        ell2_shifted = continue_along(ell2, up, refresh=_log_by_value).final
        branch_b = continue_along(compose_log(ell2_shifted, cmath.e), gamma, loglog(TWO_PI))
        assert report.branch_a == branch_a and report.branch_b == branch_b
        assert not branch_a.completed and branch_b.completed


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


@given(
    st.one_of(
        st.tuples(st.just("polyline"), st.lists(polar, min_size=1, max_size=6)),
        st.tuples(st.just("route"), polar),
    ),
    st.sampled_from([None, -1, 0, 1]),
)
@example(("polyline", [(0.5, 0.0)]), 0)  # ends on the corner at 0: "corner"
@example(("polyline", [(1.0, 2.0), (1.0, -2.0)]), 1)
@example(("route", (2.0, 1.5)), None)
@settings(max_examples=150, deadline=None)
def test_segment_memo_keeps_every_verdict(shape, end_column):
    # a polyline or the route to a target, optionally ending at e^m, the
    # image of the corner (m, 2 pi m); a verdict is the same from a cleared
    # memo, a warm one and the unmemoized oracle
    kind, arg = shape
    try:
        if kind == "route":
            pts = list(reach_path(arg[0] * cmath.exp(1j * arg[1])).points)
        else:
            pts = [0.5] + [r * cmath.exp(1j * a) for r, a in arg]
        if end_column is not None:
            pts.append(math.exp(end_column))
        path = validate_path(pts)
    except LogstairError:
        assume(False)
    want = _oracle_unmemoized(path)
    engine._segment_exits.clear()
    assert continuable_exact(path) == want
    # the warm calls run on fresh paths, which keep no verdict of their own
    assert continuable_exact(validate_path(path.points)) == want
    assert continuable_exact(validate_path(path.points), 1e-6) == _oracle_unmemoized(path, 1e-6)
    assert continuable_exact(validate_path(path.points)) == want


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
