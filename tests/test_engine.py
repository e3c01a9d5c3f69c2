import bisect
import cmath
import math
from collections import OrderedDict

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logstair import engine, monodromy, paths
from logstair import (
    CenterMismatch,
    FRefresh,
    Germ,
    LogstairError,
    NoRefresh,
    Truncation,
    WrongBasePoint,
    build_map,
    classify,
    continuable_exact,
    continue_along,
    crosscheck,
    eval_h,
    expexp_demo,
    f_germ_at_base,
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
E2 = math.e**2


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
        assert len(chain.elements) == 4
        assert chain.reason == "exceeded 3 steps"

    def test_cw_loop_loses_2pi(self):
        chain = continue_along(log_germ(0.5, 0.0), ccw_loop(turns=-1))
        assert chain.completed
        assert abs(chain.final.coeffs[0] - complex(math.log(0.5), -TWO_PI)) < 1e-10


class TestFarRoutes:
    @pytest.mark.parametrize("omega", [6e4, 1e5, 1e10])
    def test_a_log_chain_past_the_overflow_of_its_coefficients(self, omega):
        # past |z| ~ 6.6e4 the log germs' last coefficients are 0 (the route
        # to 6e4 passes e^11.5 on its corridor), and their radii shrink so
        # that each value stays accurate
        path = reach_path(omega)
        chain = continue_along(log_germ(0.5, 0.0), path)
        assert chain.completed
        value = chain.final.coeffs[0]
        assert abs(cmath.exp(value) - omega) <= 1e-12 * omega
        assert value.imag == pytest.approx(path._lift[-1].imag, abs=1e-12)

    @pytest.mark.parametrize("omega", [1e308j, 1.5e308])
    def test_a_path_whose_length_overflows_raises(self, omega):
        path = reach_path(omega)
        assert path.total_length == math.inf
        with pytest.raises(ValueError, match="total length exceeds the largest double"):
            continue_along(log_germ(0.5, 0.0), path)


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

    def test_an_exit_on_a_path_whose_length_overflows_raises(self):
        # the exit at z = 1 has no parameter once the total length is
        # infinite; a continuable verdict needs none, on the routes to 1e308j
        # and 1.5e308 and on fresh paths of their points
        path = validate_path([0.5, 2.0, 1e308, 1e308j, -1e308])
        assert path.total_length == math.inf
        with pytest.raises(ValueError, match="total length exceeds the largest double"):
            continuable_exact(path)
        for omega in (1e308j, 1.5e308):
            route = reach_path(omega)
            assert route.total_length == math.inf
            for p in (route, validate_path(route.points)):
                v = continuable_exact(p)
                assert v.verdict == "continuable" and v.first_exit_t is None

    def test_upward_path_continuable(self):
        v = continuable_exact(validate_path([0.5, 0.5 + 0.5j, 1j]))
        assert v.verdict == "continuable"

    @pytest.mark.xfail(
        strict=True,
        reason="the oracle samples each chord's lift every 0.005 of arc and "
        "misses an excursion shorter than one sample",
    )
    def test_short_excursion_is_blocked(self):
        # the second chord crosses the real axis at 1.001, at its midpoint:
        # there the lift lies on the floor of column 0, and it stays off the
        # interior only for s in [0.5, 0.501003], between two of its 399
        # samples
        v = continuable_exact(validate_path([0.5, 1.5 + 0.5j, 0.502 - 0.5j]))
        assert v.verdict == "blocked"
        assert v.first_exit_t == pytest.approx(0.7208825, abs=1e-6)

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
    """Counts the segments the oracle decides (its _segment_exit calls),
    starting from an empty spine cache."""
    runs = []
    inner = engine._segment_exit

    def counted(a, b, dist, lift_a, lift_b, geom_tol):
        runs.append((a, b, lift_a.imag, geom_tol))
        return inner(a, b, dist, lift_a, lift_b, geom_tol)

    monkeypatch.setattr(engine, "_segment_exit", counted)
    monkeypatch.setattr(monodromy, "_spines", OrderedDict())
    return runs


def _exit_reference(a, b, theta_a, geom_tol):
    """Reference for engine._segment_exit: the chord from a to b sampled
    with lift_point at every sample, with no end-lift certificate."""
    d = b - a
    n_sub = max(1, math.ceil(abs(d) / _seg_dist(0j, a, b) / engine._ORACLE_ARC))
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
        return hi + (s_bad - hi) * 1e-6
    return None


def _oracle_reference(path, geom_tol=GEOM_TOL):
    """Reference: continuable_exact with no segment taken as certified, the
    lift sampled segment by segment from the path's start."""
    if abs(path.start - 0.5) > geom_tol:
        raise WrongBasePoint(path.start)
    lifted, pts, cum = path._lift, path.points, path._cumlen
    lift_end = lifted[-1]
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        seg = abs(b - a)
        if seg == 0.0:
            continue
        s_exit = _exit_reference(a, b, lifted[i].imag, geom_tol)
        if s_exit is not None:
            exit_zeta = lift_point(a, lifted[i].imag, a + s_exit * (b - a))
            t_exit = (cum[i] + s_exit * seg) / path.total_length
            corner = corner_at(exit_zeta, 2.0 * geom_tol)
            terminal = corner is not None and abs(lift_end - corner) <= 2.0 * geom_tol
            return OracleVerdict("corner" if terminal else "blocked", t_exit, lift_end)
    return OracleVerdict("continuable", None, lift_end)


class TestOracleVerdicts:
    """The exact oracle's verdict is a function of the path's points (with
    the lift angles they give) and geom_tol, and each call decides every
    segment anew, from its end lifts or by sampling; only a route, which
    was certified segment by segment as it was built, skips them all at
    GEOM_TOL (tests/test_monodromy.py)."""

    def test_repeat_returns_the_verdict(self, segment_runs):
        path = validate_path([0.5, 2.0])
        first = continuable_exact(path)
        assert first.verdict == "blocked"
        assert first == _oracle_reference(path)
        assert continuable_exact(path) == first
        assert continuable_exact(validate_path([0.5, 2.0]), GEOM_TOL) == first
        assert len(segment_runs) == 3  # each call samples the one segment

    def test_shared_blocked_segment_keeps_each_paths_exit(self, segment_runs):
        # the segment from 0.5 to 2.0, lifted from angle 0, is blocked where
        # it crosses 1; the second path reaches it after a detour of 0.2
        a = validate_path([0.5, 2.0])
        b = validate_path([0.5, 0.6, 0.5, 2.0])
        assert b._lift[2].imag == a._lift[0].imag
        va, vb = continuable_exact(a), continuable_exact(b)
        assert len(segment_runs) == 4
        assert va == _oracle_reference(a) and vb == _oracle_reference(b)
        assert va.first_exit_t == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert vb.first_exit_t == pytest.approx(0.7 / 1.7, abs=1e-6)
        assert continuable_exact(a) == va

    def test_the_lift_angle_decides_the_verdict(self, segment_runs):
        # after a loop about 0 the segment from 0.5 to 2.0 lifts 2 pi higher,
        # above the floor its first lift crosses
        blocked = continuable_exact(validate_path([0.5, 2.0]))
        looped = validate_path([0.5, 0.5j, -0.5, -0.5j, 0.5, 2.0])
        assert looped._lift[-2].imag == pytest.approx(TWO_PI)
        v = continuable_exact(looped)
        assert blocked.verdict == "blocked" and v.verdict == "continuable"
        assert v == _oracle_reference(looped)
        assert len(segment_runs) == len(looped.points)

    def test_each_geom_tol_gets_its_own_verdict(self, segment_runs):
        # the lift runs 1e-7 above the corner at 0 and the floor of column
        # 0: clear of the boundary at 1e-9, on it at 1e-6; each tolerance
        # gets its own verdict, in either order
        up = 0.5 * cmath.exp(1e-7j)
        path = validate_path([0.5, up, math.exp(0.5) * cmath.exp(1e-7j)])
        fine = continuable_exact(path, 1e-9)
        coarse = continuable_exact(path, 1e-6)
        assert fine.verdict == "continuable"
        assert coarse.verdict == "blocked"
        assert fine == _oracle_reference(path, 1e-9)
        assert coarse == _oracle_reference(path, 1e-6)
        assert continuable_exact(path, 1e-6) == coarse
        assert continuable_exact(path, 1e-9) == fine
        assert len(segment_runs) == 8  # each call decides both segments

    def test_crosscheck_after_reach_path_runs_one_oracle(self, segment_runs):
        # on a cold cache each route decides every segment once as it is
        # built, so crosscheck on a route or a witness samples nothing
        route = reach_path(-0.5)
        assert len(segment_runs) == len(route.points) - 1
        segment_runs.clear()
        witness = classify(-E2, 2, 3).witness_path
        assert len(segment_runs) == len(witness.points) - 1
        segment_runs.clear()
        for path in (route, witness):
            report = crosscheck(path, log_germ(0.5, 0.0))
            assert report.oracle == _oracle_reference(path)
            assert report.oracle.verdict == "continuable" and report.agree
        assert segment_runs == []

    def test_a_path_off_the_base_point_raises_before_sampling(self, segment_runs):
        # a path off the base point raises at each call and each tolerance,
        # before any segment is sampled
        path = validate_path([1.0, 2.0])
        for geom_tol in (GEOM_TOL, GEOM_TOL, 1e-6):
            with pytest.raises(WrongBasePoint):
                continuable_exact(path, geom_tol)
        assert segment_runs == []


@pytest.fixture
def interior_tests(monkeypatch):
    """The oracle's membership tests (engine.in_interior calls)."""
    calls = []
    inner = engine.in_interior

    def counted(z, tol=GEOM_TOL):
        calls.append(z)
        return inner(z, tol)

    monkeypatch.setattr(engine, "in_interior", counted)
    return calls


class TestEndLiftCertificate:
    """A segment whose two end lifts clear it takes one membership test, at
    the corner (max Re, min Im) of their box; any other segment is sampled
    and bisected as before, but a sample inside the disc |z| < r that the
    box's lower edge clears is interior with no lift, and only the others
    are lifted and tested.  The disc rises once a lifted sample's angle,
    and b's, clear the next floor.  The oracle makes one more test, at the
    path's start; a route, certified segment by segment as it is built,
    makes none."""

    def test_a_cold_route_takes_one_test_per_segment(self, segment_runs, interior_tests):
        route = reach_path(-0.5)
        assert len(segment_runs) == len(route.points) - 1
        assert len(interior_tests) == len(segment_runs)

    def test_a_chord_past_zero_takes_one_test(self, segment_runs, interior_tests):
        # the chord passes 0.0038 from 0, 1/338 of its length: sampling its
        # lift takes 67,600 samples, and the corner test clears it
        path = validate_path([0.5, -0.8 + 0.01j])
        v = continuable_exact(path)
        assert len(segment_runs) == 1 and len(interior_tests) == 2
        assert v.verdict == "continuable" and v == _oracle_reference(path)

    def test_a_blocked_segment_is_still_sampled(self, segment_runs, interior_tests):
        # the lift crosses the floor of column 0 at z = 1: the corner test
        # fails, the 199 samples below |z| = 1 are cleared by their modulus,
        # the one at z = 1 is tested and 60 bisections sharpen the exit
        v = continuable_exact(validate_path([0.5, 2.0]))
        assert v.verdict == "blocked"
        assert v.first_exit_t == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert len(segment_runs) == 1 and len(interior_tests) == 2 + 1 + 60

    @staticmethod
    def _lifted(monkeypatch):
        """The points the oracle's samples and bisections lift."""
        lifted = []

        def counted(a, theta_a, z):
            lifted.append(z)
            return lift_point(a, theta_a, z)

        monkeypatch.setattr(paths, "_lift_unscaled", counted)
        return lifted

    def test_only_the_samples_outside_the_disc_are_lifted(self, monkeypatch):
        # the chord passes 0.01 from 0 and ends at |z| ~ 2: its end lifts'
        # angles, 0 and ~pi, clear the floor of column -1, so every sample
        # with |z| < e^(-1e-9) is interior by its modulus.  The first one
        # outside, in column 0 at an angle near pi, is lifted: its angle and
        # b's clear the floor of column 0, the disc rises to e^(1 - 1e-9),
        # past b, and no other sample is lifted
        a, b = 0.5 + 0j, -2 + 0.05j
        lifted = self._lifted(monkeypatch)
        path = validate_path([a, b])
        v = continuable_exact(path)
        assert v.verdict == "continuable" and v == _oracle_reference(path)
        n_sub = math.ceil(abs(b - a) / _seg_dist(0j, a, b) / engine._ORACLE_ARC)
        moduli = [abs(a + j / n_sub * (b - a)) for j in range(1, n_sub + 1)]
        assert not any(1.0 - 1e-6 < m < 1.0 for m in moduli)
        first = next(j for j, m in enumerate(moduli, 1) if m >= 1.0)
        assert lifted == [a + first / n_sub * (b - a)]

    def test_the_risen_disc_keeps_the_exit(self, monkeypatch):
        # as above, but the chord ends at |z| ~ 4: past the risen disc, at
        # |z| = e, it meets the riser of column 1 at an angle near pi.  One
        # sample is lifted where the disc rises, one where it exits, and 60
        # bisections sharpen the exit
        a, b = 0.5 + 0j, -4 + 0.05j
        lifted = self._lifted(monkeypatch)
        path = validate_path([a, b])
        s_exit = engine._segment_exit(a, b, path._dist[0], path._lift[0], path._lift[1], GEOM_TOL)
        assert len(lifted) == 1 + 1 + 60
        assert repr(s_exit) == repr(_exit_reference(a, b, 0.0, GEOM_TOL))
        assert abs(a + s_exit * (b - a)) == pytest.approx(math.e, abs=1e-6)
        v = continuable_exact(path)
        assert v.verdict == "blocked" and v == _oracle_reference(path)

    def test_a_falling_angle_does_not_raise_the_disc(self, monkeypatch):
        # the lift falls from 1 above the floor of column 1 to 1 below it at
        # |z| = e^1.5.  The samples near a clear that floor, but b's angle
        # does not, so the disc stays e^(1 - 1e-9) and the samples near b,
        # below the floor of column 1, are lifted and found blocked
        theta_a, theta_b = TWO_PI + 1.0, TWO_PI - 1.0
        a, b = cmath.exp(complex(1.5, theta_a)), cmath.exp(complex(1.5, theta_b))
        lift_a = complex(math.log(abs(a)), theta_a)
        lift_b = lift_point(a, theta_a, b)
        lifted = self._lifted(monkeypatch)
        s_exit = engine._segment_exit(a, b, _seg_dist(0j, a, b), lift_a, lift_b, GEOM_TOL)
        assert s_exit is not None
        assert repr(s_exit) == repr(_exit_reference(a, b, theta_a, GEOM_TOL))
        # the samples before the disc are lifted, then the first one past
        # it, where |z| = e again and the angle is below 2 pi, and 60
        # bisections
        n_sub = math.ceil(abs(b - a) / _seg_dist(0j, a, b) / engine._ORACLE_ARC)
        moduli = [abs(a + j / n_sub * (b - a)) for j in range(1, n_sub + 1)]
        assert not any(math.e - 1e-6 < m < math.e for m in moduli)
        first_in = next(j for j, m in enumerate(moduli, 1) if m < math.e)
        assert len(lifted) == (first_in - 1) + 1 + 60
        assert math.log(abs(a + s_exit * (b - a))) == pytest.approx(1.0, abs=1e-6)

    def test_the_disc_stops_short_of_the_glue_line(self):
        # near |z| = e^700 log rounds to multiples of 1.1e-13, so hundreds of
        # moduli just below e^(700 - 1e-9) have a log within 1e-9 of 700, on
        # the glue line of column 700; the chord from b/2 to b, which lifts
        # 1 above the floor of column 699, meets it at its last sample, b
        # itself, which the disc's 1e-12 leaves out
        b = math.nextafter(math.exp(700.0 - GEOM_TOL), 0.0)
        while abs(math.log(b) - 700) > GEOM_TOL:
            b = math.nextafter(b, 0.0)
        a, theta = 0.5 * b, TWO_PI * 699 + 1.0
        lift_a, lift_b = complex(math.log(a), theta), lift_point(a, theta, b)
        s_exit = engine._segment_exit(a, b, a, lift_a, lift_b, GEOM_TOL)
        assert s_exit is not None
        assert repr(s_exit) == repr(_exit_reference(a, b, theta, GEOM_TOL))


@pytest.mark.parametrize("c", [400, -400])
class TestScaledLift:
    """A chord with an end modulus outside [2^-500, 2^500] is sampled with
    paths.lift_point, which scales both points to a modulus near 1 before
    it divides them, as the reference lifts every sample.  Each chord runs
    radially in the column c, whose ends lie e^400 or e^-400 from 0, and
    neither is cleared by its end lifts: the continuable one runs 5e-9 above
    the column's floor, inside the end lifts' rounding margin."""

    @staticmethod
    def _exit(monkeypatch, x_a, x_b, theta_a):
        a, b = cmath.exp(complex(x_a, theta_a)), cmath.exp(complex(x_b, theta_a))
        lift_a = complex(math.log(abs(a)), theta_a)
        lift_b = lift_point(a, theta_a, b)
        scaled = []

        def counted(a, theta_a, z):
            scaled.append(z)
            return lift_point(a, theta_a, z)

        monkeypatch.setattr(paths, "lift_point", counted)
        s_exit = engine._segment_exit(a, b, _seg_dist(0j, a, b), lift_a, lift_b, GEOM_TOL)
        assert scaled  # not cleared by its end lifts, and sampled with lift_point
        want = _exit_reference(a, b, theta_a, GEOM_TOL)
        assert repr(s_exit) == repr(want)
        return s_exit, a, b

    def test_a_continuable_chord(self, monkeypatch, c):
        s_exit, _, _ = self._exit(monkeypatch, c + 0.2, c + 0.8, TWO_PI * c + 5e-9)
        assert s_exit is None

    def test_a_blocked_chord(self, monkeypatch, c):
        # the lift runs 1 above the floor of column c and meets the riser
        # of column c + 1
        s_exit, a, b = self._exit(monkeypatch, c + 0.5, c + 1.5, TWO_PI * c + 1.0)
        assert math.log(abs(a + s_exit * (b - a))) == pytest.approx(c + 1, abs=1e-6)


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

    @pytest.mark.xfail(
        strict=True,
        reason="adjacent germs of the 52-step chain to 1+0.01j disagree by "
        "2.4e-7, past the acceptance bound of 1e-7",
    )
    def test_routed_f_chain_within_the_acceptance_bound(self):
        # criterion 8 applies the bound to the chain to 2j only (2.3e-8)
        cmap = build_map(Truncation(-2, 2, 8 * math.pi), 256)
        chain = continue_along(f_germ_at_base(cmap), reach_path(1 + 0.01j), FRefresh(cmap))
        assert overlap_disagreement(chain, 8) < 1e-7


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
def test_certified_prefix_keeps_every_verdict(shape, end_column):
    # a polyline or the route to a target, optionally ending at e^m, the
    # image of the corner (m, 2 pi m); a verdict equals the reference's on
    # the route, which was certified as it was built and whose segments the
    # oracle decides only off GEOM_TOL, and on a fresh path of the same
    # points, at GEOM_TOL and 1e-6
    kind, arg = shape
    try:
        if kind == "route":
            path = reach_path(arg[0] * cmath.exp(1j * arg[1]))
        else:
            path = validate_path([0.5] + [r * cmath.exp(1j * a) for r, a in arg])
        if end_column is not None:
            path = validate_path(list(path.points) + [math.exp(end_column)])
    except LogstairError:
        assume(False)
    for geom_tol in (GEOM_TOL, 1e-6):
        want = _oracle_reference(path, geom_tol)
        assert continuable_exact(path, geom_tol) == want
        assert continuable_exact(validate_path(path.points), geom_tol) == want


def _wound_to(x, theta):
    """Vertices from 0.5 to e^(x + i theta) whose lift runs left along y = 0
    to x = -1.5, round 0 at that radius up or down to angle theta, then
    level to x: interior when theta > max(-4 pi, 2 pi column(x))."""
    r0 = math.exp(-1.5)
    n = max(1, math.ceil(abs(theta) / (math.pi / 4)))
    m = max(1, math.ceil(abs(x + 1.5) / LN2))
    return (
        [0.5, r0]
        + [r0 * cmath.exp(1j * theta * k / n) for k in range(1, n + 1)]
        + [cmath.exp(complex(-1.5 + (x + 1.5) * k / m, theta)) for k in range(1, m + 1)]
    )


def _near_edge(feature, n, along, inside, offset, geom_tol):
    """A lift-plane point offset from the staircase's boundary at geom_tol:
    above (inside) or below the floor of column n, left of (inside) or on
    the glue line x = n between the floors of columns n - 1 and n, or by
    the corner (n, 2 pi n), left of its glue line or on it and above or
    below its floor."""
    sign = 1.0 if inside else -1.0
    if feature == "floor":
        return complex(n + 0.05 + 0.9 * along, TWO_PI * n + geom_tol + sign * offset)
    if feature == "glue":
        y = TWO_PI * (n - 1) + 0.2 + (TWO_PI - 0.4) * along
        return complex(n - geom_tol - sign * offset, y)
    left = 1.0 if along < 0.5 else -1.0
    return complex(n - left * (geom_tol + offset), TWO_PI * n + geom_tol + sign * offset)


edges = st.tuples(
    st.sampled_from(["floor", "glue", "corner"]),
    st.integers(-1, 1),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.sampled_from([GEOM_TOL, 1e-6]),
)


@given(edges, st.floats(-17.0, -6.0), st.floats(0.1, 2.5), st.floats(0.0, 1.0), st.booleans())
@example(("floor", 0, 0.5, True, GEOM_TOL), -13.0, 1.0, 0.0, False)
@example(("corner", 1, 0.7, False, 1e-6), -13.0, 0.5, 0.3, True)
# the sample at s = 1, a + 1.0*(b - a), lifts below the floor (or onto the
# glue line) where b lifts above it: with no margin the corner test clears
# these chords, and sampling finds them blocked at t = 1
@example(
    ("floor", 0, 0.3559364196627752, False, 1e-09),
    -15.597998819115457, 1.2822082370391066, 0.7175249580220481, False,
)
@example(
    ("glue", 0, 0.5104730163778821, True, 1e-09),
    -16.181872100316635, 1.9230243715042528, 0.732496449743446, False,
)
@settings(max_examples=300, deadline=None)
def test_end_lift_certificate_at_the_staircase_edge(edge, log_offset, rise, shift, far_end_right):
    # a chord whose lift falls by rise from a to b and whose box corner
    # (max Re, min Im) sits 1e-17..1e-6 inside or outside a floor, a glue
    # line or a corner; b's lift is the corner unless a lies right of it
    feature, n, along, inside, geom_tol = edge
    corner = _near_edge(feature, n, along, inside, 10.0**log_offset, geom_tol)
    x_a, x_b = corner.real - shift, corner.real
    if far_end_right:
        x_a, x_b = x_b, x_a
    pts = _wound_to(x_a, corner.imag + rise) + [cmath.exp(complex(x_b, corner.imag))]
    path = validate_path(pts)
    assert continuable_exact(path, geom_tol) == _oracle_reference(path, geom_tol)


@given(edges, st.floats(-13.0, -1.0), st.floats(-9.0, -2.0))
@example(("floor", 0, 0.5, True, GEOM_TOL), -13.0, -9.0)
@example(("glue", 1, 0.5, True, GEOM_TOL), -2.0, -9.0)
@settings(max_examples=150, deadline=None)
def test_end_lift_certificate_near_zero(edge, log_offset, log_gap):
    # a chord from a to b, |a| = |b|, passing 10**log_gap of its length from
    # 0, at s = 1/2, with b's lift by the staircase's boundary as above.
    # Sampling it every 0.005 of lift arc would take up to 2e11 samples, so
    # the grid is coarsened to 2,000 samples, one at s = 1/2, where
    # phase(z/a) loses most; a cleared chord has every sample interior, on
    # any grid
    feature, n, along, inside, geom_tol = edge
    corner = _near_edge(feature, n, along, inside, 10.0**log_offset, geom_tol)
    sweep = 2.0 * math.atan(0.5 / 10.0**log_gap)
    pts = _wound_to(corner.real, corner.imag + sweep) + [cmath.exp(corner)]
    path = validate_path(pts)
    a, b = path.points[-2:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_ORACLE_ARC", abs(b - a) / _seg_dist(0j, a, b) / 1999.5)
        assert continuable_exact(path, geom_tol) == _oracle_reference(path, geom_tol)


# where the chord's ends lie: log|z| - n drawn freely, or on (or within a
# few tolerances of) the glue line x = n or x = n + 1
chord_ends = st.tuples(st.floats(-0.9, 1.9), st.sampled_from([None, 0, 1]), st.floats(-3.0, 3.0))


@given(
    st.integers(-1, 1),
    st.floats(-17.0, -6.0),
    st.booleans(),
    st.floats(0.0, 2.5),
    chord_ends,
    chord_ends,
    st.booleans(),
    st.sampled_from([GEOM_TOL, 1e-6]),
    st.booleans(),
)
@example(0, -17.0, True, 1.0, (0.0, 1, 0.0), (1.5, None, 0.0), False, GEOM_TOL, False)
@example(0, -8.0, False, 0.5, (0.0, 1, 1.0), (0.0, 1, -1.0), True, 1e-6, False)
# the lowest angle sits by the floor of column -710: the disc's radius
# e^(c + 1 - geom_tol) underflows to 0, and every sample is lifted
@example(-710, -9.0, True, 1.0, (1.7, None, 0.0), (1.9, None, 0.0), False, GEOM_TOL, False)
# the angle climbs from column 0 to b on the circle |z| = e, just above
# the floor of column 1 at GEOM_TOL: by less than the margin (1e-17), where
# the disc stays, and by more (1e-9, and 1e-6 at tol 1e-6), where the
# first lifted samples raise it; just below the floor b is blocked
@example(1, -17.0, True, 2.0, (-0.5, None, 0.0), (0.0, None, 0.0), False, GEOM_TOL, True)
@example(1, -9.0, True, 2.0, (-0.5, None, 0.0), (0.0, None, 0.0), False, GEOM_TOL, True)
@example(1, -6.0, True, 2.0, (-0.5, None, 0.0), (0.0, None, 0.0), False, 1e-6, True)
@example(1, -9.0, False, 2.0, (-0.5, None, 0.0), (0.0, None, 0.0), False, GEOM_TOL, True)
# the third chord run backwards: its angle falls, and the disc stays
@example(1, -6.0, True, 2.0, (0.0, None, 0.0), (-0.5, None, 0.0), True, 1e-6, True)
@settings(max_examples=300, deadline=None)
def test_the_modulus_disc_keeps_every_exit(
    n, log_offset, above, rise, end_a, end_b, flip, tol, top
):
    # a chord whose lowest end angle (or, with top, its highest) sits
    # 1e-17..1e-6 above or below the floor of column n at tol, rising by
    # rise to its other end (falling, with flip), with ends whose moduli
    # cross e^n and e^(n + 1), some within tol of the glue line: its exit,
    # at GEOM_TOL and at 1e-6, is the one the reference finds by lifting
    # every sample.  With top the disc of column n - 1 rises to column n's
    # once a lifted sample's angle and b's clear the floor of column n
    edge = TWO_PI * n + tol + (1.0 if above else -1.0) * 10.0**log_offset
    xs = [n + (u if k is None else k + g * tol) for u, k, g in (end_a, end_b)]
    thetas = [edge - rise, edge] if top else [edge, edge + rise]
    if flip:
        thetas.reverse()
    a, b = (cmath.exp(complex(x, theta)) for x, theta in zip(xs, thetas))
    assume(a != b)
    lift_a = complex(math.log(abs(a)), thetas[0])
    lift_b = lift_point(a, thetas[0], b)
    dist = _seg_dist(0j, a, b)
    for geom_tol in (GEOM_TOL, 1e-6):
        s_exit = engine._segment_exit(a, b, dist, lift_a, lift_b, geom_tol)
        assert repr(s_exit) == repr(_exit_reference(a, b, thetas[0], geom_tol))


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
    i, t, center = 0, 0.0, path.start
    for cap in caps:
        if t >= 1.0:
            break
        j, s, z, lift = engine._step(path, i, center, cap)
        limit = cap * (1.0 - 1e-12)
        if j == last:
            assert (s, z, lift) == (path.total_length, path.end, path._lift[-1])
            t_next = 1.0
        else:
            # the arc length of z, so its parameter is s over the length
            assert abs(s - path._cumlen[j] - abs(z - path.points[j])) <= 1e-12 * max(1.0, s)
            t_next = s / path.total_length
            assert abs(abs(z - center) - limit) <= 1e-12 * limit
            assert abs(lift - lift_at(path, t_next)) < 1e-12
        assert all(abs(p - center) <= limit for p in path.points[i + 1 : j + 1])
        assert abs(t_next - _bisected_step(path, t, center, cap)) <= 1e-12
        assert t_next > t
        i, t, center = j, t_next, z
