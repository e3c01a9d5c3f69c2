import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logstair.monodromy as monodromy
from logstair import (
    NotOnSlit,
    OracleVerdict,
    RoutingFailure,
    boundary_distance,
    choose_lift_target,
    classify,
    continuable_exact,
    expexp_demo,
    overlap_disagreement,
    reach_path,
    truth_table,
    winding_number,
)
from logstair.staircase import BASE_LIFT, GEOM_TOL, column, in_interior

TWO_PI = 2.0 * math.pi
E2 = math.e**2


class TestClassify:
    def test_circle_target_one_extra_turn(self):
        r = classify(-E2, 2, 3)
        assert r.verdict == "continuable"
        assert r.lift_end == pytest.approx(complex(2.0, 5 * math.pi))
        assert r.witness_path is not None

    def test_circle_target_matching_turns(self):
        r = classify(-E2, 2, 2)
        assert r.verdict == "blocked"
        assert r.lift_end == pytest.approx(complex(2.0, 3 * math.pi))
        assert r.witness_path is None

    def test_segment_target(self):
        r = classify(0.6, 0, 0)
        assert r.verdict == "blocked"
        assert r.lift_end == pytest.approx(complex(math.log(0.6), -TWO_PI))

    def test_corner_target(self):
        r = classify(E2, 2, 3)
        assert r.verdict == "corner"
        assert r.lift_end == pytest.approx(complex(2.0, 4 * math.pi))
        assert r.witness_path is None

    def test_segment_continuable(self):
        r = classify(0.6, 0, 1)
        assert r.verdict == "continuable"
        assert r.lift_end == pytest.approx(complex(math.log(0.6), 0.0))

    def test_not_on_slit(self):
        with pytest.raises(NotOnSlit):
            classify(2.0, 0, 0)
        with pytest.raises(NotOnSlit):
            classify(-E2, 1, 2)

    def test_witness_passes_oracle(self):
        for omega, M, N in [(-E2, 2, 3), (0.6, 0, 1), (1j, 0, 2), (-math.exp(-2), -2, 0)]:
            r = classify(omega, M, N)
            assert r.verdict == "continuable"
            v = continuable_exact(r.witness_path)
            assert v.verdict == "continuable"
            assert abs(v.lift_end - r.lift_end) < 1e-7


class TestTruthTable:
    def test_small_grid(self):
        tab = truth_table(range(0, 1), [0, 1], 2)
        # per (M, N): 2 circle samples + 1 segment sample
        assert len(tab.rows) == 6
        assert tab.theorem_b_pass

    def test_rows_follow_the_dichotomy(self):
        tab = truth_table(range(-1, 2), [0, 1], 4)
        for r in tab.rows:
            if r.verdict == "corner":
                continue
            assert (r.verdict == "continuable") == (r.N > r.M)

    def test_same_index_rows_all_blocked(self):
        tab = truth_table(range(-1, 2), [0], 4)
        assert all(r.verdict == "blocked" for r in tab.rows)
        assert tab.theorem_b_pass

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            truth_table([], [0], 4)
        with pytest.raises(ValueError):
            truth_table(range(0, 1), [0], 0)


class TestReachPath:
    def test_upper_target(self):
        path = reach_path(2j)
        assert path.start == 0.5
        assert abs(path.end - 2j) < 1e-12
        assert winding_number(path) == 0

    def test_deep_negative_target(self):
        path = reach_path(-math.e**3)
        assert winding_number(path) == 3

    def test_base_target_is_constant_path(self):
        path = reach_path(0.5)
        assert path.points == (0.5 + 0j,)

    def test_oracle_certifies_route(self):
        for omega in (2j, -1.0, 0.2 + 0.1j, -math.e**3, 10.0):
            path = reach_path(omega)
            v = continuable_exact(path)
            assert v.verdict == "continuable"
            assert abs(v.lift_end - choose_lift_target(omega)) < 1e-7

    def test_seeded_targets(self):
        rng = random.Random(7)
        for _ in range(20):
            r = math.exp(rng.uniform(-3.0, 3.0))
            omega = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            path = reach_path(omega)
            v = continuable_exact(path)
            assert v.verdict == "continuable"
            assert abs(v.lift_end - choose_lift_target(omega)) < 1e-7

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="omega must be nonzero"):
            reach_path(0.0)


def _route_lift_reference(target: complex):
    """Reference: the route tree written leg by leg, every candidate waypoint
    appended and consecutive duplicates dropped at the end."""
    if target == BASE_LIFT:
        return [BASE_LIFT]
    x, y = BASE_LIFT.real, BASE_LIFT.imag
    xt, yt = target.real, target.imag
    ct = column(xt)
    on_glue = abs(xt - ct) <= GEOM_TOL
    pts = [BASE_LIFT]
    # the trunk: climb above each glue threshold, then cross it
    for c in range(column(x) + 1, ct + 1):
        y = max(y, TWO_PI * c + monodromy.ROUTE_CLEARANCE)
        pts.append(complex(x, y))
        x = float(c) if (c == ct and on_glue) else c + 0.5
        pts.append(complex(x, y))
    if on_glue:
        # rise on the glue line to the target's height when it is higher
        y_leg = max(y, yt)
    else:
        # level to the column's middle (at the base height in and left of
        # the base column), then along it to the target's height, or to 1/2 above
        # the floor when the floor is the nearest wall and closer than 1/2
        x = ct + 0.5
        pts.append(complex(x, y))
        floor_gap, riser_gap = yt - TWO_PI * ct, ct + 1 - xt
        near_floor = floor_gap < 0.5 and floor_gap < riser_gap
        y_leg = TWO_PI * ct + 0.5 if near_floor else yt
    pts += [complex(x, y_leg), complex(xt, y_leg), complex(xt, yt)]

    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _above_floor(x: float, height: float) -> complex:
    return complex(x, TWO_PI * column(x) + height)


heights = st.floats(1e-6, 40.0)
route_targets = st.one_of(
    # leftward: a column left of the base lift's
    st.builds(_above_floor, st.floats(-6.0, -1.0 - 2 * GEOM_TOL), heights),
    # rightward
    st.builds(_above_floor, st.floats(0.0, 6.0), heights),
    # near a floor, where the corridor leg stops 1/2 above it
    st.builds(_above_floor, st.floats(-6.0, 6.0), st.floats(1e-6, 1.0)),
    # on a glue line, within GEOM_TOL of an integer
    st.builds(
        lambda m, u, h: _above_floor(m + u * GEOM_TOL, h),
        st.integers(-5, 5),
        st.floats(-1.0, 1.0),
        heights,
    ),
    # the base lift itself, and targets in its column
    st.just(BASE_LIFT),
    st.builds(complex, st.floats(-1.0 + 2 * GEOM_TOL, -2 * GEOM_TOL), st.floats(-6.0, 6.0)),
)


class TestRouteLift:
    @given(route_targets)
    @example(complex(0.75, 0.25))  # floor and riser equally near: no stop above the floor
    @settings(max_examples=1000, deadline=None)
    def test_matches_reference(self, target):
        pts = monodromy._route_lift(target)
        assert pts == _route_lift_reference(target)
        assert all(p != q for p, q in zip(pts, pts[1:]))

    def test_trunk_keeps_the_clearance(self):
        # every leg but the last two keeps ROUTE_CLEARANCE from the boundary;
        # every sampled point short of the target is interior
        clearance = 0.999 * monodromy.ROUTE_CLEARANCE
        step = 0.5 * monodromy.ROUTE_CLEARANCE
        checked = 0
        for x in [-4.0 + 0.25 * i for i in range(37)]:
            for a in [-math.pi + TWO_PI * (j + 0.5) / 8 for j in range(8)]:
                target = choose_lift_target(cmath.exp(complex(x, a)))
                pts = monodromy._route_lift(target)
                n_legs = len(pts) - 1
                for i, (p, q) in enumerate(zip(pts, pts[1:])):
                    n_sub = max(1, math.ceil(abs(q - p) / step))
                    for j in range(n_sub + 1):
                        z = p + (q - p) * (j / n_sub)
                        assert z == target or in_interior(z)
                        if i < n_legs - 2:
                            assert boundary_distance(z) >= clearance
                            checked += 1
        assert checked > 10_000


def _chord_grid(pts):
    """Lift-plane vertices of _exp_path(pts), leg by leg: the leg's start and
    every multiple of EXP_STEP along it, then the route's end.  A leg too
    short to move its exponential (a glue-line target a few ulps off the
    line) adds no vertex."""
    grid = []
    for a, b in zip(pts, pts[1:]):
        unit = (b - a) / abs(b - a)
        k = 0
        while k * monodromy.EXP_STEP < abs(b - a):
            grid.append(a + unit * (k * monodromy.EXP_STEP))
            k += 1
    out = [pts[0]]
    for z in grid[1:] + [pts[-1]]:
        if cmath.exp(z) != cmath.exp(out[-1]):
            out.append(z)
    return out


class TestExpPath:
    @given(route_targets)
    @settings(max_examples=300, deadline=None)
    def test_chords_run_on_each_legs_grid(self, target):
        pts = monodromy._route_lift(target)
        path = monodromy._exp_path(pts)
        assert all(p != q for p, q in zip(path.points, path.points[1:]))
        lifted = path._lift
        assert len(lifted) == len(_chord_grid(pts))
        for z, want in zip(lifted, _chord_grid(pts)):
            assert abs(z - want) < 1e-9
        for p, q in zip(lifted, lifted[1:]):
            assert abs(q - p) <= monodromy.EXP_STEP * (1 + 1e-9)

    @pytest.mark.parametrize(
        "near, far",
        [
            (complex(0.8, 3.0), complex(0.3, 5.5)),  # up the middle of column 0
            (complex(-0.2, -2.53), complex(-0.8, -5.5)),  # down column -1's
            (complex(-1.3, -8.47), complex(-1.7, -11.0)),  # down column -2's
            (complex(1.73, TWO_PI + 0.2), complex(1.91, TWO_PI + 0.05)),  # level above a floor
        ],
    )
    def test_routes_share_a_common_legs_vertices(self, near, far):
        # the route to `near` leaves its last shared waypoint along the
        # route to `far`; both paths are equal vertex for vertex up to the
        # end of that leg on `near`'s route
        p_near = monodromy._exp_path(monodromy._route_lift(near))
        p_far = monodromy._exp_path(monodromy._route_lift(far))
        n = next(k for k, (a, b) in enumerate(zip(p_near.points, p_far.points)) if a != b)
        assert abs(p_near._lift[n] - monodromy._route_lift(near)[-2]) < 1e-12
        assert n > 20


class TestCertificate:
    @pytest.mark.parametrize(
        "verdict",
        [OracleVerdict("blocked", 0.5, 0.5 + 0j), OracleVerdict("continuable", None, 0j)],
    )
    def test_oracle_verdict_is_consulted(self, monkeypatch, verdict):
        monkeypatch.setattr(monodromy, "continuable_exact", lambda path: verdict)
        with pytest.raises(RoutingFailure):
            reach_path(2j)
        with pytest.raises(RoutingFailure):
            classify(-E2, 2, 3)
        assert classify(-E2, 2, 2).verdict == "blocked"  # no witness, no oracle


@pytest.fixture(scope="module")
def demo():
    return expexp_demo()


class TestExpExpDemo:
    def test_gamma_runs_from_e_to_1(self, demo):
        assert demo.gamma.start == pytest.approx(math.e)
        assert demo.gamma.end == 1.0

    def test_principal_branch_dies_near_one(self, demo):
        assert not demo.branch_a.completed
        assert abs(demo.fail_point - 1.0) < 0.05

    def test_shifted_branch_completes(self, demo):
        assert demo.branch_b.completed
        target = complex(math.log(TWO_PI), math.pi / 2)
        assert abs(demo.final_value - target) < 1e-6

    def test_shifted_branch_chain_coherent(self, demo):
        assert overlap_disagreement(demo.branch_b, 8) < 1e-7

    def test_failed_branch_has_no_final_value(self, demo):
        assert demo.branch_a.t_fail is not None
        assert demo.final_value is not None
        # the failing branch reports no final value
        from logstair import ExpExpReport

        assert ExpExpReport(demo.gamma, demo.branch_a, demo.branch_a).final_value is None
