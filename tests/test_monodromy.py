import cmath
import math
import random

import pytest
from hypothesis import given, settings
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
        with pytest.raises(ValueError):
            reach_path(0.0)


def _route_lift_reference(target: complex):
    """Reference: _route_lift as it was with a separate leftward branch and a
    trailing pass dropping consecutive duplicates."""
    x0, y0 = BASE_LIFT.real, BASE_LIFT.imag
    xt, yt = target.real, target.imag
    c0 = column(x0)
    ct = column(xt)
    on_glue = abs(xt - ct) <= GEOM_TOL
    pts = [complex(x0, y0)]
    x_cur, y_cur = x0, y0

    if ct >= c0:
        for c in range(c0 + 1, ct + 1):
            y_need = TWO_PI * c + monodromy.ROUTE_CLEARANCE
            if y_cur < y_need:
                pts.append(complex(x_cur, y_need))
                y_cur = y_need
            x_next = float(c) if (c == ct and on_glue) else c + 0.5
            pts.append(complex(x_next, y_cur))
            x_cur = x_next
        y_f = max(y_cur, yt)
        if y_f > y_cur:
            pts.append(complex(x_cur, y_f))
            y_cur = y_f
        if x_cur != xt:
            pts.append(complex(xt, y_cur))
            x_cur = xt
    else:
        y_f = max(y0, yt)
        if y_f > y_cur:
            pts.append(complex(x_cur, y_f))
            y_cur = y_f
        pts.append(complex(xt, y_cur))
        x_cur = xt
    if y_cur != yt:
        pts.append(complex(xt, yt))

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
