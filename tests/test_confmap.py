import cmath
import math

import numpy as np
import pytest

from logstair import (
    BadTruncation,
    FRefresh,
    OutsideDomain,
    Truncation,
    build_map,
    crosscheck,
    eval_h,
    f_germ_at_base,
    lift_log,
    psi_eval,
    continue_along,
    quality_report,
    reach_path,
    validate_path,
)

TWO_PI = 2.0 * math.pi
BASE = complex(math.log(0.5), 0.0)


@pytest.fixture(scope="module")
def trunc():
    return Truncation(-2, 2, 8 * math.pi)


@pytest.fixture(scope="module")
def cmap(trunc):
    return build_map(trunc, 256)


@pytest.fixture(scope="module")
def report(cmap):
    return quality_report(cmap)


@pytest.fixture(scope="module")
def fgerm(cmap):
    return f_germ_at_base(cmap)


def f_direct(cmap, z):
    """h(psi(log z)) with the principal-at-base lift, for points that stay in
    the base column of the staircase."""
    zeta = cmath.log(complex(z))
    return eval_h(psi_eval(cmap, zeta))


class TestConstruction:
    def test_base_maps_to_zero(self, cmap):
        assert psi_eval(cmap, BASE) == 0j

    def test_interior_points_stay_inside(self, cmap):
        for zeta in (BASE, complex(0.5, 1.0), complex(-1.5, -4.0), complex(2.5, 14.0)):
            assert abs(psi_eval(cmap, zeta)) < 1.0

    def test_boundary_nodes_near_circle(self, cmap):
        vals = cmap._eval_raw(np.asarray(cmap.nodes[2:-2]))
        mods = np.abs(vals)
        assert mods.min() > 0.999
        assert mods.max() <= 1.0 + 1e-12

    def test_outside_domain(self, cmap):
        with pytest.raises(OutsideDomain):
            psi_eval(cmap, complex(1.5, 3.0))
        with pytest.raises(OutsideDomain):
            psi_eval(cmap, complex(-3.0, 1.0))

    def test_minimum_resolution(self, trunc):
        with pytest.raises(ValueError):
            build_map(trunc, 32)

    def test_base_must_be_inside(self):
        with pytest.raises(BadTruncation):
            build_map(Truncation(1, 2, 8 * math.pi), 64)

    def test_well_depth_monotonicity(self, cmap):
        # descending toward the floor of column 0 the image modulus grows
        depths = [0.5, 0.25, 0.12, 0.06, 0.03]
        mods = [abs(psi_eval(cmap, complex(0.5, y))) for y in depths]
        assert mods == sorted(mods)

    def test_derivative_positive_at_base(self, cmap):
        # the rotation normalization: real, positive derivative at the base
        eps = 1e-5
        d = (psi_eval(cmap, BASE + eps) - psi_eval(cmap, BASE - eps)) / (2 * eps)
        assert d.real > 0
        assert abs(d.imag) < 1e-6 * d.real


class TestQualityReport:
    def test_interior_max_modulus(self, report):
        assert report["interior_max_modulus"] < 1.0

    def test_boundary_moduli(self, report):
        assert report["boundary_mean_modulus"] > 0.95
        assert report["boundary_min_modulus"] > 0.9

    def test_injectivity_separation(self, report):
        assert report["grid_injectivity_min_separation"] > 0.0

    def test_resolution_improves_boundary(self, trunc, report):
        coarse = quality_report(build_map(trunc, 128))
        assert report["boundary_mean_modulus"] >= coarse["boundary_mean_modulus"] - 1e-9


class TestLocalModel:
    def test_base_model_is_centered(self, cmap):
        g = cmap.local_model(BASE, 32)
        assert g.center == BASE
        # the ring-sample mean carries the evaluator's noise floor; the map
        # itself sends the base to 0 exactly (see test_base_maps_to_zero)
        assert abs(g.coeffs[0]) < 1e-9

    def test_model_matches_map_nearby(self, cmap):
        zeta = complex(0.4, 2.0)
        g = cmap.local_model(zeta, 48)
        for d in (0.05, 0.05j, -0.04 + 0.03j):
            assert abs(g.eval(zeta + d) - psi_eval(cmap, zeta + d)) < 1e-9

    def test_model_radius_respects_walls(self, cmap, trunc):
        zeta = complex(0.5, 1.0)
        g = cmap.local_model(zeta)
        assert g.radius_est == pytest.approx(0.5 * trunc.boundary_distance(zeta))

    def test_outside_domain(self, cmap):
        with pytest.raises(OutsideDomain):
            cmap.local_model(complex(1.5, 3.0))


class TestFGerm:
    def test_vanishes_at_base(self, fgerm):
        assert fgerm.center == 0.5 + 0j
        assert abs(fgerm.coeffs[0]) < 1e-8

    def test_matches_direct_composition(self, cmap, fgerm):
        # 16 points within half the convergence radius
        r = 0.5 * fgerm.radius_est
        for k in range(16):
            z = 0.5 + r * (0.3 + 0.6 * (k / 15)) * cmath.exp(2j * math.pi * k / 16)
            assert abs(fgerm.eval(z) - f_direct(cmap, z)) < 1e-5

    def test_refresh_tracks_the_lift(self, cmap):
        refresh = FRefresh(cmap)
        g = refresh(0.55 + 0j, 0j)
        assert abs(g.coeffs[0] - f_direct(cmap, 0.55)) < 1e-9
        # after a step the stored lift follows the path, not the principal box
        assert abs(refresh.prev_lift - cmath.log(0.55)) < 1e-12

    def test_crosscheck_agrees_on_blocked_segment(self, cmap, fgerm):
        report = crosscheck(validate_path([0.5, 2.0]), fgerm, refresh=FRefresh(cmap))
        assert report.agree
        assert not report.chain.completed
        assert report.oracle.verdict == "blocked"
        assert abs(report.chain.t_fail - report.oracle.first_exit_t) < 0.02


class TestRefreshPath:
    """Routed continuation with FRefresh: pins the step count and the final
    value, so a change to the refresh arithmetic that moves an answer shows."""

    @pytest.mark.parametrize("target, steps", [(-0.5, 22), (-1j, 47)])
    def test_routed_chain(self, cmap, fgerm, target, steps):
        path = reach_path(target)
        chain = continue_along(fgerm, path, refresh=FRefresh(cmap))
        assert chain.completed
        assert len(chain.elements) - 1 == steps
        expected = eval_h(psi_eval(cmap, lift_log(path).end))
        assert abs(chain.final.coeffs[0] - expected) < 1e-6
