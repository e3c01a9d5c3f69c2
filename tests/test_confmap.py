import cmath
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import logstair
from logstair import (
    BadTruncation,
    ConformalMap,
    FRefresh,
    Germ,
    ModelUnresolved,
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
from logstair import choose_lift_target, confmap, engine, monodromy
from logstair.confmap import _flip, _interior_grid
from logstair.staircase import BASE_LIFT

TWO_PI = 2.0 * math.pi
BASE = complex(math.log(0.5), 0.0)
ROADMAP12 = (3j, 0.2, 0.2j, 4, 0.1 - 0.1j, 2j, -2 + 0.1j, 2.5, -1j, 1.5 + 1.5j, -0.5, 1 + 0.01j)


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

    def test_default_map_passes(self, report):
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "spec, miss",
        [
            # grid images up to 5e-3 outside the disc
            ((-1, 4, 12 * math.pi), lambda r: r["interior_max_modulus"] > 1.0),
            # two grid points map to the same double
            ((-3, 1, 8 * math.pi), lambda r: r["grid_injectivity_min_separation"] == 0.0),
        ],
        ids=["-1:4:12pi", "-3:1:8pi"],
    )
    def test_unfit_maps_fail(self, spec, miss):
        report = quality_report(build_map(Truncation(*spec), 256))
        assert miss(report)
        assert report["passed"] is False


class TestLocalModel:
    def test_base_model_is_centered(self, cmap):
        g = cmap.local_model(BASE)
        assert g.center == BASE
        # the ring-sample mean carries the evaluator's noise floor; the map
        # itself sends the base to 0 exactly (see test_base_maps_to_zero)
        assert abs(g.coeffs[0]) < 1e-9

    def test_model_matches_map_nearby(self, cmap):
        zeta = complex(0.4, 2.0)
        g = cmap.local_model(zeta)
        for d in (0.05, 0.05j, -0.04 + 0.03j):
            assert abs(g.eval(zeta + d) - psi_eval(cmap, zeta + d)) < 1e-9

    def test_model_radius_respects_walls(self, cmap, trunc):
        zeta = complex(0.5, 1.0)
        g = cmap.local_model(zeta)
        assert g.radius_est == pytest.approx(0.85 * trunc.boundary_distance(zeta))

    def test_outside_domain(self, cmap):
        with pytest.raises(OutsideDomain):
            cmap.local_model(complex(1.5, 3.0))


@pytest.fixture
def rings(monkeypatch):
    """Sizes of the point sets handed to ConformalMap._eval_raw: inside
    local_model, one per ring of the radius ladder tried (the ring's 256
    points and the center)."""
    sizes = []
    inner = ConformalMap._eval_raw

    def counted(self, z):
        sizes.append(np.size(z))
        return inner(self, z)

    monkeypatch.setattr(ConformalMap, "_eval_raw", counted)
    return sizes


class TestSelfCheck:
    """local_model's radius ladder: the narrow ring where the wide one fails
    the self-check, a typed error where neither passes, and the check held
    by every model handed out."""

    def test_fallback_rung(self, cmap, trunc, rings):
        # the end of the route to 1+0.01j, just above the floor of column 0
        # and 5e-5 right of its corner: the wide ring reaches past what the
        # nodes resolve there
        zeta = cmath.log(1 + 0.01j)
        g = cmap.local_model(zeta)
        assert rings == [257, 257]
        assert g.radius_est == 0.5 * trunc.boundary_distance(zeta)
        assert abs(g.coeffs[0] - psi_eval(cmap, zeta)) <= 1e-6

    def test_unresolved_point_raises(self, cmap, trunc, rings):
        # deep in column -2 the map crowds its images against the circle:
        # every sample is finite, but neither ring passes
        zeta = complex(-1.5, -8.0)
        with pytest.raises(ModelUnresolved):
            cmap.local_model(zeta)
        assert rings == [257, 257]
        ring = zeta + 0.85 * trunc.boundary_distance(zeta) * np.exp(1j * np.arange(8))
        assert np.all(np.isfinite(cmap._eval_raw(ring)))

    def test_unresolved_model_ends_the_chain(self, cmap, fgerm):
        # 1e-6 above the floor of column 0 the ring radius to the 64th power
        # underflows; the hook raises ModelUnresolved, which the engine
        # reports as a failed chain
        wall = complex(0.5, 1e-6)
        refresh = FRefresh(cmap)

        def to_the_wall(center, lift, prev):
            return refresh(cmath.exp(wall), wall, prev)

        chain = continue_along(fgerm, validate_path([0.5, 0.6]), refresh=to_the_wall)
        assert chain.status == "failed"
        assert chain.t_fail == 0.0
        assert "self-check" in chain.reason

    @given(
        n=st.integers(-2, 2),
        x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        y=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_accepted_models_pass_the_check(self, cmap, trunc, n, x, y):
        lo = TWO_PI * n
        zeta = complex(n + x, lo + (trunc.y_max - lo) * y)
        assume(trunc.contains(zeta))
        try:
            g = cmap.local_model(zeta)
        except ModelUnresolved:
            assume(False)
        d = trunc.boundary_distance(zeta)
        assert abs(g.coeffs[0] - psi_eval(cmap, zeta)) <= 1e-6
        assert g.radius_est in (0.85 * d, 0.5 * d)


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
        lift = cmath.log(0.55)
        g = refresh(0.55 + 0j, lift, None)
        assert abs(g.coeffs[0] - f_direct(cmap, 0.55)) < 1e-9
        # one turn up the staircase the same center carries another value:
        # the germ is built on the lift it is given, not the principal log
        up = lift + TWO_PI * 1j
        g_up = refresh(0.55 + 0j, up, None)
        assert abs(g_up.coeffs[0] - eval_h(psi_eval(cmap, up))) < 1e-9
        assert abs(g_up.coeffs[0] - g.coeffs[0]) > 1e-3

    def test_base_germ_is_the_refresh_at_base(self, cmap):
        assert f_germ_at_base(cmap) == FRefresh(cmap)(0.5 + 0j, BASE_LIFT, None)

    def test_crosscheck_agrees_on_blocked_segment(self, cmap, fgerm):
        report = crosscheck(validate_path([0.5, 2.0]), fgerm, refresh=FRefresh(cmap))
        assert report.agree
        assert not report.chain.completed
        assert report.oracle.verdict == "blocked"
        assert abs(report.chain.t_fail - report.oracle.first_exit_t) < 0.02


class TestRefreshPath:
    """Routed continuation with FRefresh: pins the step count and the final
    value, so a change to the refresh arithmetic that moves an answer shows."""

    def test_reused_hook_repeats_the_chain(self, cmap, fgerm):
        # a hook holds no state, so a second run with the same object
        # repeats the first germ for germ
        path = reach_path(2.5)
        refresh = FRefresh(cmap)
        first = continue_along(fgerm, path, refresh=refresh)
        second = continue_along(fgerm, path, refresh=refresh)
        assert first.completed
        assert len(first.elements) - 1 == 78
        assert second == first

    # 1+0.01j ends 5e-5 right of the corner of column 0, where the map is
    # hardest to resolve and its last models take the narrow ring
    @pytest.mark.parametrize("target, steps", [(-0.5, 21), (-1j, 31), (1 + 0.01j, 52)])
    def test_routed_chain(self, cmap, fgerm, target, steps):
        path = reach_path(target)
        chain = continue_along(fgerm, path, refresh=FRefresh(cmap))
        assert chain.completed
        assert len(chain.elements) - 1 == steps
        expected = eval_h(psi_eval(cmap, lift_log(path).end))
        assert abs(chain.final.coeffs[0] - expected) < 1e-6

    def test_completed_chains_end_on_the_map_value(self, cmap, fgerm):
        # the twelve crosscheck targets tracked since the first measurements:
        # a completed chain must end on h(psi(lift end)), not only complete
        # (worst measured: 3.1e-7, at -0.5), and the seven that agree stay
        # in agreement: a change may add agreements, never drop one
        completed, agreeing = 0, set()
        for omega in ROADMAP12:
            report = crosscheck(reach_path(omega), fgerm, refresh=FRefresh(cmap))
            if report.agree:
                agreeing.add(omega)
            if report.chain.completed:
                completed += 1
                want = eval_h(psi_eval(cmap, report.oracle.lift_end))
                assert abs(report.chain.final.coeffs[0] - want) < 1e-6
        assert completed >= 7
        assert agreeing >= {2j, -2 + 0.1j, 2.5, -1j, 1.5 + 1.5j, -0.5, 1 + 0.01j}

    def test_refresh_evaluates_no_germ(self, cmap, fgerm, monkeypatch):
        # FRefresh rebuilds from (center, lift) alone, so a chain along a
        # route evaluates no germ: the engine no longer sums a value for it
        evals = []
        inner = Germ.eval

        def counted(self, z):
            evals.append(z)
            return inner(self, z)

        monkeypatch.setattr(Germ, "eval", counted)
        monkeypatch.setattr(Germ, "__call__", counted)
        chain = continue_along(fgerm, reach_path(2j), refresh=FRefresh(cmap))
        assert chain.completed and len(chain.elements) > 10
        assert evals == []

    def test_single_blas_thread_repeats_the_chain(self, cmap, fgerm):
        # compose's Horner products go through OpenBLAS, whose thread count
        # is the environment's to set; one thread gives the same chain
        script = textwrap.dedent(
            """\
            import json, math
            from logstair import (
                FRefresh, Truncation, build_map, continue_along, f_germ_at_base, reach_path,
            )
            cmap = build_map(Truncation(-2, 2, 8 * math.pi), 256)
            chain = continue_along(f_germ_at_base(cmap), reach_path(2j), refresh=FRefresh(cmap))
            v = chain.final.coeffs[0]
            print(json.dumps([chain.status, len(chain.elements) - 1, v.real, v.imag]))
            """
        )
        src = str(Path(logstair.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        status, steps, re, im = json.loads(done.stdout)
        chain = continue_along(fgerm, reach_path(2j), refresh=FRefresh(cmap))
        assert (status, steps) == (chain.status, len(chain.elements) - 1)
        assert abs(complex(re, im) - chain.final.coeffs[0]) <= 1e-12

    def test_overflowing_chain_warns_nothing(self, cmap, fgerm):
        # the route to 0.2 ends in a composition that overflows the double
        # range; it is reported as a failed chain, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = continue_along(fgerm, reach_path(0.2), refresh=FRefresh(cmap))
        assert not chain.completed
        assert "exceed double precision" in chain.reason


@pytest.fixture
def local_model_calls(monkeypatch):
    """Counts calls to ConformalMap.local_model, the step a kept step skips."""
    calls = []
    inner = ConformalMap.local_model

    def counted(self, zeta):
        calls.append(zeta)
        return inner(self, zeta)

    monkeypatch.setattr(ConformalMap, "local_model", counted)
    return calls


class TestSpineStores:
    """Germs kept along the route tree: the spines' step stores hand out
    what the assembly would, so chains do not depend on what ran before."""

    def test_repeated_route_skips_the_local_model(self, trunc, local_model_calls, monkeypatch):
        # the spine keeps the steps whose far vertex is its own; a repeat
        # assembles only the steps past it
        cmap = build_map(trunc, 256)
        fgerm = f_germ_at_base(cmap)
        stepped = []
        inner = engine._step

        def counted_step(path, i, center, cap):
            stepped.append(inner(path, i, center, cap))
            return stepped[-1]

        monkeypatch.setattr(engine, "_step", counted_step)
        local_model_calls.clear()
        path = reach_path(-0.5)
        first = continue_along(fgerm, path, refresh=FRefresh(cmap))
        assert len(local_model_calls) == len(stepped) == len(first.elements) - 1  # one per step
        past = [z for z, step in zip(local_model_calls, stepped) if step[0] >= path._shared - 1]
        assert 0 < len(past) < len(stepped) / 4
        local_model_calls.clear()
        second = continue_along(fgerm, path, refresh=FRefresh(cmap))
        assert second == first
        assert local_model_calls == past

    def test_shared_trunk_gives_the_cold_chain(self, trunc, local_model_calls):
        # both routes leave 0.5 up the same corridor, so the second reuses
        # germs the first assembled
        warm = build_map(trunc, 256)
        fgerm = f_germ_at_base(warm)
        continue_along(fgerm, reach_path(1.5 + 1.5j), refresh=FRefresh(warm))
        local_model_calls.clear()
        path = reach_path(2j)
        on_warm = continue_along(fgerm, path, refresh=FRefresh(warm))
        steps = len(on_warm.elements) - 1
        assert 0 < len(local_model_calls) < steps
        fresh = build_map(trunc, 256)
        on_fresh = continue_along(f_germ_at_base(fresh), path, refresh=FRefresh(fresh))
        assert on_warm.completed
        assert on_fresh == on_warm

    def test_shared_trunk_steps_through_the_same_bits(self, trunc):
        # each step is solved on one segment of the route, so routes that
        # share their first segments refresh at bit-identical (center, lift)
        # pairs; each run's own hook keys its chain apart, so every step
        # reaches the hook
        cmap = build_map(trunc, 256)
        fgerm = f_germ_at_base(cmap)
        refresh = FRefresh(cmap)
        keys = {}

        def run(target):
            seen = keys[target] = []

            def hook(center, lift, prev):
                seen.append(struct.pack("4d", center.real, center.imag, lift.real, lift.imag))
                return refresh(center, lift, prev)

            return continue_along(fgerm, reach_path(target), refresh=hook)

        chains = {target: run(target) for target in (1.5 + 1.5j, 2j, 3j, 2.5)}
        run(4)
        # the last refresh of a completed chain gets the path's end and the
        # lift of its last vertex
        assert chains[2j].completed
        end, lift_end = reach_path(2j).end, reach_path(2j)._lift[-1]
        assert keys[2j][-1] == struct.pack("4d", end.real, end.imag, lift_end.real, lift_end.imag)
        # every step of the chain to 3j that lands on the segments its route
        # shares with the route to 4 is repeated bit for bit
        p3, p4 = reach_path(3j), reach_path(4)
        shared = next(k for k, (a, b) in enumerate(zip(p3.points, p4.points)) if a != b)
        trunk_t = p3._cumlen[shared - 1] / p3.total_length
        on_trunk = sum(t < trunk_t for t in chains[3j].breakpoints[1:])
        assert on_trunk > 10
        assert keys[4][:on_trunk] == keys[3j][:on_trunk]

    def test_a_column_corridor_serves_all_but_the_last_leg(self, trunc, local_model_calls):
        # routes into a column climb or descend its middle, cut into chords
        # on one grid, so after one target in each of columns -2, -1 and 0 a
        # second target in the same column assembles fresh germs only on its
        # last leg and at the step that leaves the corridor
        cmap = build_map(trunc, 256)
        fgerm = f_germ_at_base(cmap)
        for lift in (complex(-1.7, -11.0), complex(-0.8, -5.5), complex(0.3, 5.5)):
            continue_along(fgerm, reach_path(cmath.exp(lift)), refresh=FRefresh(cmap))
        for lift in (complex(-1.3, -8.5), complex(-0.2, -2.5), complex(0.8, 3.0)):
            omega = cmath.exp(lift)
            path = reach_path(omega)
            local_model_calls.clear()
            chain = continue_along(fgerm, path, refresh=FRefresh(cmap))
            spine, tail = monodromy._route_lift(choose_lift_target(omega))
            last_leg_start = [*spine, *tail][-2]
            k = next(k for k, z in enumerate(path._lift) if abs(z - last_leg_start) < 1e-12)
            t_last = path._cumlen[k] / path.total_length
            last_leg_steps = sum(t > t_last for t in chain.breakpoints[1:])
            assert len(local_model_calls) <= last_leg_steps + 1
            assert len(chain.elements) - 1 > 4 * (last_leg_steps + 1)

    def test_a_failed_refresh_on_a_corridor_is_assembled_once(self, trunc, local_model_calls):
        # routes deep into column -2 fail at the same refresh on its
        # corridor; once stored, the failure costs a later chain no local
        # model and ends it as a cold map would
        cmap = build_map(trunc, 256)
        fgerm = f_germ_at_base(cmap)
        first = continue_along(
            fgerm, reach_path(cmath.exp(complex(-1.7, -11.0))), refresh=FRefresh(cmap)
        )
        assert first.reason.startswith("refresh failed")
        local_model_calls.clear()
        path = reach_path(cmath.exp(complex(-1.3, -8.5)))
        second = continue_along(fgerm, path, refresh=FRefresh(cmap))
        assert local_model_calls == []
        assert second.reason == first.reason
        fresh = build_map(trunc, 256)
        assert continue_along(f_germ_at_base(fresh), path, refresh=FRefresh(fresh)) == second


def _reference_build(truncation, resolution):
    """The disc map as its construction built it when every Moebius and slit
    step was applied to all node images, not only to those not yet
    absorbed: the same nodes, then the old loop line for line."""
    ref = ConformalMap.__new__(ConformalMap)
    ref.truncation = truncation
    nodes = confmap._grade_nodes(truncation.vertices(), resolution)
    ref.nodes, ref.v0, ref.v1 = nodes, nodes[0], nodes[1]
    w = ref._enter(nodes[2:])
    t = complex(ref._enter(BASE_LIFT))
    ref.t_start = t
    steps = []
    v0_img = None
    for k in range(len(w)):
        a = complex(w[k])
        absq = a.real * a.real + a.imag * a.imag
        b = absq / a.real if a.real != 0.0 else math.inf
        c2 = (absq / a.imag) ** 2
        if math.isinf(b):
            t_mid, kk, mk = t, None, None
        else:
            k_in = 1.0 - t / b
            t_mid = t / k_in
            kk, mk = np.array(k_in * k_in), np.array(-k_in / b)
            w = w / (1.0 - w / b)
            v0_img = -b if v0_img is None else v0_img / (1.0 - v0_img / b)
        sq = t_mid * t_mid + c2
        s_t = complex(np.sqrt(complex(sq)))
        pos = not _flip(s_t, t_mid)
        steps.append((
            kk, mk, np.array(2.0 * t_mid), np.array(sq), np.array(s_t), np.array(-s_t), pos,
        ))
        t = s_t if pos else -s_t
        s = np.sqrt(w * w + c2)
        w = np.where(_flip(s, w), -s, s)
        if v0_img is not None:
            s0 = complex(np.sqrt(complex(v0_img * v0_img + c2)))
            v0_img = -s0 if _flip(s0, v0_img) else s0
    ref.steps = steps
    ref.zeta_close = v0_img
    ref.t_pre_close = t
    t_cl = t / (1.0 - t / v0_img)
    ref.t_close = t_cl
    ref.t_final = -(t_cl * t_cl)
    ref.rot = 1.0 + 0j
    r = min(0.1, 0.5 * truncation.boundary_distance(BASE_LIFT))
    th = TWO_PI * np.arange(64) / 64
    ring = ref._eval_raw(BASE_LIFT + r * np.exp(1j * th))
    a1 = np.fft.fft(ring)[1] / 64 / r
    ref.rot = confmap._SCALE * abs(a1) / a1
    return ref


def _constant_bits(cmap):
    """The map's stored constants, each number as its bytes."""
    def bits(x):
        return x if x is None or isinstance(x, bool) else np.asarray(x, dtype=complex).tobytes()

    scalars = (cmap.zeta_close, cmap.t_pre_close, cmap.t_close, cmap.t_final, cmap.rot)
    return [tuple(map(bits, step)) for step in cmap.steps], [bits(x) for x in scalars]


@pytest.mark.parametrize(
    "spec, resolution", [((-2, 2, 8 * math.pi), 256), ((-1, 1, 6 * math.pi), 128)]
)
def test_the_build_keeps_every_constant(spec, resolution):
    # the construction carries only the nodes not yet absorbed, which
    # changes no stored bit
    got = build_map(Truncation(*spec), resolution)
    assert _constant_bits(got) == _constant_bits(_reference_build(Truncation(*spec), resolution))


def _reference_steps(cmap):
    """Per-node step tuples (b, k_in, t_in, t_mid, c2, s_t, t_out, f_t) of the
    unfused anchored evaluation, rebuilt from the map's nodes the way the
    construction computes them."""
    w = 1j * np.sqrt((cmap.nodes[2:] - cmap.v1) / (cmap.nodes[2:] - cmap.v0))
    w = np.where(w.imag < 0, -w, w)
    t = cmap.t_start
    steps = []
    for k in range(len(w)):
        a = complex(w[k])
        absq = a.real * a.real + a.imag * a.imag
        b = absq / a.real if a.real != 0.0 else math.inf
        c2 = (absq / a.imag) ** 2
        t_mid = t if math.isinf(b) else t / (1.0 - t / b)
        s_t = complex(np.sqrt(complex(t_mid * t_mid + c2)))
        f_t = -1.0 if _flip(s_t, t_mid) else 1.0
        t_out = f_t * s_t
        k_in = None if math.isinf(b) else 1.0 - t / b
        steps.append((b, k_in, t, t_mid, c2, s_t, t_out, f_t))
        t = t_out
        if not math.isinf(b):
            w = w / (1.0 - w / b)
        s = np.sqrt(w * w + c2)
        w = np.where(_flip(s, w), -s, s)
    return steps


def _reference_eval(cmap, steps, z):
    """The unfused anchored loop (five calls per Moebius step, eight per slit
    step), kept as the reference for the fused one.  Returns the values and
    the number of steps at which the points did not all keep the anchor's
    branch."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = 1j * np.sqrt((z - cmap.v1) / (z - cmap.v0))
    w = np.where(w.imag < 0, -w, w)
    delta = w - steps[0][2]
    w1 = np.empty_like(delta)
    s_w = np.empty_like(delta)
    prod = np.empty_like(delta)
    mixed = 0
    for b, k_in, t_in, t_mid, c2, s_t, t_out, f_t in steps:
        if k_in is not None:
            np.add(delta, t_in, out=w1)
            w1 /= b
            np.subtract(1.0, w1, out=w1)
            np.multiply(w1, k_in, out=prod)
            delta /= prod
        np.add(delta, t_mid, out=w1)
        np.multiply(w1, w1, out=s_w)
        s_w += c2
        np.sqrt(s_w, out=s_w)
        im = s_w.imag
        if (im.min() > 0.0) if f_t > 0 else (im.max() < 0.0):
            w1 += t_mid
            np.multiply(delta, w1, out=prod)
            if f_t > 0:
                s_w += s_t
            else:
                np.subtract(-s_t, s_w, out=s_w)
            np.divide(prod, s_w, out=delta)
        else:
            mixed += 1
            f_w = np.where(_flip(s_w, w1), -1.0, 1.0)
            delta = np.where(
                f_w == f_t,
                f_w * delta * (w1 + t_mid) / (s_w + s_t),
                f_w * s_w - t_out,
            )
    t = cmap.t_pre_close
    w_full = t + delta
    delta = delta / ((1.0 - w_full / cmap.zeta_close) * (1.0 - t / cmap.zeta_close))
    w_full = cmap.t_close + delta
    delta = -delta * (w_full + cmap.t_close)
    w_full = cmap.t_final + delta
    return cmap.rot * delta / (w_full - np.conj(cmap.t_final)), mixed


def _parent_steps(ref_steps):
    """The step table as the evaluation below reads it, (k_in^2, -k_in/b,
    2 t_mid, s_t^2, s_t, t_mid, t_out, f_t) per node as Python numbers, from
    _reference_steps's tuples with the construction's arithmetic."""
    steps = []
    for b, k_in, t_in, t_mid, c2, s_t, t_out, f_t in ref_steps:
        kk, mk = (None, None) if k_in is None else (k_in * k_in, -k_in / b)
        steps.append((kk, mk, 2.0 * t_mid, t_mid * t_mid + c2, s_t, t_mid, t_out, f_t))
    return steps


def _parent_eval(cmap, steps, z):
    """The fused anchored loop as it stood before the step constants became
    0-d arrays and the ufuncs locals, kept verbatim (self is cmap, the step
    table is passed in): _eval_raw must match it byte for byte."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = 1j * np.sqrt((z - cmap.v1) / (z - cmap.v0))
    w = np.where(w.imag < 0, -w, w)
    delta = w - cmap.t_start
    # scratch buffers; no product is written over one of its factors,
    # which for one-point arrays would change numpy's rounding
    u = np.empty_like(delta)
    s_w = np.empty_like(delta)
    prod = np.empty_like(delta)
    for kk, mk, two_t_mid, sq, s_t, t_mid, t_out, f_t in steps:
        if kk is not None:
            # Moebius step: delta / (k_in^2 - (k_in/b) delta)
            np.multiply(delta, mk, out=u)
            u += kk
            delta /= u
        # slit step: with w = t_mid + delta, w^2 + c2 = s_t^2 + prod
        np.add(delta, two_t_mid, out=u)
        np.multiply(delta, u, out=prod)
        np.add(prod, sq, out=s_w)
        np.sqrt(s_w, out=s_w)
        if (
            np.minimum.reduce(s_w.imag) > 0.0
            if f_t > 0
            else np.maximum.reduce(s_w.imag) < 0.0
        ):
            # every point keeps the anchor's branch: only the
            # cancellation-free form is needed, its sign f_t folded
            # into the denominator
            if f_t > 0:
                s_w += s_t
            else:
                np.subtract(-s_t, s_w, out=s_w)
            np.divide(prod, s_w, out=delta)
        else:
            f_w = np.where(_flip(s_w, delta + t_mid), -1.0, 1.0)
            delta = np.where(
                f_w == f_t, f_w * prod / (s_w + s_t), f_w * s_w - t_out
            )
    t = cmap.t_pre_close
    w_full = t + delta
    delta = delta / ((1.0 - w_full / cmap.zeta_close) * (1.0 - t / cmap.zeta_close))
    w_full = cmap.t_close + delta
    delta = -delta * (w_full + cmap.t_close)
    w_full = cmap.t_final + delta
    return cmap.rot * delta / (w_full - np.conj(cmap.t_final))


class TestFusedEvaluation:
    """The fused anchored loop against the unfused reference above.

    Points whose reference image lies within 1e-6 of the unit circle are left
    out: boundary nodes and crowded pockets (such as -1.051-12.515i on the
    512-node map) sit there, the sign of a square root's imaginary part can
    flip under a last-bit change, and both versions then give |psi| = 1 to
    double precision at different places on the circle."""

    MAPS = [
        ((-2, 2, 8 * math.pi), 256),
        ((-2, 2, 8 * math.pi), 512),
        ((-1, 1, 6 * math.pi), 128),
        ((-1, 3, 10 * math.pi), 256),
    ]

    @staticmethod
    def check(ref, got):
        margin = 1.0 - np.abs(ref)
        err = np.abs(got - ref)
        assert np.all(err[margin > 1e-4] <= 1e-9)
        assert np.all(err[margin > 1e-2] <= 1e-12)

    @pytest.fixture(
        scope="class",
        params=MAPS,
        ids=["-2:2:8pi@256", "-2:2:8pi@512", "-1:1:6pi@128", "-1:3:10pi@256"],
    )
    def fused_map(self, request):
        spec, resolution = request.param
        cmap = build_map(Truncation(*spec), resolution)
        return cmap, _reference_steps(cmap)

    @staticmethod
    def interior_points(trunc, count, seed):
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            z = complex(
                rng.uniform(trunc.n_min, trunc.n_max + 1),
                rng.uniform(TWO_PI * trunc.n_min, trunc.y_max),
            )
            if trunc.contains(z):
                pts.append(z)
        return pts

    def test_rings(self, fused_map):
        # the 256-point ring local_model samples at the default order
        cmap, steps = fused_map
        trunc = cmap.truncation
        th = TWO_PI * np.arange(256) / 256
        mixed = 0
        for zeta in [BASE] + self.interior_points(trunc, 8, seed=2007):
            ring = zeta + 0.5 * trunc.boundary_distance(zeta) * np.exp(1j * th)
            ref, n_mixed = _reference_eval(cmap, steps, ring)
            self.check(ref, cmap._eval_raw(ring))
            mixed += n_mixed
        # the np.where merge of both branches ran
        assert mixed > 0

    def test_interior_grid(self, fused_map):
        cmap, steps = fused_map
        grid = _interior_grid(cmap.truncation)
        ref, _ = _reference_eval(cmap, steps, grid)
        self.check(ref, cmap._eval_raw(grid))

    def test_scalar_eval(self, fused_map):
        cmap, steps = fused_map
        for z in [BASE] + self.interior_points(cmap.truncation, 24, seed=45):
            ref, _ = _reference_eval(cmap, steps, z)
            self.check(ref, np.asarray([psi_eval(cmap, z)]))

    @staticmethod
    def same_bits(cmap, steps, z):
        got = cmap._eval_raw(z)
        assert got.tobytes() == _parent_eval(cmap, _parent_steps(steps), z).tobytes()
        return got

    def test_rings_match_the_parent_loop_bitwise(self, fused_map, monkeypatch):
        # local_model's rings, the center appended, at both rungs
        cmap, steps = fused_map
        trunc = cmap.truncation
        mixed = []
        inner = confmap._flip
        monkeypatch.setattr(
            confmap, "_flip", lambda s, w: mixed.append(len(s)) or inner(s, w)
        )
        for zeta in [BASE] + self.interior_points(trunc, 8, seed=2007):
            d = trunc.boundary_distance(zeta)
            for frac in confmap.RING_LADDER:
                self.same_bits(cmap, steps, np.append(zeta + frac * d * confmap._RING_UNIT, zeta))
        # _eval_raw took the mixed-branch step on some ring
        assert confmap._RING_M + 1 in mixed

    def test_grid_and_nodes_match_the_parent_loop_bitwise(self, fused_map):
        cmap, steps = fused_map
        self.same_bits(cmap, steps, _interior_grid(cmap.truncation))
        self.same_bits(cmap, steps, cmap.nodes[2:])

    def test_points_match_the_parent_loop_bitwise(self, fused_map):
        cmap, steps = fused_map
        for z in [BASE] + self.interior_points(cmap.truncation, 24, seed=45):
            assert len(self.same_bits(cmap, steps, z)) == 1

    def test_germs_match_the_parent_loop(self, fused_map, monkeypatch):
        cmap, steps = fused_map
        zetas = [BASE] + self.interior_points(cmap.truncation, 6, seed=11)

        def coeffs(make):
            # a failed self-check (the base ring on -1:3:10pi) is an answer too
            try:
                return make().coeffs
            except ModelUnresolved as exc:
                return str(exc)

        def germs():
            out = [coeffs(lambda: cmap.local_model(zeta)) for zeta in zetas]
            out.append(coeffs(lambda: f_germ_at_base(cmap)))
            return out

        got = germs()
        assert any(isinstance(c, tuple) for c in got)
        parent = _parent_steps(steps)
        monkeypatch.setattr(ConformalMap, "_eval_raw", lambda self, z: _parent_eval(self, parent, z))
        assert germs() == got
