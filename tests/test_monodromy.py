import cmath
import hashlib
import math
import random
import struct
import sys
import threading
import time
from collections import OrderedDict

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import logstair.engine as engine
import logstair.monodromy as monodromy
from logstair import (
    FRefresh,
    NoRefresh,
    NotOnSlit,
    OracleVerdict,
    RoutingFailure,
    Truncation,
    boundary_distance,
    build_map,
    choose_lift_target,
    classify,
    continuable_exact,
    continue_along,
    crosscheck,
    expexp_demo,
    f_germ_at_base,
    log_germ,
    overlap_disagreement,
    reach_path,
    truth_table,
    validate_path,
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

    def test_a_large_winding_index_is_decided_without_a_witness(self):
        # the verdict comes from the lift end alone; a witness would climb
        # 10^8 turns of the staircase
        start = time.perf_counter()
        r = classify(1, 0, 10**8)
        assert time.perf_counter() - start < 1.0
        assert r.verdict == "continuable"
        assert r.lift_end == pytest.approx(complex(0.0, TWO_PI * (10**8 - 1)))

    def test_witness_is_routed_on_first_read(self, monkeypatch):
        routed = []
        inner = monodromy._path_to_lift
        monkeypatch.setattr(monodromy, "_path_to_lift", lambda t: routed.append(t) or inner(t))
        r = classify(-E2, 2, 3)
        assert routed == []
        witness = r.witness_path
        assert routed == [r.lift_end] and r.witness_path is witness
        assert witness._certified == len(witness.points) - 1
        assert abs(witness.end + E2) < 1e-9
        assert classify(-E2, 2, 2).witness_path is None and len(routed) == 1

    def test_slit_membership_holds_at_every_scale(self):
        # the slit is tested in log space: far off it at e^-40, on it at
        # e^20, and with no e^M to overflow at M = 1000
        for omega, M in [(-5e-10, -40), (complex(math.exp(-40.5), 1e-10), -40), (2.0, 1000)]:
            with pytest.raises(NotOnSlit):
                classify(omega, M, M + 1)
        r = classify(cmath.exp(20 - 1j), 20, 21)
        assert r.verdict == "continuable"
        assert r.lift_end == complex(20.0, TWO_PI * 21 - 1.0)

    def test_a_modulus_past_the_largest_double_is_rejected(self):
        with pytest.raises(ValueError, match="largest double"):
            classify(complex(1.5e308, 1.5e308), 710, 711)

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

    @pytest.mark.parametrize("m_range", [range(18, 21), range(-60, -39)])
    def test_far_slits_follow_the_dichotomy(self, m_range):
        assert truth_table(m_range, [0, 1, 2], 8).theorem_b_pass

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError, match="m_range"):
            truth_table([], [0], 4)
        with pytest.raises(ValueError, match="n_offsets"):
            truth_table(range(0, 1), [], 4)
        with pytest.raises(ValueError, match="samples_per_slit"):
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

    @pytest.mark.parametrize(
        "omega, W",
        [(1e-315, -725), (-1e-320, -737), (1e-318, -732), (1e308j, 709), (1.5e308, 710)],
    )
    def test_targets_at_both_ends_of_the_double_range(self, cold_spines, omega, W):
        # subnormal targets, whose corridors hold about 45,000 vertices,
        # and targets near overflow are routed and certified
        path = reach_path(omega)
        assert winding_number(path) == W
        assert abs(path.end - omega) <= 1e-12 * abs(omega)


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


def _waypoints(target: complex):
    """monodromy._route_lift's spine and tail as one list of waypoints."""
    spine, tail = monodromy._route_lift(target)
    return [*spine, *tail[tail[0] == spine[-1] :]]


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
        pts = _waypoints(target)
        assert pts == _route_lift_reference(target)
        assert all(p != q for p, q in zip(pts, pts[1:]))
        # the spine's open leg runs level or vertically
        spine, tail = monodromy._route_lift(target)
        assert (tail[0] - spine[-1]).real == 0.0 or (tail[0] - spine[-1]).imag == 0.0

    def test_trunk_keeps_the_clearance(self):
        # every leg but the last two keeps ROUTE_CLEARANCE from the boundary;
        # every sampled point short of the target is interior
        clearance = 0.999 * monodromy.ROUTE_CLEARANCE
        step = 0.5 * monodromy.ROUTE_CLEARANCE
        checked = 0
        for x in [-4.0 + 0.25 * i for i in range(37)]:
            for a in [-math.pi + TWO_PI * (j + 0.5) / 8 for j in range(8)]:
                target = choose_lift_target(cmath.exp(complex(x, a)))
                pts = _waypoints(target)
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
    """Lift-plane vertices of the route along pts, leg by leg: the leg's start and
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
        pts = _waypoints(target)
        path = monodromy._route(target)
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
        p_near = monodromy._route(near)
        p_far = monodromy._route(far)
        n = next(k for k, (a, b) in enumerate(zip(p_near.points, p_far.points)) if a != b)
        assert abs(p_near._lift[n] - _waypoints(near)[-2]) < 1e-12
        assert n > 20


# The routes' bits: points, cumulative lengths and lifts of reach_path and
# classify paths, pinned before the routes were built from spines.
ROUTE_BITS_SHA256 = "56b3ac504e90191dfb73b56c3e66bd66293116cffc29d2d9afaa2f41471c5356"
ROADMAP12 = (3j, 0.2, 0.2j, 4, 0.1 - 0.1j, 2j, -2 + 0.1j, 2.5, -1j, 1.5 + 1.5j, -0.5, 1 + 0.01j)
PINNED_ROUTES = (
    *(("reach", omega) for omega in ROADMAP12),
    ("classify", -E2, 2, 3),  # up the glue line x = 2
    ("classify", 1j, 0, 2),  # up the glue line x = 0
    ("classify", -math.exp(-1), -1, 0),  # down the glue line x = -1
    ("classify", -math.exp(-2), -2, 0),  # down the glue line x = -2
    ("classify", 0.6, 0, 1),  # a segment row
    ("reach", cmath.exp(complex(0.3, 0.2))),  # near the floor of column 0
    ("reach", cmath.exp(complex(-1.6, 0.3))),  # near a floor left of the base column
    ("reach", cmath.exp(complex(-1.5, 1.0))),  # left of the base column
    ("reach", cmath.exp(complex(-3.2, 2.0))),
    ("reach", cmath.exp(complex(1.3, -2.9))),
    ("reach", 0.5),  # the constant path
)


def _pinned_path(query):
    if query[0] == "reach":
        return reach_path(query[1])
    return classify(*query[1:]).witness_path


def _route_bits(path) -> bytes:
    doubles = [x for z in path.points for x in (z.real, z.imag)]
    doubles += path._cumlen
    doubles += [x for z in path._lift for x in (z.real, z.imag)]
    return struct.pack(f"{len(doubles)}d", *doubles)


def _lock_is_free() -> bool:
    """Whether another thread can take the package's one lock: this thread
    could take it again even while it holds it, since it is re-entrant."""
    taken = []

    def take():
        if engine._route_lock.acquire(timeout=5):
            engine._route_lock.release()
            taken.append(True)

    t = threading.Thread(target=take)
    t.start()
    t.join(timeout=30)
    return taken == [True]


BOUNDED_TARGETS = [cmath.exp(complex(x, a)) for x in (-1.6, -0.4, 0.5, 1.5, 2.5) for a in (-2.0, 2.0)]

# The kept spines after each route of test_eviction_keeps_its_order, least
# recently used first, each as "label:vertices", where a label numbers the
# spines' keys in the order they first appear.  Recorded with the spine
# cache that kept a running vertex count and tested it on every route.
EVICTION_STATES = (
    "0:92", "0:115", "0:115 1:22", "0:115 1:45", "0:115 1:45 2:56", "0:115 1:45 2:56",
    "1:45 2:56 3:129", "1:45 2:56 3:129", "4:202", "4:202", "4:202 0:92", "0:115",
    "0:115 1:22", "0:115 1:45", "0:115 1:45 2:56", "0:115 1:45 2:56",
    "1:45 2:56 3:129", "1:45 2:56 3:129", "4:202", "4:202", "4:202 0:92", "0:115",
    "0:115 1:22", "0:115 1:45", "0:115 1:45 2:56", "0:115 1:45 2:56",
    "1:45 2:56 3:129", "1:45 2:56 3:129", "4:202", "4:202", "5:6700", "0:92", "5:6700",
    "0:115",
)


@pytest.fixture
def cold_spines(monkeypatch):
    """An empty spine cache, for this test alone."""
    monkeypatch.setattr(monodromy, "_spines", OrderedDict())
    return monodromy


class TestRouteBits:
    def test_routes_keep_their_bits(self, cold_spines):
        bits = b"".join(_route_bits(_pinned_path(q)) for q in PINNED_ROUTES)
        assert hashlib.sha256(bits).hexdigest() == ROUTE_BITS_SHA256

    def test_cold_and_warm_spines_build_the_same_paths(self, cold_spines):
        # in both orders, from an empty cache and again from a warm one
        want = {q: _pinned_path(q) for q in PINNED_ROUTES}
        for order in (PINNED_ROUTES, PINNED_ROUTES[::-1]):
            for _ in range(2):
                for q in order:
                    path = _pinned_path(q)
                    assert path == want[q]
                    assert _route_bits(path) == _route_bits(want[q])
            cold_spines._spines.clear()


@pytest.fixture
def sampled(monkeypatch, cold_spines):
    """The segments the oracle decides (its _segment_exit calls), as (a, b,
    theta_a, geom_tol), from an empty spine cache."""
    runs = []
    inner = engine._segment_exit

    def counted(a, b, lift_a, lift_b, geom_tol):
        runs.append((a, b, lift_a.imag, geom_tol))
        return inner(a, b, lift_a, lift_b, geom_tol)

    monkeypatch.setattr(engine, "_segment_exit", counted)
    return runs


def _segments(path, first):
    return [
        (path.points[i], path.points[i + 1], path._lift[i].imag, GEOM_TOL)
        for i in range(first, len(path.points) - 1)
    ]


class TestSpines:
    @given(route_targets)
    @settings(max_examples=200, deadline=None)
    def test_certified_prefix_gives_the_full_pass_verdict(self, target):
        # the oracle on a route, which starts after the segments its spine
        # has certified, and on a fresh path of the same points
        try:
            monodromy._path_to_lift(target)
        except RoutingFailure:
            assume(False)
        path = monodromy._route(target)
        assert path._certified == path._shared - 1
        for geom_tol in (GEOM_TOL, 1e-6):
            full = continuable_exact(validate_path(path.points), geom_tol)
            assert continuable_exact(path, geom_tol) == full

    def test_a_second_route_samples_only_its_last_legs(self, sampled):
        # up column 0's corridor: the higher target certifies the spine, and
        # the lower one samples from its corridor's last grid point on
        reach_path(cmath.exp(complex(0.3, 5.5)))
        assert len(sampled) > 60
        sampled.clear()
        omega = cmath.exp(complex(0.8, 3.0))
        path = reach_path(omega)
        k = monodromy._route(choose_lift_target(omega))._shared - 1  # the spine's share
        assert abs(path._lift[k] - complex(0.5, 0.05 + 29 * monodromy.EXP_STEP)) < 1e-12
        assert sampled == _segments(path, k)
        assert len(sampled) == 4  # the corridor's last chord, three level ones

    def test_a_second_glue_route_samples_one_segment(self, sampled):
        # classify's circle rows on M = 2 climb the glue line x = 2 and end
        # on it: past the spine, a route has one chord of its own
        high = classify(-E2, 2, 3).witness_path
        sampled.clear()
        row = classify(E2 * cmath.exp(2j), 2, 3)
        low = row.witness_path
        k = monodromy._route(row.lift_end)._shared - 1  # the spine's share
        assert low.points[: k + 1] == high.points[: k + 1]
        assert sampled == _segments(low, k) and len(sampled) == 1

    def test_cache_is_bounded(self, cold_spines, monkeypatch):
        targets = BOUNDED_TARGETS
        want = [_route_bits(reach_path(omega)) for omega in targets]
        assert len(cold_spines._spines) > 4
        cold_spines._spines.clear()
        monkeypatch.setattr(monodromy, "SPINE_VERTICES", 300)
        for omega, bits in zip(targets, want):
            path = reach_path(omega)
            assert _route_bits(path) == bits
            spines = cold_spines._spines
            held = sum(len(s.points) for s in spines.values())
            assert held <= 300 or len(spines) == 1
            # the route carries its own spine (the most recently used) and a
            # live view of every kept spine and no other
            own, kept = path._steps
            assert own is next(reversed(spines.values()))
            assert list(kept) == list(spines.values())
        spines.clear()
        assert not list(kept)

    def test_eviction_keeps_its_order(self, cold_spines, monkeypatch):
        # three passes over BOUNDED_TARGETS at a bound of 300 vertices, then
        # a spine past a bound of 2,000, kept alone and evicted by the next
        # route that adds a spine, twice
        labels, states = {}, []

        def route(omega):
            reach_path(omega)
            kept = cold_spines._spines.items()
            states.append(" ".join(f"{labels.setdefault(k, len(labels))}:{len(s.points)}" for k, s in kept))

        monkeypatch.setattr(monodromy, "SPINE_VERTICES", 300)
        for omega in BOUNDED_TARGETS * 3:
            route(omega)
        monkeypatch.setattr(monodromy, "SPINE_VERTICES", 2000)
        for omega in (1e-40, BOUNDED_TARGETS[0], 1e-40, BOUNDED_TARGETS[1]):
            route(omega)
        assert states == list(EVICTION_STATES)


    def test_threads_build_the_same_paths(self, cold_spines):
        # eight threads route the pinned targets at once, switching often,
        # and each gets the paths a lone caller gets
        want = [_route_bits(_pinned_path(q)) for q in PINNED_ROUTES]
        cold_spines._spines.clear()
        got = []

        def work(shift):
            queries = PINNED_ROUTES[shift:] + PINNED_ROUTES[:shift]
            bits = [_route_bits(_pinned_path(q)) for q in queries]
            got.append(bits[-shift:] + bits[:-shift] if shift else bits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8
        spines = cold_spines._spines
        held = sum(len(s.points) for s in spines.values())
        assert held <= monodromy.SPINE_VERTICES or len(spines) == 1


@pytest.fixture(scope="module")
def default_cmap():
    return build_map(Truncation(-2, 2, 8 * math.pi), 256)


def _chain_bits(chain) -> str:
    """Every field of a chain, each double by its repr, so -0.0 != 0.0."""
    return repr(
        (
            [(g.center, g.coeffs, g.radius_est) for g in chain.elements],
            chain.breakpoints,
            chain.status,
            chain.t_fail,
            chain.reason,
        )
    )


class TestSpineChains:
    """A route resumes the chain its spine keeps, or another spine keeps
    along their common vertices: every chain is the one a path with no
    spine gets, for each (start germ, hook) pair in turn, and only the steps
    past the spine are stepped and refreshed."""

    # up column 0's corridor: one spine, each route sharing more of it
    CORRIDOR = tuple(cmath.exp(complex(0.8, y)) for y in (3.0, 3.5, 4.0, 5.5))

    @pytest.mark.parametrize("targets", [ROADMAP12, CORRIDOR], ids=["roadmap12", "corridor"])
    def test_routes_resume_the_spineless_chain(self, cold_spines, default_cmap, targets):
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        for start, refresh in ((f, hook), (log_germ(0.5, 0.0), None)):
            plain = {}  # the spineless chain on each route's points
            for order in (targets, targets[::-1]):
                cold_spines._spines.clear()
                for omega in order:
                    path = reach_path(omega)
                    chain = continue_along(start, path, refresh)
                    if path.points not in plain:
                        bare = validate_path(path.points)
                        plain[path.points] = _chain_bits(continue_along(start, bare, refresh))
                    assert _chain_bits(chain) == plain[path.points]
        # the spines kept steps, which the later routes resumed
        assert any(s.steps for s in cold_spines._spines.values())

    def test_two_maps_alternate_on_one_spine(self, cold_spines, default_cmap):
        other = build_map(Truncation(-1, 2, 8 * math.pi), 256)
        maps = [(f_germ_at_base(m), FRefresh(m)) for m in (default_cmap, other)]
        spines = set()
        for omega in self.CORRIDOR:
            path = reach_path(omega)
            spines.add(id(path._steps[0]))
            plain = validate_path(path.points)
            chains = []
            for f, hook in maps:
                chain = crosscheck(path, f, hook).chain
                assert _chain_bits(chain) == _chain_bits(continue_along(f, plain, hook))
                chains.append(chain)
            assert chains[0].elements[1:] != chains[1].elements[1:]
        assert len(spines) == 1

    def test_a_second_route_steps_only_past_its_spine(self, cold_spines, default_cmap, monkeypatch):
        # up column 0's corridor, as test_a_second_route_samples_only_its_last_legs:
        # the higher target steps the spine, the lower one resumes it
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        stepped, refreshed = [], []
        inner = engine._step

        def counted_step(path, i, center, cap):
            stepped.append(inner(path, i, center, cap))
            return stepped[-1]

        def counted_hook(center, lift, prev):
            refreshed.append((center, lift))
            return hook(center, lift, prev)

        monkeypatch.setattr(engine, "_step", counted_step)
        high = reach_path(cmath.exp(complex(0.3, 5.5)))
        first = continue_along(f, high, counted_hook)
        assert len(stepped) == len(refreshed) == len(first.elements) - 1
        low = reach_path(cmath.exp(complex(0.8, 3.0)))
        stepped.clear()
        refreshed.clear()
        want = continue_along(f, validate_path(low.points), counted_hook)
        own = [k for k, step in enumerate(stepped) if step[0] + 1 > low._shared - 1]
        want_stepped, want_refreshed = [stepped[k] for k in own], [refreshed[k] for k in own]
        stepped.clear()
        refreshed.clear()
        chain = continue_along(f, low, counted_hook)
        assert _chain_bits(chain) == _chain_bits(want)
        assert stepped == want_stepped and refreshed == want_refreshed
        assert 0 < len(stepped) < (len(chain.elements) - 1) / 4

    @pytest.fixture
    def stepped(self, monkeypatch):
        """engine._step's results, in call order."""
        out = []
        inner = engine._step

        def counted_step(path, i, center, cap):
            out.append(inner(path, i, center, cap))
            return out[-1]

        monkeypatch.setattr(engine, "_step", counted_step)
        return out

    def test_no_on_spine_step_is_refreshed_twice(self, cold_spines, default_cmap, stepped):
        # the 12 ROADMAP targets, forward then reverse from cold spines: a
        # (center, lift) pair reaches the hook again only where no store
        # could hand it over.  Either the step reads a vertex past the
        # route's spine (j >= n - 1), or the route that first refreshed it
        # kept it on vertices this route does not share: an exit on a ray
        # that both routes run along, as the trunk does up to the glue line
        # x = 0 on the way to -1j and past it on the way to 3j.
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        first, repeats, plain = {}, [], {}

        def counted(center, lift, prev):
            j = stepped[-1][0]
            if (center, lift) in first:
                repeats.append((path, j, first[center, lift]))
            else:
                first[center, lift] = (path, j)
            return hook(center, lift, prev)

        for omega in ROADMAP12 + ROADMAP12[::-1]:
            path = reach_path(omega)
            chain = continue_along(f, path, counted)
            if path.points not in plain:
                bare = validate_path(path.points)
                plain[path.points] = _chain_bits(continue_along(f, bare, hook))
            assert _chain_bits(chain) == plain[path.points]
        assert len(first) > 150
        rays = 0
        for path, j, (kept_on, j_first) in repeats:
            if j >= path._shared - 1:
                continue
            # the first refresh was kept, on vertices this route leaves
            # before the step's far one
            assert j_first < kept_on._shared - 1
            assert path.points[: j + 2] != kept_on.points[: j + 2]
            rays += 1
        assert rays <= 3  # the trunk's ray steps on the way to -1j

    def test_a_late_handover(self, cold_spines, default_cmap, stepped):
        # spine B, up column 0's corridor, steps a short route cold; then
        # spine A, the trunk into column 1, climbs the same corridor past
        # B's end; B's next, higher route takes A's steps, appended after B
        # was made, and refreshes only past its own spine
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        refreshed = []

        def counted(center, lift, prev):
            refreshed.append((center, lift))
            return hook(center, lift, prev)

        low = reach_path(cmath.exp(complex(0.8, 3.0)))
        continue_along(f, low, counted)
        b = low._steps[0]
        kept_by_b = len(b.steps)
        a = reach_path(cmath.exp(complex(1.5, TWO_PI + 3.0)))
        assert a._steps[0] is not b and b in a._steps[1]
        continue_along(f, a, counted)
        high = reach_path(cmath.exp(complex(0.8, 5.5)))
        assert high._steps[0] is b and len(b.steps) == kept_by_b
        stepped.clear()
        refreshed.clear()
        want = continue_along(f, validate_path(high.points), counted)
        own = [k for k, step in enumerate(stepped) if step[0] >= high._shared - 1]
        want_refreshed = [refreshed[k] for k in own]
        assert len(stepped) - len(own) > kept_by_b + 10  # on B's spine, past its store
        refreshed.clear()
        chain = continue_along(f, high, counted)
        assert _chain_bits(chain) == _chain_bits(want)
        assert refreshed == want_refreshed

    def test_a_route_takes_steps_from_a_spine_made_after_it(
        self, cold_spines, default_cmap, stepped
    ):
        # a route up column 0's corridor is built first, then the trunk into
        # column 1, which climbs the same corridor on a spine of its own and
        # is continued first: the earlier route reads the spine cache's
        # stores when its chain runs, takes the later spine's steps and
        # refreshes only past its own spine
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        refreshed = []

        def counted(center, lift, prev):
            refreshed.append((center, lift))
            return hook(center, lift, prev)

        low = reach_path(cmath.exp(complex(0.8, 3.0)))
        a = reach_path(cmath.exp(complex(1.5, TWO_PI + 3.0)))
        assert a._steps[0] is not low._steps[0]
        continue_along(f, a, counted)
        stepped.clear()
        refreshed.clear()
        want = continue_along(f, validate_path(low.points), counted)
        own = [k for k, step in enumerate(stepped) if step[0] >= low._shared - 1]
        want_refreshed = [refreshed[k] for k in own]
        assert len(stepped) - len(own) > 10  # on its spine
        refreshed.clear()
        chain = continue_along(f, low, counted)
        assert _chain_bits(chain) == _chain_bits(want)
        assert refreshed == want_refreshed

    def test_a_stored_failure_is_replayed(self, cold_spines, default_cmap):
        # routes deep into column -2 fail at the same refresh on its
        # corridor: the first keeps the failure as its spine's last step,
        # and the second ends there with no hook call, as on a fresh map
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        refreshed = []

        def counted(center, lift, prev):
            refreshed.append((center, lift))
            return hook(center, lift, prev)

        deep = reach_path(cmath.exp(complex(-1.7, -11.0)))
        first = continue_along(f, deep, counted)
        assert first.reason.startswith("refresh failed")
        assert deep._steps[0].steps[-1][4] == first.reason
        path = reach_path(cmath.exp(complex(-1.3, -8.5)))
        refreshed.clear()
        second = continue_along(f, path, counted)
        assert refreshed == []
        assert second.reason == first.reason
        fresh = build_map(Truncation(-2, 2, 8 * math.pi), 256)
        on_fresh = continue_along(f_germ_at_base(fresh), path, FRefresh(fresh))
        assert _chain_bits(on_fresh) == _chain_bits(second)

    def test_threads_resume_the_same_chains(self, cold_spines, default_cmap, monkeypatch):
        # eight threads crosscheck the pinned routes at once from cold
        # spines, switching often, and each gets a lone caller's chains.
        # A chain holds the one lock from its first step to its last, and
        # reads every kept spine's store, so between them the threads
        # refresh each step on a route's spine once, as the lone pass does,
        # and each thread refreshes the steps past its routes' spines
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        inner, on_spine, calls = engine._step, [], []

        def located(path, i, center, cap):
            step = inner(path, i, center, cap)
            on_spine.append(step[0] < path._shared - 1)
            return step

        def counted(center, lift, prev):
            calls.append(on_spine[-1])  # the step this refresh follows
            return hook(center, lift, prev)

        monkeypatch.setattr(engine, "_step", located)
        paths = [_pinned_path(q) for q in PINNED_ROUTES]
        want = [_chain_bits(crosscheck(p, f, counted).chain) for p in paths]
        on, off = calls.count(True), calls.count(False)
        assert on > 100 and off > 10
        # the lone pass took steps from other spines' stores: a step taken
        # is kept by the taker too, so one germ object sits in two stores
        held = [id(step[4]) for s in cold_spines._spines.values() for step in s.steps]
        assert len(set(held)) < len(held)
        cold_spines._spines.clear()
        paths = [_pinned_path(q) for q in PINNED_ROUTES]
        got = []
        calls.clear()

        def work(shift):
            chains = [_chain_bits(crosscheck(p, f, counted).chain) for p in paths[shift:] + paths[:shift]]
            got.append(chains[-shift:] + chains[:-shift] if shift else chains)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8
        assert len(calls) == on + 8 * off

    def test_serial_orders_resume_the_same_chains(self, cold_spines):
        # the pinned routes, built in one order from cold spines, are
        # continued whole one after another in fixed orders: forward,
        # reversed and the thread test's rotations.  A chain reads the spine
        # cache's stores when it runs, those of spines made after its route
        # too, so every order gets the forward pass's chains with as many
        # hook calls.  A log germ's hook is cheap, and a chain takes kept
        # steps by the same rules whatever its hook
        f = log_germ(0.5, 0.0)
        calls = []

        def counted(center, lift, prev):
            calls.append(center)
            return log_germ(center, prev.eval(center).imag)

        n = len(PINNED_ROUTES)
        forward = list(range(n))
        orders = [forward, forward[::-1]] + [forward[k:] + forward[:k] for k in range(1, 8)]
        want = None
        for order in orders:
            cold_spines._spines.clear()
            paths = [_pinned_path(q) for q in PINNED_ROUTES]
            calls.clear()
            got = {k: _chain_bits(continue_along(f, paths[k], counted)) for k in order}
            chains = [got[k] for k in forward]
            if want is None:
                want, want_calls = chains, len(calls)
            assert chains == want
            assert len(calls) == want_calls, order

    def test_threads_on_one_spine_refresh_each_step_once(self, cold_spines, default_cmap):
        # four threads continue the corridor's routes, which share one
        # spine, at once from its cold store, switching often: each chain
        # holds the one lock throughout, so a step the store keeps is
        # refreshed by one chain and replayed by the rest, and the hook sees
        # each (center, lift) once
        f, hook = f_germ_at_base(default_cmap), FRefresh(default_cmap)
        paths = [reach_path(omega) for omega in self.CORRIDOR]
        store = paths[0]._steps[0]
        assert all(p._steps[0] is store for p in paths)
        want = [_chain_bits(continue_along(f, validate_path(p.points), hook)) for p in paths]
        refreshed = []

        def counted(center, lift, prev):
            refreshed.append((center, lift))
            return hook(center, lift, prev)

        got = [None] * len(paths)
        barrier = threading.Barrier(len(paths), timeout=60)

        def work(k):
            barrier.wait()
            got[k] = _chain_bits(continue_along(f, paths[k], counted))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(paths))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert len(set(refreshed)) == len(refreshed)
        assert _lock_is_free()
        kept = {(step[2], step[3]) for step in store.steps}
        assert len(kept) > 60 and kept <= set(refreshed)

    def test_a_raising_step_releases_the_store(self, cold_spines, default_cmap):
        # a chain releases the one lock when the hook raises an error that
        # is not a LogstairError, or when no hook is given for a germ that
        # needs one, and its store keeps no step
        path = reach_path(self.CORRIDOR[0])
        store, f = path._steps[0], f_germ_at_base(default_cmap)

        def broken(center, lift, prev):
            raise ValueError("not a LogstairError")

        with pytest.raises(ValueError):
            continue_along(f, path, broken)
        assert _lock_is_free() and store.steps == []
        with pytest.raises(NoRefresh):
            continue_along(f, path)
        assert _lock_is_free() and store.steps == []
        assert continue_along(log_germ(0.5, 0.0), path).completed
        assert store.steps


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
            classify(-E2, 2, 3).witness_path
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
