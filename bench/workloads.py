"""The benchmark workloads: seeded inputs, the timed call into logstair, and
the check of each answer against bench/reference.py.

Inputs come from a randomly shifted Halton sequence. Each input is uniform
over the stated range, as with plain random draws, but every prefix of the
sequence covers the range evenly. A run that stops after n operations has
therefore seen a representative mix, and runs with different seeds measure
the same mix. The per-operation costs vary ~50-fold, so plain random draws
left too much seed-to-seed spread.

Library calls go through module attributes (``engine.continue_along``), so
the tracer in bench/tracing.py sees the calls the benchmark makes.
"""

from __future__ import annotations

import cmath
import math
import random
import statistics

import logstair.confmap as confmap
import logstair.engine as engine
import logstair.monodromy as monodromy
import logstair.paths as paths
import logstair.series as series
import logstair.staircase as staircase

import reference as ref

TWO_PI = 2.0 * math.pi
DEFAULT_TRUNCATION = (-2, 2, 8.0 * math.pi)
DEFAULT_RESOLUTION = 256
_PRIMES = (2, 3, 5, 7, 11, 13)

# The fixed targets of the engine/oracle crosscheck sweep tracked since the
# first measurements of this repository; 7 of the 12 agree at the seed commit.
ROADMAP12 = (3j, 0.2, 0.2j, 4, 0.1 - 0.1j, 2j, -2 + 0.1j, 2.5, -1j, 1.5 + 1.5j, -0.5, 1 + 0.01j)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


class Design:
    """Halton points with a seeded Cranley-Patterson shift per dimension."""

    def __init__(self, seed: int, stream: str):
        rng = random.Random(f"{seed}:{stream}")
        self.shift = [rng.random() for _ in _PRIMES]

    def u(self, i: int, dim: int) -> float:
        return (_radical_inverse(i + 1, _PRIMES[dim]) + self.shift[dim]) % 1.0


def _kind_index(cycle: tuple, i: int):
    """The kind of operation i in a repeating cycle of kinds, and how many
    operations of that kind precede it: each kind draws its own sequence."""
    n, k = divmod(i, len(cycle))
    kind = cycle[k]
    return kind, n * cycle.count(kind) + cycle[:k].count(kind)


def default_map():
    cmap = confmap.build_map(staircase.Truncation(*DEFAULT_TRUNCATION), DEFAULT_RESOLUTION)
    return cmap, confmap.f_germ_at_base(cmap)


def _target(design: Design, i: int) -> complex:
    """omega with ln|omega| uniform over the default truncation's columns
    (-2, 3) and a uniform angle."""
    x = -2.0 + 5.0 * design.u(i, 0)
    a = -math.pi + TWO_PI * design.u(i, 1)
    return cmath.exp(complex(x, a))


# The oracle samples a segment at 200 points per unit of length/distance
# from 0, and that ratio has a 1/x tail on random polylines (near-antipodal
# vertices), so uncapped a single segment can cost minutes. A segment with a
# higher ratio than the costliest chord (length 2.5 passing 1e-3 from 0) is
# redrawn. On 6000 polylines (two seeds) this redraws 0.1-0.2% of segments
# (0.4-0.8% of polylines) and leaves their oracle time at p50 1.9 ms, p90
# 10.0-11.0 ms and p95 18.8-19.1 ms, against 1.9, 10.3-11.1 and 19.5-19.9 ms
# uncapped (Python 3.11, 2 vCPU).
POLY_MAX_RATIO = 2500.0


def _polyline(rng: random.Random, n_points: int, first: complex) -> list:
    """Vertices with log-uniform moduli in (e^-2, e^3) and uniform angles,
    redrawn while a segment exceeds POLY_MAX_RATIO."""
    pts = [first]
    while len(pts) < n_points:
        z = cmath.rect(math.exp(rng.uniform(-2.0, 3.0)), rng.uniform(-math.pi, math.pi))
        if abs(z - pts[-1]) <= POLY_MAX_RATIO * ref.segment_origin_distance(pts[-1], z):
            pts.append(z)
    return pts


def _route_problems(path, omega: complex) -> list:
    """A routed path must run from 0.5 to omega with its log lift inside the
    staircase at every vertex, ending on the minimal interior branch."""
    out = []
    if path.start != 0.5 or not ref.close(path.end, omega, 1e-9):
        out.append(f"route runs {path.start} -> {path.end}, wanted 0.5 -> {omega}")
    lift = ref.lift_vertices(path.points)
    bad = [k for k, z in enumerate(lift[1:], 1) if not ref.interior(z)]
    if bad:
        out.append(f"route lift leaves the staircase at vertex {bad[0]}")
    if abs(lift[-1] - ref.min_branch_target(omega)) > 1e-7:
        out.append(f"route lift ends at {lift[-1]}, not {ref.min_branch_target(omega)}")
    return out


class StaircaseSweep:
    """reach_path(omega) then the engine/oracle crosscheck of h(psi(log z)).

    A run holds only ~20 of these 0.1-5 s operations, so the inputs are
    stratified: ln|omega| over 20 strata of width 1/4, whose edges include
    the column edges where the cost and the verdict jump, and the angle over
    20 strata. ln|omega| stratum s is paired with angle stratum 11*s mod 20,
    a fixed rank-1 lattice; the seed shifts the points within their cells,
    and a run ends on a whole cycle of 20 (~34 s on a 2 vCPU VM). In a cost
    model built on a 20x12 grid of measured targets, the lattice's mean cost
    and agreement share are within 3% and 0.03 of uniform targets', and the
    interquartile spread of a cycle's run time across seeds is 2%, against
    7% when the strata are paired at random for each seed.

    ln|omega| keeps RISER_GAP away from the right edge of each column and
    from the truncation's sides. Closer in, the route's last leg runs up
    along the riser and the engine's step count grows like 1/distance: at
    0.01 one target took 673 steps (11 s), as long as 15 typical targets.
    The gap plays the part of the oracle chords' 1e-3 floor."""

    name = "staircase-sweep"
    layers = ("confmap", "series", "engine", "staircase", "paths", "monodromy")
    trace_ops_per_s = 0.6
    speed_slice = "array"
    STRATA_ORDER = tuple(sorted(range(20), key=lambda k: _radical_inverse(k, 2)))
    cycle = len(STRATA_ORDER)
    ANGLE_STEP = 11
    RISER_GAP = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.design = Design(seed, "sweep")

    def setup(self):
        self.cmap, self.f = default_map()

    def inputs(self, i: int):
        n = self.cycle
        stratum = self.STRATA_ORDER[i % n]
        lo = -2.0 + 5.0 * stratum / n
        hi = lo + 5.0 / n
        if lo == -2.0:
            lo += self.RISER_GAP
        if hi == math.floor(hi):
            hi -= self.RISER_GAP
        x = lo + (hi - lo) * self.design.u(i, 0)
        a = -math.pi + TWO_PI * ((self.ANGLE_STEP * stratum) % n + self.design.u(i, 1)) / n
        return ("target", cmath.exp(complex(x, a)))

    def run(self, inp):
        path = monodromy.reach_path(inp[1])
        return path, engine.crosscheck(path, self.f, refresh=confmap.FRefresh(self.cmap))

    def check(self, inp, res) -> list:
        omega = inp[1]
        path, report = res
        out = _route_problems(path, omega)
        if report.oracle.verdict != "continuable":
            out.append(f"oracle says {report.oracle.verdict} on a routed path")
        elif abs(report.oracle.lift_end - ref.min_branch_target(omega)) > 1e-7:
            out.append(f"oracle lift end {report.oracle.lift_end} is off the target")
        return out

    def observe(self, inp, res, props):
        report = res[1]
        props.setdefault("ln_abs_omega", []).append(math.log(abs(inp[1])))
        props.setdefault("agree", []).append(report.agree)
        chain = report.chain
        props.setdefault("overflow", []).append("double precision" in (chain.reason or ""))
        props.setdefault("steps", []).append(len(chain.elements) - 1)
        if chain.completed:
            # a diagnostic, not a check: near a corner of the staircase the
            # engine's value and the direct h(psi(lift)) differ by up to 0.4
            # at the seed commit (target 1+0.01j), a map evaluation defect
            want = series.eval_h(confmap.psi_eval(self.cmap, report.oracle.lift_end))
            props.setdefault("value_err", []).append(
                abs(chain.final.coeffs[0] - want) / max(1.0, abs(want))
            )

    @staticmethod
    def summarize(props) -> dict:
        xs = props.get("ln_abs_omega", [])
        n = max(1, len(xs))
        return {
            "ln_abs_omega_min": min(xs, default=None),
            "ln_abs_omega_max": max(xs, default=None),
            "ln_abs_omega_stdev": statistics.pstdev(xs) if xs else None,
            "overflow_share": sum(props.get("overflow", [])) / n,
            "agree_share": sum(props.get("agree", [])) / n,
            "steps": sum(props.get("steps", [])),
        }


class OraclePaths:
    """The exact oracle and the routing geometry, with no conformal map and
    no series: random polylines, chords passing near 0, routes, slits."""

    name = "oracle-paths"
    layers = ("engine", "staircase", "paths", "monodromy")
    trace_ops_per_s = 30.0
    speed_slice = "mixed"
    CYCLE = ("polyline", "chord", "reach", "polyline", "chord", "classify")
    cycle = len(CYCLE)
    CHORD_MIN, CHORD_MAX = 1e-3, 1e-1

    def __init__(self, seed: int):
        self.seed = seed
        self.designs = {k: Design(seed, k) for k in self.CYCLE}

    def setup(self):
        pass

    def inputs(self, i: int):
        kind, j = _kind_index(self.CYCLE, i)
        d = self.designs[kind]
        if kind == "polyline":
            rng = random.Random(f"{self.seed}:poly:{j}")
            return ("polyline", _polyline(rng, 2 + int(7 * d.u(j, 0)), 0.5 + 0j))
        if kind == "chord":
            # passes above 0 at a log-uniform distance, so it is continuable
            dist = self.CHORD_MIN * (self.CHORD_MAX / self.CHORD_MIN) ** d.u(j, 0)
            far = 0.5 * 4.0 ** d.u(j, 1)
            h = dist * (far + 0.5) / math.sqrt(0.25 - dist * dist)
            return ("chord", [0.5 + 0j, complex(-far, h)], dist)
        if kind == "reach":
            return ("reach", _target(d, j))
        M = -2 + int(5 * d.u(j, 0))
        N = M - 1 + int(4 * d.u(j, 1))
        if d.u(j, 2) < 0.5:  # on the circle |omega| = e^M, away from the corners
            arg0 = -TWO_PI + 0.05 + (TWO_PI - 0.1) * d.u(j, 3)
            return ("classify", math.exp(M) * cmath.exp(1j * arg0), M, N, complex(M, arg0 + TWO_PI * N))
        lo, hi = math.exp(M - 1), math.exp(M)
        omega = complex(lo + (hi - lo) * (0.05 + 0.9 * d.u(j, 3)))
        return ("classify", omega, M, N, complex(math.log(omega.real), TWO_PI * (N - 1)))

    def run(self, inp):
        kind = inp[0]
        if kind in ("polyline", "chord"):
            return engine.continuable_exact(paths.validate_path(inp[1]))
        if kind == "reach":
            return monodromy.reach_path(inp[1])
        return monodromy.classify(inp[1], inp[2], inp[3])

    def check(self, inp, res) -> list:
        kind = inp[0]
        if kind == "reach":
            return _route_problems(res, inp[1])
        if kind == "classify":
            _, omega, M, N, lift_end = inp
            want = "continuable" if N > M else "blocked"
            out = []
            if res.verdict != want:
                out.append(f"classify({omega}, {M}, {N}) = {res.verdict}, theorem says {want}")
            if abs(res.lift_end - lift_end) > 1e-9:
                out.append(f"classify lift end {res.lift_end} != {lift_end}")
            if (res.witness_path is not None) != (want == "continuable"):
                out.append("witness path present iff continuable")
            elif res.witness_path is not None and not ref.close(res.witness_path.end, omega, 1e-9):
                out.append(f"witness ends at {res.witness_path.end}, not {omega}")
            return out
        pts = inp[1]
        lift_end = ref.lift_point(pts, 1.0)
        out = []
        if abs(res.lift_end - lift_end) > 1e-9:
            out.append(f"oracle lift end {res.lift_end} != reference {lift_end}")
        if kind == "chord" and res.verdict != "continuable":
            out.append(f"chord above 0 judged {res.verdict}")
        if res.verdict == "continuable" and not ref.interior(lift_end):
            out.append("continuable verdict with a lift end outside the staircase")
        if res.verdict == "blocked":
            exit_lift = ref.lift_point(pts, res.first_exit_t)
            if ref.interior(exit_lift):
                out.append(f"blocked, yet the lift at t={res.first_exit_t} is interior")
        return out

    def observe(self, inp, res, props):
        props.setdefault("kinds", []).append(inp[0])
        if inp[0] == "chord":
            props.setdefault("chord_dist", []).append(inp[2])
        if inp[0] == "polyline":
            props.setdefault("vertices", []).append(len(inp[1]))

    @staticmethod
    def summarize(props) -> dict:
        dists = props.get("chord_dist", [])
        verts = props.get("vertices", [])
        kinds = props.get("kinds", [])
        return {
            "kind_counts": {k: kinds.count(k) for k in sorted(set(kinds))},
            "chords_within_1e-2": sum(d < 1e-2 for d in dists) / max(1, len(dists)),
            "polyline_vertices_mean": statistics.fmean(verts) if verts else None,
        }


class LogChains:
    """The log germ at 0.5 (auto refresh) continued along a route to a seeded
    target or along a seeded polyline, and expexp_demo. These are checked
    operations of the traced census, not a timed workload: they load the
    engine's stepping, which is ~2% of the sweep."""

    name = "census:log-chains"
    CYCLE = ("log-route", "log-polyline", "log-route", "log-polyline", "expexp")
    cycle = len(CYCLE)
    EXPEXP_END = complex(math.log(TWO_PI), math.pi / 2)

    def __init__(self, seed: int):
        self.seed = seed
        self.design = Design(seed, "log-chains")

    def setup(self):
        pass

    def inputs(self, i: int):
        kind, j = _kind_index(self.CYCLE, i)
        if kind == "log-route":
            return (kind, _target(self.design, j))
        if kind == "log-polyline":
            rng = random.Random(f"{self.seed}:log-poly:{j}")
            return (kind, _polyline(rng, 2 + int(4 * self.design.u(j, 2)), 0.5 + 0j))
        return (kind,)

    def run(self, inp):
        kind = inp[0]
        if kind == "expexp":
            return monodromy.expexp_demo()
        path = monodromy.reach_path(inp[1]) if kind == "log-route" else paths.validate_path(inp[1])
        return path, engine.continue_along(series.log_germ(0.5, 0.0), path)

    def check(self, inp, res) -> list:
        kind = inp[0]
        if kind == "expexp":
            out = []
            if res.branch_a.completed or abs(res.fail_point - 1.0) >= 0.05:
                out.append(f"expexp branch A should fail near 1, got {res.branch_a.status} "
                           f"at {res.fail_point}")
            if res.final_value is None or abs(res.final_value - self.EXPEXP_END) >= 1e-6:
                out.append(f"expexp branch B ends at {res.final_value}, not {self.EXPEXP_END}")
            return out
        path, chain = res
        if kind == "log-route":
            out, points = _route_problems(path, inp[1]), path.points
        else:
            out, points = [], inp[1]
        if not chain.completed:
            return out + [f"log chain failed at t={chain.t_fail}: {chain.reason}"]
        value, end = chain.final.coeffs[0], complex(points[-1])
        if not ref.close(cmath.exp(value), end, 1e-9):
            out.append(f"exp of the chain's value is {cmath.exp(value)}, path ends at {end}")
        lift_im = ref.lift_vertices(points)[-1].imag
        if abs(value.imag - lift_im) > 1e-9:
            out.append(f"chain value has Im {value.imag}, the lift ends at Im {lift_im}")
        return out

    def observe(self, inp, res, props):
        if inp[0] != "expexp":
            props.setdefault("steps", []).append(len(res[1].elements) - 1)


def quality_ok(report: dict) -> bool:
    """The map-report thresholds of tests/test_confmap.py. Deep or wide
    truncations miss them at the seed commit (interior images up to 5e-4
    outside the disc, grid points that collide), so a miss is measured, not
    counted as a failed operation."""
    return (
        report["interior_max_modulus"] < 1.0
        and report["boundary_min_modulus"] > 0.9
        and report["boundary_mean_modulus"] > 0.95
        and report["grid_injectivity_min_separation"] > 0.0
    )


WORKLOADS = {w.name: w for w in (StaircaseSweep, OraclePaths)}
