"""logstair benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; logstair is imported from ./src. The load is
a closed loop in one process with no extra threads: each operation starts
when the previous one returns, as in batch use of the library. Inputs are
made from --seed before each operation is timed, and every answer is checked
against bench/reference.py.

--trace 0 measures whole cycles of the workload's input mix for about
--seconds and reports the end-to-end metrics listed in BENCHMARK.json. Their
timings are scaled to a reference machine speed measured between operations
(bench/speed.py).
--trace 1 runs a fixed number of operations first without and then with
spans around the calls into each module (the difference is the tracing
overhead), then a fixed census: the twelve ROADMAP sweep targets, checked
log chains and expexp_demo, and every CLI subcommand, so each layer is
measured on every workload. It reports the per-layer metrics and writes the
spans to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it holds run details: seed, machine, input
properties, the tail percentile and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
SRC = os.path.abspath("src")
# Set-up is timed in this many rounds before the timed loop and as many after
# it, and setup_s is their median.
SETUP_ROUNDS = 10
# String hashing is randomized per process. Five identical 10 s oracle-paths
# runs spread over 25-32 ops/s with random hash seeds and over 29-31 ops/s
# with a fixed one (2 vCPU VM, Python 3.11), so the benchmark fixes it. The
# price: a change to the program's names can move its timings a little.
HASH_SEED = "0"
# op_ms.tail is a fixed percentile per workload, so that a faster or slower
# commit is compared on the same percentile. oracle-paths: p95, with 50 or
# more samples beyond it in a run's 1000+ operations; p99 keeps ten beyond
# too, but over five seeds its run-to-run spread was 0.23 of its median
# against 0.16 for p95. staircase-sweep: a run holds one cycle of 20
# operations, so p75 has only 5 samples beyond it; ten beyond would need 40
# operations, about 70 s a run.
TAIL_PCT = {"staircase-sweep": 75, "oracle-paths": 95}


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of a percentile: a beta-weighted mean of the
    order statistics. Unlike the nearest-rank sample percentile it does not
    jump between the clusters of a multi-modal latency mix, which matters for
    the sweep's ~40 samples a run; with many samples the two agree."""
    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(x)
    a, b = pct / 100.0 * (n + 1), (1.0 - pct / 100.0) * (n + 1)
    g = numpy.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * numpy.log(g) + (b - 1) * numpy.log1p(-g)
    pdf = numpy.exp(log_pdf - log_pdf.max())
    cdf = numpy.concatenate([[0.0], numpy.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, g, cdf / cdf[-1]))
    return float(weights @ x)


def _own_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "logstair" or k.startswith("logstair.")}


def import_seconds() -> float:
    """Time of ``import logstair`` in this process. Its modules are taken out
    of sys.modules first, so the round executes all of them afresh, and put
    back after, so the rest of the run keeps using one copy. numpy stays
    imported: in a fresh interpreter its import took 50-250 ms, in phases of
    the host that the speed slices do not follow, and no logstair change
    moves it."""
    ours = _own_modules()
    for name in ours:
        del sys.modules[name]
    t0 = perf_counter()
    try:
        importlib.import_module("logstair")
        return perf_counter() - t0
    finally:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(ours)


def setup_rounds(cls, seed: int, speed: Speed):
    """SETUP_ROUNDS set-ups, each ``import logstair`` plus the workload's
    fixed set-up, scaled to the reference speed by slices taken just before
    and after it. Returns their times and the last workload set up."""
    times = []
    for _ in range(SETUP_ROUNDS):
        speed.take(2)
        t0 = perf_counter()
        import_s = import_seconds()
        w = cls(seed)
        t1 = perf_counter()
        w.setup()
        t2 = perf_counter()
        speed.take(2)
        times.append((import_s + t2 - t1) * speed.scale(t0, t2))
    return times, w


def run_op(w, i, tracer=None):
    """One timed operation: (seconds, problems, inputs, result)."""
    inp = w.inputs(i)
    if tracer is not None:
        tracer.op = f"{w.name}:{i}"
        tracer.on = True
    t0 = perf_counter()
    try:
        res = w.run(inp)
    except Exception as exc:
        return perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], inp, None
    finally:
        if tracer is not None:
            tracer.on = False
    dt = perf_counter() - t0
    try:
        problems = w.check(inp, res)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return dt, problems, inp, res


class Tally:
    """Latencies, failures and input properties of a set of operations."""

    def __init__(self, w):
        self.w = w
        self.times = []
        self.ok_times = []
        self.oks = []
        self.spans = []
        self.failed = 0
        self.problems = []
        self.props = {}

    def add(self, dt, problems, inp, res):
        self.times.append(dt)
        self.oks.append(not problems)
        if problems:
            self.failed += 1
            self.problems.append(f"{inp[0]}: {problems[0]}")
        else:
            self.ok_times.append(dt)
            self.w.observe(inp, res, self.props)


def timed_loop(w, seconds: float, speed: Speed) -> Tally:
    """Closed loop over whole cycles of the workload's input mix, so that
    every run measures the same mix, ending on the cycle boundary closest to
    `seconds` of reference time. Speed reference slices are taken between
    operations. Counting reference time keeps a sweep run at one cycle of 20
    targets: by the clock a cycle took 27-47 s, so at 40 s a fast phase of
    the machine ran two cycles and the run lasted 60 s."""
    tally = Tally(w)
    cycles = 0
    while True:
        for k in range(w.cycle):
            speed.keep_up()
            t0 = perf_counter()
            tally.add(*run_op(w, cycles * w.cycle + k))
            tally.spans.append((t0, perf_counter()))
        cycles += 1
        elapsed = speed.elapsed()
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            speed.keep_up()
            return tally


def end_to_end(tally: Tally, setup_s: float, speed: Speed) -> dict:
    """The end-to-end metrics, each operation's time scaled to the reference
    machine by the speed slices taken around it (bench/speed.py)."""
    times = [dt * speed.scale(*span) for dt, span in zip(tally.times, tally.spans)]
    ok = [dt for dt, good in zip(times, tally.oks) if good] or [math.nan]
    return {
        "setup_s": setup_s,
        "op_ms.p50": 1e3 * percentile(ok, 50),
        "op_ms.tail": 1e3 * percentile(ok, TAIL_PCT[tally.w.name]),
        "ops_per_s": len(times) / sum(times),
        "ok_frac": 1.0 - tally.failed / len(tally.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _write_path(name: str, points) -> str:
    file_name = os.path.join(OUT, name)
    with open(file_name, "w") as fh:
        json.dump({"points": [[complex(p).real, complex(p).imag] for p in points]}, fh)
    return file_name


def cli_argvs(seed: int):
    """One invocation of each subcommand, on inputs of the workload it fronts
    where it has one and on the defaults otherwise."""
    import workloads as wl

    oracle = wl.OraclePaths(seed)
    poly = _write_path("cli_poly.json", oracle.inputs(0)[1])
    _, omega, m, n, _ = oracle.inputs(5)
    target = wl.StaircaseSweep(seed).inputs(0)[1]
    out = lambda name: os.path.join(OUT, name)  # noqa: E731
    return [
        ["wind", "--path", poly],
        ["lift", "--path", poly, "--out", out("cli_lift.csv")],
        ["continue", "--path", poly, "--out", out("cli_chain.csv")],
        ["oracle", "--path", poly],
        ["classify", f"--omega={omega.real!r},{omega.imag!r}", f"--m={m}", f"--n={n}"],
        ["table"],
        ["reach", f"--omega={target.real!r},{target.imag!r}", "--out", out("cli_reach.json")],
        ["demo-expexp"],
        ["build-map", "--out", out("cli_nodes.csv")],
        ["map-report", "--out", out("cli_report.json")],
    ]


def census(tracer, seed: int):
    """Traced fixed work run on every workload: the twelve ROADMAP sweep
    targets, four cycles of checked log chains and expexp_demo, and each CLI
    subcommand once. Returns the tally of each."""
    import logstair.cli as cli
    import workloads as wl

    sweep = wl.StaircaseSweep(seed)
    sweep.name = "census:roadmap12"
    sweep.inputs = lambda i: ("target", complex(wl.ROADMAP12[i]))
    tracer.op = "census:setup"
    tracer.on = True
    try:
        sweep.setup()
    finally:
        tracer.on = False
    roadmap = Tally(sweep)
    for i in range(len(wl.ROADMAP12)):
        roadmap.add(*run_op(sweep, i, tracer))
    log_chains = wl.LogChains(seed)
    chains = Tally(log_chains)
    for i in range(4 * log_chains.cycle):
        chains.add(*run_op(log_chains, i, tracer))
    clis = Tally(sweep)
    for argv in cli_argvs(seed):
        tracer.op = f"census:cli:{argv[0]}"
        tracer.on = True
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.wrap(f"cli.{argv[0]}", cli.main)(argv)
        finally:
            tracer.on = False
        clis.times.append(perf_counter() - t0)
        if code != 0:
            clis.failed += 1
            clis.problems.append(f"cli {argv[0]} exited {code}: {sink.getvalue()[-200:]}")
    return roadmap, chains, clis


def per_layer(tracer, loop: Tally, roadmap: Tally, untraced_s: float, traced_s: float) -> dict:
    import workloads as wl

    stats = tracer.stats()
    m = {f"{name}.{field}": 0 for name in tracer.names for field in ("calls", "ms", "self_ms")}
    for name, (calls, total, own) in stats.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.ms"] = 1e3 * total
        m[f"{name}.self_ms"] = 1e3 * own
    layer_self = {}
    for name, (_, _, own) in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    for layer, own in layer_self.items():
        m[f"layer.{layer}.self_ms"] = 1e3 * own

    chains = tracer.returns["engine.continue_along"]
    steps = sum(s for s, _ in chains)
    refresh_failed = sum(reason.startswith("refresh failed") for _, reason in chains)
    m["engine.steps"] = steps
    m["engine.steps_per_chain"] = steps / max(1, len(chains))
    m["engine.steps_per_s"] = steps / max(1e-12, stats["engine.continue_along"][1])
    m["engine.refresh_ok_ratio"] = steps / max(1, steps + refresh_failed)
    m["engine.oracle.samples_per_verdict"] = (
        tracer.counts["engine.in_interior"] / max(1, stats["engine.continuable_exact"][0])
    )
    agrees = tracer.returns["engine.crosscheck"]
    m["engine.crosscheck.agree_frac"] = sum(agrees) / max(1, len(agrees))
    m["series.compose.overflow"] = tracer.counts["series.compose!CompositionOutOfRange"]
    errs = loop.props.get("value_err", []) + roadmap.props.get("value_err", [])
    m["engine.value_err.max"] = max(errs, default=math.nan)

    reports = tracer.returns["confmap.quality_report"]
    m["confmap.boundary_gap.max"] = max(1.0 - r["boundary_min_modulus"] for r in reports)
    m["confmap.quality_ok_frac"] = sum(map(wl.quality_ok, reports)) / len(reports)
    m["monodromy.roadmap12.agree"] = sum(roadmap.props.get("agree", []))
    m["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s) / len(loop.times)
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    m["trace.spans"] = len(tracer.spans)
    return m


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def emit(spec_key: str, values: dict, attempted: int, failed: int, detail: dict) -> None:
    with open(SPEC) as fh:
        spec = json.load(fh)[spec_key]
    metrics = {}
    for entry in spec:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not os.path.isfile(os.path.join(SRC, "logstair", "__init__.py")):
        print(f"error: no logstair sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import logstair
    import workloads as wl

    if not os.path.abspath(logstair.__file__).startswith(SRC + os.sep):
        print(f"error: imported logstair from {logstair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = wl.WORKLOADS[args.workload]
    setup_speed = Speed(cls.speed_slice)
    setups, w = setup_rounds(cls, args.seed, setup_speed)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "layers": cls.layers,
    }

    if not args.trace:
        loop_speed = Speed(cls.speed_slice)
        tally = timed_loop(w, args.seconds, loop_speed)
        setups += setup_rounds(cls, args.seed, setup_speed)[0]
        n_ok, pct = len(tally.ok_times), TAIL_PCT[args.workload]
        detail.update(
            setup_rounds_s=setups, inputs=cls.summarize(tally.props),
            problems=tally.problems[:5],
            tail={"pct": pct, "samples": n_ok, "beyond": n_ok - math.ceil(pct / 100 * n_ok)},
            speed={"slices": len(loop_speed.samples),
                   "slice_ms_mean": 1e3 * statistics.fmean(loop_speed.samples),
                   "unscaled_op_ms.p50": 1e3 * percentile(tally.ok_times or [math.nan], 50),
                   "unscaled_ops_per_s": len(tally.times) / sum(tally.times)},
        )
        emit("end_to_end", end_to_end(tally, statistics.median(setups), loop_speed),
             len(tally.times), tally.failed, detail)
        return 0

    from tracing import Tracer

    n_ops = max(1, int(cls.trace_ops_per_s * args.seconds / 4))
    untraced = Tally(w)
    for i in range(n_ops):
        untraced.add(*run_op(w, i))
    tracer = Tracer()
    tracer.install()
    try:
        traced = Tally(w)
        for i in range(n_ops):
            traced.add(*run_op(w, i, tracer))
        os.makedirs(OUT, exist_ok=True)
        roadmap, chains, clis = census(tracer, args.seed)
    finally:
        tracer.uninstall()
    values = per_layer(tracer, traced, roadmap, sum(untraced.times), sum(traced.times))
    spans_file = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_file)
    tallies = (untraced, traced, roadmap, chains, clis)
    detail.update(
        trace_ops=n_ops, untraced_s=sum(untraced.times), traced_s=sum(traced.times),
        spans_file=os.path.relpath(spans_file),
        inputs=cls.summarize(traced.props),
        problems=[p for t in tallies for p in t.problems][:5],
    )
    emit("per_layer", values, sum(len(t.times) for t in tallies),
         sum(t.failed for t in tallies), detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
