"""Command-line front end.

One subcommand per library operation, file-based I/O, deterministic output.
Exit status: 0 on success (a "blocked" verdict is a successful answer),
1 on domain errors (bad geometry, unreachable targets, mismatched germs),
2 on usage errors (unknown flags, malformed files or field values).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .confmap import MIN_RESOLUTION, build_map, psi_eval, quality_report
from .engine import continuable_exact, continue_along
from .errors import LogstairError
from .monodromy import classify, expexp_demo, reach_path, truth_table
from .paths import lift_log, validate_path, winding_number
from .series import DEFAULT_ORDER, h_germ, log_germ
from .staircase import BASE_LIFT, GEOM_TOL, Truncation

_USAGE_ERROR = 2
_DOMAIN_ERROR = 1


class _FieldError(Exception):
    """Malformed field value; maps to exit status 2."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_c(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _parse_complex(text: str, field: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _FieldError(f"{field}: expected RE or RE,IM, got {text!r}")


def _parse_scalar(text: str, field: str) -> float:
    t = text.strip().lower().replace(" ", "")
    try:
        if t.endswith("pi"):
            head = t[:-2].rstrip("*")
            return (float(head) if head else 1.0) * math.pi
        return float(t)
    except ValueError:
        raise _FieldError(f"{field}: expected a number, got {text!r}") from None


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise _FieldError(f"{flag}: expected a finite number, got {value!r}")
    return value


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise _FieldError(f"{flag}: expected an integer >= {low}, got {value}")
    return value


def _map(args):
    resolution = _at_least(args.resolution, MIN_RESOLUTION, "--resolution")
    text = args.truncation
    parts = text.split(":")
    if len(parts) != 3:
        raise _FieldError(f"--truncation: expected n_min:n_max:y_max, got {text!r}")
    try:
        n_min, n_max = int(parts[0]), int(parts[1])
    except ValueError:
        raise _FieldError(f"--truncation: integer columns, got {text!r}") from None
    y_max = _parse_scalar(parts[2], "--truncation")
    return build_map(Truncation(n_min, n_max, y_max), resolution)


def _read_path(file_name: str):
    try:
        data = json.loads(Path(file_name).read_text())
    except OSError as exc:
        raise _FieldError(f"--path: cannot read {file_name}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _FieldError(f"--path: malformed JSON in {file_name}: {exc}") from None
    if not isinstance(data, dict) or "points" not in data:
        raise _FieldError(f'--path: {file_name} must be {{"points": [[re, im], ...]}}')
    pts = data["points"]
    if not isinstance(pts, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pts
    ):
        raise _FieldError(f'--path: "points" must be a list of [re, im] pairs')
    zs = []
    for i, p in enumerate(pts):
        try:
            zs.append(complex(p[0], p[1]))
        except (TypeError, OverflowError):
            raise _FieldError(f"--path: point {i} is not a pair of numbers: {p}") from None
    return validate_path(zs)


def _path_json(path) -> str:
    rows = ", ".join(f"[{_fmt(p.real)}, {_fmt(p.imag)}]" for p in path.points)
    return f'{{"points": [{rows}]}}\n'


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _make_germ(spec: str, start: complex, order: int):
    """(germ, refresh hook) for a --germ spec; a log germ takes the engine's
    default hook, h is rebuilt at each center from the center alone."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "log" and len(parts) == 1:
        return log_germ(start, 0.0, order), None
    if kind == "log" and len(parts) == 2:
        branch_im = _finite(_parse_scalar(parts[1], "--germ"), "--germ")
        return log_germ(start, branch_im, order), None
    if kind == "h" and len(parts) == 1:
        return h_germ(start, order), lambda center, lift, prev: h_germ(center, order)
    raise _FieldError(f"--germ: expected log, log:BRANCH_IM, or h, got {spec!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="logstair",
        description="Numerical continuation of holomorphic germs along paths "
        "avoiding 0, with an exact lift oracle over the staircase domain.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *, order=False, out=False, path=False,
                omega=False, mn=False, trunc=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER)
        if out:
            p.add_argument("--out", default=None)
        if path:
            p.add_argument("--path", required=True, metavar="FILE.json")
        if omega:
            p.add_argument("--omega", required=True, metavar="RE[,IM]")
        if mn:
            p.add_argument("--m", required=True, type=int)
            p.add_argument("--n", required=True, type=int)
        if trunc:
            p.add_argument("--truncation", default="-2:2:8pi", metavar="MIN:MAX:YMAX")
            p.add_argument("--resolution", type=int, default=256)
        return p

    command("wind", _cmd_wind, "winding number of a path (prints W=<k>)", path=True)
    p = command("lift", _cmd_lift, "log lift of a path; CSV of lift points", out=True, path=True)
    p.add_argument("--branch-im", type=float, default=0.0)
    p = command(
        "continue", _cmd_continue, "continue a germ along a path; chain CSV",
        order=True, out=True, path=True,
    )
    p.add_argument("--germ", default="log", metavar="log[:BRANCH_IM]|h")
    p = command("oracle", _cmd_oracle, "exact continuability verdict for a path", path=True)
    p.add_argument("--geom-tol", type=float, default=GEOM_TOL)
    command(
        "classify", _cmd_classify, "slit-target verdict for (omega, M, N)",
        out=True, omega=True, mn=True,
    )
    p = command("table", _cmd_table, "theorem truth table over a slit grid", out=True)
    p.add_argument("--m-range", default="-2:2", metavar="LO:HI")
    p.add_argument("--n-offsets", default="0,1,2", metavar="D1,D2,...")
    p.add_argument("--samples", type=int, default=8)
    command("reach", _cmd_reach, "construct a continuable path to omega", out=True, omega=True)
    command("demo-expexp", _cmd_demo, "two-branch log-log continuation demo", order=True)
    command(
        "build-map", _cmd_build_map, "build the disc map; boundary node CSV",
        out=True, trunc=True,
    )
    command("map-report", _cmd_map_report, "map quality report JSON", out=True, trunc=True)
    return top


def _cmd_wind(args) -> int:
    path = _read_path(args.path)
    sys.stdout.write(f"W={winding_number(path)}\n")
    return 0


def _cmd_lift(args) -> int:
    branch_im = _finite(args.branch_im, "--branch-im")
    path = _read_path(args.path)
    lift = lift_log(path, branch_im)
    rows = ["lift_re,lift_im"]
    rows += [_fmt_c(p) for p in lift.points]
    _emit("\n".join(rows) + "\n", args.out)
    if args.out:
        sys.stdout.write(f"lift_end={_fmt_c(lift.points[-1])}\n")
    return 0


def _cmd_continue(args) -> int:
    path = _read_path(args.path)
    germ, refresh = _make_germ(args.germ, path.start, _at_least(args.order, 1, "--order"))
    chain = continue_along(germ, path, refresh)
    rows = ["t,center_re,center_im,radius_est"]
    for t, g in zip(chain.breakpoints, chain.elements):
        rows.append(f"{_fmt(t)},{_fmt_c(g.center)},{_fmt(g.radius_est)}")
    _emit("\n".join(rows) + "\n", args.out)
    if chain.completed:
        sys.stdout.write("status=completed\n")
        sys.stdout.write(f"value={_fmt_c(chain.final.coeffs[0])}\n")
    else:
        sys.stdout.write("status=failed\n")
        sys.stdout.write(f"t_fail={_fmt(chain.t_fail)}\n")
        sys.stdout.write(f"reason={chain.reason}\n")
    return 0


def _cmd_oracle(args) -> int:
    if not (math.isfinite(args.geom_tol) and args.geom_tol >= 0.0):
        raise _FieldError(
            f"--geom-tol: expected a finite number >= 0, got {args.geom_tol!r}"
        )
    path = _read_path(args.path)
    verdict = continuable_exact(path, geom_tol=args.geom_tol)
    sys.stdout.write(f"verdict={verdict.verdict}\n")
    t = verdict.first_exit_t
    sys.stdout.write(f"first_exit_t={'none' if t is None else _fmt(t)}\n")
    sys.stdout.write(f"lift_end={_fmt_c(verdict.lift_end)}\n")
    return 0


def _cmd_classify(args) -> int:
    omega = _parse_complex(args.omega, "--omega")
    report = classify(omega, args.m, args.n)
    sys.stdout.write(f"verdict={report.verdict}\n")
    sys.stdout.write(f"lift_end={_fmt_c(report.lift_end)}\n")
    if args.out and report.witness_path is not None:
        Path(args.out).write_text(_path_json(report.witness_path))
    return 0


def _cmd_table(args) -> int:
    parts = args.m_range.split(":")
    if len(parts) != 2:
        raise _FieldError(f"--m-range: expected LO:HI, got {args.m_range!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        offsets = [int(d) for d in args.n_offsets.split(",")]
    except ValueError:
        raise _FieldError(
            f"--m-range/--n-offsets: integers required, got "
            f"{args.m_range!r}, {args.n_offsets!r}"
        ) from None
    if lo > hi:
        raise _FieldError(f"--m-range: LO must be <= HI, got {args.m_range!r}")
    table = truth_table(range(lo, hi + 1), offsets, _at_least(args.samples, 1, "--samples"))
    rows = ["M,N,omega_re,omega_im,lift_re,lift_im,verdict"]
    for r in table.rows:
        rows.append(
            f"{r.M},{r.N},{_fmt_c(r.omega)},{_fmt_c(r.lift_end)},{r.verdict}"
        )
    rows.append(f"theorem_b: {'PASS' if table.theorem_b_pass else 'FAIL'}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_reach(args) -> int:
    omega = _parse_complex(args.omega, "--omega")
    path = reach_path(omega)
    _emit(_path_json(path), args.out)
    sys.stdout.write(f"W={winding_number(path)}\n")
    return 0


def _cmd_demo(args) -> int:
    report = expexp_demo(_at_least(args.order, 1, "--order"))
    a, b = report.branch_a, report.branch_b
    sys.stdout.write(f"branch_a={a.status}\n")
    if report.fail_point is not None:
        sys.stdout.write(f"fail_point={_fmt_c(report.fail_point)}\n")
    sys.stdout.write(f"branch_b={b.status}\n")
    if report.final_value is not None:
        sys.stdout.write(f"final_value={_fmt_c(report.final_value)}\n")
    return 0


def _cmd_build_map(args) -> int:
    cmap = _map(args)
    rows = ["node_re,node_im"]
    rows += [_fmt_c(complex(z)) for z in cmap.nodes]
    _emit("\n".join(rows) + "\n", args.out)
    if args.out:
        sys.stdout.write(f"nodes={len(cmap.nodes)}\n")
        sys.stdout.write(f"base_image={_fmt(abs(psi_eval(cmap, BASE_LIFT)))}\n")
    if not quality_report(cmap)["passed"]:
        sys.stderr.write("warning: the map fails its quality report; see map-report\n")
    return 0


def _cmd_map_report(args) -> int:
    cmap = _map(args)
    report = quality_report(cmap)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _FieldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR
    except LogstairError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return _DOMAIN_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
