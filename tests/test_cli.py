import json
import math
from collections import OrderedDict

import pytest

import logstair.monodromy as monodromy
from logstair.cli import main

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_path(tmp_path, name, points):
    data = {"points": [[complex(p).real, complex(p).imag] for p in points]}
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return str(target)


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no {key}= line in output:\n{out}")


def parse_pair(text):
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


@pytest.fixture
def loop_file(tmp_path):
    return write_path(tmp_path, "loop.json", [2, 2j, -2, -2j, 2])


@pytest.fixture
def segment_file(tmp_path):
    return write_path(tmp_path, "seg.json", [1, 2])


class TestWind:
    def test_loop(self, capsys, loop_file):
        code, out, _ = run(capsys, "wind", "--path", loop_file)
        assert code == 0
        assert out == "W=1\n"

    def test_a_segment_through_origin_is_domain_error(self, capsys, tmp_path):
        path = write_path(tmp_path, "far.json", [0.5, 1e200, -1e200])
        code, out, err = run(capsys, "wind", "--path", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: SegmentThroughOrigin")

    def test_a_modulus_past_the_largest_double_is_domain_error(self, capsys, tmp_path):
        path = write_path(tmp_path, "huge.json", [0.5, 1.5e308 + 1.5e308j])
        code, out, err = run(capsys, "wind", "--path", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: point 1's modulus exceeds") and "Traceback" not in err

    def test_branch_flag_is_rejected(self, capsys, loop_file):
        # the winding number does not depend on the starting branch, so wind
        # takes no --branch-im; lift does, because there it moves the lift
        code, out, _ = run(capsys, "wind", "--path", loop_file, "--branch-im", str(TWO_PI))
        assert code == 2
        assert out == ""


class TestLift:
    def test_stdout_csv(self, capsys, segment_file):
        code, out, _ = run(capsys, "lift", "--path", segment_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lift_re,lift_im"
        assert len(lines) == 3
        assert parse_pair(lines[-1]) == pytest.approx(math.log(2))

    def test_out_file(self, capsys, segment_file, tmp_path):
        dest = tmp_path / "lift.csv"
        code, out, _ = run(capsys, "lift", "--path", segment_file, "--out", str(dest))
        assert code == 0
        assert parse_pair(grab(out, "lift_end")) == pytest.approx(math.log(2))
        assert dest.read_text().splitlines()[0] == "lift_re,lift_im"

    @pytest.mark.parametrize("branch", ["inf", "nan", "-inf"])
    def test_non_finite_branch_is_field_error(self, capsys, segment_file, branch):
        code, out, err = run(capsys, "lift", "--path", segment_file, f"--branch-im={branch}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --branch-im: expected a finite number")
        assert "Traceback" not in err


class TestContinue:
    def test_log_germ_completes(self, capsys, segment_file):
        code, out, _ = run(capsys, "continue", "--path", segment_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,center_re,center_im,radius_est"
        assert grab(out, "status") == "completed"
        assert parse_pair(grab(out, "value")) == pytest.approx(math.log(2), abs=1e-10)

    def test_branch_flag_shifts_value(self, capsys, segment_file):
        code, out, _ = run(
            capsys, "continue", "--path", segment_file, "--germ", f"log:{TWO_PI}"
        )
        assert code == 0
        expected = complex(math.log(2), TWO_PI)
        assert parse_pair(grab(out, "value")) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("branch", ["inf", "nan", "-inf", "nanpi"])
    def test_non_finite_branch_is_field_error(self, capsys, segment_file, branch):
        code, out, err = run(capsys, "continue", "--path", segment_file, f"--germ=log:{branch}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --germ: expected a finite number")
        assert "Traceback" not in err

    def test_h_germ_fails_past_boundary(self, capsys, tmp_path):
        path = write_path(tmp_path, "out.json", [0.5, 2])
        code, out, _ = run(capsys, "continue", "--path", path, "--germ", "h")
        assert code == 0
        assert grab(out, "status") == "failed"
        assert 0.0 < float(grab(out, "t_fail")) < 1.0
        assert grab(out, "reason")

    def test_log_chain_past_the_overflow_of_its_coefficients(self, capsys, tmp_path):
        # past |z| ~ 6.6e4 the log germ's last coefficients are 0
        dest = str(tmp_path / "far.json")
        assert run(capsys, "reach", "--omega=1e5", "--out", dest)[0] == 0
        code, out, _ = run(capsys, "continue", "--path", dest)
        assert code == 0
        assert grab(out, "status") == "completed"

    def test_a_path_whose_length_overflows_is_a_domain_error(self, capsys, tmp_path):
        dest = str(tmp_path / "longest.json")
        assert run(capsys, "reach", "--omega=1.5e308", "--out", dest)[0] == 0
        code, out, err = run(capsys, "continue", "--path", dest)
        assert code == 1
        assert out == ""
        assert err == "error: the path's total length exceeds the largest double\n"

    def test_a_log_germ_too_close_to_zero_is_domain_error(self, capsys, tmp_path):
        # z0^k underflows to 0 at |z0| = 1e-6 at the default order 64
        path = write_path(tmp_path, "tiny.json", [1e-6, 2e-6])
        code, out, err = run(capsys, "continue", "--path", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: the order-64 coefficients of a log germ at |z0| = 1e-06")
        assert "Traceback" not in err

    def test_bad_germ_spec(self, capsys, segment_file):
        code, _, err = run(capsys, "continue", "--path", segment_file, "--germ", "exp")
        assert code == 2
        assert "error:" in err


class TestOracle:
    def test_blocked_crossing(self, capsys, tmp_path):
        path = write_path(tmp_path, "cross.json", [0.5, 2])
        code, out, _ = run(capsys, "oracle", "--path", path)
        assert code == 0
        assert grab(out, "verdict") == "blocked"
        assert float(grab(out, "first_exit_t")) == pytest.approx(1 / 3, abs=1e-6)

    def test_continuable_loop_out(self, capsys, tmp_path):
        path = write_path(tmp_path, "loopout.json", [0.5, 0.5j, -0.5, -0.5j, 0.5, 2])
        code, out, _ = run(capsys, "oracle", "--path", path)
        assert code == 0
        assert grab(out, "verdict") == "continuable"
        assert grab(out, "first_exit_t") == "none"
        expected = complex(math.log(2), TWO_PI)
        assert parse_pair(grab(out, "lift_end")) == pytest.approx(expected, abs=1e-9)

    def test_geom_tol_widens_base_point_match(self, capsys, tmp_path):
        path = write_path(tmp_path, "offbase.json", [0.5 + 1e-7, 2])
        code, _, err = run(capsys, "oracle", "--path", path)
        assert code == 1
        assert "WrongBasePoint" in err
        code, out, _ = run(capsys, "oracle", "--path", path, "--geom-tol", "1e-6")
        assert code == 0
        assert grab(out, "verdict") == "blocked"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_geom_tol_must_be_finite_and_nonnegative(self, capsys, tmp_path, tol):
        path = write_path(tmp_path, "cross.json", [0.5, 2])
        code, out, err = run(capsys, "oracle", "--path", path, f"--geom-tol={tol}")
        assert code == 2
        assert out == ""
        assert "--geom-tol" in err

    def test_geom_tol_past_two_pi_blocks_at_the_start(self, capsys, tmp_path):
        # no lift is interior once geom_tol >= 2*pi, the start's included, so
        # the verdict is blocked at t = 0 before any segment is sampled
        path = write_path(tmp_path, "cross.json", [0.5, 2])
        code, out, _ = run(capsys, "oracle", "--path", path, "--geom-tol", "7")
        assert code == 0
        assert grab(out, "verdict") == "blocked"
        assert grab(out, "first_exit_t") == "0.0"

    def test_a_length_past_the_largest_double_is_domain_error(self, capsys, tmp_path):
        path = write_path(tmp_path, "long.json", [0.5, 1e308 + 1e308j, -1e308 + 1e307j])
        code, out, err = run(capsys, "oracle", "--path", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: segment 1's length exceeds") and "Traceback" not in err

    def test_an_exit_on_a_path_whose_length_overflows_is_domain_error(self, capsys, tmp_path):
        path = write_path(tmp_path, "longexit.json", [0.5, 2, 1e308, 1e308j, -1e308])
        code, out, err = run(capsys, "oracle", "--path", path)
        assert (code, out) == (1, "")
        assert err == "error: the path's total length exceeds the largest double\n"

    def test_zero_geom_tol_is_valid(self, capsys, tmp_path):
        path = write_path(tmp_path, "cross.json", [0.5, 2])
        code, out, _ = run(capsys, "oracle", "--path", path, "--geom-tol", "0")
        assert code == 0
        assert grab(out, "verdict") == "blocked"
        assert float(grab(out, "first_exit_t")) == pytest.approx(1 / 3, abs=1e-6)


class TestClassify:
    def test_continuable_with_witness(self, capsys, tmp_path):
        dest = tmp_path / "witness.json"
        code, out, _ = run(
            capsys,
            "classify",
            f"--omega={-math.e**2},0",
            "--m",
            "2",
            "--n",
            "3",
            "--out",
            str(dest),
        )
        assert code == 0
        assert grab(out, "verdict") == "continuable"
        expected = complex(2.0, 5 * math.pi)
        assert parse_pair(grab(out, "lift_end")) == pytest.approx(expected, abs=1e-9)

        # the saved witness is itself certified by the oracle
        code, out, _ = run(capsys, "oracle", "--path", str(dest))
        assert code == 0
        assert grab(out, "verdict") == "continuable"

    def test_blocked_writes_no_witness(self, capsys, tmp_path):
        dest = tmp_path / "none.json"
        code, out, _ = run(
            capsys, "classify", "--omega", "0.6", "--m", "0", "--n", "0",
            "--out", str(dest),
        )
        assert code == 0
        assert grab(out, "verdict") == "blocked"
        assert not dest.exists()

    def test_a_large_winding_index_routes_no_witness(self, capsys):
        # without --out no witness is read, so none is routed up the 10^8
        # turns of the staircase
        code, out, _ = run(capsys, "classify", "--omega=1,0", "--m=0", "--n=99999999")
        assert code == 0
        assert grab(out, "verdict") == "continuable"

    def test_off_slit_is_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "--omega", "2", "--m", "0", "--n", "0")
        assert code == 1
        assert "error:" in err

    def test_a_far_slit_index_is_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "--omega=2", "--m=1000", "--n=1001")
        assert code == 1
        assert out == ""
        assert err.startswith("error: NotOnSlit")

    def test_a_modulus_past_the_largest_double_is_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "--omega=1.5e308,1.5e308", "--m=710", "--n=711")
        assert (code, out) == (1, "")
        assert err.startswith("error: |omega| exceeds") and "Traceback" not in err

    def test_bad_omega_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--omega", "nope", "--m", "0", "--n", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("omega", ["1e400,0", "nan", "1,-inf", "inf,0"])
    def test_non_finite_omega_is_field_error(self, capsys, omega):
        code, out, err = run(capsys, "classify", f"--omega={omega}", "--m=0", "--n=1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --omega: expected a finite number")
        assert "Traceback" not in err


class TestTable:
    ARGS = ("table", "--m-range", "0:1", "--n-offsets", "0,1", "--samples", "2")

    def test_header_and_summary(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "M,N,omega_re,omega_im,lift_re,lift_im,verdict"
        assert lines[-1] == "theorem_b: PASS"
        # 2 M values x 2 offsets x (2 circle + 1 segment) samples
        assert len(lines) == 2 + 2 * 2 * 3

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_far_slits_pass(self, capsys):
        code, out, _ = run(capsys, "table", "--m-range=18:20")
        assert code == 0
        assert out.splitlines()[-1] == "theorem_b: PASS"

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--m-range", "q:1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "0"), ("--samples", "-3"), ("--m-range", "2:1")]
    )
    def test_empty_range_names_its_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "table", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}:")


class TestReach:
    def test_round_trip_through_oracle(self, capsys, tmp_path):
        dest = tmp_path / "route.json"
        code, out, _ = run(capsys, "reach", "--omega", "0,2", "--out", str(dest))
        assert code == 0
        assert out == "W=0\n"
        data = json.loads(dest.read_text())
        assert data["points"][0] == [0.5, 0.0]
        assert data["points"][-1] == pytest.approx([0.0, 2.0])

        code, out, _ = run(capsys, "oracle", "--path", str(dest))
        assert code == 0
        assert grab(out, "verdict") == "continuable"

    def test_negative_target_winds(self, capsys):
        code, out, _ = run(capsys, "reach", "--omega", f"{-math.e**3}")
        assert code == 0
        assert out.splitlines()[-1] == "W=3"

    def test_subnormal_target_winds(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(monodromy, "_spines", OrderedDict())
        code, out, _ = run(capsys, "reach", "--omega=1e-315", "--out", str(tmp_path / "r.json"))
        assert code == 0
        assert out == "W=-725\n"

    def test_origin_is_domain_error(self, capsys):
        code, _, err = run(capsys, "reach", "--omega", "0")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("omega", ["1e400,0", "nan", "1,-inf", "inf,0"])
    def test_non_finite_omega_is_field_error(self, capsys, omega):
        code, out, err = run(capsys, "reach", f"--omega={omega}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --omega: expected a finite number")
        assert "Traceback" not in err


class TestDemoExpExp:
    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "demo-expexp")
        assert code == 0
        assert grab(out, "branch_a") == "failed"
        assert abs(parse_pair(grab(out, "fail_point")) - 1.0) < 0.05
        assert grab(out, "branch_b") == "completed"
        expected = complex(math.log(TWO_PI), math.pi / 2)
        assert parse_pair(grab(out, "final_value")) == pytest.approx(expected, abs=1e-6)


class TestMapCommands:
    def test_build_map_nodes(self, capsys, tmp_path):
        dest = tmp_path / "nodes.csv"
        code, out, _ = run(
            capsys, "build-map", "--resolution", "64", "--out", str(dest)
        )
        assert code == 0
        assert float(grab(out, "base_image")) == 0.0
        n = int(grab(out, "nodes"))
        lines = dest.read_text().splitlines()
        assert lines[0] == "node_re,node_im"
        assert len(lines) == n + 1
        # boundary nodes stay inside the truncation box of the default domain
        # (columns -2..2, so x spans [-2, 3]; floor at 2*pi*(-2), roof at 8*pi)
        points = [parse_pair(line) for line in lines[1:]]
        assert all(-2 - 1e-9 <= p.real <= 3 + 1e-9 for p in points)
        assert all(-4 * math.pi - 1e-9 <= p.imag <= 8 * math.pi + 1e-9 for p in points)

    def test_build_map_warns_about_an_unfit_map(self, capsys):
        # two grid points of this map share one image (separation 0)
        code, out, err = run(capsys, "build-map", "--truncation=-3:1:8pi")
        assert code == 0
        assert out.startswith("node_re,node_im\n")
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert run(capsys, "map-report", "--truncation=-3:1:8pi")[1].count('"passed": false') == 1

    def test_build_map_is_quiet_on_the_default_map(self, capsys):
        code, out, err = run(capsys, "build-map")
        assert code == 0 and out.startswith("node_re,node_im\n") and err == ""

    def test_map_report_json(self, capsys):
        code, out, _ = run(capsys, "map-report", "--resolution", "64")
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {
            "interior_max_modulus",
            "boundary_min_modulus",
            "boundary_mean_modulus",
            "grid_injectivity_min_separation",
            "passed",
        }
        assert report["interior_max_modulus"] < 1.0
        assert report["grid_injectivity_min_separation"] > 0.0
        assert report["passed"] is True

    @pytest.mark.parametrize("command", ["map-report", "build-map"])
    @pytest.mark.parametrize("roof", ["inf", "nan"])
    def test_non_finite_roof_is_domain_error(self, capsys, command, roof):
        code, out, err = run(capsys, command, f"--truncation=-2:2:{roof}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: BadTruncation: y_max must be finite")
        assert "Traceback" not in err

    def test_bad_truncation(self, capsys):
        code, _, err = run(capsys, "map-report", "--truncation", "0:2")
        assert code == 2
        assert "error:" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys, segment_file):
        code, _, _ = run(capsys, "wind", "--path", segment_file, "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("map-report", "--resolution", "10"),
            ("build-map", "--resolution", "63"),
            ("demo-expexp", "--order", "0"),
            ("continue", "--order", "0"),
        ],
    )
    def test_out_of_range_names_its_flag(self, capsys, segment_file, argv):
        path = ("--path", segment_file) if argv[0] == "continue" else ()
        code, out, err = run(capsys, *argv, *path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[1]}: expected an integer >= ")

    def test_geom_tol_only_on_oracle(self, capsys, segment_file):
        code, _, _ = run(capsys, "wind", "--path", segment_file, "--geom-tol", "1e-9")
        assert code == 2

    def test_order_only_where_read(self, capsys, segment_file):
        code, _, _ = run(capsys, "wind", "--path", segment_file, "--order", "8")
        assert code == 2

    def test_out_only_where_read(self, capsys, segment_file, tmp_path):
        code, _, _ = run(capsys, "oracle", "--path", segment_file, "--out", str(tmp_path / "x"))
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "wind")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "wind", "--path", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "wind", "--path", str(bad))
        assert code == 2
        assert "error:" in err

    def test_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text('{"points": [[1, 2, 3]]}')
        code, _, err = run(capsys, "wind", "--path", str(bad))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("pair", ['["a", 1]', "[null, 1]", "[1, [2]]", "[1" + "0" * 400 + ", 0]"])
    def test_non_numeric_coordinate(self, capsys, tmp_path, pair):
        # a string, null, a list or an integer past the float range
        bad = tmp_path / "coords.json"
        bad.write_text(f'{{"points": [[0.5, 0], {pair}]}}')
        code, out, err = run(capsys, "wind", "--path", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --path: point 1 is not a pair of numbers")
