"""Command-line interface: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import itermellin
from itermellin.cli import _row_header, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_xi_22(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--theta", "riemann,riemann", "--s", "2,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["re"] - math.pi**2 / 72) < 1e-9
        assert payload["err"] < 1e-9

    def test_delta_central(self, capsys):
        code, out, _ = run(capsys, "eval", "--theta", "delta", "--s", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["re"]) and payload["warnings"] == []

    def test_lstar_evaluates_once(self, capsys, monkeypatch):
        from itermellin import engine
        from itermellin.theta import make_builtin_theta

        calls = []
        many = engine.lambda_eval_many

        def counted(*args, **kwargs):
            calls.append(args)
            return many(*args, **kwargs)

        monkeypatch.setattr(engine, "lambda_eval_many", counted)
        code, out, _ = run(
            capsys, "eval", "--theta", "delta", "--s", "6", "--lstar", "--format", "json"
        )
        assert code == 0 and len(calls) == 1
        expr = engine.build_expression((make_builtin_theta("delta"),))
        value, err = engine.lstar_eval(expr, (6,))
        payload = json.loads(out)
        assert (payload["re"], payload["im"], payload["err"]) == (value.real, value.imag, err)

    def test_pole_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--theta", "riemann", "--s", "1")
        assert code == 3
        assert "s1-1" in err

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--theta", "riemann", "--s", "1,2,3")
        assert code == 2
        code, _, _ = run(capsys, "eval", "--theta", "nope", "--s", "1")
        assert code == 2

    def test_tuple_length_cap(self, capsys):
        code, out, _ = run(capsys, "poles", "--theta", ",".join(["riemann"] * 8),
                           "--format", "json")
        assert code == 0 and json.loads(out)
        code, _, err = run(capsys, "eval", "--theta", ",".join(["riemann"] * 9),
                           "--s", ",".join(["2"] * 9))
        assert code == 2
        assert "theta tuple of length 9: at most 8 thetas are supported" in err

    def test_complex_token(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--theta", "riemann", "--s", "0.5+1.0i", "--format", "json"
        )
        assert code == 0

    def test_pair_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--theta", "riemann", "--s", "0.5,1.0", "--format", "json"
        )
        assert code == 0
        a = json.loads(out)
        code, out, _ = run(
            capsys, "eval", "--theta", "riemann", "--s", "0.5+1.0i", "--format", "json"
        )
        assert json.loads(out) == a

    def test_theta_family_tokens(self, capsys):
        for tok in ("eisenstein:4", "jacobi:3", "theta+", "theta-"):
            code, _, _ = run(capsys, "eval", "--theta", tok, "--s", "1.25", "--format", "json")
            assert code == 0

    def test_human_output_of_a_complex_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--theta", "riemann", "--s", "2+1i")
        assert code == 0
        lines = out.splitlines()
        # mpmath: pi^(-s/2) Gamma(s/2) zeta(s) = 0.123330275125913 - 0.29924564421218i
        assert lines[:2] == ["Lambda(riemann; 2 + 1i)",
                             "  value          = 0.123330275126 - 0.299245644212i"]
        assert lines[2].startswith("  error estimate = ")
        assert lines[3:] == ["  nearest pole   : s1-1 = 0  (distance 1.41421)"]

    def test_human_output_near_a_pole(self, capsys):
        code, out, _ = run(capsys, "eval", "--theta", "riemann", "--s", "1.0005")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Lambda(riemann; 1.0005)"
        assert lines[1].startswith("  value          = 1999.02")
        assert lines[2].startswith("  error estimate = ")
        assert lines[3:] == ["  nearest pole   : s1-1 = 0  (distance 0.0005)",
                             "  warning: within 5.00e-04 of pole hyperplane s1-1 = 0"]

    def test_json_determinism(self, capsys):
        args = ("eval", "--theta", "riemann,riemann", "--s", "2.3,1.1", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestResidue:
    def test_paper_values(self, capsys):
        code, out, _ = run(
            capsys,
            "residue",
            "--theta",
            "riemann,riemann",
            "--hyperplane",
            "0,1:0",
            "--at",
            "3,0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        code, out, _ = run(
            capsys, "eval", "--theta", "riemann", "--s", "3", "--format", "json"
        )
        xi3 = json.loads(out)["re"]
        assert abs(payload["re"] + xi3) < 1e-9

    def test_diagonal(self, capsys):
        code, out, _ = run(
            capsys,
            "residue",
            "--theta",
            "riemann,riemann",
            "--hyperplane",
            "1,1:0",
            "--at",
            "3,-3",
            "--format",
            "json",
        )
        assert code == 0
        assert abs(json.loads(out)["re"] + 1 / 3) < 1e-10

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "residue", "--theta", "riemann,riemann",
                           "--hyperplane", "1,1:0", "--at", "3,-3")
        assert code == 0
        assert out == ("Res_{s1+s2 = 0} Lambda(riemann,riemann) at (3, -3) = -0.333333333333"
                       "  (error estimate 0.000e+00)\n")

    def test_malformed_hyperplane(self, capsys):
        code, _, _ = run(
            capsys,
            "residue",
            "--theta",
            "riemann,riemann",
            "--hyperplane",
            "banana",
            "--at",
            "3,0",
        )
        assert code == 2

    def test_point_off_hyperplane_exits_2(self, capsys):
        code, _, err = run(capsys, "residue", "--theta", "riemann,riemann",
                           "--hyperplane", "0,1:0", "--at", "3,1")
        assert code == 2
        assert "does not lie on the hyperplane" in err

    def test_intersection_of_hyperplanes_exits_3(self, capsys):
        code, _, err = run(capsys, "residue", "--theta", "riemann,riemann",
                           "--hyperplane", "0,1:0", "--at", "0,0")
        assert code == 3
        assert err.startswith("pole: ")

    def test_json_carries_the_error_estimate(self, capsys):
        code, out, _ = run(capsys, "residue", "--theta", "riemann,riemann,riemann",
                           "--hyperplane", "0,1,1:0", "--at", "2.5,1.5,-1.5", "--format", "json")
        assert code == 0
        err = json.loads(out)["err"]
        assert math.isfinite(err) and err >= 0.0


class TestPoles:
    def test_r3(self, capsys):
        code, out, _ = run(
            capsys, "poles", "--theta", "riemann,riemann,riemann", "--format", "json"
        )
        assert code == 0
        got = set(json.loads(out)["poles"])
        assert got == {"s1-1", "s1+s2-2", "s1+s2+s3-3", "s1+s2+s3", "s2+s3", "s3"}

    def test_delta_empty(self, capsys):
        code, out, _ = run(capsys, "poles", "--theta", "delta")
        assert code == 0 and "entire" in out

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "poles", "--theta", "riemann,riemann")
        assert code == 0
        assert out == "s1+s2 = 0\ns1+s2-2 = 0\ns1-1 = 0\ns2 = 0\n"


class TestVerify:
    def test_shuffle_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "shuffle",
            "--seed",
            "7",
            "--trials",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["defect"] < 1e-8 for c in payload["cases"])

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "mzv", "--seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6 and lines[-1] == "5/5 cases passed"
        assert lines[0].startswith("[PASS] mzv :: pi*Lambda(theta+;1) = -8 log 2  (defect ")
        assert all(line.startswith("[PASS] mzv :: ") and line.endswith(")") for line in lines[:5])

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_unknown_suite_lists_the_suites(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2 and out == ""
        assert err == (
            "error: unknown suite 'nope'; known: functional, shuffle, residues, "
            "eisenstein-id, mzv, qsums, eichler, binding, all\n"
        )

    def test_deterministic_json(self, capsys):
        args = ("verify", "--suite", "residues", "--seed", "5", "--trials", "3",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be at least 1, got 0"),
        ("--trials", "-1", "trials must be at least 1, got -1"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ], ids=["trials-0", "trials-minus-1", "seed-minus-1"])
    def test_verify_that_checks_nothing_exits_2(self, capsys, flag, value, message):
        """A run of no trials would pass having evaluated nothing, and numpy
        would reject a negative seed without naming it."""
        code, out, err = run(capsys, "verify", "--suite", "functional", f"{flag}={value}")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestTable:
    def test_critical_segment_symmetry(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--theta",
            "riemann",
            "--grid",
            "0.1:0.9:0.1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s1_re,s1_im,re,im,err,pole"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        vals = {round(float(r[0]), 6): float(r[2]) for r in rows}
        for s in (0.1, 0.2, 0.3, 0.4):
            assert abs(vals[s] - vals[round(1 - s, 6)]) < 1e-9

    def test_grid_crossing_pole(self, capsys):
        code, out, _ = run(
            capsys, "table", "--theta", "riemann", "--grid", "0.5:1.5:0.25", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        flags = [int(r[-1]) for r in rows]
        assert flags.count(1) == 1  # the s = 1 row

    def test_two_slot_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--theta",
            "riemann,riemann",
            "--grid",
            "2:3:0.25;2:3:0.25",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s1_re,s1_im,s2_re,s2_im,re,im,err,pole"
        assert len(lines) == 26  # header + 5*5

    def test_json_rows_equal_csv_rows(self, capsys):
        """JSON rows carry the CSV header's keys and the CSV row's values,
        a pole cell included."""
        grid = ("table", "--theta", "riemann", "--grid", "0.5:1.5:0.5/0:0.5:0.5")
        code, out, _ = run(capsys, *grid, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        code, out, _ = run(capsys, *grid, "--format", "csv")
        header, *lines = out.strip().splitlines()
        assert header.split(",") == _row_header(1)
        assert len(rows) == len(lines) == 6
        for row, line in zip(rows, lines):
            assert set(row) == set(_row_header(1))
            assert [row[key] for key in _row_header(1)] == [float(x) for x in line.split(",")]
        assert [row["pole"] for row in rows] == [0, 0, 1, 0, 0, 0]

    def test_grid_too_large(self, capsys):
        code, _, _ = run(
            capsys, "table", "--theta", "riemann", "--grid", "0:10000:0.01"
        )
        assert code == 2

    def test_csv_determinism(self, capsys):
        args = ("table", "--theta", "riemann", "--grid", "0.2:0.8:0.2", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_eval_csv_is_a_one_cell_table(self, capsys):
        code, one, _ = run(capsys, "eval", "--theta", "riemann,jacobi3", "--s=2+0.5i,1.5-0.25i",
                           "--format", "csv")
        assert code == 0
        code, cell, _ = run(capsys, "table", "--theta", "riemann,jacobi3",
                            "--grid=2:2:1/0.5:0.5:1;1.5:1.5:1/-0.25:-0.25:1", "--format", "csv")
        assert code == 0
        assert one == cell
        assert one.splitlines()[0] == "s1_re,s1_im,s2_re,s2_im,re,im,err,pole"
        assert one.splitlines()[1].startswith("2.0,0.5,1.5,-0.25,")


class TestNumericFailure:
    def test_unreachable_tolerance_exits_4(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--theta",
            "riemann",
            "--s",
            "2",
            "--tol",
            "1e-16",
            "--order",
            "4",
            "--max-refine",
            "1",
        )
        assert code == 4
        assert "numeric failure" in err

    def test_huge_slot_value_fails_by_name_alone(self):
        """A slot value that overflows the bounds, the affine rows of the
        plan or a word integral exits 4 with the named failure as the whole
        of stderr: no numpy warning before it.  Run in a process of its own, as pytest
        would capture the warnings."""
        src = str(Path(itermellin.__file__).parents[1])
        no_horizon = "no horizon satisfies the truncation bound"
        for theta, point, failure in (
                ("riemann,riemann", "--s=1e308,2", no_horizon),
                ("riemann,riemann", "--s=1e308+1e308i,2", no_horizon),
                # t^399 overflows on the mesh before the theta factor is applied
                ("riemann", "--s=400", "word integral overflows on the mesh [1, 32]")):
            argv = ["eval", "--theta", theta, point]
            done = subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
                 f"from itermellin.cli import main; sys.exit(main({argv!r}))"],
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 4, point
            assert done.stderr == f"numeric failure: {failure}\n"

    def test_bad_tolerance_is_parse_error(self, capsys):
        for bad in (["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--max-refine", "0"],
                    ["--max-refine", "13"]):
            code, _, err = run(capsys, "eval", "--theta", "riemann", "--s", "2", *bad)
            assert code == 2, bad
            assert "must be" in err


class TestNonFiniteAndOversizedInput:
    def test_non_finite_slot_values_exit_2(self, capsys):
        for point in ("nan,2", "2,nan+1i", "inf,2", "2,-infi", "2,0,-inf,0", "2,0,1,nan"):
            code, _, err = run(capsys, "eval", "--theta", "riemann,riemann", f"--s={point}")
            assert code == 2 and "not finite" in err, point
        code, _, err = run(capsys, "residue", "--theta", "riemann,riemann",
                           "--hyperplane", "0,1:0", "--at", "2,nan")
        assert code == 2 and "not finite" in err

    def test_non_finite_axis_exits_2(self, capsys):
        for grid in ("nan:1:0.5", "0:inf:0.5", "0:1:nan", "1:2:0.5/0:nan:1"):
            code, _, err = run(capsys, "table", "--theta", "riemann", f"--grid={grid}")
            assert code == 2 and "non-finite" in err, grid

    def test_cell_count_checked_before_the_axes_are_built(self, capsys):
        """An axis, a slot's product of axes, or a span that overflows is
        refused before its list is formed (2e6 points would take ~60 MB)."""
        import tracemalloc

        grids = {"riemann": ["0:2e6:1", "1:2:0.5/0:1e3:0.001", "-1e308:1e308:1"],
                 "riemann,riemann": ["0:300:1;0:400:1"]}
        tracemalloc.start()
        try:
            for tup, specs in grids.items():
                for grid in specs:
                    code, _, err = run(capsys, "table", "--theta", tup, f"--grid={grid}")
                    assert code == 2 and "exceeds the 1e5 limit" in err, grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestListThetas:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "list-thetas", "--format", "json")
        assert code == 0
        names = {e["name"] for e in json.loads(out)["thetas"]}
        assert {"riemann", "delta", "jacobi2", "jacobi3", "jacobi4",
                "theta_plus", "theta_minus", "eisenstein4"} <= names
        assert [e["name"] for e in json.loads(out)["thetas"]] == [
            "riemann", "eisenstein4", "eisenstein6", "eisenstein8", "delta",
            "theta_plus", "theta_minus", "jacobi2", "jacobi3", "jacobi4"]

    def test_every_listed_name_is_a_token(self, capsys):
        code, out, _ = run(capsys, "list-thetas", "--format", "json")
        assert code == 0
        for name in (e["name"] for e in json.loads(out)["thetas"]):
            code, out, err = run(capsys, "eval", "--theta", name, "--s", "1.25", "--format", "json")
            assert code == 0 and err == "", name
            assert math.isfinite(json.loads(out)["re"]), name


class TestThetaTokens:
    @pytest.mark.parametrize("theta,message", [
        ("foo:3", "unknown theta family 'foo'"),
        ("jacobi:5", "jacobi kind must be 2, 3 or 4"),
        ("eisenstein:5", "eisenstein weight must be an even integer >= 4"),
        ("eisenstein:24", "eisenstein weight must be at most 22"),
        ("eisenstein:1000", "eisenstein weight must be at most 22"),
        ("eisenstein:x", "bad theta parameter in 'eisenstein:x'"),
        ("nope", "unknown builtin theta 'nope'"),
        ("eisenstein", "eisenstein requires a weight parameter"),
        (" , ", "empty theta tuple"),
    ], ids=["unknown-family", "jacobi-5", "eisenstein-5", "eisenstein-24", "eisenstein-1000",
            "eisenstein-x", "unknown-name",
            "eisenstein-no-weight", "empty-tuple"])
    def test_bad_token_exits_2(self, capsys, theta, message):
        code, out, err = run(capsys, "eval", f"--theta={theta}", "--s", "2")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestCommandOptions:
    """A command accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["poles", "--theta", "riemann", "--tol", "nan"],
        ["poles", "--theta", "riemann", "--order", "2"],
        ["list-thetas", "--max-refine", "3"],
        ["poles", "--theta", "riemann", "--format", "csv"],
        ["residue", "--theta", "riemann,riemann", "--hyperplane", "0,1:0", "--at", "3,0",
         "--format", "csv"],
        ["verify", "--suite", "mzv", "--format", "csv"],
        ["list-thetas", "--format", "csv"],
        ["table", "--theta", "riemann", "--grid=2:3:0.5", "--format", "human"],
    ])
    def test_unread_option_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: " in err

    def test_table_defaults_to_csv(self, capsys):
        grid = ("table", "--theta", "riemann", "--grid=2:3:0.5")
        assert run(capsys, *grid) == run(capsys, *grid, "--format", "csv")


class TestFileTheta:
    def test_eval_from_file(self, tmp_path, capsys):
        path = tmp_path / "rie.theta"
        path.write_text(
            "name riemann_file\nweight 1\nsign +1\ndual self\n"
            "kernel gauss scale 3.141592653589793\npoly 1 0\nfreq default\n"
            "coeffs 2 2 2 2 2 2 2 2 2 2 2 2\ngrowth 2 0\n"
        )
        code, out, _ = run(
            capsys, "eval", "--theta", f"file:{path}", "--s", "2", "--format", "json"
        )
        assert code == 0
        assert abs(json.loads(out)["re"] - math.pi / 6) < 1e-9

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "--theta", "file:/nonexistent.theta", "--s", "2")
        assert code == 2
        assert err.startswith("error: cannot load theta from '/nonexistent.theta': ")


class TestVerifyAll:
    def test_all_suites_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--seed", "3", "--trials", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        suites_seen = {c["suite"] for c in payload["cases"]}
        assert suites_seen == {
            "functional", "shuffle", "residues", "eisenstein-id",
            "mzv", "qsums", "eichler", "binding",
        }


class TestOutputFile:
    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "eval",
            "--theta",
            "riemann",
            "--s",
            "2",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert abs(payload["re"] - math.pi / 6) < 1e-10


class TestParserReuse:
    def test_no_state_between_calls(self, tmp_path, capsys):
        """main parses every call with one parser per process; a call's
        options must not carry into the next, so a run of calls gives what
        a fresh parser per call gives."""
        from itermellin import cli

        assert cli.build_parser() is cli.build_parser()
        calls = [
            ["eval", "--theta", "delta", "--s", "6", "--tol", "1e-6", "--order", "16",
             "--format", "json", "--out", str(tmp_path / "a.json")],
            ["eval", "--theta", "delta", "--s", "6"],
            ["table", "--theta", "riemann", "--grid=2:3:0.5", "--format", "csv"],
            ["poles", "--theta", "riemann,riemann", "--format", "json",
             "--out", str(tmp_path / "b.json")],
            ["eval", "--theta", "delta", "--s", "6", "--format", "json"],
            ["eval", "--theta", "delta"],
            ["verify", "--suite", "shuffle", "--trials", "1", "--format", "json"],
            ["list-thetas"],
        ]

        def outcomes(fresh):
            got = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}
                for p in tmp_path.iterdir():
                    p.unlink()
                got.append((code, captured.out, captured.err, files))
            return got

        shared, fresh = outcomes(False), outcomes(True)
        assert shared == fresh
        assert [g[0] for g in shared] == [0, 0, 0, 0, 0, 2, 0, 0]
        # --out, --format, --tol and --order of one call stay with it
        assert shared[1][1].startswith("Lambda(delta; 6)") and not shared[1][3]
        assert json.loads(shared[4][1])["err"] != json.loads(shared[0][3]["a.json"])["err"]


class TestStartup:
    def test_import_loads_no_scipy(self):
        """scipy loads on first use, in the oracles that need it, not with
        the command line: a one-off eval does not pay for it."""
        src = str(Path(itermellin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
             "import itermellin.cli; assert 'scipy' not in sys.modules, 'scipy'"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "--theta", "riemann", "--s", "2"),
    ("verify", "--suite", "mzv", "--seed", "0"),
], ids=["eval", "verify"])
def test_unwritable_out_exits_2_with_one_line(capsys, tmp_path, argv):
    """An --out that cannot be written is a bad request: one stderr line and
    exit 2, apart from exit 1, a verification that fails."""
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()
