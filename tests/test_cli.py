"""Tests for the command-line interface."""
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import pytest

from evtv import cli, report, simulation
from evtv.estimation import MAX_BOOTSTRAP_REPLICATES
from evtv.evalue import MAX_CURVE_POINTS, MAX_TIMEPOINTS, NormalizedEstimate, evalue_from_rr
from evtv.report import read_cohort_csv
from evtv.simulation import MAX_COHORT_SIZE, MAX_REPLICATIONS

from _per_row import OFF_CALIBRATION_ROWS


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalueCommand:
    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "evalue",
            "--measure", "rr",
            "--value", "1.73",
            "--lo", "1.52",
            "--hi", "1.99",
            "--timepoints", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["normalized_rr"] == 1.73
        assert doc["evalue_single"] == evalue_from_rr(1.73)
        assert doc["input"]["ci_lower"] == 1.52
        assert "curve" not in doc

    def test_human_output_two_decimals(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evalue",
            "--measure", "rr",
            "--value", "1.73",
            "--lo", "1.52",
            "--hi", "1.99",
            "--timepoints", "2",
            "--human",
        )
        assert code == 0
        assert "1.96" in out
        assert "2.85" in out
        assert "1.77" in out
        assert "2.41" in out

    def test_curve_requested(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evalue",
            "--measure", "rr",
            "--value", "1.73",
            "--timepoints", "2",
            "--curve", "7",
        )
        assert code == 0
        assert len(json.loads(out)["curve"]) == 7

    def test_curve_dropped_for_three_timepoints(self, capsys):
        code, out, err = run_cli(
            capsys,
            "evalue",
            "--measure", "rr",
            "--value", "1.73",
            "--timepoints", "3",
            "--curve", "7",
        )
        assert code == 0
        assert "curve" not in json.loads(out)
        assert "two time points" in err

    @pytest.mark.parametrize("timepoints, message", [
        ("0", "timepoints must be >= 1, got 0"),
        (str(MAX_TIMEPOINTS + 1), "timepoints must be <= MAX_TIMEPOINTS"),
    ])
    def test_invalid_timepoints_print_no_curve_note(self, capsys, timepoints, message):
        # the time points are checked before the curve, whose note about
        # output that an invalid command never produces would come first
        code, out, err = run_cli(capsys, "evalue", "--measure", "rr", "--value", "2",
                                 "--timepoints", timepoints, "--curve", "5")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    def test_too_few_curve_points_exits_2(self, capsys, points):
        code, out, err = run_cli(capsys, "evalue", "--measure", "rr", "--value", "1.73",
                                 "--timepoints", "2", "--curve", points)
        assert (code, out) == (2, "")
        assert err == f"error: n_points must be >= 2, got {points}\n"

    def test_invalid_value_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "evalue", "--measure", "rr", "--value", "0", "--timepoints", "1"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--measure", "rr", "--value", "inf"],
            ["--measure", "rr", "--value", "1e-320"],  # inverts to inf
            ["--measure", "hr", "--value", "1e300"],  # transform overflows
        ],
    )
    def test_non_finite_estimate_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "evalue", *argv, "--timepoints", "2")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evalue", "--measure", "rr", "--value", "1e200", "--timepoints", "2", "--human"],
            ["evalue", "--measure", "rr", "--value", "1e200", "--timepoints", "2"],
            ["evalue", "--measure", "or", "--value", "1e-320", "--timepoints", "1"],
            ["curve", "--rr", "1e300"],
        ],
    )
    def test_evalue_overflow_exits_2(self, capsys, argv):
        # finite risk ratios above ~1.3e154 have no finite E-value
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "overflows" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--rr", "1e154"],
            ["curve", "--rr", "1.34e154"],
            ["evalue", "--measure", "rr", "--value", "1e154", "--timepoints", "2", "--curve", "40"],
        ],
    )
    def test_largest_finite_evalues_exit_0(self, capsys, argv):
        # the E-value is finite although the squared curve strengths are not
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert "inf" not in out

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "evalue", "--measure", "rr", "--value", "1.5")
        assert code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "evalue",
            "--measure", "rr",
            "--value", "1.73",
            "--timepoints", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["normalized_rr"] == 1.73


class TestConvertCommand:
    def test_round_trips_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--measure", "or", "--value", "2.25")
        assert code == 0
        assert float(out.strip()) == 1.5

    def test_rare_outcome_passthrough(self, capsys):
        _, out, _ = run_cli(
            capsys, "convert", "--measure", "or", "--value", "1.375", "--rare"
        )
        assert out.strip() == "1.375"


class TestCurveCommand:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--rr", "1.73", "--points", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "strength_t0,strength_t1,b0,b1"
        assert len(lines) == 5

    def test_svg_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--rr", "1.73", "--points", "10", "--format", "svg"
        )
        assert code == 0
        assert out.startswith("<svg ")
        assert "risk ratio 1.73" in out

    def test_limit_switches_target(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "curve",
            "--rr", "1.73",
            "--limit", "1.52",
            "--points", "10",
            "--format", "svg",
        )
        assert "CI limit 1.52" in out

    def test_too_few_points_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--rr", "1.73", "--points", "1")
        assert code == 2

    @pytest.mark.parametrize("rr, limit, message", [
        ("-1", "1.5", "rr_target must be >= 1"),
        ("nan", "1.5", "rr_target must be a number, got nan"),
        ("1e300", "1.5", "its E-value overflows a float"),
        ("1.2", "5", "limit 5.0 is above the risk ratio 1.2"),
        ("1.5", "0.5", "limit must be >= 1"),
        ("1.5", "nan", "limit must be a number, got nan"),
    ])
    def test_limit_needs_a_valid_rr_above_it(self, capsys, rr, limit, message):
        code, out, err = run_cli(capsys, "curve", "--rr", rr, "--limit", limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        # a refused --rr is refused as without --limit; a refused --limit is not its --rr's fault
        assert run_cli(capsys, "curve", "--rr", rr)[0] == (0 if "limit" in message else 2)

    @pytest.mark.parametrize("excess", [0.0, 1e-13, 9e-13, 2e-12, 1e-9])
    def test_limit_tolerance_is_the_normalized_estimates(self, capsys, excess):
        limit = 1.2 * (1.0 + excess)
        try:
            NormalizedEstimate(rr=1.2, ci_limit_rr=limit, inverted=False, ci_crosses_null=False)
            want = 0
        except ValueError:
            want = 2
        code, _, _ = run_cli(capsys, "curve", "--rr", "1.2", "--limit", repr(limit),
                             "--points", "3")
        assert code == want


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--n", "150", "--seed", "3", "--bootstrap", "0")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 3
        assert doc["params"]["n"] == 150

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("EVTV_SEED", "99")
        _, out, _ = run_cli(capsys, "simulate", "--n", "120", "--bootstrap", "0")
        assert json.loads(out)["seed"] == 99

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EVTV_SEED", "99")
        _, out, _ = run_cli(
            capsys, "simulate", "--n", "120", "--seed", "4", "--bootstrap", "0"
        )
        assert json.loads(out)["seed"] == 4

    def test_bad_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EVTV_SEED", "lucky")
        code, _, err = run_cli(capsys, "simulate", "--n", "120", "--bootstrap", "0")
        assert code == 2
        assert "EVTV_SEED" in err

    def test_param_override(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "simulate",
            "--n", "150",
            "--seed", "3",
            "--bootstrap", "0",
            "--param", "p_u0=0.25",
            "--param", "a1_model=-1.2,1.0,1.2,0",
        )
        doc = json.loads(out)
        assert doc["params"]["p_u0"] == 0.25
        assert doc["params"]["a1_model"] == [-1.2, 1.0, 1.2, 0.0]

    def test_param_n_override(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--seed", "3", "--bootstrap", "0", "--param", "n=130"
        )
        assert json.loads(out)["params"]["n"] == 130

    def test_unknown_param_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--bootstrap", "0", "--param", "gamma=1"
        )
        assert code == 2
        assert "gamma" in err

    def test_malformed_param_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--bootstrap", "0", "--param", "p_u0")
        assert code == 2

    @pytest.mark.parametrize("name, value", [
        ("outcome_model", "nan,0,0,0,0,0,0,0"),
        ("a0_model", "inf,0,0"),
    ])
    def test_non_finite_coefficient_exits_2(self, capsys, name, value):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "60", "--bootstrap", "0", "--param", f"{name}={value}"
        )
        assert code == 2
        assert err.startswith(f"error: {name} coefficients must be finite")

    def test_generator_overflow_is_silent(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "300", "--bootstrap", "0",
            "--param", "a1_model=0,0,0,-800",
        )
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("bootstrap, message", [
        ("50", "replicates must be >= 100, got 50"),
        ("-1", "replicates must be >= 100, got -1"),
        (str(MAX_BOOTSTRAP_REPLICATES + 1), "replicates must be <= MAX_BOOTSTRAP_REPLICATES"),
    ])
    def test_bootstrap_checked_before_drawing(self, capsys, monkeypatch, bootstrap, message):
        def undrawn(params, seeds):
            raise AssertionError("drew a cohort before checking --bootstrap")

        monkeypatch.setattr(simulation, "_draw_cohorts", undrawn)
        code, out, err = run_cli(capsys, "simulate", "--n", "60", "--bootstrap", bootstrap)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_cohort_out(self, capsys, tmp_path):
        path = tmp_path / "cohort.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--n", "80",
            "--seed", "5",
            "--bootstrap", "0",
            "--cohort-out", str(path),
        )
        assert code == 0
        assert len(read_cohort_csv(str(path))) == 80
        assert json.loads(out)["params"]["n"] == 80

    def test_failed_run_writes_no_cohort_file(self, capsys, tmp_path):
        # the cohort of seed 198 has no event under the never-treated regime
        path = tmp_path / "cohort.csv"
        argv = ("simulate", "--n", "4", "--seed", "198", "--bootstrap", "0",
                "--cohort-out", str(path))
        message = "error: no events under the never-treated regime; the risk ratio is undefined\n"
        assert run_cli(capsys, *argv) == (2, "", message)
        assert not path.exists()
        path.write_bytes(b"kept\n")
        assert run_cli(capsys, *argv) == (2, "", message)
        assert path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_exits_2(self, capsys, reps):
        code, out, err = run_cli(capsys, "simulate", "--n", "60", "--bootstrap", "0",
                                 "--reps", reps)
        assert (code, out) == (2, "")
        assert err == f"error: replications must be >= 1, got {reps}\n"

    def test_cohort_out_with_replications_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--n", "80",
            "--bootstrap", "0",
            "--reps", "2",
            "--cohort-out", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_replication_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--n", "200",
            "--seed", "6",
            "--bootstrap", "0",
            "--reps", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["replications"] == 3
        assert doc["summary"]["failures"] == 0
        assert len(doc["replications_detail"]) == 3
        assert "true_rr_enumerated" in doc["enumerated"]


class TestAnalyzeCommand:
    def _cohort_file(self, capsys, tmp_path, n=300, seed=8):
        path = tmp_path / "cohort.csv"
        run_cli(
            capsys,
            "simulate",
            "--n", str(n),
            "--seed", str(seed),
            "--bootstrap", "0",
            "--cohort-out", str(path),
            "--out", str(tmp_path / "sim.json"),
        )
        return path

    def test_matches_simulate_estimate(self, capsys, tmp_path):
        sim_out = tmp_path / "sim.json"
        cohort = tmp_path / "cohort.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--n", "400",
            "--seed", "9",
            "--bootstrap", "100",
            "--cohort-out", str(cohort),
            "--out", str(sim_out),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--input", str(cohort),
            "--bootstrap", "100",
            "--seed", "9",
        )
        assert code == 0
        sim_doc = json.loads(sim_out.read_text())
        an_doc = json.loads(out)
        assert an_doc["estimate"] == sim_doc["estimate"]
        assert an_doc["report"] == sim_doc["report"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "/nonexistent.csv")
        assert code == 2

    @pytest.mark.parametrize("where, row", [("cell", 3), ("header", 1)])
    def test_field_over_csv_limit_exits_2(self, capsys, tmp_path, where, row):
        # csv refuses a field over 131,072 characters with csv.Error, which is
        # not a ValueError: a quoted data cell, and an extra column's name
        long = "1" * 200_000
        text = {"cell": f'l0,a0,l1,a1,y\n0,1,0,1,0\n1,0,1,0,"{long}"\n',
                "header": f"l0,a0,l1,a1,y,{long}\n0,1,0,1,0,5\n"}[where]
        path = tmp_path / "long.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--bootstrap", "0")
        assert (code, out) == (2, "")
        assert err == f"error: row {row}: field larger than field limit (131072)\n"

    def test_estimation_failure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "one_arm.csv"
        rows = ["l0,a0,l1,a1,y"] + ["0,1,0,%d,%d" % (i % 2, (i + 1) % 2) for i in range(20)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path), "--bootstrap", "0")
        assert code == 3
        assert "estimation error"in err

    def test_separated_point_estimate_exits_3(self, capsys, tmp_path):
        # generate_cohort(SimulationParams(n=4), 198): the treatment fits
        # separate, the rule that also rejects such a bootstrap replicate
        path = tmp_path / "four.csv"
        path.write_text("l0,a0,l1,a1,y\n1,0,1,1,1\n0,0,0,0,0\n1,1,0,1,1\n0,0,1,1,0\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--bootstrap", "0")
        assert code == 3
        assert "separated" in err
        assert out == ""

    def test_off_calibration_weights_warn(self, capsys, tmp_path):
        path = tmp_path / "off_calibration.csv"
        rows = ["l0,a0,l1,a1,y"] + [",".join(map(str, r)) for r in OFF_CALIBRATION_ROWS]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--bootstrap", "0")
        assert code == 0
        assert err == (
            "warning: mean stabilized weight 1.678 outside [0.8, 1.2]; "
            "check the treatment models\n"
        )
        assert json.loads(out)["estimate"]["weight_mean"] == pytest.approx(1.678, abs=5e-4)

    def test_curve_included(self, capsys, tmp_path):
        path = self._cohort_file(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--input", str(path),
            "--bootstrap", "0",
            "--curve", "5",
        )
        assert code == 0
        assert len(json.loads(out)["report"]["curve"]) == 5

    @pytest.mark.parametrize("argv, message", [
        (["--curve", "1"], "n_points must be >= 2, got 1"),
        (["--curve", "-5"], "n_points must be >= 2, got -5"),
        (["--curve", str(MAX_CURVE_POINTS + 1)], "n_points must be <= MAX_CURVE_POINTS"),
        (["--bootstrap", "50"], "replicates must be >= 100, got 50"),
        (["--bootstrap", str(MAX_BOOTSTRAP_REPLICATES + 1)],
         "replicates must be <= MAX_BOOTSTRAP_REPLICATES"),
        (["--bootstrap", "-1"], "replicates must be >= 100, got -1"),
        (["--bootstrap", "99"], "replicates must be >= 100, got 99"),
        (["--bootstrap", "0", "--seed", "-1"],
         "seed must fit in an unsigned 64-bit integer, got -1"),
        (["--bootstrap", "100", "--seed", str(2**64)],
         f"seed must fit in an unsigned 64-bit integer, got {2**64}"),
    ])
    def test_sizes_checked_before_reading(self, capsys, monkeypatch, argv, message):
        def unread(source):
            raise AssertionError(f"read {source} before checking sizes")

        monkeypatch.setattr(report, "read_cohort_csv", unread)
        code, out, err = run_cli(capsys, "analyze", "--input", "cohort.csv", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_timepoints_flag_refused_before_reading(self, capsys, monkeypatch):
        # the report is for the cohort's two time points; there is no flag to set them
        def unread(source):
            raise AssertionError(f"read {source} before parsing the flags")

        monkeypatch.setattr(report, "read_cohort_csv", unread)
        code, out, err = run_cli(capsys, "analyze", "--input", "cohort.csv",
                                 "--timepoints", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --timepoints 2" in err

    def test_seed_checked_before_reading(self, capsys, monkeypatch):
        def unread(source):
            raise AssertionError(f"read {source} before resolving the seed")

        monkeypatch.setattr(report, "read_cohort_csv", unread)
        monkeypatch.setenv("EVTV_SEED", "x")
        code, out, err = run_cli(capsys, "analyze", "--input", "absent.csv", "--bootstrap", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: EVTV_SEED must be an integer, got 'x'")

    def test_env_seed_range_checked_without_bootstrap(self, capsys, monkeypatch):
        def unread(source):
            raise AssertionError(f"read {source} before checking the seed")

        monkeypatch.setattr(report, "read_cohort_csv", unread)
        monkeypatch.setenv("EVTV_SEED", "-1")
        code, out, err = run_cli(capsys, "analyze", "--input", "absent.csv", "--bootstrap", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must fit in an unsigned 64-bit integer, got -1")


class TestTopLevel:
    def test_no_command_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["prognosticate"]) == 2
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "evtv" in capsys.readouterr().out


def run_fresh(*argv: str) -> tuple[int, str, str]:
    """The command run by `python -m evtv.cli` in a new interpreter, which
    builds its own parser, with EVTV_SEED unset."""
    env = {k: v for k, v in os.environ.items() if k != "EVTV_SEED"}
    proc = subprocess.run([sys.executable, "-m", "evtv.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestSharedParser:
    """`main` parses every call with one parser per process, so no call may
    leave state in it that shows in a later call's output."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_param_does_not_accumulate(self, capsys, monkeypatch):
        monkeypatch.delenv("EVTV_SEED", raising=False)
        argv = ("simulate", "--n", "60", "--bootstrap", "0")
        overridden = run_cli(capsys, *argv, "--param", "p_u0=0.25")
        plain = run_cli(capsys, *argv)
        assert overridden[0] == 0
        assert overridden[1] != plain[1]
        assert plain == run_fresh(*argv)
        assert cli.build_parser().parse_args(["simulate"]).param == []

    def test_rare_and_limits_do_not_carry_over(self, capsys):
        argv = ("evalue", "--measure", "or", "--value", "1.38", "--timepoints", "2")
        run_cli(capsys, *argv, "--rare", "--lo", "1.07", "--hi", "1.77")
        code, out, err = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert doc["input"] == {"measure": "or", "value": 1.38, "outcome_rare": False}
        assert not {"ci_evalue_equal_split", "ci_evalue_single"} & doc.keys()
        assert (code, out, err) == run_fresh(*argv)

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--version"], 0, "out", "evtv "),
        (["evalue", "--measure", "xx", "--value", "1", "--timepoints", "2"], 2, "err",
         "evtv evalue: error: argument --measure: invalid choice: 'xx'"),
    ])
    def test_argparse_output_follows_current_streams(self, capsys, argv, code, stream, text):
        """argparse's version and usage text go to the streams of the call
        that prints them, not to those of the call that built the parser."""
        assert cli.main(argv) == code
        first = capsys.readouterr()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == code
        assert (out.getvalue(), err.getvalue()) == (first.out, first.err)
        assert text in getattr(first, stream)
        assert capsys.readouterr() == ("", "")


class TestSizeCaps:
    """A size one past its cap exits 2 naming the cap, and is refused before
    anything of that size is allocated: the call peaks below 1 MiB, where
    the refused work would take tens of megabytes."""

    @pytest.mark.parametrize("argv, cap", [
        (["analyze", "--bootstrap", str(MAX_BOOTSTRAP_REPLICATES + 1)],
         "MAX_BOOTSTRAP_REPLICATES"),
        (["analyze", "--bootstrap", "0", "--curve", str(MAX_CURVE_POINTS + 1)],
         "MAX_CURVE_POINTS"),
        (["curve", "--rr", "1.73", "--points", str(MAX_CURVE_POINTS + 1)], "MAX_CURVE_POINTS"),
        (["evalue", "--measure", "rr", "--value", "1.73", "--timepoints", "2",
          "--curve", str(MAX_CURVE_POINTS + 1)], "MAX_CURVE_POINTS"),
        (["simulate", "--bootstrap", "0", "--n", str(MAX_COHORT_SIZE + 1)], "MAX_COHORT_SIZE"),
        (["simulate", "--bootstrap", "0", "--param", f"n={MAX_COHORT_SIZE + 1}"],
         "MAX_COHORT_SIZE"),
        (["simulate", "--bootstrap", "0", "--reps", str(MAX_REPLICATIONS + 1)],
         "MAX_REPLICATIONS"),
        (["evalue", "--measure", "rr", "--value", "2", "--timepoints", str(MAX_TIMEPOINTS + 1)],
         "MAX_TIMEPOINTS"),
        (["evalue", "--measure", "rr", "--value", "2", "--timepoints", "1" + "0" * 400,
          "--curve", "5"], "MAX_TIMEPOINTS"),
    ])
    def test_cap_fires_before_allocating(self, capsys, tmp_path, argv, cap):
        if argv[0] == "analyze":
            cohort = tmp_path / "cohort.csv"
            run_cli(capsys, "simulate", "--n", "200", "--seed", "8", "--bootstrap", "0",
                    "--cohort-out", str(cohort))
            argv = argv + ["--input", str(cohort)]
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert cap in err
        assert peak < 1 << 20

    def test_input_beyond_the_memory_limit_exits_2(self, tmp_path):
        # a header and then 1 GiB of NUL bytes in a sparse file, analyzed in a
        # child whose address space is capped at 400 MiB: numpy's import fits,
        # reading the file does not
        cohort = tmp_path / "huge.csv"
        with open(cohort, "wb") as fh:
            fh.write(b"l0,a0,l1,a1,y\n")
            fh.truncate(1 << 30)

        def cap_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, hard))

        env = {k: v for k, v in os.environ.items() if k != "EVTV_SEED"}
        proc = subprocess.run(
            [sys.executable, "-m", "evtv.cli", "analyze", "--input", str(cohort),
             "--bootstrap", "0"],
            capture_output=True, text=True, env=env, preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), lines

    def test_timepoints_at_the_cap_run(self, capsys):
        # so many time points leave no confounding per point: rr ** (1 / T) is 1
        code, out, _ = run_cli(capsys, "evalue", "--measure", "rr", "--value", "2",
                               "--timepoints", str(MAX_TIMEPOINTS))
        assert code == 0
        assert json.loads(out)["evalue_equal_split"] == 1.0


class TestInstalledEntryPoint:
    """Exercise the installed console script end to end."""

    def test_version_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evtv.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_pipeline_subprocess(self, tmp_path):
        env = dict(os.environ)
        env.pop("EVTV_SEED", None)
        cohort = tmp_path / "cohort.csv"
        sim = subprocess.run(
            [
                sys.executable, "-m", "evtv.cli",
                "simulate", "--n", "120", "--seed", "2", "--bootstrap", "0",
                "--cohort-out", str(cohort),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert sim.returncode == 0, sim.stderr
        ana = subprocess.run(
            [
                sys.executable, "-m", "evtv.cli",
                "analyze", "--input", str(cohort), "--bootstrap", "0",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert ana.returncode == 0, ana.stderr
        sim_doc = json.loads(sim.stdout)
        ana_doc = json.loads(ana.stdout)
        assert ana_doc["estimate"]["rr_obs"] == sim_doc["estimate"]["rr_obs"]
