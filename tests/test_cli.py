"""Tests for the command-line interface."""
import json
import os
import subprocess
import sys

import pytest

from evtv import cli
from evtv.evalue import evalue_from_rr
from evtv.report import read_cohort_csv


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
