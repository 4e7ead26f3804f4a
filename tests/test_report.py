"""Tests for CSV parsing, JSON reports, and curve rendering."""
import dataclasses
import io
import json
import warnings

import pytest

from evtv import __version__
from evtv.estimation import MsmResult
from evtv.evalue import (
    EffectEstimate,
    TradeoffPoint,
    build_report,
    evalue_from_rr,
    tradeoff_curve,
)
from evtv.report import (
    CurveDocument,
    EmptyFile,
    MissingColumn,
    NonBinaryValue,
    curve_document,
    read_cohort_csv,
    write_analysis_json,
    write_cohort_csv,
    write_curve,
    write_experiment_json,
    write_replication_json,
    write_report_json,
)
from evtv.simulation import ReplicationResult, SimulationParams, run_experiment

from _per_row import cohort_from_rows, cohort_rows, read_cohort_rows

ROWS = [
    (0, 1, 0, 0, 1),
    (1, 0, 1, 1, 0),
    (1, 1, 1, 0, 1),
]
RECORDS = cohort_from_rows(ROWS)


class TestCohortCsv:
    def test_round_trip(self):
        text = write_cohort_csv(RECORDS)
        assert cohort_rows(read_cohort_csv(io.StringIO(text))) == ROWS

    def test_header_order_and_case_insensitive(self):
        text = "Y,A1,L1,A0,L0\n1,0,0,1,0\n"
        assert cohort_rows(read_cohort_csv(io.StringIO(text))) == [(0, 1, 0, 0, 1)]

    def test_crlf_and_byte_order_mark(self, tmp_path):
        text = "\ufeffl0,a0,l1,a1,y\r\n1,1,0,0,1\r\n"
        assert cohort_rows(read_cohort_csv(io.StringIO(text))) == [(1, 1, 0, 0, 1)]
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8-sig"))
        assert cohort_rows(read_cohort_csv(str(path))) == [(1, 1, 0, 0, 1)]

    def test_surrounding_whitespace_tolerated(self):
        text = "l0, a0,l1,a1,y\n 1 ,0,1,0, 1\n"
        assert cohort_rows(read_cohort_csv(io.StringIO(text))) == [(1, 0, 1, 0, 1)]

    def test_extra_columns_ignored_with_warning(self):
        text = "l0,a0,l1,a1,y,id\n0,0,0,0,1,s01\n"
        with pytest.warns(UserWarning, match="id"):
            records = read_cohort_csv(io.StringIO(text))
        assert cohort_rows(records) == [(0, 0, 0, 0, 1)]

    def test_missing_columns_named(self):
        text = "l0,a0,y\n0,0,1\n"
        with pytest.raises(MissingColumn, match="l1, a1"):
            read_cohort_csv(io.StringIO(text))

    def test_non_binary_cell_located(self):
        text = "l0,a0,l1,a1,y\n0,0,0,0,1\n0,0,2,0,1\n"
        with pytest.raises(NonBinaryValue, match="row 3, column l1"):
            read_cohort_csv(io.StringIO(text))

    def test_blank_cell_rejected(self):
        text = "l0,a0,l1,a1,y\n0,,0,0,1\n"
        with pytest.raises(NonBinaryValue, match="row 2, column a0"):
            read_cohort_csv(io.StringIO(text))

    def test_short_row_rejected(self):
        text = "l0,a0,l1,a1,y\n0,0,0\n"
        with pytest.raises(ValueError, match="row 2"):
            read_cohort_csv(io.StringIO(text))

    @pytest.mark.parametrize("body", ["1,0,1,0,1,1\n", "1,0,1,0,1,\n", '"1",0,1,0,1,1\n'])
    def test_wide_row_rejected(self, body):
        # on either parse path: the writer's layout, or row by row
        text = "l0,a0,l1,a1,y\n" + body
        with pytest.raises(ValueError, match="^row 2: expected 5 cells, got 6$"):
            read_cohort_csv(io.StringIO(text))

    @pytest.mark.parametrize("header, name", [
        ("l0,a0,l1,a1,y,Y", "y"), ("A0,l0,a0,l1,a1,y", "a0"), ("l0,a0,l1,a1,y, l1 ", "l1"),
    ])
    def test_repeated_cohort_column_rejected(self, header, name):
        # the writer's layout and a row-by-row body both fail before parsing
        for body in ("1,0,1,0,1,0\n", '"1",0,1,0,1,0\n'):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^cohort CSV repeats column {name}$"):
                    read_cohort_csv(io.StringIO(f"{header}\n{body}"))

    def test_repeated_extra_column_allowed(self):
        text = "l0,site,a0,l1,a1,y,site\n0,s1,0,0,0,1,s2\n"
        with pytest.warns(UserWarning, match="^ignoring extra cohort CSV columns: site, site$"):
            records = read_cohort_csv(io.StringIO(text))
        assert cohort_rows(records) == [(0, 0, 0, 0, 1)]

    @pytest.mark.parametrize("read", [
        lambda source: cohort_rows(read_cohort_csv(source)), read_cohort_rows,
    ], ids=["read_cohort_csv", "read_cohort_rows"])
    def test_empty_rows_skipped(self, read):
        for text in ("l0,a0,l1,a1,y\n0,1,0,1,1\n1,0,1,0,0\n\n",
                     "l0,a0,l1,a1,y\r\n\r\n0,1,0,1,1\r\n\r\n1,0,1,0,0\r\n"):
            assert read(io.StringIO(text)) == [(0, 1, 0, 1, 1), (1, 0, 1, 0, 0)]
        # row numbers still count the empty rows
        with pytest.raises(NonBinaryValue, match="^row 3, column l1: '2' is not 0 or 1$"):
            read(io.StringIO("l0,a0,l1,a1,y\n\n0,0,2,0,1\n"))
        for text in ("l0,a0,l1,a1,y\n\n", "l0,a0,l1,a1,y\n\n\r\n\n"):
            with pytest.raises(EmptyFile, match="^cohort CSV has no data rows$"):
                read(io.StringIO(text))

    def test_empty_inputs(self):
        with pytest.raises(EmptyFile):
            read_cohort_csv(io.StringIO(""))
        with pytest.raises(EmptyFile):
            read_cohort_csv(io.StringIO("l0,a0,l1,a1,y\n"))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(write_cohort_csv(RECORDS), encoding="utf-8")
        assert cohort_rows(read_cohort_csv(str(path))) == ROWS

    def test_stream_left_open(self):
        stream = io.StringIO(write_cohort_csv(RECORDS))
        read_cohort_csv(stream)
        assert not stream.closed


class TestReportJson:
    def _payload(self, **kwargs):
        e = EffectEstimate(**kwargs)
        return json.loads(write_report_json(build_report(e, 2)))

    def test_key_order(self):
        e = EffectEstimate(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
        text = write_report_json(build_report(e, 2))
        doc = json.loads(text)
        assert list(doc) == [
            "input",
            "timepoints",
            "normalized_rr",
            "inverted",
            "evalue_equal_split",
            "evalue_single",
            "ci_evalue_equal_split",
            "ci_evalue_single",
            "tool_version",
        ]
        assert list(doc["input"]) == [
            "measure",
            "value",
            "ci_lower",
            "ci_upper",
            "outcome_rare",
        ]
        assert text.endswith("\n")

    def test_ci_keys_omitted_without_interval(self):
        doc = self._payload(measure="rr", value=1.73)
        assert "ci_evalue_equal_split" not in doc
        assert "ci_evalue_single" not in doc
        assert "ci_lower" not in doc["input"]

    def test_values_round_trip_exactly(self):
        doc = self._payload(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
        assert doc["normalized_rr"] == 1.73
        assert doc["evalue_single"] == evalue_from_rr(1.73)

    def test_inversion_reported(self):
        doc = self._payload(measure="rr", value=0.5)
        assert doc["inverted"] is True
        assert doc["normalized_rr"] == pytest.approx(2.0, rel=1e-15)

    def test_curve_key_appended_last(self):
        e = EffectEstimate(measure="rr", value=1.73)
        doc = json.loads(write_report_json(build_report(e, 2, 5)))
        assert list(doc)[-1] == "curve"
        assert len(doc["curve"]) == 5
        assert list(doc["curve"][0]) == ["strength_t0", "strength_t1", "b0", "b1"]

    def test_analysis_json_shape(self):
        msm = MsmResult(
            rr_obs=0.8 / 0.4,
            p11=0.8,
            p00=0.4,
            weight_mean=1.01,
            weight_max=3.2,
            ci_lower=1.4,
            ci_upper=2.9,
        )
        e = EffectEstimate(measure="rr", value=msm.rr_obs, ci_lower=1.4, ci_upper=2.9)
        doc = json.loads(write_analysis_json(msm, build_report(e, 2)))
        assert list(doc) == ["estimate", "report"]
        assert list(doc["estimate"]) == [
            "rr_obs",
            "p11",
            "p00",
            "weight_mean",
            "weight_max",
            "ci_lower",
            "ci_upper",
        ]
        assert doc["estimate"]["rr_obs"] == pytest.approx(2.0, rel=1e-12)


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


PARAMS_KEYS = ["p_u0", "p_l0", "p_u1", "a0_model", "l1_model", "a1_model", "outcome_model", "n"]


class TestDocumentShapes:
    """The experiment and replication documents, byte for byte, against
    documents whose keys are written out here: key order, tuples as
    lists, and a missing value left out, never written as null."""

    @pytest.mark.parametrize("bootstrap", [0, 100])
    def test_experiment_json(self, bootstrap):
        rec = run_experiment(SimulationParams(n=200), 3, bootstrap)
        msm, rep = rec.msm, rec.report
        estimate = {"rr_obs": msm.rr_obs, "p11": msm.p11, "p00": msm.p00,
                    "weight_mean": msm.weight_mean, "weight_max": msm.weight_max}
        inp = {"measure": "rr", "value": msm.rr_obs}
        report = {"timepoints": 2, "normalized_rr": rep.normalized.rr,
                  "inverted": rep.normalized.inverted,
                  "evalue_equal_split": rep.evalue_equal_split,
                  "evalue_single": rep.evalue_single_timepoint}
        if bootstrap:
            estimate.update(ci_lower=msm.ci_lower, ci_upper=msm.ci_upper)
            inp.update(ci_lower=msm.ci_lower, ci_upper=msm.ci_upper)
            report.update(ci_evalue_equal_split=rep.ci_evalue_equal_split,
                          ci_evalue_single=rep.ci_evalue_single_timepoint)
        inp["outcome_rare"] = False
        expected = {
            "params": {k: getattr(rec.params, k) for k in PARAMS_KEYS},
            "seed": 3,
            "true_rr_mc": rec.true_rr_mc,
            "true_rr_enumerated": rec.true_rr_enumerated,
            "true_rr_enumerated_observed_l1": rec.true_rr_enumerated_observed_l1,
            "estimate": estimate,
            "report": {"input": inp, **report, "tool_version": __version__},
        }
        assert write_experiment_json(rec) == _dumped(expected)

    def test_replication_json(self):
        results = [
            ReplicationResult(seed=11, true_rr_mc=1.5, rr_obs=1.25, ci_lower=1.0,
                              ci_upper=1.75, weight_mean=1.0),
            ReplicationResult(seed=12, true_rr_mc=1.5, rr_obs=1.75, weight_mean=0.875),
            ReplicationResult(seed=13, true_rr_mc=2.0, error="positivity violated"),
            ReplicationResult(seed=14, error="true risk ratio undefined"),
        ]
        enumerated = {"true_rr_enumerated": 1.5, "true_rr_enumerated_observed_l1": 1.625}
        m = 5.0 / 3.0
        expected = {
            "params": {"p_u0": 0.25, "p_l0": 0.65, "p_u1": 0.7, "a0_model": [-0.8, 1.2, 1.0],
                       "l1_model": [-0.2, 0.8, 0.9], "a1_model": [-1.2, 1.0, 1.2, 0.8],
                       "outcome_model": [-0.5, 1.0, 1.2, 0.7, 0.8, 0.4, -0.7, -0.8],
                       "n": 40},
            "seed": 9,
            "summary": {"replications": 4, "failures": 2, "true_rr_mc_mean": m,
                        "true_rr_mc_sd": (((1.5 - m) ** 2 + (1.5 - m) ** 2
                                           + (2.0 - m) ** 2) / 2) ** 0.5,
                        "rr_obs_mean": 1.5, "rr_obs_sd": 0.125 ** 0.5},
            "enumerated": enumerated,
            "replications_detail": [
                {"seed": 11, "true_rr_mc": 1.5, "rr_obs": 1.25, "ci_lower": 1.0,
                 "ci_upper": 1.75, "weight_mean": 1.0},
                {"seed": 12, "true_rr_mc": 1.5, "rr_obs": 1.75, "weight_mean": 0.875},
                {"seed": 13, "true_rr_mc": 2.0, "error": "positivity violated"},
                {"seed": 14, "error": "true risk ratio undefined"},
            ],
        }
        text = write_replication_json(SimulationParams(p_u0=0.25, n=40), 9, results, enumerated)
        assert text == _dumped(expected)

    def test_replication_summary_keeps_nulls(self):
        # the summary is not a field copy: an undefined mean or sd is null
        results = [ReplicationResult(seed=5, error="true risk ratio undefined")]
        doc = json.loads(write_replication_json(SimulationParams(), 1, results, {}))
        assert doc["summary"] == {
            "replications": 1, "failures": 1, "true_rr_mc_mean": None,
            "true_rr_mc_sd": None, "rr_obs_mean": None, "rr_obs_sd": None,
        }
        assert doc["replications_detail"] == [{"seed": 5, "error": "true risk ratio undefined"}]

    @pytest.mark.parametrize("field", ["rr_obs", "ci_lower", "ci_upper", "weight_mean"])
    def test_failed_replication_has_no_estimate(self, field):
        # the document copies every field, so the class keeps a failed
        # replication's estimate out
        with pytest.raises(ValueError, match="carries no estimate"):
            ReplicationResult(seed=5, error="positivity violated", **{field: 1.0})

    @pytest.mark.parametrize("obj", [
        SimulationParams(),
        MsmResult(rr_obs=2.0, p11=0.8, p00=0.4, weight_mean=1.0, weight_max=2.0),
        EffectEstimate(measure="OR", value=0.8, ci_lower=0.6, ci_upper=1.2),
        TradeoffPoint(1.0, 2.0, 1.0, 1.5),
        ReplicationResult(seed=3, true_rr_mc=1.2, error="x"),
    ], ids=lambda obj: type(obj).__name__)
    def test_instance_dict_holds_exactly_the_fields_in_order(self, obj):
        assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]


class TestCurveDocument:
    def test_from_library_curve(self):
        points = tradeoff_curve(1.73, 9)
        doc = curve_document(1.73, points)
        assert doc.target_rr == 1.73
        assert doc.axis_max == evalue_from_rr(1.73)
        assert doc.points == tuple(points)

    def test_null_target_collapses_to_single_point(self):
        doc = curve_document(1.0, tradeoff_curve(1.0, 50))
        assert len(doc.points) == 1
        assert doc.points[0] == TradeoffPoint(1.0, 1.0, 1.0, 1.0)

    def test_unsorted_points_rejected(self):
        points = list(tradeoff_curve(1.73, 5))
        with pytest.raises(ValueError):
            CurveDocument(
                target_rr=1.73,
                target_label="point_estimate",
                points=tuple(reversed(points)),
                axis_max=evalue_from_rr(1.73),
            )

    def test_endpoint_mismatch_rejected(self):
        points = tradeoff_curve(1.73, 5)
        with pytest.raises(ValueError):
            CurveDocument(
                target_rr=1.73,
                target_label="point_estimate",
                points=tuple(points[1:]),
                axis_max=evalue_from_rr(1.73),
            )

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            curve_document(1.73, tradeoff_curve(1.73, 5), "posterior_mode")


class TestCurveCsv:
    def test_layout_and_full_precision(self):
        doc = curve_document(1.73, tradeoff_curve(1.73, 5))
        lines = write_curve(doc, "csv").splitlines()
        assert lines[0] == "strength_t0,strength_t1,b0,b1"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1.0"
        # repr round-trip: parsing the cell recovers the exact float
        assert float(first[1]) == evalue_from_rr(1.73)
        last = lines[-1].split(",")
        assert float(last[0]) == evalue_from_rr(1.73)
        assert last[3] == "1.0"

    def test_deterministic(self):
        doc = curve_document(2.02, tradeoff_curve(2.02, 40))
        assert write_curve(doc, "csv") == write_curve(doc, "csv")

    def test_unknown_format_rejected(self):
        doc = curve_document(1.5, tradeoff_curve(1.5, 3))
        with pytest.raises(ValueError):
            write_curve(doc, "png")


class TestCurveSvg:
    def test_structure(self):
        doc = curve_document(1.73, tradeoff_curve(1.73, 30))
        svg = write_curve(doc, "svg")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "risk ratio 1.73" in svg
        assert "<polyline" in svg
        assert 'fill="#c03030"' in svg or "circle" in svg
        assert "Joint confounder strength at time 0" in svg
        assert "Joint confounder strength at time 1" in svg

    def test_ci_limit_label(self):
        doc = curve_document(1.52, tradeoff_curve(1.52, 10), "ci_limit")
        assert "CI limit 1.52" in write_curve(doc, "svg")

    def test_byte_deterministic(self):
        doc = curve_document(1.9, tradeoff_curve(1.9, 80))
        assert write_curve(doc, "svg") == write_curve(doc, "svg")

    def test_degenerate_curve_has_no_polyline(self):
        doc = curve_document(1.0, tradeoff_curve(1.0, 10))
        svg = write_curve(doc, "svg")
        assert svg.startswith("<svg ")
        assert "<polyline" not in svg
