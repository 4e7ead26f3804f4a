"""Tests for CSV parsing, JSON reports, and curve rendering."""
import io
import json

import pytest

from evtv.estimation import CohortRecord, MsmResult
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
    write_report_json,
)

RECORDS = [
    CohortRecord(0, 1, 0, 0, 1),
    CohortRecord(1, 0, 1, 1, 0),
    CohortRecord(1, 1, 1, 0, 1),
]


class TestCohortCsv:
    def test_round_trip(self):
        text = write_cohort_csv(RECORDS)
        assert read_cohort_csv(io.StringIO(text)) == RECORDS

    def test_header_order_and_case_insensitive(self):
        text = "Y,A1,L1,A0,L0\n1,0,0,1,0\n"
        assert read_cohort_csv(io.StringIO(text)) == [CohortRecord(0, 1, 0, 0, 1)]

    def test_crlf_and_byte_order_mark(self, tmp_path):
        text = "\ufeffl0,a0,l1,a1,y\r\n1,1,0,0,1\r\n"
        assert read_cohort_csv(io.StringIO(text)) == [CohortRecord(1, 1, 0, 0, 1)]
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8-sig"))
        assert read_cohort_csv(str(path)) == [CohortRecord(1, 1, 0, 0, 1)]

    def test_surrounding_whitespace_tolerated(self):
        text = "l0, a0,l1,a1,y\n 1 ,0,1,0, 1\n"
        assert read_cohort_csv(io.StringIO(text)) == [CohortRecord(1, 0, 1, 0, 1)]

    def test_extra_columns_ignored_with_warning(self):
        text = "l0,a0,l1,a1,y,id\n0,0,0,0,1,s01\n"
        with pytest.warns(UserWarning, match="id"):
            records = read_cohort_csv(io.StringIO(text))
        assert records == [CohortRecord(0, 0, 0, 0, 1)]

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

    def test_empty_inputs(self):
        with pytest.raises(EmptyFile):
            read_cohort_csv(io.StringIO(""))
        with pytest.raises(EmptyFile):
            read_cohort_csv(io.StringIO("l0,a0,l1,a1,y\n"))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(write_cohort_csv(RECORDS), encoding="utf-8")
        assert read_cohort_csv(str(path)) == RECORDS

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
