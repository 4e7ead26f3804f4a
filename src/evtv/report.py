"""Cohort CSV ingestion, JSON report emission, and trade-off curve output
as CSV or a self-contained SVG.

All writers are pure functions returning text, deterministic down to the
byte for identical inputs.  A JSON document copies the fields of the
result dataclasses in declaration order and leaves a missing (None) value
out rather than writing null.  JSON numbers rely on Python's shortest
round-trip float formatting, so documents parse back to exactly the
values that were written, and NaN or infinity is refused rather than
written as invalid JSON; two-decimal display is left to consumers.
"""
from __future__ import annotations

import codecs
import csv
import io
import json
import re
import warnings
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Literal, Optional, Union

from . import __version__
from .evalue import (
    EValueReport,
    TradeoffPoint,
    equal_split_evalue,
    evalue_from_rr,
)

if TYPE_CHECKING:
    from .estimation import Cohort, MsmResult

__all__ = [
    "CurveDocument",
    "MissingColumn",
    "NonBinaryValue",
    "EmptyFile",
    "read_cohort_csv",
    "write_cohort_csv",
    "write_report_json",
    "write_curve",
    "curve_document",
    "write_experiment_json",
    "write_analysis_json",
    "write_replication_json",
]

COHORT_COLUMNS = ("l0", "a0", "l1", "a1", "y")

CurveFormat = Literal["csv", "svg"]
TargetLabel = Literal["point_estimate", "ci_limit"]


class MissingColumn(ValueError):
    """The cohort CSV header lacks one or more required columns."""


class NonBinaryValue(ValueError):
    """A cohort CSV cell holds something other than 0 or 1."""


class EmptyFile(ValueError):
    """The cohort CSV has no header or no data rows."""


@dataclass(frozen=True)
class CurveDocument:
    """A trade-off curve ready for rendering.

    target_label records whether the curve explains away the point
    estimate or a confidence limit.  axis_max is the single-timepoint
    E-value of the target, the natural plotting bound for both axes.
    """

    target_rr: float
    target_label: TargetLabel
    points: tuple[TradeoffPoint, ...]
    axis_max: float

    def __post_init__(self) -> None:
        if self.target_label not in ("point_estimate", "ci_limit"):
            raise ValueError(f"unknown target_label {self.target_label!r}")
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("curve document needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if b.strength_t0 < a.strength_t0:
                raise ValueError("curve points must be sorted by strength_t0")
        first, last = pts[0], pts[-1]
        if first.strength_t0 != 1.0 or last.strength_t1 != 1.0:
            raise ValueError("curve endpoints must attribute everything to one time point")
        if abs(first.strength_t1 - self.axis_max) > 1e-9 * self.axis_max or abs(
            last.strength_t0 - self.axis_max
        ) > 1e-9 * self.axis_max:
            raise ValueError("curve endpoints disagree with axis_max")


def curve_document(
    target_rr: float,
    points: Iterable[TradeoffPoint],
    target_label: TargetLabel = "point_estimate",
) -> CurveDocument:
    """Assemble a CurveDocument, collapsing consecutive duplicate points
    (a null target degenerates to the single point (1, 1))."""
    deduped: list[TradeoffPoint] = []
    for p in points:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    return CurveDocument(
        target_rr=float(target_rr),
        target_label=target_label,
        points=tuple(deduped),
        axis_max=evalue_from_rr(target_rr),
    )


def read_cohort_csv(source: Union[str, IO[str]]) -> Cohort:
    """Parse a cohort CSV file or text stream into a Cohort, preserving
    file order; a stream is read to its end and left open.

    The header must name l0, a0, l1, a1, y once each (case-insensitive,
    any order); extra columns are ignored with a warning.  Every row has
    one cell per header name, and cells must be the integers 0 or 1;
    empty rows are skipped.  Row numbers in errors count the header as
    row 1.  The input is held once, as one UTF-8 byte buffer.  A body in
    write_cohort_csv's layout (one-character cells, "\n" line ends) is
    parsed in that buffer in one vectorised pass, any other body row by row.
    """
    import numpy as np

    from .estimation import Cohort

    if hasattr(source, "read"):
        data = np.frombuffer(source.read().encode(), dtype=np.uint8).copy()
    else:
        data = np.fromfile(source, dtype=np.uint8)
        # a file is read as utf-8-sig: one leading byte order mark is dropped
        if data[:3].tobytes() == codecs.BOM_UTF8:
            data = data[3:]
    # a line and its end, "\r\n", "\r", "\n" or none at the end of the text
    # (compiled here, not at import, which the E-value commands also pay)
    line_at = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)?").match
    end = 0

    def lines():
        # the buffer's lines, split as a newline="" text stream splits
        # them; end follows the bytes that csv.reader has taken
        nonlocal end
        while end < data.size:
            line = line_at(data, end)
            end = line.end()
            yield line.group().decode("utf-8")

    try:
        header = next(csv.reader(lines()))
    except StopIteration:
        raise EmptyFile("cohort CSV has no header row") from None
    # a byte order mark survives stream inputs decoded as plain utf-8
    names = [h.lstrip("\ufeff").strip().lower() for h in header]
    missing = [c for c in COHORT_COLUMNS if c not in names]
    if missing:
        raise MissingColumn(f"cohort CSV is missing columns: {', '.join(missing)}")
    twice = [c for c in COHORT_COLUMNS if names.count(c) > 1]
    if twice:
        raise ValueError(f"cohort CSV repeats column {twice[0]}")
    extra = [h for h in names if h not in COHORT_COLUMNS]
    if extra:
        warnings.warn(f"ignoring extra cohort CSV columns: {', '.join(extra)}", stacklevel=2)
    positions = [names.index(c) for c in COHORT_COLUMNS]
    body = data[end:]
    # XOR with the layout "0,0,...,0\n" maps a "0"/"1" cell to 0/1 and a
    # matching separator to 0; every other byte gives a value above 0 or 1.
    # It runs in place, and a second XOR restores the text.
    layout = np.frombuffer(("0," * len(names))[:-1].encode() + b"\n", dtype=np.uint8)
    if body.size and body.size % layout.size == 0:
        grid = body.reshape(-1, layout.size)
        grid ^= layout
        if grid.max() <= 1 and not grid[:, 1::2].any():
            return Cohort(*(grid[:, 2 * p] for p in positions))
        grid ^= layout
    values = bytearray()
    rows = csv.reader(io.StringIO(str(body, "utf-8"), newline=""))
    for rownum, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise ValueError(f"row {rownum}: expected {len(names)} cells, got {len(row)}")
        for col, pos in zip(COHORT_COLUMNS, positions):
            cell = row[pos].strip()
            if cell not in ("0", "1"):
                raise NonBinaryValue(f"row {rownum}, column {col}: {cell!r} is not 0 or 1")
            values.append(cell == "1")
    if not values:
        raise EmptyFile("cohort CSV has no data rows")
    return Cohort(*np.frombuffer(values, dtype=np.uint8).reshape(-1, len(COHORT_COLUMNS)).T)


def write_cohort_csv(cohort: Cohort) -> str:
    """Serialize a cohort to CSV text; inverse of read_cohort_csv.  The
    text of _cohort_csv_blocks, decoded once."""
    return str(b"".join(_cohort_csv_blocks(cohort)), "ascii")


def _cohort_csv_blocks(cohort: Cohort) -> Iterator[bytes]:
    """The cohort's CSV as bytes: the header, then the rows of each
    _kernels.SUBJECT_BLOCK subjects, "\n"-terminated one-character cells,
    filled into one reused block buffer."""
    import numpy as np

    from ._kernels import SUBJECT_BLOCK

    yield (",".join(COHORT_COLUMNS) + "\n").encode()
    n = len(cohort)
    buf = np.full((min(n, SUBJECT_BLOCK), 2 * len(COHORT_COLUMNS)), ord(","), dtype=np.uint8)
    buf[:, -1] = ord("\n")
    for start in range(0, n, SUBJECT_BLOCK):
        grid = buf[:min(n - start, SUBJECT_BLOCK)]
        for j, column in enumerate(cohort.columns):
            np.add(column[start:start + SUBJECT_BLOCK], ord("0"), out=grid[:, 2 * j])
        yield grid.tobytes()


def _present(doc: dict) -> dict:
    """doc less its None values."""
    return {k: v for k, v in doc.items() if v is not None}


def _fields(obj) -> dict:
    """A result dataclass's fields in declaration order, None ones left out."""
    return _present(vars(obj))


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _report_payload(report: EValueReport) -> dict:
    doc = {
        "input": _fields(report.estimate),
        "timepoints": report.timepoints,
        "normalized_rr": report.normalized.rr,
        "inverted": report.normalized.inverted,
        "evalue_equal_split": report.evalue_equal_split,
        "evalue_single": report.evalue_single_timepoint,
        "ci_evalue_equal_split": report.ci_evalue_equal_split,
        "ci_evalue_single": report.ci_evalue_single_timepoint,
        "tool_version": __version__,
        "curve": None if report.curve is None else [_fields(p) for p in report.curve],
    }
    return _present(doc)


def write_report_json(report: EValueReport) -> str:
    """Emit the E-value report as stable-key-order JSON; without a
    confidence interval its keys are absent, so presence encodes availability."""
    return _dumps(_report_payload(report))


def write_experiment_json(record) -> str:
    """Serialize one simulation experiment, including both enumeration
    conventions so the L1 convention gap stays visible."""
    return _dumps({
        "params": _fields(record.params),
        "seed": record.seed,
        "true_rr_mc": record.true_rr_mc,
        "true_rr_enumerated": record.true_rr_enumerated,
        "true_rr_enumerated_observed_l1": record.true_rr_enumerated_observed_l1,
        "estimate": _fields(record.msm),
        "report": _report_payload(record.report),
    })


def write_analysis_json(msm: MsmResult, report: EValueReport) -> str:
    """Serialize an observed-data analysis: the MSM fit plus its E-value report."""
    return _dumps({"estimate": _fields(msm), "report": _report_payload(report)})


def write_replication_json(params, seed: int, results, enumerated: dict) -> str:
    """Serialize a replication study: per-replication numbers plus summaries."""
    ok = [r for r in results if r.error is None]
    rr_true = [r.true_rr_mc for r in results if r.true_rr_mc is not None]
    rr_obs = [r.rr_obs for r in ok]
    # not a field copy: an undefined mean or sd is written as null
    summary = {
        "replications": len(results),
        "failures": len(results) - len(ok),
        "true_rr_mc_mean": _mean(rr_true),
        "true_rr_mc_sd": _sd(rr_true),
        "rr_obs_mean": _mean(rr_obs),
        "rr_obs_sd": _sd(rr_obs),
    }
    return _dumps({
        "params": _fields(params),
        "seed": seed,
        "summary": summary,
        "enumerated": enumerated,
        "replications_detail": [_fields(r) for r in results],
    })


def _mean(values) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _sd(values) -> Optional[float]:
    if len(values) < 2:
        return None
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def write_curve(doc: CurveDocument, format: CurveFormat = "csv") -> str:
    """Render a curve document as CSV rows or a self-contained SVG."""
    if format == "csv":
        return _curve_csv(doc)
    if format == "svg":
        return _curve_svg(doc)
    raise ValueError(f"format must be 'csv' or 'svg', got {format!r}")


def _curve_csv(doc: CurveDocument) -> str:
    lines = ["strength_t0,strength_t1,b0,b1"]
    for p in doc.points:
        lines.append(f"{p.strength_t0!r},{p.strength_t1!r},{p.b0!r},{p.b1!r}")
    return "\n".join(lines) + "\n"


# fixed geometry so identical documents render to identical bytes
_SVG_SIZE = 560
_SVG_MARGIN_LEFT = 72
_SVG_MARGIN_BOTTOM = 64
_SVG_MARGIN_TOP = 28
_SVG_MARGIN_RIGHT = 28


def _curve_svg(doc: CurveDocument) -> str:
    size = _SVG_SIZE
    x0, y0 = _SVG_MARGIN_LEFT, size - _SVG_MARGIN_BOTTOM
    x1, y1 = size - _SVG_MARGIN_RIGHT, _SVG_MARGIN_TOP
    span = max(doc.axis_max - 1.0, 1e-9)

    def px(v: float) -> float:
        return x0 + (v - 1.0) / span * (x1 - x0)

    def py(v: float) -> float:
        return y0 - (v - 1.0) / span * (y0 - y1)

    target_name = (
        "risk ratio" if doc.target_label == "point_estimate" else "CI limit"
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="18" text-anchor="middle" font-size="14">'
        f"Unmeasured confounding needed to explain away {target_name} "
        f"{doc.target_rr:.2f}</text>",
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    ticks = 5
    for i in range(ticks + 1):
        v = 1.0 + span * i / ticks
        tx, ty = px(v), py(v)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20}" text-anchor="middle" font-size="11">'
            f"{v:.2f}</text>"
        )
        parts.append(
            f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{ty + 4:.2f}" text-anchor="end" font-size="11">'
            f"{v:.2f}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{size - 16}" text-anchor="middle" '
        f'font-size="13">Joint confounder strength at time 0</text>'
    )
    parts.append(
        f'<text x="20" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:.1f})">'
        f"Joint confounder strength at time 1</text>"
    )
    parts.append(
        f'<line x1="{px(1.0):.2f}" y1="{py(1.0):.2f}" x2="{px(doc.axis_max):.2f}" '
        f'y2="{py(doc.axis_max):.2f}" stroke="#999999" stroke-dasharray="4 3"/>'
    )
    if len(doc.points) > 1:
        coords = " ".join(
            f"{px(p.strength_t0):.2f},{py(p.strength_t1):.2f}" for p in doc.points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb4" stroke-width="1.8"/>'
        )
    # the equal-split point, where the diagonal meets the curve
    eq = equal_split_evalue(doc.target_rr, 2)
    parts.append(
        f'<circle cx="{px(eq):.2f}" cy="{py(eq):.2f}" r="3.5" fill="#c23b22"/>'
    )
    parts.append(
        f'<text x="{px(eq) + 8:.2f}" y="{py(eq) - 8:.2f}" font-size="11" '
        f'fill="#c23b22">{eq:.2f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
