"""Property tests: E-value overflow, the trade-off curve, normalization
symmetry, the cohort CSV round trip and reader, and fuzzed command lines."""
import contextlib
import io
import os
import re
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtv import cli
from evtv.evalue import (
    ConfounderStrength,
    EffectEstimate,
    bias_factor,
    evalue_from_rr,
    normalize_estimate,
    tradeoff_curve,
)
from evtv.report import read_cohort_csv, write_cohort_csv

from _per_row import cohort_from_rows, cohort_rows, read_cohort_rows


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1.0, allow_infinity=False))
@example(1e154)  # E finite, but E * E overflows
@example(1.3e154)
@example(1.35e154)  # E overflows
@example(sys.float_info.max)
def test_evalue_is_finite_and_reconstructs_rr_or_refused(rr):
    try:
        e = evalue_from_rr(rr)
    except ValueError as exc:
        assert "overflows" in str(exc)
        return
    assert e < float("inf")
    assert bias_factor(ConfounderStrength(e, e)).value == pytest.approx(rr, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=1.34e154), st.integers(min_value=2, max_value=60))
@example(1e154, 40)  # s0 * s0 overflows at the top of the grid
@example(1.34e154, 2)
def test_tradeoff_curve_is_finite_wherever_the_evalue_is(rr, n):
    points = tradeoff_curve(rr, n)
    assert len(points) == n
    for p in points:
        assert max(p.strength_t0, p.strength_t1, p.b0, p.b1) < float("inf")
        assert p.b0 * p.b1 == pytest.approx(rr, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300).filter(lambda x: x != 1.0))
def test_normalization_is_symmetric_under_inversion(x):
    a = normalize_estimate(EffectEstimate(measure="rr", value=x))
    b = normalize_estimate(EffectEstimate(measure="rr", value=1.0 / x))
    assert a.rr == pytest.approx(b.rr, rel=1e-12)
    assert a.inverted != b.inverted


_bit = st.integers(0, 1)


_rows = st.lists(st.tuples(_bit, _bit, _bit, _bit, _bit), min_size=1, max_size=200)


@settings(max_examples=100, deadline=None)
@given(_rows)
def test_cohort_csv_round_trip(rows):
    cohort = cohort_from_rows(rows)
    assert cohort_rows(read_cohort_csv(io.StringIO(write_cohort_csv(cohort)))) == rows


@st.composite
def _mutated_cohort_csv(draw):
    """write_cohort_csv text of a drawn cohort, then any of: reordered or
    upper-cased headers, an extra column (which may repeat a cohort
    column's name), quoted or padded cells, a bad cell, a short row, a
    long row, a row with another delimiter, CRLF ends, a BOM, a trailing
    blank line or no final line end."""
    rows = draw(st.lists(st.tuples(_bit, _bit, _bit, _bit, _bit), min_size=0, max_size=30))
    text = write_cohort_csv(cohort_from_rows(rows)) if rows else "l0,a0,l1,a1,y\n"
    grid = [line.split(",") for line in text.splitlines()]
    if draw(st.booleans()):
        order = draw(st.permutations(range(5)))
        grid = [[line[k] for k in order] for line in grid]
    if draw(st.booleans()):
        grid[0] = [h.upper() if draw(st.booleans()) else h for h in grid[0]]
    if draw(st.booleans()):
        at = draw(st.integers(0, 5))
        name = draw(st.sampled_from(["site", "id", "Y2", "y", "L1"]))
        cell = st.sampled_from(["0", "1", "s01", "", "12", "a b"])
        grid = [line[:at] + [name if i == 0 else draw(cell)] + line[at:]
                for i, line in enumerate(grid)]
    body = range(1, len(grid))
    for wrap in ('"{}"', " {} ", "{} "):
        if len(grid) > 1 and draw(st.booleans()):
            for i in draw(st.sets(st.sampled_from(body), max_size=5)):
                j = draw(st.integers(0, len(grid[i]) - 1))
                grid[i][j] = wrap.format(grid[i][j])
    if len(grid) > 1 and draw(st.booleans()):
        i = draw(st.sampled_from(body))
        grid[i][draw(st.integers(0, len(grid[i]) - 1))] = draw(
            st.sampled_from(["2", "x", "", "01", "-1"]))
    if len(grid) > 1 and draw(st.booleans()):
        i = draw(st.sampled_from(body))
        grid[i] = grid[i][:draw(st.integers(0, len(grid[i]) - 1))]
    if len(grid) > 1 and draw(st.booleans()):
        i = draw(st.sampled_from(body))
        grid[i] = grid[i] + draw(st.lists(st.sampled_from(["0", "1", ""]), min_size=1, max_size=2))
    delimiters = [","] * len(grid)
    if len(grid) > 1 and draw(st.booleans()):
        delimiters[draw(st.sampled_from(body))] = draw(st.sampled_from(["-", ";", "\t"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(d.join(line) for d, line in zip(delimiters, grid)) + end
    if draw(st.booleans()):
        text = "\ufeff" + text
    tail = draw(st.sampled_from(["", "blank", "unterminated"]))
    if tail == "blank":
        text += end
    elif tail == "unterminated":
        text = text[:-len(end)]
    return text


def _read_outcome(read, source):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(source)
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(_mutated_cohort_csv(), st.booleans())
# in the writer's layout but for "-" separators, which the fast path's XOR
# maps to 1, not 0; the random draws reach this only now and then
@example("l0,a0,l1,a1,y\n0-1-0-1-0\n", False)
def test_reader_matches_row_by_row_reference(text, from_path):
    """The columnar reader returns the reference reader's rows, or raises
    the same exception class with the same message, with the same
    warnings, on canonical and mutated files, from a stream or a path."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cohort.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        source = (lambda: path) if from_path else (lambda: io.StringIO(text))
        got, got_warnings = _read_outcome(read_cohort_csv, source())
        want, want_warnings = _read_outcome(read_cohort_rows, source())
    if not isinstance(got, tuple):
        got = cohort_rows(got)
    assert got == want
    assert got_warnings == want_warnings


# values every flag may receive, well-formed or not
_ANY = ["inf", "-inf", "nan", "1e-320", "1e300", "-1e300", "-1", "-2.5", "0", "abc", ""]
_FLOATS = _ANY + ["0.5", "1", "1.38", "1.73", "2"]
# sizes stay small enough that no example allocates much
_SMALL_INTS = _ANY + ["1", "2", "3"]
# model coefficients, with logits of +-1e3: one below about -709 overflows the
# math.exp of the true-risk-ratio enumeration
_COEFFS = _FLOATS + ["1e3", "-1e3"]
_FLAGS = {
    "evalue": {
        "--measure": ["rr", "or", "hr", "xx"], "--value": _FLOATS, "--lo": _FLOATS,
        "--hi": _FLOATS, "--rare": None, "--timepoints": _SMALL_INTS,
        "--curve": _ANY + ["2", "7", "50"], "--human": None, "--out": ["{out}"],
    },
    "convert": {
        "--measure": ["rr", "or", "hr"], "--value": _FLOATS, "--lo": _FLOATS,
        "--hi": _FLOATS, "--rare": None, "--out": ["{out}"],
    },
    "curve": {
        "--rr": _FLOATS, "--limit": _FLOATS, "--points": _ANY + ["2", "9", "50"],
        "--format": ["csv", "svg", "png"], "--out": ["{out}"],
    },
    "simulate": {
        "--n": _ANY + ["1", "4", "60", "200"], "--seed": _SMALL_INTS,
        "--bootstrap": ["0", "100"] + _ANY, "--reps": _SMALL_INTS,
        "--param": None, "--cohort-out": ["{cohort}"], "--out": ["{out}"],
    },
    "analyze": {
        "--input": ["{input}", "{missing}"], "--bootstrap": ["0", "100"] + _ANY,
        "--seed": _SMALL_INTS, "--timepoints": _SMALL_INTS,
        "--curve": _ANY + ["2", "7", "50"], "--out": ["{out}"],
    },
}
# flags whose argparse default would run a large job
_SIZE_DEFAULTS = {"simulate": {"--n": "60", "--bootstrap": "0"}, "analyze": {"--bootstrap": "0"},
                  "curve": {"--points": "9"}}
_PARAMS = {
    "p_u0": _FLOATS, "p_l0": _FLOATS, "p_u1": _FLOATS, "n": _SMALL_INTS + ["200"],
    "a0_model": 3, "l1_model": 3, "a1_model": 4, "outcome_model": 8, "bogus": _FLOATS,
}
_NOT_FINITE = re.compile(r"(?i)\b(-?inf(inity)?|nan)\b")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)):
        if flag == "--param":
            name = draw(st.sampled_from(sorted(_PARAMS)))
            spec = _PARAMS[name]
            if isinstance(spec, int):
                width = draw(st.sampled_from([spec, spec - 1]))
                value = ",".join(draw(st.lists(st.sampled_from(_COEFFS), min_size=width,
                                               max_size=width)))
            else:
                value = draw(st.sampled_from(spec))
            argv += [flag, f"{name}={value}"]
        elif flags[flag] is None:
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from(flags[flag]))]
    for flag, value in _SIZE_DEFAULTS.get(command, {}).items():
        if flag not in argv:
            argv += [flag, value]
    if draw(st.booleans()) and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]  # drop a flag or a value
    return argv


def _must_exit_2(argv) -> bool:
    """Whether the exit-code contract requires exit 2, for the inputs that
    can be classified without evtv: a curve whose last --rr parses to nan
    or below 1, and a simulate or analyze whose last --seed is -1."""
    def last(flag):
        values = [v for f, v in zip(argv, argv[1:]) if f == flag]
        return values[-1] if values else None

    if argv[0] == "curve":
        try:
            return not float(last("--rr")) >= 1.0
        except (TypeError, ValueError):
            return False
    return argv[0] in ("simulate", "analyze") and last("--seed") == "-1"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cohort = cohort_from_rows([(i % 2, i // 2 % 2, i // 4 % 2, i // 8 % 2, i // 3 % 2)
                               for i in range(60)])
    (root / "cohort.csv").write_text(write_cohort_csv(cohort), encoding="utf-8")
    return {"input": str(root / "cohort.csv"), "missing": str(root / "absent.csv"),
            "out": str(root / "out.txt"), "cohort": str(root / "cohort_out.csv")}


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
@example(argv=["simulate", "--param", "l1_model=-1e300,0,0", "--n", "60", "--bootstrap", "0"])
@example(argv=["simulate", "--param", "outcome_model=0,0,0,0,-1e300,0,0,0", "--reps", "2",
               "--n", "60", "--bootstrap", "0"])
@example(argv=["simulate", "--n", "60", "--reps", "2", "--bootstrap", "0",
               "--param", "outcome_model=0,0,0,0,-1e3,0,0,0"])
@example(argv=["curve", "--rr", "nan", "--limit", "1.5", "--points", "9"])
@example(argv=["curve", "--rr", "0.5", "--limit", "2", "--rr", "-1", "--points", "9"])
@example(argv=["analyze", "--input", "{input}", "--bootstrap", "0", "--seed", "-1"])
def test_fuzzed_command_lines_exit_cleanly(paths, argv):
    argv = [a.format(**paths) for a in argv]
    open(paths["out"], "w").close()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    if _must_exit_2(argv):
        assert code == 2, (argv, stderr.getvalue())
    if code == 0:
        with open(paths["out"], encoding="utf-8") as fh:
            written = stdout.getvalue() + fh.read()
        assert not _NOT_FINITE.search(written), argv
