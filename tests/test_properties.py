"""Property tests: E-value overflow, the trade-off curve, normalization
symmetry, the cohort CSV round trip, and fuzzed command lines."""
import contextlib
import io
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtv import cli
from evtv.estimation import CohortRecord
from evtv.evalue import (
    ConfounderStrength,
    EffectEstimate,
    bias_factor,
    evalue_from_rr,
    normalize_estimate,
    tradeoff_curve,
)
from evtv.report import read_cohort_csv, write_cohort_csv


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(CohortRecord, _bit, _bit, _bit, _bit, _bit), min_size=1, max_size=200))
def test_cohort_csv_round_trip(records):
    assert read_cohort_csv(io.StringIO(write_cohort_csv(records))) == records


# values every flag may receive, well-formed or not
_ANY = ["inf", "-inf", "nan", "1e-320", "1e300", "-1e300", "-1", "-2.5", "0", "abc", ""]
_FLOATS = _ANY + ["0.5", "1", "1.38", "1.73", "2"]
# sizes stay small enough that no example allocates much
_SMALL_INTS = _ANY + ["1", "2", "3"]
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
                value = ",".join(draw(st.lists(st.sampled_from(_FLOATS), min_size=width,
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


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    records = [CohortRecord(i % 2, i // 2 % 2, i // 4 % 2, i // 8 % 2, i // 3 % 2)
               for i in range(60)]
    (root / "cohort.csv").write_text(write_cohort_csv(records), encoding="utf-8")
    return {"input": str(root / "cohort.csv"), "missing": str(root / "absent.csv"),
            "out": str(root / "out.txt"), "cohort": str(root / "cohort_out.csv")}


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
@example(argv=["simulate", "--param", "l1_model=-1e300,0,0", "--n", "60", "--bootstrap", "0"])
@example(argv=["simulate", "--param", "outcome_model=0,0,0,0,-1e300,0,0,0", "--reps", "2",
               "--n", "60", "--bootstrap", "0"])
def test_fuzzed_command_lines_exit_cleanly(paths, argv):
    argv = [a.format(**paths) for a in argv]
    open(paths["out"], "w").close()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    if code == 0:
        with open(paths["out"], encoding="utf-8") as fh:
            written = stdout.getvalue() + fh.read()
        assert not _NOT_FINITE.search(written), argv
