"""Output checks for the benchmark, written independently of the evtv package.

Every E-value, normalisation and oracle value is recomputed here from its
closed form instead of being taken from `evtv`, so a change that moves a
number in the package shows up as a failed check, never as a speed change.
This module imports only the standard library.
"""
from __future__ import annotations

import hashlib
import json
import math
from itertools import product

# closed-form recomputation agrees with the package to rounding
REL_TOL = 1e-12
# values recorded on the seed commit, compared at the acceptance-suite tolerance
REF_TOL = 1e-9

# the frozen fixture of the acceptance suite: cohort seed 7, n=1000,
# 1000 bootstrap replicates with bootstrap seed 7
REFERENCE_SEED = 7
REFERENCE_RR_OBS = 1.8474036216036884
REFERENCE_CI = (1.6085976049082156, 2.172189615230659)

CURVE_HEADER = "strength_t0,strength_t1,b0,b1"
COHORT_HEADER = "l0,a0,l1,a1,y"


class CheckFailed(Exception):
    """An output of the program is malformed or numerically wrong."""


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN/Infinity and any number that is not finite."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None
    _require_finite(doc, "$")
    return doc


def _require_finite(node, path: str) -> None:
    if isinstance(node, float):
        if not math.isfinite(node):
            raise CheckFailed(f"{path} is not finite: {node!r}")
    elif isinstance(node, dict):
        for k, v in node.items():
            _require_finite(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _require_finite(v, f"{path}[{i}]")


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got, want, what: str, rel: float = REL_TOL) -> None:
    """Require got == want within a relative tolerance."""
    require(
        isinstance(got, (int, float)) and not isinstance(got, bool),
        f"{what}: expected a number, got {got!r}",
    )
    if got != want and not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (rel {rel:g})")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---- closed forms ---------------------------------------------------------

def evalue(rr: float) -> float:
    """E-value of a risk ratio on the >= 1 side: rr + sqrt(rr (rr - 1))."""
    return rr + math.sqrt(rr * (rr - 1.0))


def equal_split(rr: float, timepoints: int) -> float:
    return evalue(rr) if timepoints == 1 else evalue(rr ** (1.0 / timepoints))


def to_rr(measure: str, value: float, rare: bool) -> float:
    """Risk-ratio approximation of an odds or hazard ratio."""
    if measure == "rr" or rare:
        return value
    if measure == "or":
        return math.sqrt(value)
    return (1.0 - 0.5 ** math.sqrt(value)) / (1.0 - 0.5 ** math.sqrt(1.0 / value))


def expected_report(measure, value, lo, hi, rare, timepoints) -> dict:
    """The numbers an E-value report must hold for one published estimate."""
    rr = to_rr(measure, value, rare)
    has_ci = lo is not None
    if has_ci:
        tlo, thi = to_rr(measure, lo, rare), to_rr(measure, hi, rare)
        crosses = tlo <= 1.0 <= thi
    inverted = rr < 1.0
    if inverted:
        rr = 1.0 / rr
        if has_ci:
            tlo, thi = 1.0 / thi, 1.0 / tlo
    out = {
        "normalized_rr": rr,
        "inverted": inverted,
        "evalue_equal_split": equal_split(rr, timepoints),
        "evalue_single": evalue(rr),
    }
    if has_ci:
        limit = max(tlo, 1.0)
        if crosses or limit == 1.0:
            out["ci_evalue_equal_split"] = out["ci_evalue_single"] = 1.0
        else:
            out["ci_evalue_equal_split"] = equal_split(limit, timepoints)
            out["ci_evalue_single"] = evalue(limit)
    return out


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _bern(p: float, v: int) -> float:
    return p if v == 1 else 1.0 - p


def true_rr_enumerated(params: dict, l1_source: str = "intervened") -> float:
    """Exact risk ratio of always versus never treated for the generating
    process echoed in a simulate document, by enumerating the confounders."""
    m = params["outcome_model"]
    a0m, l1m = params["a0_model"], params["l1_model"]

    def outcome(a0, a1, l0, l1, u0, u1):
        return _expit(
            m[0] + m[1] * a0 + m[2] * a1 + m[3] * l0 + m[4] * l1
            + m[5] * l0 * l1 + m[6] * u0 + m[7] * u1
        )

    def mean(a0, a1):
        total = 0.0
        for u0, l0, u1, l1 in product((0, 1), repeat=4):
            base = (_bern(params["p_u0"], u0) * _bern(params["p_l0"], l0)
                    * _bern(params["p_u1"], u1))
            p_y = outcome(a0, a1, l0, l1, u0, u1)
            if l1_source == "intervened":
                total += base * _bern(_expit(l1m[0] + l1m[1] * a0 + l1m[2] * l0), l1) * p_y
            else:
                for a0_obs in (0, 1):
                    p_a0 = _expit(a0m[0] + a0m[1] * l0 + a0m[2] * u0)
                    p_l1 = _expit(l1m[0] + l1m[1] * a0_obs + l1m[2] * l0)
                    total += base * _bern(p_a0, a0_obs) * _bern(p_l1, l1) * p_y
        return total

    return mean(1, 1) / mean(0, 0)


# ---- document checks ------------------------------------------------------

def check_curve_points(points, target: float, n_points: int, what: str = "curve") -> None:
    """Trade-off curve rows (s0, s1, b0, b1): pinned endpoints, b0 * b1 = target,
    b0 the bias factor of s0 and s1 the E-value of b1."""
    require(len(points) == n_points, f"{what}: {len(points)} points, expected {n_points}")
    if target == 1.0:
        require(all(p == (1.0, 1.0, 1.0, 1.0) for p in points), f"{what}: null target")
        return
    e = evalue(target)
    require(points[0][0] == 1.0 and points[0][2] == 1.0, f"{what}: first point not at s0 = 1")
    require(points[-1][1] == 1.0 and points[-1][3] == 1.0, f"{what}: last point not at s1 = 1")
    close(points[0][1], e, f"{what}: first strength_t1")
    close(points[-1][0], e, f"{what}: last strength_t0")
    prev = 0.0
    for i, (s0, s1, b0, b1) in enumerate(points):
        require(min(s0, s1, b0, b1) >= 1.0, f"{what}[{i}]: value below 1")
        require(s0 >= prev, f"{what}[{i}]: strength_t0 not sorted")
        prev = s0
        close(b0 * b1, target, f"{what}[{i}]: b0*b1")
        close(b0, s0 * s0 / (2.0 * s0 - 1.0), f"{what}[{i}]: b0")
        close(s1, evalue(b1), f"{what}[{i}]: strength_t1")


def check_report(doc: dict, measure, value, lo, hi, rare, timepoints, curve_points=0) -> None:
    """An E-value report payload against its closed forms."""
    inp = doc["input"]
    require(inp["measure"] == measure, "report: measure echo")
    require(inp["value"] == value, f"report: value echo {inp['value']!r} != {value!r}")
    require(inp["outcome_rare"] is rare, "report: outcome_rare echo")
    require(("ci_lower" in inp) == (lo is not None), "report: CI echo presence")
    if lo is not None:
        require(inp["ci_lower"] == lo and inp["ci_upper"] == hi, "report: CI echo")
    require(doc["timepoints"] == timepoints, "report: timepoints echo")
    want = expected_report(measure, value, lo, hi, rare, timepoints)
    require(doc["inverted"] is want["inverted"], "report: inverted flag")
    for key, w in want.items():
        if key == "inverted":
            continue
        require(key in doc, f"report: missing {key}")
        close(doc[key], w, f"report: {key}")
        require(doc[key] >= 1.0, f"report: {key} below 1")
    for key in ("ci_evalue_equal_split", "ci_evalue_single"):
        require((key in doc) == (key in want), f"report: {key} presence")
    require(
        doc["evalue_equal_split"] <= doc["evalue_single"] * (1.0 + REL_TOL),
        "report: equal-split E-value exceeds single-timepoint E-value",
    )
    want_curve = timepoints == 2 and curve_points >= 2
    require(("curve" in doc) == want_curve, "report: curve presence")
    if want_curve:
        pts = [(p["strength_t0"], p["strength_t1"], p["b0"], p["b1"]) for p in doc["curve"]]
        check_curve_points(pts, doc["normalized_rr"], curve_points)


def check_msm(est: dict, with_ci: bool) -> None:
    """The MSM block: rr_obs = p11/p00 exactly, probabilities inside (0, 1),
    positive weights, and a CI around the point estimate when requested."""
    rr, p11, p00 = est["rr_obs"], est["p11"], est["p00"]
    require(0.0 < p11 < 1.0 and 0.0 < p00 < 1.0, "estimate: p11/p00 outside (0, 1)")
    require(rr == p11 / p00, f"estimate: rr_obs {rr!r} != p11/p00 {p11 / p00!r}")
    require(est["weight_mean"] > 0.0 and est["weight_max"] > 0.0, "estimate: weights")
    require(("ci_lower" in est) == with_ci, "estimate: CI presence")
    if with_ci:
        require(est["ci_lower"] <= rr <= est["ci_upper"], "estimate: rr_obs outside its CI")


def check_analysis(doc: dict, with_ci: bool, curve_points: int) -> None:
    """An `analyze` document: the MSM block and its rr-scale E-value report."""
    est = doc["estimate"]
    check_msm(est, with_ci)
    lo = est.get("ci_lower")
    hi = est.get("ci_upper")
    check_report(doc["report"], "rr", est["rr_obs"], lo, hi, False, 2, curve_points)


def check_enumerated(params: dict, doc: dict) -> None:
    close(doc["true_rr_enumerated"], true_rr_enumerated(params), "true_rr_enumerated")
    close(
        doc["true_rr_enumerated_observed_l1"],
        true_rr_enumerated(params, "observed"),
        "true_rr_enumerated_observed_l1",
    )


def check_experiment(doc: dict, n: int, seed: int) -> None:
    """A single-replication `simulate --bootstrap 0` document."""
    require(doc["params"]["n"] == n, "simulate: params.n echo")
    require(doc["seed"] == seed, "simulate: seed echo")
    require(doc["true_rr_mc"] > 0.0, "simulate: true_rr_mc")
    check_enumerated(doc["params"], doc)
    est = doc["estimate"]
    check_msm(est, with_ci=False)
    check_report(doc["report"], "rr", est["rr_obs"], None, None, False, 2)


def _mean(xs):
    return sum(xs) / len(xs)


def check_replications(doc: dict, reps: int, n: int, seed: int) -> None:
    """A `simulate --reps` document: per-replication entries and the summary
    recomputed from them."""
    require(doc["params"]["n"] == n and doc["seed"] == seed, "replications: echo")
    check_enumerated(doc["params"], doc["enumerated"])
    detail = doc["replications_detail"]
    require(len(detail) == reps, f"replications: {len(detail)} entries, expected {reps}")
    ok = [r for r in detail if "error" not in r]
    for r in ok:
        require(r["rr_obs"] > 0.0 and r["weight_mean"] > 0.0, "replications: entry values")
    s = doc["summary"]
    require(s["replications"] == reps, "replications: summary count")
    require(s["failures"] == reps - len(ok), "replications: summary failures")
    rr = [r["rr_obs"] for r in ok]
    close(s["rr_obs_mean"], _mean(rr), "replications: rr_obs_mean")
    m = _mean(rr)
    sd = math.sqrt(sum((v - m) ** 2 for v in rr) / (len(rr) - 1))
    close(s["rr_obs_sd"], sd, "replications: rr_obs_sd", rel=REF_TOL)
    mc = [r["true_rr_mc"] for r in detail if "true_rr_mc" in r]
    close(s["true_rr_mc_mean"], _mean(mc), "replications: true_rr_mc_mean")


def parse_curve_csv(text: str) -> list[tuple[float, ...]]:
    lines = text.splitlines()
    require(lines and lines[0] == CURVE_HEADER, "curve csv: header")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        require(len(cells) == 4, f"curve csv: line {i} has {len(cells)} cells")
        try:
            row = tuple(float(c) for c in cells)
        except ValueError:
            raise CheckFailed(f"curve csv: line {i} is not numeric") from None
        require(all(math.isfinite(v) for v in row), f"curve csv: line {i} not finite")
        rows.append(row)
    return rows


def check_curve_svg(text: str, target: float, n_points: int) -> None:
    require(text.startswith("<svg ") and text.endswith("</svg>\n"), "curve svg: envelope")
    start = text.find('<polyline points="')
    require(start >= 0, "curve svg: no polyline")
    coords = text[start + len('<polyline points="'):].split('"', 1)[0].split()
    require(len(coords) == n_points, f"curve svg: {len(coords)} vertices, expected {n_points}")
    label = f">{equal_split(target, 2):.2f}</text>"
    require(label in text, "curve svg: equal-split label")


def read_cohort_rows(path) -> int:
    """Count the data rows of a cohort CSV, checking header and cells."""
    rows = 0
    with open(path, encoding="utf-8") as fh:
        require(fh.readline().rstrip("\n") == COHORT_HEADER, "cohort csv: header")
        for line in fh:
            require(len(line) == 10 and line[1::2] == ",,,,\n" and set(line[0::2]) <= {"0", "1"},
                    f"cohort csv: row {rows + 2} malformed")
            rows += 1
    return rows
