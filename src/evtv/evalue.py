"""Bias-factor algebra and E-values for treatments at several time points.

All quantities live on the risk-ratio scale.  A hypothetical unmeasured
confounder at one time point is described by its associations with
treatment and with the outcome; the bias factor bounds how far such a
confounder could move an observed risk ratio, and an E-value is the
smallest pair of equal associations that could move it all the way to
the null.  With T time points the per-point bias factors multiply, which
opens several reporting choices: spread the required strength equally
across time points, attribute it all to one point, or (for T = 2) trace
the full trade-off curve between the two points.

Everything here is a pure function of its inputs.  Estimates on other
ratio scales (odds, hazard) are first normalized to an approximate risk
ratio, and preventive estimates are inverted so the analysis always
works on the >= 1 side of the null.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal, Optional, Union

from .errors import check_size

__all__ = [
    "Measure",
    "Scenario",
    "ConfounderStrength",
    "BiasFactor",
    "EffectEstimate",
    "NormalizedEstimate",
    "EValueReport",
    "TradeoffPoint",
    "bias_factor",
    "evalue_from_rr",
    "equal_split_evalue",
    "residual_evalue",
    "tradeoff_curve",
    "combined_bias",
    "adjusted_rr",
    "normalize_estimate",
    "ci_evalue",
    "build_report",
]

# floating-point band around the null inside which values snap to 1
_NULL_EPS = 1e-12

# largest trade-off curve grid; a larger one fails with exit 2 instead of
# filling memory with points (the CLI default is 200)
MAX_CURVE_POINTS = 100_000


class Measure(str, Enum):
    RR = "rr"
    OR = "or"
    HR = "hr"


Scenario = Literal["equal_split", "single_timepoint"]
_SCENARIOS = ("equal_split", "single_timepoint")


@dataclass(frozen=True)
class ConfounderStrength:
    """Risk-ratio associations of one unmeasured confounder at one time point.

    rr_eu is the treatment association, rr_uy the outcome association.
    Both are expressed on the >= 1 side of the null.
    """

    rr_eu: float
    rr_uy: float

    def __post_init__(self) -> None:
        for name in ("rr_eu", "rr_uy"):
            v = getattr(self, name)
            if not v >= 1.0:
                raise ValueError(f"{name} must be >= 1, got {v!r}")


@dataclass(frozen=True)
class BiasFactor:
    """Maximum multiplicative distortion of a risk ratio, >= 1."""

    value: float

    def __post_init__(self) -> None:
        if not self.value >= 1.0:
            raise ValueError(f"bias factor must be >= 1, got {self.value!r}")


@dataclass(frozen=True)
class EffectEstimate:
    """An observed association with optional confidence interval.

    measure says which ratio scale the value is on.  outcome_rare should
    be set by the caller when the outcome prevalence is below roughly
    15 percent, in which case odds and hazard ratios approximate the
    risk ratio directly; the library never infers prevalence itself.
    """

    measure: Union[Measure, str]
    value: float
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    outcome_rare: bool = False

    def __post_init__(self) -> None:
        try:
            m = Measure(str(self.measure).lower())
        except ValueError:
            raise ValueError(
                f"measure must be one of rr, or, hr; got {self.measure!r}"
            ) from None
        object.__setattr__(self, "measure", m)
        for v in (self.value, self.ci_lower, self.ci_upper):
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"estimate and limits must be positive and finite, got {v!r}")
        has_lo = self.ci_lower is not None
        has_hi = self.ci_upper is not None
        if has_lo != has_hi:
            raise ValueError("confidence interval needs both limits or neither")
        if has_lo:
            if not self.ci_lower <= self.value <= self.ci_upper:
                raise ValueError(
                    f"point estimate {self.value} outside interval "
                    f"({self.ci_lower}, {self.ci_upper})"
                )

    @property
    def has_ci(self) -> bool:
        return self.ci_lower is not None


@dataclass(frozen=True)
class NormalizedEstimate:
    """An estimate brought onto the risk-ratio scale, >= 1 side of the null.

    ci_limit_rr is the transformed confidence limit closest to the null
    (clamped to 1 when the interval crosses it); absent when the input
    had no interval.
    """

    rr: float
    ci_limit_rr: Optional[float]
    inverted: bool
    ci_crosses_null: bool

    def __post_init__(self) -> None:
        if not self.rr >= 1.0:
            raise ValueError(f"normalized rr must be >= 1, got {self.rr!r}")
        if self.ci_limit_rr is not None:
            if not 1.0 <= self.ci_limit_rr <= self.rr * (1.0 + _NULL_EPS):
                raise ValueError(
                    f"ci_limit_rr {self.ci_limit_rr!r} outside [1, rr={self.rr!r}]"
                )


@dataclass(frozen=True)
class TradeoffPoint:
    """One admissible split of the required confounding between two time points.

    strength_t0 and strength_t1 are equal-pair confounder strengths; b0
    and b1 are the bias factors they imply, with b0 * b1 equal to the
    target risk ratio.
    """

    strength_t0: float
    strength_t1: float
    b0: float
    b1: float

    def __post_init__(self) -> None:
        for name in ("strength_t0", "strength_t1", "b0", "b1"):
            v = getattr(self, name)
            if not v >= 1.0:
                raise ValueError(f"{name} must be >= 1, got {v!r}")


@dataclass(frozen=True)
class EValueReport:
    """E-values for every reporting scenario at a given number of time
    points, with the estimate they were built from and its normalized form."""

    estimate: EffectEstimate
    normalized: NormalizedEstimate
    timepoints: int
    evalue_equal_split: float
    evalue_single_timepoint: float
    ci_evalue_equal_split: Optional[float] = None
    ci_evalue_single_timepoint: Optional[float] = None
    curve: Optional[tuple[TradeoffPoint, ...]] = None

    def __post_init__(self) -> None:
        if self.timepoints < 1:
            raise ValueError("timepoints must be >= 1")
        eq, single = self.evalue_equal_split, self.evalue_single_timepoint
        if not (eq >= 1.0 and single >= 1.0):
            raise ValueError("E-values must be >= 1")
        if eq > single * (1.0 + _NULL_EPS):
            raise ValueError(
                f"equal-split E-value {eq} exceeds single-timepoint E-value {single}"
            )
        pairs = (
            (self.ci_evalue_equal_split, eq),
            (self.ci_evalue_single_timepoint, single),
        )
        for ci_val, point_val in pairs:
            if ci_val is not None and ci_val > point_val * (1.0 + _NULL_EPS):
                raise ValueError(
                    f"CI E-value {ci_val} exceeds point-estimate E-value {point_val}"
                )
        if self.curve is not None:
            object.__setattr__(self, "curve", tuple(self.curve))


def _bias_value(b: Union[BiasFactor, float]) -> float:
    value = b.value if isinstance(b, BiasFactor) else float(b)
    if not value >= 1.0:
        raise ValueError(f"bias factor must be >= 1, got {value!r}")
    return value


def _checked_rr(rr: float, name: str = "rr") -> float:
    """Validate a risk ratio on the >= 1 side, snapping float noise at the null."""
    rr = float(rr)
    if rr != rr:
        raise ValueError(f"{name} must be a number, got nan")
    if abs(rr - 1.0) <= _NULL_EPS:
        return 1.0
    if rr < 1.0:
        raise ValueError(f"{name} must be >= 1 (normalize preventive estimates first), got {rr}")
    return rr


def bias_factor(s: ConfounderStrength) -> BiasFactor:
    """Largest factor by which a confounder of strength s can distort a risk ratio.

    Equals (rr_eu * rr_uy) / (rr_eu + rr_uy - 1), which lies between 1
    and the weaker of the two associations.
    """
    return BiasFactor(max(_bias(s.rr_eu, s.rr_uy), 1.0))


def _bias(rr_eu: float, rr_uy: float) -> float:
    # bias_factor's formula on plain floats, for tradeoff_curve's grid
    value = (rr_eu * rr_uy) / (rr_eu + rr_uy - 1.0)
    if value == math.inf:
        # the product overflowed (strengths above ~1.3e154); dividing first cannot
        value = rr_eu * (rr_uy / (rr_eu + rr_uy - 1.0))
    return value


def evalue_from_rr(rr: float) -> float:
    """E-value of a risk ratio: rr + sqrt(rr * (rr - 1)).

    The smallest strength E such that equal associations (E, E) produce
    a bias factor of exactly rr.  Equals 1 iff rr = 1.  A risk ratio
    whose E-value overflows a float (above about 1.3e154) raises
    ValueError.
    """
    rr = _checked_rr(rr)
    e = rr + math.sqrt(rr * (rr - 1.0))
    if not math.isfinite(e):
        raise ValueError(f"risk ratio {rr!r} is too large: its E-value overflows a float")
    return e


def equal_split_evalue(rr: float, timepoints: int) -> float:
    """Per-timepoint E-value when the confounding is equally strong at each of T points.

    The combined bias of T equal factors must reach rr, so each factor
    needs to reach rr**(1/T).
    """
    rr = _checked_rr(rr)
    return evalue_from_rr(rr ** (1.0 / check_timepoints(timepoints)))


def residual_evalue(rr_obs: float, b0: Union[BiasFactor, float]) -> float:
    """E-value left for time 1 after attributing bias factor b0 to time 0.

    b0 = 1 gives the single-timepoint E-value; b0 = rr_obs gives 1.
    """
    rr_obs = _checked_rr(rr_obs, "rr_obs")
    b = _bias_value(b0)
    if b > rr_obs * (1.0 + _NULL_EPS):
        raise ValueError(
            f"bias factor {b} exceeds the observed risk ratio {rr_obs}; "
            "time 0 cannot absorb more than the whole association"
        )
    return evalue_from_rr(rr_obs / min(b, rr_obs))


def check_curve_points(n_points: int) -> int:
    """A curve grid size as an int, from 2 to MAX_CURVE_POINTS."""
    return check_size(n_points, "n_points", 2, "MAX_CURVE_POINTS", MAX_CURVE_POINTS)


def check_curve_limit(rr: float, limit: float) -> None:
    """Refuse a risk ratio that tradeoff_curve refuses as its target (nan,
    below 1, an E-value that overflows), or a confidence limit above it
    by more than the relative band NormalizedEstimate allows."""
    rr = _checked_rr(rr, "rr_target")
    evalue_from_rr(rr)
    if float(limit) > rr * (1.0 + _NULL_EPS):
        raise ValueError(f"limit {limit!r} is above the risk ratio {rr!r}")


def check_timepoints(timepoints: int) -> int:
    """A number of time points as an int, at least 1."""
    t = int(timepoints)
    if t < 1:
        raise ValueError(f"timepoints must be >= 1, got {timepoints!r}")
    return t


def tradeoff_curve(rr_target: float, n_points: int = 200) -> list[TradeoffPoint]:
    """All admissible splits of the required confounding between two time points.

    Sweeps the time-0 equal-pair strength over a uniform grid on
    [1, E_single] and solves for the minimal time-1 strength at each
    stop.  Endpoints are pinned analytically: attributing nothing to
    time 0 leaves the full single-timepoint E-value at time 1, and vice
    versa.  The construction is symmetric, so swapping the roles of the
    two time points traces the same curve.
    """
    rr_target = _checked_rr(rr_target, "rr_target")
    n = check_curve_points(n_points)
    e_single = evalue_from_rr(rr_target)
    points = [TradeoffPoint(1.0, e_single, 1.0, rr_target)]
    step = (e_single - 1.0) / (n - 1)
    for i in range(1, n - 1):
        s0 = 1.0 + i * step
        b0 = _bias(s0, s0)
        b1 = rr_target / b0
        points.append(TradeoffPoint(s0, evalue_from_rr(b1), b0, b1))
    points.append(TradeoffPoint(e_single, 1.0, rr_target, 1.0))
    return points


def combined_bias(strengths: list[ConfounderStrength]) -> BiasFactor:
    """Combined bias factor of confounders acting at several time points: the product."""
    strengths = list(strengths)
    if not strengths:
        raise ValueError("need at least one time point")
    total = 1.0
    for s in strengths:
        total *= bias_factor(s).value
    return BiasFactor(total)


def adjusted_rr(rr_obs: float, b_total: Union[BiasFactor, float]) -> float:
    """Observed risk ratio corrected by a combined bias factor: rr_obs / b_total."""
    rr_obs = float(rr_obs)
    if not rr_obs > 0:
        raise ValueError(f"rr_obs must be positive, got {rr_obs!r}")
    return rr_obs / _bias_value(b_total)


def _hr_to_rr(h: float) -> float:
    # exponent form of the common-outcome hazard-ratio approximation;
    # continuous through h = 1 and monotone increasing; inf where the
    # denominator rounds to 0 far above the null
    den = 1.0 - 0.5 ** math.sqrt(1.0 / h)
    return (1.0 - 0.5 ** math.sqrt(h)) / den if den > 0.0 else math.inf


def _finite_rr(v: float) -> float:
    if not 0.0 < v < math.inf:
        raise ValueError(f"estimate is {v!r} on the risk-ratio scale; it must be finite and > 0")
    return v


def normalize_estimate(e: EffectEstimate) -> NormalizedEstimate:
    """Bring an estimate onto the risk-ratio scale, >= 1 side of the null.

    Odds and hazard ratios for common outcomes pass through the usual
    approximations (sqrt for OR, the exponent form for HR); rare-outcome
    estimates are used directly.  A resulting value below 1 is inverted,
    and the transformed confidence limit closest to the null is kept for
    CI E-values.  A value or limit that is not positive and finite after
    the transform or the inversion raises ValueError.
    """
    if e.measure is Measure.RR or e.outcome_rare:
        transform = float
    elif e.measure is Measure.OR:
        transform = math.sqrt
    else:
        transform = _hr_to_rr

    value = _finite_rr(transform(e.value))
    lo = _finite_rr(transform(e.ci_lower)) if e.has_ci else None
    hi = _finite_rr(transform(e.ci_upper)) if e.has_ci else None

    crosses = e.has_ci and lo <= 1.0 <= hi
    inverted = value < 1.0
    if inverted:
        value = _finite_rr(1.0 / value)
        if e.has_ci:
            lo, hi = _finite_rr(1.0 / hi), _finite_rr(1.0 / lo)

    limit = None
    if e.has_ci:
        # value >= 1, so the limit closest to the null is the lower one
        limit = max(lo, 1.0)
    return NormalizedEstimate(
        rr=value, ci_limit_rr=limit, inverted=inverted, ci_crosses_null=crosses
    )


def ci_evalue(n: NormalizedEstimate, timepoints: int, scenario: Scenario) -> float:
    """E-value for the confidence limit closest to the null.

    Returns 1 when the interval crosses (or touches) the null: no
    confounding at all is needed to render the association compatible
    with no effect.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"scenario must be one of {_SCENARIOS}, got {scenario!r}")
    if n.ci_limit_rr is None:
        raise ValueError("estimate has no confidence interval")
    if n.ci_crosses_null or n.ci_limit_rr == 1.0:
        return 1.0
    if scenario == "equal_split":
        return equal_split_evalue(n.ci_limit_rr, timepoints)
    return evalue_from_rr(n.ci_limit_rr)


def build_report(
    e: EffectEstimate, timepoints: int, curve_points: int = 0
) -> EValueReport:
    """Normalize an estimate and assemble E-values for every scenario.

    The trade-off curve is included only for timepoints = 2 and
    curve_points >= 2; for T >= 3 only the equal-split and
    single-timepoint summaries are reported.
    """
    t = check_timepoints(timepoints)
    n = normalize_estimate(e)
    equal = equal_split_evalue(n.rr, t)
    single = evalue_from_rr(n.rr)
    ci_equal = ci_single = None
    if e.has_ci:
        ci_equal = ci_evalue(n, t, "equal_split")
        ci_single = ci_evalue(n, t, "single_timepoint")
    curve = None
    if t == 2 and curve_points >= 2:
        curve = tuple(tradeoff_curve(n.rr, curve_points))
    return EValueReport(
        estimate=e,
        normalized=n,
        timepoints=t,
        evalue_equal_split=equal,
        evalue_single_timepoint=single,
        ci_evalue_equal_split=ci_equal,
        ci_evalue_single_timepoint=ci_single,
        curve=curve,
    )
