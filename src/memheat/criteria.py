"""Regime classification for the heat problem with a memory boundary flux.

Given the exponent pair (p, q) and the coefficient specs c, k, the classifier
walks a fixed rule ladder and reports the first certified regime together with
every condition it actually evaluated, as a ledger of `ConditionReport`s.
Each condition group returns its reports in ledger order, so a rule reads
its certificate off their `holds`.  For linear reaction (p = 1) the
conditions use exponential weights t^a e^{-mC} (int_0^t e^{rC})^n built from
C(t) = int_0^t c, each described once by its exponents (`_Weight`), whose
growth form `_weight_growth` reads off `CoefficientSpec.eventual` for every
c.  Its lanes (constant, harmonic, subharmonic and log c) take gamma = 1
exactly, so off every lane int c converges (or c = 0), C is bounded and the
weight is t^{a+n} up to constants.  One growth-form reduction decides every
weighted integral and companion bound: the weight's form times k's.  Every
"for large t" condition is settled in closed form on growth forms, the two
window bounds included, so each condition holds or fails; samples only
report the size of a window's sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coeffs import (
    CONVERGES,
    DIVERGES,
    EVENTUALLY_NONINCREASING,
    ZERO,
    CoefficientSpec,
    CumulativeIntegral,
    Flux,
    GrowthForm,
    IntegralVerdict,
    WindowBound,
    as_real,
    eval_coeff,
    exponent_sum,
    exponent_text,
    form_bounded,
    growth_form,
    harmonic_lane,
    integrate_improper,
    log_lane,
    memory_window_check,
    moment_criterion,
    tail_verdict,
)
from .errors import ConfigurationError

REGIME_GLOBAL_ALL = "GlobalAll"
REGIME_BLOWUP_ALL = "BlowUpAll"
REGIME_GLOBAL_SMALL = "GlobalSmallData"
REGIME_BOUNDED_SMALL = "BoundedGlobalSmallData"
REGIME_INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ConditionReport:
    id: str
    holds: bool
    evidence: str
    verdict: Optional[IntegralVerdict] = None


@dataclass(frozen=True)
class RegimeVerdict:
    regime: str
    rule: str
    conditions: tuple[ConditionReport, ...]
    notes: str = ""


def _verdict_report(cid: str, v: IntegralVerdict, want: str) -> ConditionReport:
    return ConditionReport(cid, v.status == want, v.evidence, v)


# ---------------------------------------------------------------------------
# exponential weights built from C(t) = int_0^t c

@dataclass(frozen=True)
class _Weight:
    """The weight t^a e^{-m C(t)} (int_0^t e^{r C})^n of a p = 1 condition."""

    a: float
    m: float
    r: float
    n: float

    @classmethod
    def blowup(cls, q: float) -> "_Weight":
        return cls(1.0 - q, 1.0, 1.0, q)

    @classmethod
    def bound(cls, q: float) -> "_Weight":
        return cls(1.0 - q, 2.0, 1.0, q + 1.0)

    @classmethod
    def flux(cls, q: float) -> "_Weight":
        return cls(0.0, 1.0, q, 1.0)


def _rate(x: float, amplitude: float) -> float:
    """x * amplitude for amplitude > 0, kept at the smallest float of x's
    sign where the product underflows: a rate is judged by its sign."""
    r = x * amplitude
    return r if r != 0.0 or x == 0.0 else math.copysign(math.ulp(0.0), x)


def _weight_growth(c: CoefficientSpec, w: _Weight) -> GrowthForm:
    """Tail growth form of the weight w, per lane of c.eventual.

    On each lane int_0^t e^{rC} ~ e^{rC} t^s up to a constant, with s = 0
    for constant c, 1 for harmonic c, gamma for subharmonic c and 1 on the
    log lane; so w ~ t^{a + n s} e^{x C} with x = n r - m.  A table with a
    positive last value is on the constant lane.  A subharmonic power_log c
    has C ~ A t^{1-gamma}/(1-gamma) up to its log factors, which slow the
    stretch but change neither its sign nor its rank among the factors.  On
    no lane, int c converges or c = 0: C is bounded and w lies between
    constant multiples of t^{a+n}.  A lane takes gamma = 1 exactly, as
    `tail_verdict` reads a lone exponent.
    """
    c = c.eventual
    x = w.n * w.r - w.m
    if c.family == "constant" and c.amplitude > 0.0:
        return GrowthForm(exp_rate=_rate(x, c.amplitude), power=w.a)
    if harmonic_lane(c):
        return GrowthForm(power=exponent_sum(w.a, w.n, x * c.amplitude))
    if (c.family in ("power", "power_log") and c.gamma < 1.0
            and c.amplitude > 0.0):
        g = c.gamma
        return GrowthForm(stretch_rate=_rate(x, c.amplitude) / (1.0 - g),
                          stretch_pow=1.0 - g, power=exponent_sum(w.a, w.n * g))
    lane = log_lane(c)
    if lane is not None:
        A, j = lane
        return GrowthForm(power=exponent_sum(w.a, w.n),
                          logs=(0.0,) * (j - 1) + (x * A,))
    return GrowthForm(power=exponent_sum(w.a, w.n))


# ---------------------------------------------------------------------------
# "for large values of t" conditions

def _monotone(cid: str, weight: str) -> ConditionReport:
    """weight * k is nonincreasing for large t when weight is."""
    return ConditionReport(cid, EVENTUALLY_NONINCREASING,
                           f"closed form: {weight} falls for q > 1 and k is "
                           "nonincreasing for large t")


# ---------------------------------------------------------------------------
# condition groups: each returns its reports in ledger order

def memory_moment_conditions(q: float, k_lower: CoefficientSpec
                             ) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Divergence of int t*k_lower, then its two alternatives: k_lower <=
    const/t^2, or t^{1-q} k_lower nonincreasing, for large t."""
    if q <= 1.0:
        raise ConfigurationError("memory blow-up conditions require q > 1")
    moment, bounded = moment_criterion(k_lower, 1.0)
    return (_verdict_report("memory-moment", moment, want=DIVERGES),
            ConditionReport("memory-envelope", bounded, "growth form of t^2*k: "
                            f"{'bounded' if bounded else 'unbounded'} tail"),
            _monotone("memory-moment-monotone", "t^(1-q)"))


def _weighted_integral(c: CoefficientSpec, k: CoefficientSpec, w: _Weight
                       ) -> IntegralVerdict:
    """Verdict on int_0^inf w k for the blow-up or the flux weight, read off
    the growth form of w times k's."""
    status, reason = tail_verdict(_weight_growth(c, w).times(growth_form(k)))
    return IntegralVerdict(status, None, f"weighted growth-form reduction: {reason}")


def weighted_memory_conditions(q: float, c: CoefficientSpec, k_lower: CoefficientSpec
                               ) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Exponentially weighted blow-up conditions for linear reaction (p = 1).

    The blow-up weight t^{1-q} e^{-C(t)} (int_0^t e^C)^q multiplies k_lower
    inside the divergence test; the two alternatives bound the companion
    weight t^{1-q} e^{-2C} (int_0^t e^C)^{q+1} times k_lower, or monotonize
    t^{1-q} e^{-2C} k_lower, for large t.
    """
    if q <= 1.0:
        raise ConfigurationError("weighted memory conditions require q > 1")
    blow = _weighted_integral(c, k_lower, _Weight.blowup(q))
    ok = form_bounded(_weight_growth(c, _Weight.bound(q)).times(growth_form(k_lower)))
    env = ConditionReport("weighted-envelope", ok,
                          "weighted growth-form reduction: companion weight "
                          f"{'bounded' if ok else 'unbounded'}")
    return (_verdict_report("weighted-memory", blow, want=DIVERGES), env,
            _monotone("weighted-monotone", "t^(1-q) e^(-2C)"))


# ---------------------------------------------------------------------------
# effective flux for the small-data side of linear reaction

def effective_flux(c: CoefficientSpec, k: CoefficientSpec, q: float) -> Flux:
    """Vectorized kappa(t) = k(t) e^{-C(t)} int_0^t e^{q C(tau)} dtau, with
    its growth form: the flux weight's times k's.

    Exactly t k(t), a float at a float t, when c = 0 or k = 0: the Th2
    barrier's influx; k e^{log_int_exp - C} on the closed-form lanes of
    `CumulativeIntegral.log_int_exp` (constant and harmonic c); otherwise a
    dense grid accumulation in log space up to t = 2e4 (twice the last
    probe of `memory_window_check`) with linear interpolation.
    """
    form = _weight_growth(c, _Weight.flux(q)).times(growth_form(k))
    if c.is_zero or k.is_zero:
        return Flux(lambda ts: ts * eval_coeff(k, ts), form)
    cum = CumulativeIntegral(c)
    cc = cum.spec
    if cc.family == "constant" or harmonic_lane(cc):
        def kappa_lane(ts):
            ts = np.asarray(ts, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                out = eval_coeff(k, ts) * np.exp(cum.log_int_exp(ts, q) - cum(ts))
            # 0 * inf only arises when k vanishes there, so kappa is 0
            return np.nan_to_num(out, nan=0.0, posinf=np.inf)
        return Flux(kappa_lane, form)

    grid = np.concatenate([np.linspace(0.0, 10.0, 2001),
                           np.geomspace(10.0, 2e4, 4000)[1:]])
    Cg = np.asarray(cum(grid))
    panel = (np.log(0.5 * np.diff(grid))
             + np.logaddexp(q * Cg[:-1], q * Cg[1:]))
    ln_int = np.concatenate([[-np.inf], np.logaddexp.accumulate(panel)])
    with np.errstate(divide="ignore", over="ignore"):
        ln_kappa = np.log(np.maximum(eval_coeff(k, grid), 1e-300)) - Cg + ln_int
        # an overflowing kappa is inf, not a plateau, so the window sup shows
        # the overflow; np.interp is inf, not nan, beside an inf node
        vals = np.exp(np.maximum(ln_kappa, -745.0))

    def kappa_grid(ts):
        return np.interp(np.asarray(ts, dtype=float), grid, vals)
    return Flux(kappa_grid, form)


def effective_flux_conditions(q: float, c: CoefficientSpec, k: CoefficientSpec
                              ) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Small-data side for linear reaction: integrability of the effective flux
    kappa = k e^{-C} int e^{qC}, its square-root-window bound, and the
    reaction-tail condition that upgrades global to bounded."""
    if q <= 1.0:
        raise ConfigurationError("effective flux conditions require q > 1")
    flux = _weighted_integral(c, k, _Weight.flux(q))
    window = memory_window_check(effective_flux(c, k, q))
    return (_verdict_report("effective-flux", flux, want=CONVERGES),
            _window_report("effective-flux-window", "effective flux", window),
            _verdict_report("reaction-integral", integrate_improper(c), want=CONVERGES))


def _part(v: IntegralVerdict) -> str:
    return f"{v.value:.6g}" if math.isfinite(v.value) else "past the float range"


def total_forcing_condition(c: CoefficientSpec, k: CoefficientSpec) -> IntegralVerdict:
    """Verdict on int_0^inf (c(t) + t k(t)) dt."""
    vc = integrate_improper(c)
    vk = integrate_improper(k, weight=1.0)
    if vc.diverges or vk.diverges:
        which = "reaction part" if vc.diverges else "memory moment part"
        return IntegralVerdict(DIVERGES, None, f"{which} diverges")
    return IntegralVerdict(CONVERGES, vc.value + vk.value,
                           f"reaction part {_part(vc)} + memory moment part {_part(vk)}")


def _window_report(cid: str, flux: str, win: WindowBound) -> ConditionReport:
    return ConditionReport(cid, win.holds,
                           f"windowed {flux} sup {win.k_sup:.6g} on the probes; "
                           f"{'bounded' if win.holds else 'not bounded'}")


# ---------------------------------------------------------------------------
# the classifier

def classify_regime(p: float, q: float, c: CoefficientSpec,
                    k: CoefficientSpec) -> RegimeVerdict:
    """Walk the rule ladder; first certified rule wins.

    Rules, in order: every-solution-global for max(p,q) <= 1; blow-up of all
    nontrivial data via the reaction mass, the memory moment, or the weighted
    memory integral (p = 1); small-data global existence via the total-forcing
    and window bounds (min(p,q) > 1) or via the effective flux (p = 1).
    The linear-reaction rules require p == 1 exactly.
    """
    p, q = as_real(p, "p"), as_real(q, "q")
    for x, name in ((p, "p"), (q, "q")):
        if not (math.isfinite(x) and x > 0):
            raise ConfigurationError(f"must be finite and > 0, not {x!r}", name)
    for spec, name in ((c, "c"), (k, "k")):
        if not isinstance(spec, CoefficientSpec):
            raise ConfigurationError(f"{name} must be a CoefficientSpec")

    linear = max(p, q) <= 1.0
    conds = [ConditionReport("max-exponent", linear,
                             f"max(p, q) = {exponent_text(max(p, q), 1.0)} "
                             f"{'<=' if linear else '>'} 1")]
    if linear:
        return RegimeVerdict(REGIME_GLOBAL_ALL, "linear-growth-barrier", tuple(conds),
                             notes="every nonnegative solution is global")

    if p > 1.0:
        mass = _verdict_report("reaction-integral", integrate_improper(c), want=DIVERGES)
        conds.append(mass)
        if mass.holds:
            return RegimeVerdict(REGIME_BLOWUP_ALL, "reaction-mass-blowup",
                                 tuple(conds),
                                 notes="superlinear reaction with divergent mass")

    if q > 1.0:
        moment, envelope, monotone = memory_moment_conditions(q, k)
        conds += (moment, envelope, monotone)
        if moment.holds and (envelope.holds or monotone.holds):
            return RegimeVerdict(REGIME_BLOWUP_ALL, "memory-moment-blowup",
                                 tuple(conds),
                                 notes="divergent memory moment with a tame envelope")

    if p == 1.0 and q > 1.0:
        weighted, envelope, monotone = weighted_memory_conditions(q, c, k)
        conds += (weighted, envelope, monotone)
        if weighted.holds and (envelope.holds or monotone.holds):
            return RegimeVerdict(REGIME_BLOWUP_ALL, "weighted-memory-blowup",
                                 tuple(conds),
                                 notes="divergent weighted memory integral")

    if min(p, q) > 1.0:
        forcing = _verdict_report("total-forcing", total_forcing_condition(c, k),
                                  want=CONVERGES)
        window = _window_report("memory-window", "flux",
                                memory_window_check(effective_flux(ZERO, k, q)))
        conds += (forcing, window)
        if forcing.holds and window.holds:
            return RegimeVerdict(
                REGIME_BOUNDED_SMALL, "small-data-barrier", tuple(conds),
                notes="bounded for small initial data; unresolved for large data")

    if p == 1.0 and q > 1.0:
        flux, window, reaction_tail = effective_flux_conditions(q, c, k)
        conds += (flux, window, reaction_tail)
        if flux.holds and window.holds:
            if reaction_tail.holds:
                return RegimeVerdict(
                    REGIME_BOUNDED_SMALL, "exponential-factor-barrier",
                    tuple(conds),
                    notes="bounded for small initial data; unresolved for large data")
            return RegimeVerdict(
                REGIME_GLOBAL_SMALL, "exponential-factor-barrier", tuple(conds),
                notes="global for small initial data; boundedness needs a "
                      "convergent reaction integral; unresolved for large data")

    if p > 1.0 and q <= 1.0:
        note = ("uncovered exponent region: p > 1 with convergent reaction "
                "integral and q <= 1")
    elif q > 1.0 and p < 1.0:
        note = "uncovered exponent region: q > 1 with p < 1"
    else:
        note = "every covered rule's hypotheses decisively fail"
    return RegimeVerdict(REGIME_INDETERMINATE, "none", tuple(conds), notes=note)
