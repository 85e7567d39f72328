"""Regime classification for the heat problem with a memory boundary flux.

Given the exponent pair (p, q) and the coefficient specs c, k, the classifier
walks a fixed rule ladder and reports the first certified regime together with
every condition it actually evaluated.  Conditions involving exponential
weights built from C(t) = int_0^t c are reduced in closed form per coefficient
lane; anything outside the lanes falls back to guarded numerics in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffs import (
    CONVERGES,
    DIVERGES,
    INDETERMINATE,
    CoefficientSpec,
    CumulativeIntegral,
    GrowthForm,
    IntegralVerdict,
    WindowBound,
    eval_coeff,
    form_bounded,
    growth_form,
    integrate_improper,
    log_lane,
    memory_window_check,
    numeric_improper,
    sampled_nonincreasing,
    sup_stabilized,
    tail_verdict,
)
from .errors import ConfigurationError

REGIME_GLOBAL_ALL = "GlobalAll"
REGIME_BLOWUP_ALL = "BlowUpAll"
REGIME_GLOBAL_SMALL = "GlobalSmallData"
REGIME_BOUNDED_SMALL = "BoundedGlobalSmallData"
REGIME_INDETERMINATE = "Indeterminate"

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"

_TOL = 1e-12
_T_LARGE = 1e3  # where "for large t" sampling starts


@dataclass(frozen=True)
class FlagReport:
    """A yes/no/unknown side condition with its evidence line."""

    holds: Optional[bool]
    evidence: str

    @property
    def outcome(self) -> str:
        if self.holds is None:
            return UNDECIDED
        return HOLDS if self.holds else FAILS


@dataclass(frozen=True)
class ConditionReport:
    id: str
    outcome: str            # holds / fails / undecided
    evidence: str
    verdict: Optional[IntegralVerdict] = None


@dataclass(frozen=True)
class RegimeVerdict:
    regime: str
    rule: str
    conditions: tuple[ConditionReport, ...]
    notes: str = ""


@dataclass(frozen=True)
class MemoryMomentConditions:
    """Moment divergence of t*k_lower plus its two envelope alternatives."""

    moment: IntegralVerdict
    envelope: FlagReport       # k_lower(t) <= const / t^2 for large t
    monotone: FlagReport       # t^{1-q} k_lower(t) nonincreasing for large t


@dataclass(frozen=True)
class WeightedMemoryConditions:
    """Exponentially weighted analogues used when the reaction is linear."""

    blowup_integral: IntegralVerdict
    envelope: FlagReport
    monotone: FlagReport


@dataclass(frozen=True)
class EffectiveFluxConditions:
    """Small-data conditions for linear reaction: effective-flux integrability,
    its square-root-window bound, and the reaction-tail upgrade."""

    flux_integral: IntegralVerdict
    window: WindowBound
    reaction_tail: IntegralVerdict


# ---------------------------------------------------------------------------
# coefficient lanes for the exponential weights

def _constant_rate(c: CoefficientSpec) -> Optional[float]:
    """A when c(t) = A exactly for all t, else None."""
    c = c.canonical
    return c.amplitude if c.family == "constant" else None


def _harmonic_amp(c: CoefficientSpec) -> Optional[float]:
    """beta when c(t) = beta/(1+t) exactly, else None."""
    c = c.canonical
    return c.amplitude if c.family == "power" and abs(c.gamma - 1.0) <= _TOL else None


def _subharmonic(c: CoefficientSpec) -> Optional[tuple[float, float]]:
    """(A, gamma) when c = A(1+t)^-gamma with 0 < gamma < 1, else None."""
    c = c.canonical
    return (c.amplitude, c.gamma) if c.family == "power" and 0.0 < c.gamma < 1.0 else None


def _weight_growth(c: CoefficientSpec, q: float, kind: str) -> Optional[GrowthForm]:
    """Tail growth form of the exponential weight, per lane.

    kind "blowup": t^{1-q} e^{-C} (int_0^t e^C)^q
    kind "bound":  t^{1-q} e^{-2C} (int_0^t e^C)^{q+1}
    kind "flux":   e^{-C} int_0^t e^{qC}
    """
    A = _constant_rate(c)
    if A is not None and A > 0.0:
        if kind == "blowup" or kind == "bound":
            return GrowthForm(exp_rate=(q - 1.0) * A, power=1.0 - q)
        return GrowthForm(exp_rate=(q - 1.0) * A)
    beta = _harmonic_amp(c)
    if beta is not None:
        if kind == "blowup":
            return GrowthForm(power=1.0 + beta * (q - 1.0))
        if kind == "bound":
            return GrowthForm(power=2.0 + beta * (q - 1.0))
        return GrowthForm(power=1.0 + beta * (q - 1.0))
    sub = _subharmonic(c)
    if sub is not None:
        A, g = sub
        rate = (q - 1.0) * A / (1.0 - g)
        if kind == "blowup":
            return GrowthForm(stretch_rate=rate, stretch_pow=1.0 - g,
                              power=1.0 - q + g * q)
        if kind == "bound":
            return GrowthForm(stretch_rate=rate, stretch_pow=1.0 - g,
                              power=1.0 - q + g * (q + 1.0))
        return GrowthForm(stretch_rate=rate, stretch_pow=1.0 - g, power=g)
    lg = log_lane(c)
    if lg is not None:
        A, j = lg
        logs = (0.0,) * (j - 1) + (A * (q - 1.0),)
        if kind == "blowup" or kind == "flux":
            return GrowthForm(power=1.0, logs=logs)
        return GrowthForm(power=2.0, logs=logs)
    return None


# ---------------------------------------------------------------------------
# sampled checks for "for large values of t" conditions

def _samples(values: Callable, n: int):
    ts = np.geomspace(_T_LARGE, 1e7, n)
    with np.errstate(all="ignore"):
        return ts, np.asarray(values(ts), dtype=float)


def _sampled_nonincreasing(values: Callable, n: int = 400) -> FlagReport:
    ts, v = _samples(values, n)
    if not np.all(np.isfinite(v)):
        return FlagReport(False, "sampled values overflow; not nonincreasing")
    ok = sampled_nonincreasing(v)
    return FlagReport(ok, f"sampled on t in [{ts[0]:.3g}, {ts[-1]:.3g}] "
                          f"({n} points): {'nonincreasing' if ok else 'increase detected'}")


def _sampled_bounded(values: Callable, n: int = 400) -> FlagReport:
    ts, v = _samples(values, n)
    if not np.all(np.isfinite(v)):
        return FlagReport(False, "sampled values overflow; unbounded")
    late, early, ok = sup_stabilized(ts, v)
    return FlagReport(ok, f"sampled sup {late:.6g} vs early sup {early:.6g} "
                          f"on t in [{ts[0]:.3g}, {ts[-1]:.3g}]")


def _envelope_bounded(kl: CoefficientSpec) -> FlagReport:
    """Whether t^2 * kl(t) is bounded for large t (i.e. kl <= const/t^2)."""
    form = growth_form(kl)
    if form is not None:
        total = form.times(GrowthForm(power=2.0))
        ok = form_bounded(total)
        return FlagReport(ok, f"growth form of t^2*k: "
                              f"{'bounded' if ok else 'unbounded'} tail")
    return _sampled_bounded(lambda ts: ts ** 2 * eval_coeff(kl, ts))


# ---------------------------------------------------------------------------
# condition groups

def memory_moment_conditions(q: float, k_lower: CoefficientSpec) -> MemoryMomentConditions:
    """Divergence of int t*k_lower plus the envelope/monotonicity alternatives."""
    if q <= 1.0:
        raise ConfigurationError("memory blow-up conditions require q > 1")
    moment = integrate_improper(k_lower, weight=1.0)
    envelope = _envelope_bounded(k_lower)
    monotone = _sampled_nonincreasing(
        lambda ts: ts ** (1.0 - q) * eval_coeff(k_lower, ts))
    return MemoryMomentConditions(moment, envelope, monotone)


def _log_weight(cum: CumulativeIntegral, q: float, kind: str, t: float) -> float:
    """ln of the exponential weight at one time, evaluated without overflow."""
    if kind == "blowup":
        return ((1.0 - q) * math.log(t) - cum(t) + q * cum.log_int_exp(t, 1.0))
    if kind == "bound":
        return ((1.0 - q) * math.log(t) - 2.0 * cum(t)
                + (q + 1.0) * cum.log_int_exp(t, 1.0))
    return -cum(t) + cum.log_int_exp(t, q)


def weighted_memory_conditions(q: float, c: CoefficientSpec,
                               k_lower: CoefficientSpec) -> WeightedMemoryConditions:
    """Exponentially weighted blow-up conditions for linear reaction (p = 1).

    The weight t^{1-q} e^{-C(t)} (int_0^t e^C)^q multiplies k_lower inside the
    divergence test; the two alternatives bound or monotonize the companion
    weights for large t.
    """
    if q <= 1.0:
        raise ConfigurationError("weighted memory conditions require q > 1")
    cum = CumulativeIntegral(c)

    # (2.4)-style monotonicity: always decided by log-space sampling
    def mono_vals(ts):
        Cv = cum(ts)
        with np.errstate(all="ignore"):
            ln = (1.0 - q) * np.log(ts) - 2.0 * Cv + np.log(eval_coeff(k_lower, ts))
        return np.exp(np.clip(ln, -745.0, 705.0))

    monotone = _sampled_nonincreasing(mono_vals)

    if k_lower.is_zero:
        zero = IntegralVerdict(CONVERGES, 0.0, "lower memory envelope vanishes")
        return WeightedMemoryConditions(zero, FlagReport(True, "weight times zero"),
                                        monotone)

    if c.is_zero:
        # weights collapse: t^{1-q} * t^q = t exactly
        base = integrate_improper(k_lower, weight=1.0)
        blow = IntegralVerdict(base.status, base.value,
                               f"weights collapse at c = 0 to the t-moment; {base.evidence}")
        envelope = _envelope_bounded(k_lower)
        env = FlagReport(envelope.holds,
                         f"weights collapse at c = 0 to t^2*k; {envelope.evidence}")
        return WeightedMemoryConditions(blow, env, monotone)

    c_tail = integrate_improper(c)
    if c_tail.converges:
        # e^{-C} in [e^{-C_inf}, 1] and int_0^t e^C in [t, e^{C_inf} t]:
        # the weighted integrand is sandwiched by constant multiples of t*k
        base = integrate_improper(k_lower, weight=1.0)
        blow = IntegralVerdict(base.status, None,
                               "bounded exponential weights (convergent reaction "
                               f"integral); equivalent to the t-moment: {base.evidence}")
        envelope = _envelope_bounded(k_lower)
        env = FlagReport(envelope.holds,
                         f"bounded exponential weights; reduces to t^2*k: {envelope.evidence}")
        return WeightedMemoryConditions(blow, env, monotone)

    kform = growth_form(k_lower)
    wblow = _weight_growth(c, q, "blowup")
    wbound = _weight_growth(c, q, "bound")
    if kform is not None and wblow is not None and wbound is not None:
        status, reason = tail_verdict(wblow.times(kform))
        blow = IntegralVerdict(status, None, f"weighted growth-form reduction: {reason}")
        ok = form_bounded(wbound.times(kform))
        env = FlagReport(ok, "weighted growth-form reduction: companion weight "
                             f"{'bounded' if ok else 'unbounded'}")
        return WeightedMemoryConditions(blow, env, monotone)

    # log-space numerics: exact integrand, overflow treated as divergence
    def integrand(t):
        if t <= 0.0:
            return 0.0
        ln = _log_weight(cum, q, "blowup", t) + math.log(max(eval_coeff(k_lower, t), 1e-300))
        return math.exp(min(ln, 700.0))

    blow = numeric_improper(integrand, t_lower=0.0)
    blow = IntegralVerdict(blow.status, None, f"log-space numerics: {blow.evidence}")

    def bound_vals(ts):
        out = np.array([_log_weight(cum, q, "bound", float(t))
                        + math.log(max(eval_coeff(k_lower, float(t)), 1e-300))
                        for t in np.atleast_1d(ts)])
        return np.exp(np.clip(out, -745.0, 705.0))

    env = _sampled_bounded(bound_vals, n=80)
    return WeightedMemoryConditions(blow, env, monotone)


# ---------------------------------------------------------------------------
# effective flux for the small-data side of linear reaction

def effective_flux(c: CoefficientSpec, k: CoefficientSpec, q: float) -> Callable:
    """Vectorized kappa(t) = k(t) e^{-C(t)} int_0^t e^{q C(tau)} dtau.

    Closed forms for constant and harmonic reaction lanes; otherwise a dense
    grid accumulation in log space up to t = 2e4 (twice the last probe of
    `memory_window_check`) with linear interpolation.
    """
    if c.is_zero:
        return lambda ts: np.asarray(ts, dtype=float) * eval_coeff(k, ts)
    A = _constant_rate(c)
    if A is not None:

        def kappa_const(ts):
            ts = np.asarray(ts, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                out = (eval_coeff(k, ts)
                       * (np.exp((q - 1.0) * A * ts) - np.exp(-A * ts)) / (q * A))
            # 0 * inf only arises when k vanishes there, so kappa is 0
            return np.nan_to_num(out, nan=0.0, posinf=np.inf)
        return kappa_const
    beta = _harmonic_amp(c)
    if beta is not None:
        e = q * beta

        def kappa_harm(ts):
            ts = np.asarray(ts, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                out = (eval_coeff(k, ts) * (1.0 + ts) ** (-beta)
                       * ((1.0 + ts) ** (e + 1.0) - 1.0) / (e + 1.0))
            return np.nan_to_num(out, nan=0.0, posinf=np.inf)
        return kappa_harm

    cum = CumulativeIntegral(c)
    grid = np.concatenate([np.linspace(0.0, 10.0, 2001),
                           np.geomspace(10.0, 2e4, 4000)[1:]])
    Cg = np.asarray(cum(grid))
    panel = (np.log(0.5 * np.diff(grid))
             + np.logaddexp(q * Cg[:-1], q * Cg[1:]))
    ln_int = np.concatenate([[-np.inf], np.logaddexp.accumulate(panel)])
    with np.errstate(divide="ignore"):
        ln_kappa = np.log(np.maximum(eval_coeff(k, grid), 1e-300)) - Cg + ln_int
    vals = np.exp(np.clip(ln_kappa, -745.0, 705.0))

    def kappa_grid(ts):
        return np.interp(np.asarray(ts, dtype=float), grid, vals)
    return kappa_grid


def effective_flux_conditions(q: float, c: CoefficientSpec,
                              k: CoefficientSpec) -> EffectiveFluxConditions:
    """Small-data side for linear reaction: integrability of the effective flux
    kappa = k e^{-C} int e^{qC}, its square-root-window bound, and the
    reaction-tail condition that upgrades global to bounded."""
    if q <= 1.0:
        raise ConfigurationError("effective flux conditions require q > 1")
    reaction_tail = integrate_improper(c)

    if k.is_zero:
        flux = IntegralVerdict(CONVERGES, 0.0, "flux coefficient vanishes")
        window = memory_window_check(k)
        return EffectiveFluxConditions(flux, window, reaction_tail)

    if c.is_zero:
        flux = integrate_improper(k, weight=1.0)
        window = memory_window_check(k)
        return EffectiveFluxConditions(flux, window, reaction_tail)

    if reaction_tail.converges:
        base = integrate_improper(k, weight=1.0)
        flux = IntegralVerdict(base.status, None,
                               "bounded exponential weights (convergent reaction "
                               f"integral); equivalent to the t-moment: {base.evidence}")
    else:
        kform = growth_form(k)
        wflux = _weight_growth(c, q, "flux")
        if kform is not None and wflux is not None:
            status, reason = tail_verdict(wflux.times(kform))
            flux = IntegralVerdict(status, None,
                                   f"weighted growth-form reduction: {reason}")
        else:
            cum = CumulativeIntegral(c)

            def integrand(t):
                if t <= 0.0:
                    return 0.0
                ln = (_log_weight(cum, q, "flux", t)
                      + math.log(max(eval_coeff(k, t), 1e-300)))
                return math.exp(min(ln, 700.0))

            raw = numeric_improper(integrand, t_lower=0.0)
            flux = IntegralVerdict(raw.status, None, f"log-space numerics: {raw.evidence}")

    window = memory_window_check(k, flux=effective_flux(c, k, q))
    return EffectiveFluxConditions(flux, window, reaction_tail)


def total_forcing_condition(c: CoefficientSpec, k: CoefficientSpec) -> IntegralVerdict:
    """Verdict on int_0^inf (c(t) + t k(t)) dt."""
    vc = integrate_improper(c)
    vk = integrate_improper(k, weight=1.0)
    if vc.diverges or vk.diverges:
        which = "reaction part" if vc.diverges else "memory moment part"
        return IntegralVerdict(DIVERGES, None, f"{which} diverges")
    if vc.converges and vk.converges:
        return IntegralVerdict(CONVERGES, vc.value + vk.value,
                               f"reaction part {vc.value:.6g} + memory moment part {vk.value:.6g}")
    return IntegralVerdict(INDETERMINATE, None,
                           f"reaction part {vc.status}; memory moment part {vk.status}")


# ---------------------------------------------------------------------------
# the classifier

def _verdict_report(cid: str, v: IntegralVerdict, want: str) -> ConditionReport:
    if v.status == INDETERMINATE:
        outcome = UNDECIDED
    else:
        outcome = HOLDS if v.status == want else FAILS
    return ConditionReport(cid, outcome, v.evidence, v)


def _flag_report(cid: str, f: FlagReport) -> ConditionReport:
    return ConditionReport(cid, f.outcome, f.evidence)


def classify_regime(p: float, q: float, c: CoefficientSpec, k: CoefficientSpec,
                    k_lower: Optional[CoefficientSpec] = None) -> RegimeVerdict:
    """Walk the rule ladder; first certified rule wins.

    Rules, in order: every-solution-global for max(p,q) <= 1; blow-up of all
    nontrivial data via the reaction mass, the memory moment, or the weighted
    memory integral (p = 1); small-data global existence via the total-forcing
    and window bounds (min(p,q) > 1) or via the effective flux (p = 1).
    The linear-reaction rules require p == 1 exactly.
    """
    if not (isinstance(p, (int, float)) and isinstance(q, (int, float))):
        raise ConfigurationError("p and q must be numbers")
    if p <= 0 or q <= 0:
        raise ConfigurationError("exponents p and q must be positive")
    for spec, name in ((c, "c"), (k, "k")):
        if not isinstance(spec, CoefficientSpec):
            raise ConfigurationError(f"{name} must be a CoefficientSpec")
    kl = k if k_lower is None else k_lower

    conds: list[ConditionReport] = []

    if max(p, q) <= 1.0:
        conds.append(ConditionReport("max-exponent", HOLDS,
                                     f"max(p, q) = {max(p, q):.6g} <= 1"))
        return RegimeVerdict(REGIME_GLOBAL_ALL, "linear-growth-barrier",
                             tuple(conds),
                             notes="every nonnegative solution is global")
    conds.append(ConditionReport("max-exponent", FAILS,
                                 f"max(p, q) = {max(p, q):.6g} > 1"))

    if p > 1.0:
        vc = integrate_improper(c)
        conds.append(_verdict_report("reaction-integral", vc, want=DIVERGES))
        if vc.diverges:
            return RegimeVerdict(REGIME_BLOWUP_ALL, "reaction-mass-blowup",
                                 tuple(conds),
                                 notes="superlinear reaction with divergent mass")

    if q > 1.0:
        mm = memory_moment_conditions(q, kl)
        conds.append(_verdict_report("memory-moment", mm.moment, want=DIVERGES))
        conds.append(_flag_report("memory-envelope", mm.envelope))
        conds.append(_flag_report("memory-moment-monotone", mm.monotone))
        if mm.moment.diverges and (mm.envelope.holds or mm.monotone.holds):
            return RegimeVerdict(REGIME_BLOWUP_ALL, "memory-moment-blowup",
                                 tuple(conds),
                                 notes="divergent memory moment with a tame envelope")

    if p == 1.0 and q > 1.0:
        wm = weighted_memory_conditions(q, c, kl)
        conds.append(_verdict_report("weighted-memory", wm.blowup_integral,
                                     want=DIVERGES))
        conds.append(_flag_report("weighted-envelope", wm.envelope))
        conds.append(_flag_report("weighted-monotone", wm.monotone))
        if wm.blowup_integral.diverges and (wm.envelope.holds or wm.monotone.holds):
            return RegimeVerdict(REGIME_BLOWUP_ALL, "weighted-memory-blowup",
                                 tuple(conds),
                                 notes="divergent weighted memory integral")

    if min(p, q) > 1.0:
        tf = total_forcing_condition(c, k)
        conds.append(_verdict_report("total-forcing", tf, want=CONVERGES))
        win = memory_window_check(k)
        conds.append(ConditionReport(
            "memory-window", HOLDS if win.holds else FAILS,
            f"windowed flux sup {win.k_sup:.6g} "
            f"({'stabilized' if win.holds else 'still growing'})"))
        if tf.converges and win.holds:
            return RegimeVerdict(
                REGIME_BOUNDED_SMALL, "small-data-barrier", tuple(conds),
                notes="bounded for small initial data; unresolved for large data")

    if p == 1.0 and q > 1.0:
        ef = effective_flux_conditions(q, c, k)
        conds.append(_verdict_report("effective-flux", ef.flux_integral,
                                     want=CONVERGES))
        conds.append(ConditionReport(
            "effective-flux-window", HOLDS if ef.window.holds else FAILS,
            f"windowed effective flux sup {ef.window.k_sup:.6g} "
            f"({'stabilized' if ef.window.holds else 'still growing'})"))
        conds.append(_verdict_report("reaction-integral", ef.reaction_tail,
                                     want=CONVERGES))
        if ef.flux_integral.converges and ef.window.holds:
            if ef.reaction_tail.converges:
                return RegimeVerdict(
                    REGIME_BOUNDED_SMALL, "exponential-factor-barrier",
                    tuple(conds),
                    notes="bounded for small initial data; unresolved for large data")
            return RegimeVerdict(
                REGIME_GLOBAL_SMALL, "exponential-factor-barrier", tuple(conds),
                notes="global for small initial data; boundedness needs a "
                      "convergent reaction integral; unresolved for large data")

    undecided = [r.id for r in conds if r.outcome == UNDECIDED]
    if undecided:
        note = "undecided conditions: " + ", ".join(sorted(set(undecided)))
    elif p > 1.0 and q <= 1.0:
        note = ("uncovered exponent region: p > 1 with convergent reaction "
                "integral and q <= 1")
    elif q > 1.0 and p < 1.0:
        note = "uncovered exponent region: q > 1 with p < 1"
    else:
        note = "every covered rule's hypotheses decisively fail"
    return RegimeVerdict(REGIME_INDETERMINATE, "none", tuple(conds), notes=note)
