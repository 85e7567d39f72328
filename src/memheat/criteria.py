"""Regime classification for the heat problem with a memory boundary flux.

Given the exponent pair (p, q) and the coefficient specs c, k, the classifier
walks a fixed rule ladder and reports the first certified regime together with
every condition it actually evaluated.  For linear reaction (p = 1) the
conditions use exponential weights t^a e^{-mC} (int_0^t e^{rC})^n built from
C(t) = int_0^t c, each described once by its exponents (`_Weight`).  One
cascade (`_weighted_integral`) decides every weighted integral: k = 0, c = 0,
a convergent reaction integral, a growth form per coefficient lane, and
guarded numerics in log space for everything else.
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
    T_LARGE,
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


def _weight_growth(c: CoefficientSpec, w: _Weight) -> Optional[GrowthForm]:
    """Tail growth form of the weight w, per lane of c.

    On each lane int_0^t e^{rC} ~ e^{rC} t^s up to a constant, with s = 0
    for constant c, 1 for harmonic c, gamma for subharmonic c and 1 on the
    log lane; so w ~ t^{a + n s} e^{x C} with x = n r - m.
    """
    c = c.canonical
    x = w.n * w.r - w.m
    if c.family == "constant" and c.amplitude > 0.0:
        return GrowthForm(exp_rate=x * c.amplitude, power=w.a)
    if c.family == "power" and abs(c.gamma - 1.0) <= _TOL:
        return GrowthForm(power=w.a + w.n + x * c.amplitude)
    if c.family == "power" and 0.0 < c.gamma < 1.0:
        g = c.gamma
        return GrowthForm(stretch_rate=x * c.amplitude / (1.0 - g),
                          stretch_pow=1.0 - g, power=w.a + w.n * g)
    lane = log_lane(c)
    if lane is not None:
        A, j = lane
        return GrowthForm(power=w.a + w.n, logs=(0.0,) * (j - 1) + (x * A,))
    return None


def _log_weight(cum: CumulativeIntegral, w: _Weight, t: float) -> float:
    """ln w(t), evaluated without overflow."""
    return w.a * math.log(t) - w.m * cum(t) + w.n * cum.log_int_exp(t, w.r)


def _log_weighted(cum: CumulativeIntegral, w: _Weight, k: CoefficientSpec,
                  t: float) -> float:
    """ln of w(t) k(t), with k floored at 1e-300."""
    return _log_weight(cum, w, t) + math.log(max(eval_coeff(k, t), 1e-300))


# ---------------------------------------------------------------------------
# sampled checks for "for large values of t" conditions

def _samples(values: Callable, n: int):
    ts = np.geomspace(T_LARGE, 1e7, n)
    with np.errstate(all="ignore"):
        return ts, np.asarray(values(ts), dtype=float)


def _sampled_nonincreasing(values: Callable, n: int = 400) -> FlagReport:
    ts, v = _samples(values, n)
    ok = sampled_nonincreasing(v)
    return FlagReport(ok, f"sampled on t in [{ts[0]:.3g}, {ts[-1]:.3g}] "
                          f"({n} points): {'nonincreasing' if ok else 'increase detected'}")


def _sampled_bounded(values: Callable, n: int = 400) -> FlagReport:
    ts, v = _samples(values, n)
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


def _weighted_integral(c: CoefficientSpec, c_tail: Optional[IntegralVerdict],
                       k: CoefficientSpec, w: _Weight,
                       cum: CumulativeIntegral) -> IntegralVerdict:
    """Verdict on int_0^inf w k for the blow-up or the flux weight.

    The first rule that applies decides: k = 0; c = 0, where the weight is
    exactly t; a convergent reaction integral (c_tail), where the weight lies
    between constant multiples of t; the growth-form reduction; log-space
    numerics.  c_tail is read only when k and c are both nonzero.
    """
    if k.is_zero:
        return IntegralVerdict(CONVERGES, 0.0, "memory coefficient vanishes")
    if c.is_zero:
        base = integrate_improper(k, weight=1.0)
        return IntegralVerdict(base.status, base.value,
                               f"weights collapse at c = 0 to the t-moment; {base.evidence}")
    if c_tail.converges:
        base = integrate_improper(k, weight=1.0)
        return IntegralVerdict(base.status, None,
                               "bounded exponential weights (convergent reaction "
                               f"integral); equivalent to the t-moment: {base.evidence}")
    kform, wform = growth_form(k), _weight_growth(c, w)
    if kform is not None and wform is not None:
        status, reason = tail_verdict(wform.times(kform))
        return IntegralVerdict(status, None, f"weighted growth-form reduction: {reason}")

    def integrand(t):
        return math.exp(min(_log_weighted(cum, w, k, t), 700.0)) if t > 0.0 else 0.0

    raw = numeric_improper(integrand, t_lower=0.0)
    return IntegralVerdict(raw.status, None, f"log-space numerics: {raw.evidence}")


def weighted_memory_conditions(q: float, c: CoefficientSpec,
                               k_lower: CoefficientSpec) -> WeightedMemoryConditions:
    """Exponentially weighted blow-up conditions for linear reaction (p = 1).

    The blow-up weight t^{1-q} e^{-C(t)} (int_0^t e^C)^q multiplies k_lower
    inside the divergence test; the two alternatives bound the companion
    weight t^{1-q} e^{-2C} (int_0^t e^C)^{q+1} times k_lower, or monotonize
    t^{1-q} e^{-2C} k_lower, for large t.
    """
    if q <= 1.0:
        raise ConfigurationError("weighted memory conditions require q > 1")
    cum = CumulativeIntegral(c)

    # (2.4)-style monotonicity: always decided by log-space sampling
    monotone = _sampled_nonincreasing(lambda ts: np.exp(
        (1.0 - q) * np.log(ts) - 2.0 * cum(ts) + np.log(eval_coeff(k_lower, ts))))
    c_tail = None if k_lower.is_zero or c.is_zero else integrate_improper(c)
    blow = _weighted_integral(c, c_tail, k_lower, _Weight.blowup(q), cum)

    bound = _Weight.bound(q)
    kform, wform = growth_form(k_lower), _weight_growth(c, bound)
    if k_lower.is_zero:
        env = FlagReport(True, "weight times zero")
    elif c.is_zero or c_tail.converges:
        envelope = _envelope_bounded(k_lower)
        env = FlagReport(envelope.holds,
                         f"bounded exponential weights; reduces to t^2*k: {envelope.evidence}")
    elif kform is not None and wform is not None:
        ok = form_bounded(wform.times(kform))
        env = FlagReport(ok, "weighted growth-form reduction: companion weight "
                             f"{'bounded' if ok else 'unbounded'}")
    else:
        env = _sampled_bounded(lambda ts: np.exp(
            [_log_weighted(cum, bound, k_lower, float(t)) for t in ts]), n=80)
    return WeightedMemoryConditions(blow, env, monotone)


# ---------------------------------------------------------------------------
# effective flux for the small-data side of linear reaction

def effective_flux(c: CoefficientSpec, k: CoefficientSpec, q: float) -> Callable:
    """Vectorized kappa(t) = k(t) e^{-C(t)} int_0^t e^{q C(tau)} dtau.

    Exactly t k(t) when c = 0 or k = 0; k e^{log_int_exp - C} on the
    closed-form lanes of `CumulativeIntegral.log_int_exp` (constant and
    harmonic c); otherwise a dense grid accumulation in log space up to
    t = 2e4 (twice the last probe of `memory_window_check`) with linear
    interpolation.
    """
    if c.is_zero or k.is_zero:
        return lambda ts: np.asarray(ts, dtype=float) * eval_coeff(k, ts)
    cum = CumulativeIntegral(c)
    cc = cum.spec
    if cc.family == "constant" or (cc.family == "power"
                                   and abs(cc.gamma - 1.0) <= _TOL):
        def kappa_lane(ts):
            ts = np.asarray(ts, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                out = eval_coeff(k, ts) * np.exp(cum.log_int_exp(ts, q) - cum(ts))
            # 0 * inf only arises when k vanishes there, so kappa is 0
            return np.nan_to_num(out, nan=0.0, posinf=np.inf)
        return kappa_lane

    grid = np.concatenate([np.linspace(0.0, 10.0, 2001),
                           np.geomspace(10.0, 2e4, 4000)[1:]])
    Cg = np.asarray(cum(grid))
    panel = (np.log(0.5 * np.diff(grid))
             + np.logaddexp(q * Cg[:-1], q * Cg[1:]))
    ln_int = np.concatenate([[-np.inf], np.logaddexp.accumulate(panel)])
    with np.errstate(divide="ignore", over="ignore"):
        ln_kappa = np.log(np.maximum(eval_coeff(k, grid), 1e-300)) - Cg + ln_int
        # an overflowing kappa is inf, not a plateau that reads as stabilized;
        # np.interp is inf, not nan, beside an inf node
        vals = np.exp(np.maximum(ln_kappa, -745.0))

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
    flux = _weighted_integral(c, reaction_tail, k, _Weight.flux(q), CumulativeIntegral(c))
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
