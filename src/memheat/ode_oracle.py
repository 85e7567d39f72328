"""Radial ODE oracle for boundary-driven blow-up.

Integrates y'' = b(r) y^q from nonnegative data and detects finite-radius
blow-up, independently of the PDE solver.  The equality case is the minimal
solution of the inequality class y'' >= b y^q, so a BlowUp verdict certifies
blow-up for the whole class; a GlobalUpTo verdict is only evidence, never a
counterexample.  check_th0_criterion evaluates the analytic blow-up
criterion (divergent r^q-weighted integral of b plus a regularity
alternative) so the two routes can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .coeffs import (
    T_LARGE,
    CoefficientSpec,
    GrowthForm,
    IntegralVerdict,
    eval_coeff,
    form_bounded,
    growth_form,
    integrate_improper,
    sampled_nonincreasing,
)
from .errors import ConfigurationError, NotApplicableError, SolverFault

STATUS_ODE_BLOWUP = "BlowUp"
STATUS_ODE_GLOBAL = "GlobalUpTo"


@dataclass(frozen=True)
class OdeControls:
    """Tolerances and step policy; thresholds mirror the PDE solver."""

    rtol: float = 1e-8
    atol: float = 1e-12
    theta: float = 0.1
    blowup_threshold: float = 1e10

    def __post_init__(self):
        if not (0 < self.rtol < 1 and 0 < self.atol < 1):
            raise ConfigurationError("tolerances must lie in (0, 1)")
        if self.theta <= 0:
            raise ConfigurationError("theta must be > 0")
        if self.blowup_threshold <= 0:
            raise ConfigurationError("blow-up threshold must be > 0")


DEFAULT_ODE_CONTROLS = OdeControls()


@dataclass(frozen=True)
class OdeProblem:
    """y'' = b(r) y^q for r >= a, y(a) = y_a, y'(a) = yp_a.

    Data must be nonnegative with y_a + yp_a > 0 and q > 1; then y' is
    nondecreasing and y can never turn negative.
    """

    a: float
    y_a: float
    yp_a: float
    q: float
    b: CoefficientSpec

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ConfigurationError("start point a must be finite and >= 0")
        if not (math.isfinite(self.y_a) and self.y_a >= 0):
            raise ConfigurationError("y(a) must be finite and >= 0")
        if not (math.isfinite(self.yp_a) and self.yp_a >= 0):
            raise ConfigurationError("y'(a) must be finite and >= 0")
        if self.y_a + self.yp_a <= 0:
            raise ConfigurationError("need y(a) + y'(a) > 0")
        if not (math.isfinite(self.q) and self.q > 1):
            raise ConfigurationError("exponent q must be > 1")
        if not isinstance(self.b, CoefficientSpec):
            raise ConfigurationError("b must be a CoefficientSpec")


@dataclass
class OdeOutcome:
    status: str                             # BlowUp | GlobalUpTo
    R_star: Optional[float]                 # crossing radius when BlowUp
    r_end: float
    y_end: float
    refinement_stability: Optional[float]   # rel change of R* under tol halving
    r_path: np.ndarray
    y_path: np.ndarray
    yp_path: np.ndarray


def _integrate_once(prob: OdeProblem, r_max: float, ctr: OdeControls):
    """-> (R_star or None, r, y, y') with the accepted-step path."""
    q = prob.q
    thresh = ctr.blowup_threshold

    def rhs(r, s):
        return (s[1], float(eval_coeff(prob.b, r)) * s[0] ** q)

    def blow(r, s):
        return s[0] - thresh
    blow.terminal = True
    blow.direction = 1

    r, y, yp = prob.a, prob.y_a, prob.yp_a
    rs, ys, vs = [r], [y], [yp]
    if y >= thresh:
        return r, rs, ys, vs

    segments = 0
    while r < r_max:
        segments += 1
        if segments > 100_000:
            raise SolverFault("segment budget exhausted")
        # near blow-up the reaction rate b y^{q-1} fixes the step ceiling;
        # the ceiling is re-read whenever the state doubles
        rate = float(eval_coeff(prob.b, r)) * y ** (q - 1.0) if y > 0 else 0.0
        cap = ctr.theta / math.sqrt(rate) if rate > 0 else np.inf
        level = max(2.0 * y, 1.0)

        def grow(r_, s, level=level):
            return s[0] - level
        grow.terminal = True
        grow.direction = 1

        sol = solve_ivp(rhs, (r, r_max), (y, yp), method="RK45",
                        rtol=ctr.rtol, atol=ctr.atol, max_step=cap,
                        events=(blow, grow))
        if sol.status == -1:
            raise SolverFault(f"integration failed at r = {r:.6g}: {sol.message}")
        rs.extend(sol.t[1:].tolist())
        ys.extend(sol.y[0, 1:].tolist())
        vs.extend(sol.y[1, 1:].tolist())
        r, y, yp = float(sol.t[-1]), float(sol.y[0, -1]), float(sol.y[1, -1])
        if sol.y[0].min() < 0:
            raise SolverFault("state turned negative")   # cannot occur
        if sol.status == 1 and len(sol.t_events[0]):
            return r, rs, ys, vs
    return None, rs, ys, vs


def integrate_ode(prob: OdeProblem, r_max: float,
                  controls: Optional[OdeControls] = None) -> OdeOutcome:
    """Adaptive 4/5-pair integration with blow-up detection at 10^10.

    Runs a second pass at halved tolerances; refinement_stability is the
    relative shift of the crossing radius between the two passes (None when
    no blow-up occurs).
    """
    ctr = controls or DEFAULT_ODE_CONTROLS
    if not (math.isfinite(r_max) and r_max > prob.a):
        raise ConfigurationError("r_max must be finite and > a")

    R1, rs, ys, vs = _integrate_once(prob, r_max, ctr)
    tighter = replace(ctr, rtol=ctr.rtol / 2.0, atol=ctr.atol / 2.0)
    R2, *_ = _integrate_once(prob, r_max, tighter)
    stability = None
    if R1 is not None and R2 is not None:
        stability = abs(R1 - R2) / max(abs(R2), 1e-300)

    status = STATUS_ODE_BLOWUP if R1 is not None else STATUS_ODE_GLOBAL
    return OdeOutcome(status=status, R_star=R1, r_end=rs[-1], y_end=ys[-1],
                      refinement_stability=stability,
                      r_path=np.asarray(rs), y_path=np.asarray(ys),
                      yp_path=np.asarray(vs))


def energy_drift(prob: OdeProblem, outcome: OdeOutcome,
                 y_cap: float = 1e6) -> float:
    """Max relative drift of (y')^2/2 - b y^{q+1}/(q+1) while y <= y_cap.

    The drift at each sample is scaled by the magnitude of the two energy
    terms there, so cancellation between large terms is measured honestly.
    Only defined for constant b, where the quantity is a first integral.
    """
    if prob.b.canonical.family != "constant":
        raise NotApplicableError("energy conservation needs constant b")
    b0 = float(prob.b.amplitude)
    w = prob.q + 1.0
    y, v = outcome.y_path, outcome.yp_path
    mask = y <= y_cap
    if not np.any(mask):
        return 0.0
    kin = 0.5 * v[mask] ** 2
    pot = b0 * y[mask] ** w / w
    energy = kin - pot
    scale = np.maximum(kin + pot, 1e-300)
    return float(np.max(np.abs(energy - energy[0]) / scale))


# ---------------------------------------------------------------------------
# analytic criterion

@dataclass(frozen=True)
class Th0Report:
    """Divergence of int r^q b dr plus the regularity alternatives."""

    divergence: IntegralVerdict
    alt_bounded: bool            # b(r) <= B r^{-(q+1)} for large r
    alt_monotone: bool           # b nonincreasing for large r
    applies: bool


def check_th0_criterion(b: CoefficientSpec, q: float, a: float = 0.0) -> Th0Report:
    """Blow-up criterion record for y'' >= b y^q from nonnegative data.

    applies = (int_a^inf r^q b(r) dr diverges) and at least one regularity
    alternative holds (eventual domination by B r^{-(q+1)}, or eventual
    monotone decay).  Closed-form families are judged analytically;
    tabulated ones by sampling beyond `coeffs.T_LARGE`.
    """
    if q <= 1:
        raise ConfigurationError("exponent q must be > 1")
    if a < 0:
        raise ConfigurationError("start point a must be >= 0")
    divergence = integrate_improper(b, weight=q, t_lower=a)

    if b.family == "tabulated":
        lo = max(T_LARGE, a, 1.0)
        rs = np.geomspace(lo, 100.0 * lo, 241)
        vals = eval_coeff(b, rs)
        alt_monotone = sampled_nonincreasing(vals)
        alt_bounded = sampled_nonincreasing(rs ** (q + 1.0) * vals)
    else:
        # every closed-form family here is eventually nonincreasing:
        # amplitudes are >= 0 and all time factors decay or stay flat
        alt_monotone = True
        # b <= B r^{-(q+1)} eventually iff r^{q+1} b stays bounded
        alt_bounded = form_bounded(growth_form(b).times(GrowthForm(power=q + 1.0)))

    applies = divergence.diverges and (alt_bounded or alt_monotone)
    return Th0Report(divergence=divergence, alt_bounded=alt_bounded,
                     alt_monotone=alt_monotone, applies=applies)
