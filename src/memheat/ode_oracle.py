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
    """Tolerances and the blow-up threshold, which mirrors the PDE solver."""

    rtol: float = 1e-8
    atol: float = 1e-12
    blowup_threshold: float = 1e10

    def __post_init__(self):
        if not (0 < self.rtol < 1 and 0 < self.atol < 1):
            raise ConfigurationError("tolerances must lie in (0, 1)")
        # the solve ends only at the threshold or at r_max
        if not 0.0 < self.blowup_threshold < math.inf:
            raise ConfigurationError("blowup_threshold must be finite and > 0")


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
    """-> (R_star or None, r, y, y') with the accepted-step path.

    One DOP853 solve of s = (r, y, y') in a rescaled time tau:
    ds/dtau = phi (1, y', b(r) y^q) with phi = (1 + y)/(1 + y + y').  While
    y grows at most linearly phi stays near 1, so global runs keep their
    steps; near blow-up phi is about y/y' and y grows like e^{c tau}, so
    the crossing of the threshold is a regular point that the step-size
    controller approaches without overshooting.  The solve ends at the
    first of two events: y reaches the threshold (R_star is r there) or r
    reaches r_max (the path then ends at r_max exactly).  A state that
    leaves the float range is a SolverFault, never a warning.
    """
    b, hq = prob.b, 0.5 * prob.q
    thresh = ctr.blowup_threshold
    last_r = [prob.a]     # where the latest evaluation sat, for a fault

    def rhs(tau, s):
        r, y, v = s.tolist()
        last_r[0] = r
        phi = (1.0 + y) / (1.0 + y + v)
        # phi b y^q as (y^{q/2} phi) b y^{q/2}, finite wherever the product
        # is; a stage value of y below 0 would make the float power complex
        h = y ** hq if y > 0.0 else 0.0
        return (phi, phi * v, h * phi * float(eval_coeff(b, r)) * h)

    def blow(tau, s):
        return s[1] - thresh
    blow.terminal = True
    blow.direction = 1

    def horizon(tau, s):
        return s[0] - r_max
    horizon.terminal = True
    horizon.direction = 1

    r, y, yp = prob.a, prob.y_a, prob.yp_a
    if y >= thresh:
        return r, [r], [y], [yp]

    try:
        with np.errstate(all="raise", under="ignore"):
            sol = solve_ivp(rhs, (0.0, math.inf), (r, y, yp), method="DOP853",
                            rtol=ctr.rtol, atol=ctr.atol,
                            events=(blow, horizon))
    except (FloatingPointError, OverflowError):
        raise SolverFault(f"integration failed at r = {last_r[0]:.6g}: "
                          f"the state leaves the float range") from None
    rs, ys, vs = sol.y
    if sol.status == -1:
        raise SolverFault(f"integration failed at r = {float(rs[-1]):.6g}: "
                          f"{sol.message}")
    if ys.min() < 0:
        raise SolverFault("state turned negative")   # cannot occur
    if sol.t_events[0].size:
        return float(rs[-1]), rs.tolist(), ys.tolist(), vs.tolist()
    rs[-1] = r_max
    return None, rs.tolist(), ys.tolist(), vs.tolist()


def integrate_ode(prob: OdeProblem, r_max: float,
                  controls: Optional[OdeControls] = None) -> OdeOutcome:
    """Adaptive DOP853 integration with blow-up detection at 10^10.

    Each tolerance pass is one solve_ivp call in the rescaled time of
    _integrate_once, which ends where y crosses the blow-up threshold or
    where r reaches r_max.  R_star is that crossing radius, located on
    DOP853's dense output; it lies short of the true blow-up radius by the
    tail past the threshold.  A second pass runs at halved tolerances;
    refinement_stability is the relative shift of the crossing radius
    between the two passes (None when no blow-up occurs).  A SolverFault
    names the radius where the solve failed.
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
