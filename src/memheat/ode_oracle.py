"""Radial ODE oracle for boundary-driven blow-up.

Integrates y'' = b(r) y^q from nonnegative data and detects finite-radius
blow-up, independently of the PDE solver.  The equality case is the minimal
solution of the inequality class y'' >= b y^q, so a BlowUp verdict certifies
blow-up for the whole class; a GlobalUpTo verdict is only evidence, never a
counterexample.  check_th0_criterion evaluates the analytic blow-up
criterion (divergent r^q-weighted integral of b plus a regularity
alternative) so the two routes can be cross-checked.  The integrator is an
in-module DOP853, so the oracle needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coeffs import (
    EVENTUALLY_NONINCREASING,
    CoefficientSpec,
    IntegralVerdict,
    bisect_crossing,
    eval_coeff,
    moment_criterion,
)
from .errors import ConfigurationError, NotApplicableError, SolverFault

STATUS_ODE_BLOWUP = "BlowUp"
STATUS_ODE_GLOBAL = "GlobalUpTo"
_ENERGY_Y_CAP = 1e6  # energy_drift reads the path while y stays at or below
_ATOL = 1e-12        # absolute tolerance of the first pass; the second halves it


@dataclass(frozen=True)
class OdeControls:
    """The relative tolerance and the blow-up threshold, which mirrors the
    PDE solver."""

    rtol: float = 1e-8
    blowup_threshold: float = 1e10

    def __post_init__(self):
        if not 0 < self.rtol < 1:
            raise ConfigurationError("rtol must lie in (0, 1)")
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
        for name in ("a", "y_a", "yp_a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError("must be finite and >= 0", name)
        if self.y_a + self.yp_a <= 0:
            raise ConfigurationError("must be > 0 when y'(a) = 0", "y_a")
        if not (math.isfinite(self.q) and self.q > 1):
            raise ConfigurationError("must be finite and > 1", "q")
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
    nfev: int                               # rhs evaluations, both passes
    steps: int                              # accepted steps, both passes


# ---------------------------------------------------------------------------
# DOP853

# The Dormand-Prince 8(5,3) pair of Hairer, Norsett & Wanner, "Solving
# Ordinary Differential Equations I", sec. II.5, as scipy's
# integrate._ivp.dop853_coefficients spells it: the stage rows of A, the
# weights B and the fifth- and third-order error rows E5 and E3 (whose last
# entry weighs the first-same-as-last stage).  The oracle's system is
# autonomous, so the nodes C are not needed.
_A = tuple(np.array(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
))
_B = np.array((
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259))
_E3 = np.array((
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0))
_E5 = np.array((
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0))
# step-size control: safety factor, bounds on the change of h per step, and
# the exponent -1/(error estimator order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, s0, f0, rtol, atol) -> float:
    """The first step by Hairer, Norsett & Wanner's starting-step rule for
    an eighth-order pair (sec. II.4); it evaluates fun once."""
    scale = atol + np.abs(s0) * rtol
    d0, d1 = _rms(s0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = np.asarray(fun(s0 + h0 * f0))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1)


def _dop853_step(fun, s, f, h):
    """One DOP853 step of size h from s with derivative f -> (the state at
    tau + h, the 13 stages); the last stage is the derivative there."""
    k = np.empty((13, s.size))
    k[0] = f
    for i, a in enumerate(_A, start=1):
        k[i] = fun(s + np.dot(k[:i].T, a) * h)
    new = s + h * np.dot(k[:12].T, _B)
    k[12] = fun(new)
    return new, k


def _error_norm(k, h, s, new, rtol, atol):
    """DOP853's error norm of a step: the fifth-order estimate softened by
    the third-order one, each scaled by atol + rtol max(|s|, |new|)."""
    scale = atol + np.maximum(np.abs(s), np.abs(new)) * rtol
    e5 = np.linalg.norm(np.dot(k.T, _E5) / scale) ** 2
    e3 = np.linalg.norm(np.dot(k.T, _E3) / scale) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * scale.size)


def _hermite(p0, p1, m0, m1, theta):
    """The cubic through p0 and p1 with end slopes m0 and m1 (per unit
    theta), at theta in [0, 1]."""
    d = p1 - p0
    return p0 + theta * (m0 + theta * (3.0 * d - 2.0 * m0 - m1
                                       + theta * (m0 + m1 - 2.0 * d)))


@dataclass(frozen=True)
class IvpPath:
    """The accepted-step path of one solve_ivp call, ending at its event."""

    r: list
    y: list
    v: list
    blew: bool      # y reached the threshold (else r reached r_max)
    nfev: int       # right-hand side evaluations


def solve_ivp(fun, s0, rtol: float, atol: float, y_stop: float,
              r_stop: float) -> IvpPath:
    """DOP853 on ds/dtau = fun(s) for s = (r, y, v) from s0, until y
    reaches y_stop or r reaches r_stop.

    scipy's DOP853, step for step: the same stages, starting step, error
    norm and controller (an error norm below 1 accepts, and h changes by
    0.9 err^(-1/8) within [0.2, 10], at most 1 after a rejection), and the
    same floor of 100 eps on rtol.  The events are tested on each accepted
    step and located on the cubic Hermite through its ends; the earlier
    one ends the path there, with r = r_stop exactly for the horizon.  A
    state that leaves the float range or a step below 10 ulps of tau is a
    SolverFault naming r; a negative y is one too.
    """
    rtol = max(rtol, 100 * np.finfo(float).eps)
    s = np.array(s0, dtype=float)
    path = [s]
    try:
        with np.errstate(all="raise", under="ignore"):
            f = np.asarray(fun(s), dtype=float)
            h_abs = _initial_step(fun, s, f, rtol, atol)
            nfev, tau = 2, 0.0
            while True:
                min_step = 10 * math.ulp(tau)
                h_abs = max(h_abs, min_step)
                rejected = False
                while True:
                    if h_abs < min_step:
                        raise SolverFault(
                            f"integration failed at r = {s[0]:.6g}: Required "
                            f"step size is less than spacing between numbers.")
                    tau_new = tau + h_abs
                    h = h_abs = tau_new - tau
                    new, k = _dop853_step(fun, s, f, h)
                    nfev += 12
                    err = _error_norm(k, h, s, new, rtol, atol)
                    if not (math.isfinite(err) and np.isfinite(new).all()):
                        raise FloatingPointError
                    if err < 1:
                        factor = (_MAX_FACTOR if err == 0 else
                                  min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                        h_abs *= min(1, factor) if rejected else factor
                        break
                    h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
                    rejected = True
                if new[1] < 0:
                    raise SolverFault("state turned negative")
                if new[1] >= y_stop or new[0] >= r_stop:
                    break
                tau, s, f = tau_new, new, k[12]
                path.append(s)
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        # a float power that overflows raises, and numpy raises under
        # errstate; a product of floats that overflows is an inf, which the
        # finiteness test above catches
        raise SolverFault(f"integration failed at r = {s[0]:.6g}: "
                          f"the state leaves the float range") from None

    # the events inside the last step, as fractions theta of it
    m0, m1 = h * f, h * k[12]

    def crossing(i, level):
        if new[i] < level:
            return math.inf
        return bisect_crossing(
            lambda theta: _hermite(s[i], new[i], m0[i], m1[i], theta) - level,
            0.0, 1.0)
    at_blow, at_horizon = crossing(1, y_stop), crossing(0, r_stop)
    end = _hermite(s, new, m0, m1, min(at_blow, at_horizon))
    if end[1] < 0:
        raise SolverFault("state turned negative")
    blew = at_blow <= at_horizon
    if not blew:
        end[0] = r_stop
    r, y, v = np.array(path + [end]).T.tolist()
    return IvpPath(r, y, v, blew, nfev)


def _integrate_once(prob: OdeProblem, r_max: float, rtol: float, atol: float,
                    thresh: float) -> IvpPath:
    """The accepted-step path of one tolerance pass.

    One solve_ivp call on s = (r, y, y') in a rescaled time tau:
    ds/dtau = phi (1, y', b(r) y^q) with phi = (1 + y)/(1 + y + y').  While
    y grows at most linearly phi stays near 1, so global runs keep their
    steps; near blow-up phi is about y/y' and y grows like e^{c tau}, so
    the crossing of the threshold is a regular point that the step-size
    controller approaches without overshooting.  The solve ends at the
    first of two events: y reaches the threshold (the path blew, and
    R_star is its last r) or r reaches r_max (the path then ends at r_max
    exactly).  Data already at the threshold is a path of no steps.
    """
    b, hq = prob.b, 0.5 * prob.q

    def rhs(s):
        r, y, v = s.tolist()
        phi = (1.0 + y) / (1.0 + y + v)
        # phi b y^q as (y^{q/2} phi) b y^{q/2}, finite wherever the product
        # is; a stage value of y below 0 would make the float power complex
        h = y ** hq if y > 0.0 else 0.0
        return phi, phi * v, h * phi * eval_coeff(b, r) * h

    r, y, yp = prob.a, prob.y_a, prob.yp_a
    if y >= thresh:
        return IvpPath([r], [y], [yp], True, 0)
    return solve_ivp(rhs, (r, y, yp), rtol, atol, thresh, r_max)


def integrate_ode(prob: OdeProblem, r_max: float,
                  controls: Optional[OdeControls] = None) -> OdeOutcome:
    """Adaptive DOP853 integration with blow-up detection at 10^10.

    Each tolerance pass is one solve_ivp call in the rescaled time of
    _integrate_once, which ends where y crosses the blow-up threshold or
    where r reaches r_max.  R_star is that crossing radius, located on the
    cubic Hermite through the ends of the step that crosses; it lies short
    of the true blow-up radius by the tail past the threshold.  A second pass runs at halved tolerances;
    refinement_stability is the relative shift of the crossing radius
    between the two passes (None when no blow-up occurs).  nfev and steps
    add up both passes' right-hand-side evaluations and accepted steps.  A
    SolverFault names the radius where the solve failed.
    """
    ctr = controls or DEFAULT_ODE_CONTROLS
    if not (math.isfinite(r_max) and r_max > prob.a):
        raise ConfigurationError("r_max must be finite and > a")

    thresh = ctr.blowup_threshold
    first = _integrate_once(prob, r_max, ctr.rtol, _ATOL, thresh)
    second = _integrate_once(prob, r_max, ctr.rtol / 2.0, _ATOL / 2.0, thresh)
    R1, R2 = (path.r[-1] if path.blew else None for path in (first, second))
    stability = None
    if R1 is not None and R2 is not None:
        stability = abs(R1 - R2) / max(abs(R2), 1e-300)

    status = STATUS_ODE_BLOWUP if R1 is not None else STATUS_ODE_GLOBAL
    return OdeOutcome(status=status, R_star=R1, r_end=first.r[-1],
                      y_end=first.y[-1], refinement_stability=stability,
                      r_path=np.asarray(first.r), y_path=np.asarray(first.y),
                      yp_path=np.asarray(first.v),
                      nfev=first.nfev + second.nfev,
                      steps=len(first.r) + len(second.r) - 2)


def energy_drift(prob: OdeProblem, outcome: OdeOutcome) -> float:
    """Max relative drift of (y')^2/2 - b y^{q+1}/(q+1) while y <= _ENERGY_Y_CAP.

    The drift at each sample is scaled by the magnitude of the two energy
    terms there, so cancellation between large terms is measured honestly.
    Only defined for constant b, where the quantity is a first integral.
    """
    if prob.b.canonical.family != "constant":
        raise NotApplicableError("energy conservation needs constant b")
    b0 = float(prob.b.amplitude)
    w = prob.q + 1.0
    y, v = outcome.y_path, outcome.yp_path
    mask = y <= _ENERGY_Y_CAP
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


def check_th0_criterion(b: CoefficientSpec, q: float) -> Th0Report:
    """Blow-up criterion record for y'' >= b y^q from nonnegative data.

    applies = (int_0^inf r^q b(r) dr diverges) and at least one regularity
    alternative holds (eventual domination by B r^{-(q+1)}, or eventual
    monotone decay).  Both are read off the growth form of `b.eventual`, so
    a table is judged by its last value.
    """
    if q <= 1:
        raise ConfigurationError("exponent q must be > 1")
    divergence, alt_bounded = moment_criterion(b, q)
    alt_monotone = EVENTUALLY_NONINCREASING
    applies = divergence.diverges and (alt_bounded or alt_monotone)
    return Th0Report(divergence=divergence, alt_bounded=alt_bounded,
                     alt_monotone=alt_monotone, applies=applies)
