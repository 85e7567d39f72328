"""Explicit barrier functions dominating the flow, and their verification.

Three constructions cover the global-existence regimes: an exponential-in-time
barrier d e^{bt}(2 - phi) for sublinear exponents, a product barrier
alpha z(t) y(x,t) for superlinear exponents under decaying forcing, and an
exponential-factor barrier alpha e^{C(t)} h(x,t) for a linear reaction term.
Each is checked a posteriori by discrete residuals of the three defining
inequalities (interior, boundary, initial), so the formulas never have to be
trusted blindly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .coeffs import (
    ZERO,
    CoefficientSpec,
    CumulativeIntegral,
    bisect_crossing,
    coefficient_sup,
    eval_coeff,
    memory_window_check,
)
from .criteria import (
    effective_flux,
    effective_flux_conditions,
    total_forcing_condition,
)
from .errors import ConfigurationError, NotApplicableError, SolverFault
from .pde_core import (
    STATUS_GLOBAL,
    InitialSpec,
    PrescribedFluxRule,
    Scenario,
    SimulationOutcome,
    State,
    run,
    step,
)

_DOMINATION_TOL = 1e-8  # check_domination's bound on (u - barrier)/(1 + sup)
# _checkable_horizon gives up on a nonzero horizon once it bisects below
# this fraction of T with nothing checkable yet
_HORIZON_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# auxiliary linear runs

def _lerp_weights(nodes: np.ndarray, at):
    """(i, w) with at = (1 - w) nodes[i-1] + w nodes[i], at clamped to the
    ends of nodes; a node itself gets w = 1 (w = 0 at nodes[0]), so its
    value comes back exactly."""
    at = np.clip(at, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, at), 1, len(nodes) - 1)
    return i, (at - nodes[i - 1]) / (nodes[i] - nodes[i - 1])


@dataclass
class AuxiliarySolution:
    """Heat flow with a prescribed boundary influx, plus its sup bound."""

    times: np.ndarray
    fields: np.ndarray          # row i is the field at times[i]
    grid: np.ndarray
    bound: float                # stabilized running sup (Y or H)
    stabilized: bool

    def at(self, x: np.ndarray, t) -> np.ndarray:
        """The field on x at t, a float or a time column of shape (m, 1):
        linear between snapshots and between grid nodes, clamped at the
        ends.  Shape (len(x),) for a float t, (m, len(x)) for a column."""
        i, w = _lerp_weights(self.times, np.atleast_1d(t)[..., 0])
        w = w[..., None]
        rows = (1.0 - w) * self.fields[i - 1] + w * self.fields[i]
        j, v = _lerp_weights(self.grid, np.asarray(x))
        return (1.0 - v) * rows[..., j - 1] + v * rows[..., j]


def solve_auxiliary_linear(flux: Optional[Callable[[float], float]],
                           scenario: Scenario, t_max: float,
                           ) -> AuxiliarySolution:
    """Integrate v_t = v_xx, v(x,0) = 1, outward slope flux(t) at both ends,
    on the scenario's domain with its controls up to t_max.

    flux maps a float t to a float; None means no influx, which keeps the
    constant initial state exactly.  Snapshots cover [0, t_max] at the
    controls' cadence.  The integration then continues with geometrically
    growing steps out to t_settle = max(4e4, 2 t_max): power-law flux tails
    keep feeding the sup long past any snapshot horizon, and the bound is
    only trusted once the running sup grows by less than 1e-4 relative over
    the final half of [0, t_settle].
    """
    controls = replace(scenario.controls, t_max=t_max)
    if flux is None:
        return AuxiliarySolution(times=np.array([0.0, t_max]),
                                 fields=np.ones((2, controls.n_nodes)),
                                 grid=scenario.grid(), bound=1.0,
                                 stabilized=True)
    t_settle = max(4e4, 2.0 * t_max)
    rule = PrescribedFluxRule(flux)
    scn = Scenario(length=scenario.length, p=2.0, q=2.0, c=ZERO, k=ZERO,
                   u0=InitialSpec("constant", 1.0), controls=controls,
                   boundary=rule)
    out = run(scn)
    tr = out.trace
    sup_t = list(tr.t)
    sup_run = list(np.maximum.accumulate(tr.sup_norm))

    ok = out.status == STATUS_GLOBAL
    if ok:
        # the last state of a run that reached its horizon has a finite
        # sup, so its field has no negative entry
        state = State(float(out.snapshots[-1][0]),
                      out.snapshots[-1][1].copy(), 0.0, 0.0, nonneg=True)
        rs = sup_run[-1]
        dt = controls.dt_max
        # past dt / h^2 = 2^50, I - dt D has no Cholesky factor; `Scenario`
        # bounds dt_max by the same cap
        dt_cap = 2.0 ** 50 * scn.h * scn.h
        try:
            while state.t < t_settle and math.isfinite(rs):
                dt = min(dt * 1.05, 100.0, dt_cap, t_settle - state.t)
                state = step(state, scn, dt, rule)
                rs = max(rs, state.sup)
                sup_t.append(state.t)
                sup_run.append(rs)
        except SolverFault:
            ok = False

    sup_t = np.array(sup_t)
    sup_run = np.array(sup_run)
    half = min(int(np.searchsorted(sup_t, t_settle / 2.0)), len(sup_run) - 1)
    rs_half = float(sup_run[half])
    rs_end = float(sup_run[-1])
    stabilized = (ok and math.isfinite(rs_end)
                  and rs_end - rs_half < 1e-4 * max(rs_end, 1e-300))
    times = np.array([t for t, _ in out.snapshots])
    fields = np.stack([u for _, u in out.snapshots])
    return AuxiliarySolution(times=times, fields=fields,
                             grid=scn.grid(), bound=max(rs_end, 1.0),
                             stabilized=stabilized)


# ---------------------------------------------------------------------------
# barrier specs

# ln of the largest float: e^t overflows past it
_LOG_MAX = math.log(sys.float_info.max)


def _horizon_error(kind: str, t_cap: float) -> NotApplicableError:
    return NotApplicableError(
        f"the {kind} barrier passes the float range after t = {t_cap:.6g}; "
        f"that is the largest horizon it can represent")


@dataclass
class SupersolutionSpec:
    """A barrier: its kind (Th00 | Th2 | Th4), its parameters, its values and
    the auxiliary run it is built on (Th2 and Th4).

    evaluate(x, t) takes t as a float, giving the row on x, or as a time
    column of shape (m, 1), giving the (m, len(x)) rows at those times; a
    column's rows are bit for bit the rows of its times one at a time, so
    the builders evaluate with numpy ufuncs only.  It is elementwise in x:
    evaluate(x[J], t) is bit for bit evaluate(x, t)[..., J].
    """

    kind: str
    params: dict
    evaluate: Callable[[np.ndarray, float], np.ndarray]
    aux: Optional[AuxiliarySolution] = None


def build_th00_supersolution(scenario: Scenario, T: float) -> SupersolutionSpec:
    """Barrier d e^{bt} (2 - phi) for max(p, q) <= 1.

    b clears both the interior rate lambda1 + 2M and the boundary rate
    2M / (q * inward eigenfunction slope), with M = sup of c and k on [0, T];
    d clears the initial data and 1.
    """
    if max(scenario.p, scenario.q) > 1.0:
        raise NotApplicableError(
            "the exponential barrier needs max(p, q) <= 1")
    if T <= 0:
        raise ConfigurationError("horizon T must be > 0")
    L = scenario.length
    lam = (math.pi / L) ** 2
    slope = math.pi / L
    M = max(coefficient_sup(scenario.c, T), coefficient_sup(scenario.k, T))
    b = max(lam + 2.0 * M, 2.0 * M / (scenario.q * slope))
    d = max(float(scenario.initial_field().max()), 1.0)
    # the barrier peaks at 2 d e^{bT}
    t_cap = (_LOG_MAX - math.log(2.0 * d)) / b
    if T > t_cap:
        raise _horizon_error("exponential", t_cap)

    def evaluate(x: np.ndarray, t) -> np.ndarray:
        return d * np.exp(b * t) * (2.0 - np.sin(math.pi * np.asarray(x) / L))

    return SupersolutionSpec("Th00", {"d": d, "b": b, "M": M, "lambda1": lam},
                             evaluate)


def z_profile(p: float, alpha: float, Y: float, c, t):
    """Reaction absorber z(t) = (1 + (p-1)(alpha Y)^{p-1} int_t^inf c)^{-1/(p-1)}.

    Solves z' = (alpha Y)^{p-1} c(t) z^p with z(inf) = 1; requires a
    convergent reaction tail.  c is a CoefficientSpec or a CumulativeIntegral
    (reused across calls); t is a float or an array of times.
    """
    if p <= 1.0:
        raise ConfigurationError("the absorber profile needs p > 1")
    if alpha <= 0 or Y < 1.0:
        raise ConfigurationError("need alpha > 0 and Y >= 1")
    cum = c if isinstance(c, CumulativeIntegral) else CumulativeIntegral(c)
    base = 1.0 + (p - 1.0) * (alpha * Y) ** (p - 1.0) * cum.tail(t)
    return np.power(base, -1.0 / (p - 1.0))


def build_th2_supersolution(scenario: Scenario, t_max: float) -> SupersolutionSpec:
    """Barrier alpha z(t) y(x,t) for min(p, q) > 1 under decaying forcing.

    y solves the linear problem with prescribed influx t k(t); alpha is the
    admissibility cap Y^{-q/(q-1)}, where alpha^{q-1} Y^q = 1.
    """
    p, q = scenario.p, scenario.q
    if min(p, q) <= 1.0:
        raise NotApplicableError("the product barrier needs min(p, q) > 1")
    forcing = total_forcing_condition(scenario.c, scenario.k)
    if not forcing.converges:
        raise NotApplicableError(
            f"total forcing integral must converge ({forcing.status})")
    window = memory_window_check(scenario.k)
    if not window.holds:
        raise NotApplicableError("memory window bound fails for k")
    k = scenario.k
    flux = None if k.is_zero else (lambda t: t * eval_coeff(k, t))
    aux = solve_auxiliary_linear(flux, scenario, t_max)
    if not aux.stabilized:
        raise NotApplicableError("auxiliary bound Y did not stabilize")
    Y = aux.bound
    alpha = Y ** (-q / (q - 1.0))
    cum = CumulativeIntegral(scenario.c)

    def evaluate(x: np.ndarray, t) -> np.ndarray:
        return alpha * z_profile(p, alpha, Y, cum, t) * aux.at(x, t)

    params = {"alpha": alpha, "Y": Y,
              "z0": z_profile(p, alpha, Y, cum, 0.0)}
    return SupersolutionSpec("Th2", params, evaluate, aux=aux)


def build_th4_supersolution(scenario: Scenario, t_max: float) -> SupersolutionSpec:
    """Barrier alpha e^{C(t)} h(x,t) for a linear reaction term (p = 1).

    h solves the linear problem with the effective influx
    k e^{-C} int_0^t e^{qC}, and alpha is the admissibility cap
    H^{-q/(q-1)}; the bounded flag records whether the reaction integral
    converges, which keeps the barrier itself bounded.
    """
    if scenario.p != 1.0 or scenario.q <= 1.0:
        raise NotApplicableError(
            "the exponential-factor barrier needs p = 1 and q > 1")
    q, c, k = scenario.q, scenario.c, scenario.k
    flux_integral, window, reaction_tail = effective_flux_conditions(q, c, k)
    if not flux_integral.holds:
        raise NotApplicableError(
            f"effective flux integral must converge ({flux_integral.verdict.status})")
    if not window.holds:
        raise NotApplicableError("effective-flux window bound fails")
    cum = CumulativeIntegral(c)
    # alpha h <= H^{-1/(q-1)} <= 1, so the barrier is finite while e^C is
    if cum(t_max) > _LOG_MAX:
        raise _horizon_error("exponential-factor", bisect_crossing(
            lambda t: cum(t) - _LOG_MAX, 0.0, t_max))
    kappa = effective_flux(c, k, q)
    flux = None if k.is_zero else kappa
    aux = solve_auxiliary_linear(flux, scenario, t_max)
    if not aux.stabilized:
        raise NotApplicableError("auxiliary bound H did not stabilize")
    H = aux.bound
    alpha = H ** (-q / (q - 1.0))

    def evaluate(x: np.ndarray, t) -> np.ndarray:
        return alpha * np.exp(cum(t)) * aux.at(x, t)

    params = {"alpha": alpha, "H": H,
              "bounded": reaction_tail.holds}
    return SupersolutionSpec("Th4", params, evaluate, aux=aux)


def small_data_threshold(p: float, alpha: float, Y: float,
                         c: CoefficientSpec) -> float:
    """Initial-data ceiling alpha * z(0) under which the barrier applies."""
    return alpha * z_profile(p, alpha, Y, c, 0.0)


# ---------------------------------------------------------------------------
# residual verification

@dataclass(frozen=True)
class ResidualReport:
    r_int_min: float
    r_bnd_min: float
    r_init_min: float
    tol_res: float
    passed: bool
    worst: dict                 # inequality -> (x, t) of the worst residual

    @property
    def mins(self) -> tuple:
        return (self.r_int_min, self.r_bnd_min, self.r_init_min)


# the residual check holds about this many bytes of barrier columns at a time
_BLOCK_BYTES = 1 << 18


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """scipy's cumulative_trapezoid(y, t, initial=0.0), bit for bit."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


# a stencil that overflows shows as a non-finite minimum
@np.errstate(over="ignore", invalid="ignore")
def _residual_mins(spec: SupersolutionSpec, scenario: Scenario,
                   times: np.ndarray, x: np.ndarray):
    """(interior, boundary, initial) residual minima and their locations.

    The interior residual goes through in blocks of about _BLOCK_BYTES:
    columns over every time, evaluated in one call with one halo column on
    either side.  So the memory does not grow with len(times) * len(x), and
    dU/dt is np.gradient over whole columns, as on the whole array.  The
    interior minimum and its location are those of np.argmin over the whole
    row-major residual array: the first NaN, else the first least value.
    The boundary and initial residuals read the six edge columns and row 0.
    """
    n, m = len(times), len(x)
    h = x[1] - x[0]
    cvals = eval_coeff(scenario.c, times)[:, None]
    kvals = eval_coeff(scenario.k, times)
    cols = max(1, _BLOCK_BYTES // (8 * n))

    best = (True, math.inf, n, m)     # (not NaN, value, row, column)
    for a in range(1, m - 1, cols):
        b = min(a + cols, m - 1)
        # columns a-1..b, laid out down the times for numpy's inner loops
        W = np.asfortranarray(spec.evaluate(x[a - 1:b + 1], times[:, None]))
        U = W[:, 1:-1]
        # second order at the ends: the one-sided first-order stencil
        # underestimates d/dt of fast exponentials by more than the margin
        dUdt = np.gradient(U, times, axis=0, edge_order=2)
        lap = (W[:, :-2] - 2.0 * U + W[:, 2:]) / (h * h)
        r_int = dUdt - lap - cvals * U ** scenario.p
        i, j = np.unravel_index(np.argmin(r_int), r_int.shape)
        r = float(r_int[i, j])
        nan = math.isnan(r)
        # np.argmin's order over the whole array: a NaN, the least, row-major
        best = min(best, (not nan, 0.0 if nan else r, int(i), a + int(j)))

    edges = spec.evaluate(x[[0, 1, 2, -3, -2, -1]], times[:, None])
    left, right = edges[:, :3], edges[:, 3:]
    slope_nu_l = (3.0 * left[:, 0] - 4.0 * left[:, 1] + left[:, 2]) / (2.0 * h)
    slope_nu_r = (3.0 * right[:, 2] - 4.0 * right[:, 1] + right[:, 0]) / (2.0 * h)
    mem_l = _cumulative_trapezoid(left[:, 0] ** scenario.q, times)
    mem_r = _cumulative_trapezoid(right[:, 2] ** scenario.q, times)
    r_bnd = np.stack([slope_nu_l - kvals * mem_l, slope_nu_r - kvals * mem_r])

    u0_on_x = np.interp(x, scenario.grid(), scenario.initial_field())
    r_init = spec.evaluate(x, float(times[0])) - u0_on_x

    not_nan, r_min, i, j = best
    i_bnd = np.unravel_index(np.argmin(r_bnd), r_bnd.shape)
    i_init = int(np.argmin(r_init))
    worst = {
        "interior": (float(x[j]), float(times[i])),
        "boundary": (float(x[0] if i_bnd[0] == 0 else x[-1]),
                     float(times[i_bnd[1]])),
        "initial": (float(x[i_init]), 0.0),
    }
    mins = (r_min if not_nan else math.nan, float(r_bnd.min()),
            float(r_init.min()))
    return mins, worst


def _refine_axis(v: np.ndarray) -> np.ndarray:
    mid = 0.5 * (v[:-1] + v[1:])
    out = np.empty(2 * len(v) - 1)
    out[0::2] = v
    out[1::2] = mid
    return out


def _check_mins(spec: SupersolutionSpec, scenario: Scenario,
                T: float) -> tuple:
    """(residual minima and their locations, refined residual minima) on the
    check grid of [0, T] and on its midpoint refinement: the auxiliary run's
    snapshot times when there are at least 5, else 201 uniform times, and
    2001 uniform times for a barrier without an auxiliary run."""
    if spec.aux is not None:
        times = spec.aux.times[spec.aux.times <= T * (1 + 1e-12)]
        if len(times) < 5:
            times = np.linspace(0.0, T, 201)
    else:
        times = np.linspace(0.0, T, 2001)
    x = scenario.grid()
    coarse = _residual_mins(spec, scenario, times, x)
    fine, _ = _residual_mins(spec, scenario, _refine_axis(times), _refine_axis(x))
    return coarse, fine


def _checkable(mins: tuple, mins_fine: tuple) -> bool:
    return all(math.isfinite(m) for m in mins + mins_fine)


def _checkable_horizon(spec: SupersolutionSpec, scenario: Scenario,
                       T: float) -> float:
    """The largest horizon below T, to six significant digits, on which every
    residual minimum is finite (bisection); 0.0 when there is none, or none
    above _HORIZON_FLOOR * T."""
    lo, hi = 0.0, T
    while True:
        mid = float(f"{0.5 * (lo + hi):.6g}")
        if mid <= lo or mid >= hi or lo == 0.0 and hi <= _HORIZON_FLOOR * T:
            return lo
        (mins, _), mins_fine = _check_mins(spec, scenario, mid)
        if _checkable(mins, mins_fine):
            lo = mid
        else:
            hi = mid


def _within_aux_horizon(spec: SupersolutionSpec, T: float) -> None:
    """Raise NotApplicableError when T is past the end of the barrier's
    auxiliary run, beyond which its field is only the last snapshot."""
    if spec.aux is not None and T > spec.aux.times[-1] * (1 + 1e-12):
        raise NotApplicableError(
            f"the {spec.kind} barrier's auxiliary run ends at "
            f"t = {spec.aux.times[-1]:.6g}; it cannot be checked up to "
            f"t = {T:.6g}")


def verify_supersolution(spec: SupersolutionSpec, scenario: Scenario,
                         T: float) -> ResidualReport:
    """Discrete residuals of the three barrier inequalities on [0, T].

    The check grid is that of `_check_mins`.  PASS means every residual min
    clears -tol_res, where tol_res couples the base 1e-6 to measured grid
    sensitivity: one midpoint refinement of the evaluation grid bounds the
    discretization error Richardson-style.  NotApplicableError is raised
    when T is past the horizon of the barrier's auxiliary run, and for a
    barrier whose stencils pass the float range on [0, T], so that some
    minimum is not finite; it then names the largest horizon on which the
    barrier can be checked.
    """
    _within_aux_horizon(spec, T)
    (mins, worst), mins_fine = _check_mins(spec, scenario, T)
    if not _checkable(mins, mins_fine):
        raise NotApplicableError(
            f"the residuals of the {spec.kind} barrier pass the float range "
            f"on [0, {T:.6g}]; {_checkable_horizon(spec, scenario, T):.6g} "
            f"is the largest horizon on which they can be checked")
    drift = max(abs(a - b) for a, b in zip(mins, mins_fine))
    tol_res = 1e-6 + 2.0 * drift
    passed = all(m >= -tol_res for m in mins)
    return ResidualReport(r_int_min=mins[0], r_bnd_min=mins[1],
                          r_init_min=mins[2], tol_res=tol_res,
                          passed=passed, worst=worst)


# ---------------------------------------------------------------------------
# domination against a simulated run

@dataclass(frozen=True)
class DominationReport:
    holds: bool
    max_violation: float
    worst_t: float


def check_domination(spec: SupersolutionSpec, outcome: SimulationOutcome,
                     scenario: Scenario) -> DominationReport:
    """Check u <= barrier at every recorded snapshot (relative tolerance).
    NotApplicableError when a snapshot is past the horizon of the barrier's
    auxiliary run."""
    x = scenario.grid()
    worst = 0.0
    worst_t = 0.0
    for t, u in outcome.snapshots:
        if not np.all(np.isfinite(u)):
            break
        _within_aux_horizon(spec, t)
        ub = spec.evaluate(x, float(t))
        viol = float(np.max(u - ub)) / (1.0 + float(np.max(ub)))
        if viol > worst:
            worst, worst_t = viol, float(t)
    return DominationReport(holds=worst <= _DOMINATION_TOL,
                            max_violation=worst, worst_t=worst_t)
