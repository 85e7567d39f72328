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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from .coeffs import (
    ZERO,
    CoefficientSpec,
    CumulativeIntegral,
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
    InitialSpec,
    PrescribedFluxRule,
    Scenario,
    SimulationOutcome,
    SolverControls,
    State,
    run,
    step,
)


# ---------------------------------------------------------------------------
# auxiliary linear runs

@dataclass
class AuxiliarySolution:
    """Heat flow with a prescribed boundary influx, plus its sup bound."""

    times: np.ndarray
    fields: np.ndarray          # row i is the field at times[i]
    grid: np.ndarray
    bound: float                # stabilized running sup (Y or H)
    stabilized: bool
    outcome: Optional[SimulationOutcome]

    def at(self, t: float) -> np.ndarray:
        """Field at time t, linear in t between snapshots, clamped at ends."""
        ts = self.times
        if t <= ts[0]:
            return self.fields[0]
        if t >= ts[-1]:
            return self.fields[-1]
        i = int(np.searchsorted(ts, t))
        w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return (1.0 - w) * self.fields[i - 1] + w * self.fields[i]


def solve_auxiliary_linear(flux, length: float, n_nodes: int, t_max: float,
                           dt_max: float = 2e-3,
                           snapshot_every: Optional[float] = None,
                           t_settle: Optional[float] = None,
                           ) -> AuxiliarySolution:
    """Integrate v_t = v_xx, v(x,0) = 1, outward slope flux(t) at both ends.

    Snapshots cover [0, t_max] at fine steps.  The integration then continues
    with geometrically growing steps out to t_settle (default the larger of
    4e4 and 2 t_max): power-law flux tails keep feeding the sup long past any
    snapshot horizon, and the bound is only trusted once the running sup
    grows by less than 1e-4 relative over the final half of [0, t_settle].
    """
    if isinstance(flux, CoefficientSpec):
        if flux.is_zero:
            # zero influx keeps the constant initial state exactly
            x = np.linspace(0.0, length, n_nodes)
            times = np.array([0.0, t_max])
            return AuxiliarySolution(times=times,
                                     fields=np.ones((2, n_nodes)), grid=x,
                                     bound=1.0, stabilized=True, outcome=None)
        spec = flux
        g = lambda t: float(eval_coeff(spec, t))
    elif callable(flux):
        g = lambda t: float(flux(t))
    else:
        raise ConfigurationError("flux must be a CoefficientSpec or callable")
    if t_settle is None:
        t_settle = max(4e4, 2.0 * t_max)
    t_settle = max(t_settle, t_max)
    controls = SolverControls(n_nodes=n_nodes, t_max=t_max, dt_max=dt_max,
                              snapshot_every=snapshot_every)
    rule = PrescribedFluxRule(g)
    scn = Scenario(length=length, p=2.0, q=2.0, c=ZERO, k=ZERO,
                   u0=InitialSpec("constant", 1.0), controls=controls,
                   boundary=rule)
    out = run(scn)
    tr = out.trace
    sup_t = list(tr.t)
    sup_run = list(np.maximum.accumulate(tr.sup_norm))

    ok = out.status == "GlobalToHorizon"
    if ok and t_settle > t_max:
        # the last state of a run that reached its horizon has a finite
        # sup, so its field has no negative entry
        state = State(float(out.snapshots[-1][0]),
                      out.snapshots[-1][1].copy(), 0.0, 0.0, nonneg=True)
        rs = sup_run[-1]
        dt = dt_max
        try:
            while state.t < t_settle and math.isfinite(rs):
                dt = min(dt * 1.05, 100.0, t_settle - state.t)
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
                             stabilized=stabilized, outcome=out)


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
    kind: str                   # Th00 | Th2 | Th4
    params: dict
    evaluate: Callable[[np.ndarray, float], np.ndarray]
    aux: Optional[AuxiliarySolution] = None
    # block_rows(x) gives a function of a time array that returns the
    # barrier's rows on x at those times, bit for bit those of evaluate
    block_rows: Optional[Callable[[np.ndarray],
                                  Callable[[np.ndarray], np.ndarray]]] = None

    def rows_on(self, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The barrier's rows on x as a function of a time array: from
        block_rows when the spec has it, else evaluate stacked time by time."""
        if self.block_rows is not None:
            return self.block_rows(x)
        empty = np.empty((0, len(x)))
        return lambda ts: np.vstack([empty] + [self.evaluate(x, t)
                                               for t in ts.tolist()])


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

    def profile(x: np.ndarray) -> np.ndarray:
        return 2.0 - np.sin(math.pi * np.asarray(x) / L)

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        return d * math.exp(b * t) * profile(x)

    def block_rows(x: np.ndarray):
        # one outer product per block: the time factors by math.exp, as
        # evaluate takes them, times the profile made once per grid
        prof = profile(x)
        return lambda ts: np.multiply.outer(
            np.array([d * math.exp(b * t) for t in ts.tolist()]), prof)

    return SupersolutionSpec("Th00", {"d": d, "b": b, "M": M, "lambda1": lam},
                             evaluate, block_rows=block_rows)


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
    return base ** (-1.0 / (p - 1.0))


def build_th2_supersolution(scenario: Scenario, t_max: float,
                            alpha: Optional[float] = None,
                            ) -> SupersolutionSpec:
    """Barrier alpha z(t) y(x,t) for min(p, q) > 1 under decaying forcing.

    y solves the linear problem with prescribed influx t k(t); admissibility
    alpha^{q-1} Y^q <= 1 caps alpha at Y^{-q/(q-1)}.
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
    flux = ZERO if k.is_zero else (lambda t: t * float(eval_coeff(k, t)))
    aux = solve_auxiliary_linear(flux, scenario.length,
                                 scenario.controls.n_nodes, t_max,
                                 snapshot_every=scenario.controls.snapshot_every)
    if not aux.stabilized:
        raise NotApplicableError("auxiliary bound Y did not stabilize")
    Y = aux.bound
    alpha_max = Y ** (-q / (q - 1.0))
    alpha = alpha_max if alpha is None else min(alpha, alpha_max)
    cum = CumulativeIntegral(scenario.c)
    grid = aux.grid

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        z = z_profile(p, alpha, Y, cum, t)
        y = np.interp(np.asarray(x), grid, aux.at(t))
        return alpha * z * y

    params = {"alpha": alpha, "Y": Y,
              "z0": z_profile(p, alpha, Y, cum, 0.0)}
    return SupersolutionSpec("Th2", params, evaluate, aux=aux)


def build_th4_supersolution(scenario: Scenario, t_max: float,
                            alpha: Optional[float] = None,
                            ) -> SupersolutionSpec:
    """Barrier alpha e^{C(t)} h(x,t) for a linear reaction term (p = 1).

    h solves the linear problem with the effective influx
    k e^{-C} int_0^t e^{qC}; the bounded flag records whether the reaction
    integral converges, which keeps the barrier itself bounded.
    """
    if scenario.p != 1.0 or scenario.q <= 1.0:
        raise NotApplicableError(
            "the exponential-factor barrier needs p = 1 and q > 1")
    q, c, k = scenario.q, scenario.c, scenario.k
    conds = effective_flux_conditions(q, c, k)
    if not conds.flux_integral.converges:
        raise NotApplicableError(
            f"effective flux integral must converge ({conds.flux_integral.status})")
    if not conds.window.holds:
        raise NotApplicableError("effective-flux window bound fails")
    cum = CumulativeIntegral(c)
    # alpha h <= H^{-1/(q-1)} <= 1, so the barrier is finite while e^C is
    if cum(t_max) > _LOG_MAX:
        raise _horizon_error("exponential-factor",
                             brentq(lambda t: cum(t) - _LOG_MAX, 0.0, t_max))
    kappa = effective_flux(c, k, q)
    flux = ZERO if k.is_zero else (lambda t: float(kappa(t)))
    aux = solve_auxiliary_linear(flux, scenario.length,
                                 scenario.controls.n_nodes, t_max,
                                 snapshot_every=scenario.controls.snapshot_every)
    if not aux.stabilized:
        raise NotApplicableError("auxiliary bound H did not stabilize")
    H = aux.bound
    alpha_max = H ** (-q / (q - 1.0))
    alpha = alpha_max if alpha is None else min(alpha, alpha_max)
    grid = aux.grid

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        h_field = np.interp(np.asarray(x), grid, aux.at(t))
        return alpha * math.exp(cum(t)) * h_field

    params = {"alpha": alpha, "H": H,
              "bounded": conds.reaction_tail.converges}
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


# the residual check holds about this many bytes of barrier rows at a time
_BLOCK_BYTES = 1 << 20


def _time_stencil(times: np.ndarray):
    """Row stencils of np.gradient(U, times, axis=0, edge_order=2).

    Row i of dU/dt is a[i] U[j] + b[i] U[j+1] + c[i] U[j+2] with j = i-1
    clipped to [0, n-3], except that on uniform times the interior rows are
    (U[i+1] - U[i-1]) / (2 dt).  Uniform spacing is decided on all of times,
    as np.gradient does, and the weights are its expressions, so the rows
    come out bit for bit.  The edges are second order: the one-sided
    first-order stencil underestimates d/dt of fast exponentials by more
    than the barrier margin.  Returns (dt or None, a, b, c).
    """
    n = len(times)
    if n < 3:
        raise ConfigurationError("the residual check needs at least 3 times")
    dx = np.diff(times)
    a, b, c = np.empty(n), np.empty(n), np.empty(n)
    if (dx == dx[0]).all():
        dt = dx[0]
        a[0], b[0], c[0] = -1.5 / dt, 2. / dt, -0.5 / dt
        a[-1], b[-1], c[-1] = 0.5 / dt, -2. / dt, 1.5 / dt
        return dt, a, b, c
    dx1, dx2 = dx[:-1], dx[1:]
    a[1:-1] = -(dx2) / (dx1 * (dx1 + dx2))
    b[1:-1] = (dx2 - dx1) / (dx1 * dx2)
    c[1:-1] = dx1 / (dx2 * (dx1 + dx2))
    dx1, dx2 = dx[0], dx[1]
    a[0] = -(2. * dx1 + dx2) / (dx1 * (dx1 + dx2))
    b[0] = (dx1 + dx2) / (dx1 * dx2)
    c[0] = - dx1 / (dx2 * (dx1 + dx2))
    dx1, dx2 = dx[-2], dx[-1]
    a[-1] = (dx2) / (dx1 * (dx1 + dx2))
    b[-1] = - (dx2 + dx1) / (dx1 * dx2)
    c[-1] = (2. * dx2 + dx1) / (dx2 * (dx1 + dx2))
    return None, a, b, c


def _time_derivative(W: np.ndarray, lo: int, s: int, e: int,
                     stencil) -> np.ndarray:
    """Rows s..e-1 of dU/dt from the rows lo.. of U held in W."""
    dt, a, b, c = stencil
    n = len(a)
    out = np.empty((e - s, W.shape[1]))
    i0, i1 = max(s, 1), min(e, n - 1)
    f0 = W[i0 - 1 - lo:i1 - 1 - lo]
    f1 = W[i0 - lo:i1 - lo]
    f2 = W[i0 + 1 - lo:i1 + 1 - lo]
    if dt is not None:
        out[i0 - s:i1 - s] = (f2 - f0) / (2. * dt)
    else:
        out[i0 - s:i1 - s] = (a[i0:i1, None] * f0 + b[i0:i1, None] * f1
                              + c[i0:i1, None] * f2)
    for i, j in ((0, 0), (n - 1, n - 3)):
        if s <= i < e:
            out[i - s] = (a[i] * W[j - lo] + b[i] * W[j + 1 - lo]
                          + c[i] * W[j + 2 - lo])
    return out


# a stencil that overflows shows as a non-finite minimum
@np.errstate(over="ignore", invalid="ignore")
def _residual_mins(spec: SupersolutionSpec, scenario: Scenario,
                   times: np.ndarray, x: np.ndarray):
    """(interior, boundary, initial) residual minima and their locations.

    The barrier's rows go through in blocks of about _BLOCK_BYTES, each with
    one row of halo on either side, so the memory does not grow with
    len(times) * len(x).  The interior minimum and its location are those of
    np.argmin over the whole row-major residual array: the first occurrence
    wins, and so does a NaN.  Only the three edge columns at each end and
    row 0 are kept whole, for the boundary and initial residuals.
    """
    n, m = len(times), len(x)
    h = x[1] - x[0]
    stencil = _time_stencil(times)
    cvals = eval_coeff(scenario.c, times)
    kvals = eval_coeff(scenario.k, times)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    rows_at = spec.rows_on(x)

    left, right = np.empty((n, 3)), np.empty((n, 3))
    W, lo = np.empty((0, m)), 0         # rows lo, lo+1, ... of U
    r_min, i_min = math.inf, None
    for s in range(0, n, rows):
        e = min(s + rows, n)
        # dU/dt needs one row on either side, three rows at the two ends
        new_lo, hi = max(0, min(s - 1, n - 3)), min(n, max(e + 1, 3))
        W = np.vstack([W[new_lo - lo:], rows_at(times[lo + len(W):hi])])
        lo = new_lo
        U = W[s - lo:e - lo]
        left[s:e], right[s:e] = U[:, :3], U[:, -3:]
        if s == 0:
            row0 = U[0].copy()

        react = cvals[s:e, None] * U[:, 1:-1] ** scenario.p
        lap = (U[:, :-2] - 2.0 * U[:, 1:-1] + U[:, 2:]) / (h * h)
        r_int = _time_derivative(W[:, 1:-1], lo, s, e, stencil) - lap - react
        k = int(np.argmin(r_int))
        r = r_int.flat[k]
        if i_min is None or (not math.isnan(r_min)
                             and (math.isnan(r) or r < r_min)):
            r_min, i_min = r, (s + k // (m - 2), k % (m - 2))

    slope_nu_l = (3.0 * left[:, 0] - 4.0 * left[:, 1] + left[:, 2]) / (2.0 * h)
    slope_nu_r = (3.0 * right[:, 2] - 4.0 * right[:, 1] + right[:, 0]) / (2.0 * h)
    mem_l = cumulative_trapezoid(left[:, 0] ** scenario.q, times, initial=0.0)
    mem_r = cumulative_trapezoid(right[:, 2] ** scenario.q, times, initial=0.0)
    r_bnd = np.stack([slope_nu_l - kvals * mem_l, slope_nu_r - kvals * mem_r])

    u0_on_x = np.interp(x, scenario.grid(), scenario.initial_field())
    r_init = row0 - u0_on_x

    i_bnd = np.unravel_index(np.argmin(r_bnd), r_bnd.shape)
    i_init = int(np.argmin(r_init))
    worst = {
        "interior": (float(x[i_min[1] + 1]), float(times[i_min[0]])),
        "boundary": (float(x[0] if i_bnd[0] == 0 else x[-1]),
                     float(times[i_bnd[1]])),
        "initial": (float(x[i_init]), 0.0),
    }
    mins = (float(r_min), float(r_bnd.min()), float(r_init.min()))
    return mins, worst


def _refine_axis(v: np.ndarray) -> np.ndarray:
    mid = 0.5 * (v[:-1] + v[1:])
    out = np.empty(2 * len(v) - 1)
    out[0::2] = v
    out[1::2] = mid
    return out


def _check_mins(spec: SupersolutionSpec, scenario: Scenario, T: float,
                nt: Optional[int]) -> tuple:
    """(residual minima and their locations, refined residual minima) on the
    check grid of [0, T] and on its midpoint refinement."""
    if nt is None and spec.aux is not None:
        times = spec.aux.times[spec.aux.times <= T * (1 + 1e-12)]
        if len(times) < 5:
            times = np.linspace(0.0, T, 201)
    else:
        times = np.linspace(0.0, T, nt if nt is not None else 2001)
    x = scenario.grid()
    coarse = _residual_mins(spec, scenario, times, x)
    fine, _ = _residual_mins(spec, scenario, _refine_axis(times), _refine_axis(x))
    return coarse, fine


def _checkable(mins: tuple, mins_fine: tuple) -> bool:
    return all(math.isfinite(m) for m in mins + mins_fine)


def _checkable_horizon(spec: SupersolutionSpec, scenario: Scenario, T: float,
                       nt: Optional[int]) -> float:
    """The largest horizon below T, to six significant digits, on which every
    residual minimum is finite (bisection); 0.0 when there is none."""
    lo, hi = 0.0, T
    while True:
        mid = float(f"{0.5 * (lo + hi):.6g}")
        if mid <= lo or mid >= hi:
            return lo
        (mins, _), mins_fine = _check_mins(spec, scenario, mid, nt)
        if _checkable(mins, mins_fine):
            lo = mid
        else:
            hi = mid


def verify_supersolution(spec: SupersolutionSpec, scenario: Scenario,
                         T: float, nt: Optional[int] = None) -> ResidualReport:
    """Discrete residuals of the three barrier inequalities on [0, T].

    PASS means every residual min clears -tol_res, where tol_res couples the
    base 1e-6 to measured grid sensitivity: one midpoint refinement of the
    evaluation grid bounds the discretization error Richardson-style.  A
    barrier whose stencils pass the float range on [0, T], so that some
    minimum is not finite, cannot be checked there: NotApplicableError names
    the largest horizon on which it can.
    """
    (mins, worst), mins_fine = _check_mins(spec, scenario, T, nt)
    if not _checkable(mins, mins_fine):
        raise NotApplicableError(
            f"the residuals of the {spec.kind} barrier pass the float range "
            f"on [0, {T:.6g}]; {_checkable_horizon(spec, scenario, T, nt):.6g} "
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
                     scenario: Scenario, tol: float = 1e-8) -> DominationReport:
    """Check u <= barrier at every recorded snapshot (relative tolerance)."""
    x = scenario.grid()
    worst = 0.0
    worst_t = 0.0
    for t, u in outcome.snapshots:
        if not np.all(np.isfinite(u)):
            break
        ub = spec.evaluate(x, float(t))
        viol = float(np.max(u - ub)) / (1.0 + float(np.max(ub)))
        if viol > worst:
            worst, worst_t = viol, float(t)
    return DominationReport(holds=worst <= tol, max_violation=worst,
                            worst_t=worst_t)
