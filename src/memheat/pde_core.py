"""Interval solver for u_t = u_xx + c(t) u^p with a memory boundary flux.

The outward slope at each endpoint equals k(t) times the accumulated history
integral of u^q there.  Diffusion is advanced implicitly (backward Euler on a
symmetrizable tridiagonal system, factor cached per step size and solved by
LAPACK dpbtrs); reaction and boundary flux are explicit with a rate-controlled
adaptive step, so blow-up is resolved without coupling dt to h^2 on long
global runs.

One generator, `advance`, takes every rate-controlled step of a single
field: it owns the stop rules (`_stop`), the laddered `choose_dt`, landing
on snapshot times and t_max (`_Clock`), and the `step` call, and evaluates
the step_values (c(t), both endpoint slopes, accumulator weight) once per
step for `choose_dt` and `step`.  `run` records the trace and snapshots of
the yielded steps; `verify_comparison` steps the high field on the yielded
dt and c(t).

`run_group` returns `[run(s) for s in scenarios]` bit for bit for scenarios
with the memory boundary that share length, controls and initial data, such
as the cells of a sweep.  Its cells on a common dt advance as one lockstep
block: one reaction per distinct p, one multi-column solve and one max per
row, with t shared and each cell's sup, accumulators and step values in
arrays.  A cell whose dt differs, or whose row turns non-finite, leaves the
block and finishes through `advance` from its last state.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .coeffs import CoefficientSpec, CumulativeIntegral, as_real, eval_coeff
from .errors import ConfigurationError, NotApplicableError, SolverFault

STATUS_BLOWUP = "BlowUp"
STATUS_GLOBAL = "GlobalToHorizon"
STATUS_ABORTED = "Aborted"

TRACE_HEADER = "t,sup_norm,mass_w,M_left,M_right,dt"
_MASS_SUP_CAP = 1e6  # mass_inequality_check skips rows with a larger sup

_SQRT2 = math.sqrt(2.0)
# ndarray.max and .min without the Python-level wrapper around the reduction
_max, _min = np.maximum.reduce, np.minimum.reduce


# ---------------------------------------------------------------------------
# boundary rules

class MemoryRule:
    """Outward slope k(t) * M with plain accumulation M = int_0^t u_b^q."""

    def __init__(self, k: CoefficientSpec):
        self.k = k

    def flux(self, t: float, M_left: float, M_right: float) -> tuple:
        """(left slope, right slope, accumulator weight) at t."""
        k_t = eval_coeff(self.k, t)
        if k_t == 0.0:
            # no feedback, also once an accumulator has overflowed to inf
            return 0.0, 0.0, 1.0
        return k_t * M_left, k_t * M_right, 1.0

    def acc_weight(self, t: float) -> float:
        return 1.0


def _exp(x: float) -> float:
    # math.exp raises OverflowError instead of returning inf
    return math.exp(x) if x < 709.0 else math.inf


class WeightedMemoryRule:
    """Outward slope k(t) e^{-C(t)} A with A = int_0^t e^{q C} v_b^q.

    This realizes the memory condition of the reaction-stripped problem: the
    t-dependent damping factors out of the history integral, so one scalar
    accumulator per endpoint suffices.
    """

    def __init__(self, k: CoefficientSpec, cum: CumulativeIntegral, q: float):
        self.k = k
        self.cum = cum
        self.q = q
        # (t, C(t), e^{q C(t)}) at the last t asked: a step's acc_weight at
        # t + dt is the next step's flux at the same t
        self._last = (math.nan, 0.0, 1.0)

    def _at(self, t: float) -> tuple:
        if t != self._last[0]:
            C = self.cum(t)
            self._last = (t, C, _exp(self.q * C))
        return self._last

    def flux(self, t: float, M_left: float, M_right: float) -> tuple:
        _, C, w = self._at(t)
        damped = eval_coeff(self.k, t) * math.exp(-C)
        if damped == 0.0:
            # no feedback, also once an accumulator has overflowed to inf
            return 0.0, 0.0, w
        return damped * M_left, damped * M_right, w

    def acc_weight(self, t: float) -> float:
        return self._at(t)[2]


class PrescribedFluxRule:
    """Time-prescribed outward slope g(t); no memory accumulation."""

    def __init__(self, g: Callable[[float], float]):
        self.g = g

    def flux(self, t: float, M_left: float, M_right: float) -> tuple:
        g = float(self.g(t))
        return g, g, 0.0

    def acc_weight(self, t: float) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# scenario containers

INITIAL_FAMILIES = ("constant", "cos_bump", "tabulated")


@dataclass(frozen=True)
class InitialSpec:
    """Initial data with vanishing endpoint slope.

    constant:  u0 = value
    cos_bump:  u0 = value * (1 - cos(2 pi x / L)) / 2
    tabulated: node values (must match the grid; endpoint slope checked)
    """

    family: str
    value: object

    def __post_init__(self):
        if self.family not in INITIAL_FAMILIES:
            raise ConfigurationError(
                f"must be one of {INITIAL_FAMILIES}, not {self.family!r}", "family")
        if self.family == "tabulated":
            vals = self.value
            if not isinstance(vals, (list, tuple, np.ndarray)) or len(vals) < 3:
                raise ConfigurationError("must list >= 3 node values", "value")
            vals = [as_real(v, "value", entry=True) for v in vals]
            if any(not math.isfinite(v) or v < 0 for v in vals):
                raise ConfigurationError("entries must be finite and >= 0", "value")
        else:
            v = as_real(self.value, "value")
            if not math.isfinite(v) or v < 0:
                raise ConfigurationError("must be finite and >= 0", "value")

    def evaluate(self, length: float, n_nodes: int) -> np.ndarray:
        x = np.linspace(0.0, length, n_nodes)
        if self.family == "constant":
            return np.full(n_nodes, float(self.value))
        if self.family == "cos_bump":
            return float(self.value) * (1.0 - np.cos(2.0 * np.pi * x / length)) / 2.0
        vals = np.asarray(self.value, dtype=float)
        if vals.size != n_nodes:
            raise ConfigurationError(
                f"has {vals.size} entries; the grid has {n_nodes} nodes", "value")
        h = length / (n_nodes - 1)
        amp = max(float(vals.max()), 1e-30)
        slope0 = abs(-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
        slope1 = abs(3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
        if max(slope0, slope1) > 1e-8 * amp:
            raise ConfigurationError(
                "must have vanishing endpoint slope (measured "
                f"{max(slope0, slope1):.3e} vs {1e-8 * amp:.3e} allowed)", "value")
        return vals.copy()

    def scaled(self, factor: float) -> "InitialSpec":
        if self.family == "tabulated":
            return InitialSpec("tabulated", tuple(factor * float(v) for v in self.value))
        return InitialSpec(self.family, factor * float(self.value))


@dataclass(frozen=True)
class SolverControls:
    n_nodes: int = 201
    theta: float = 0.1
    dt_max: float = 2e-3
    blowup_threshold: float = 1e10
    t_max: float = 10.0
    snapshot_every: Optional[float] = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        n = self.n_nodes
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 3:
            raise ConfigurationError(f"must be an integer >= 3, not {n!r}", "n_nodes")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigurationError("must lie in (0, 1]", "theta")
        for name in ("dt_max", "t_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError("must be finite and > 0", name)
        if self.max_steps < 1:
            raise ConfigurationError("must be >= 1", "max_steps")
        # an infinite threshold or snapshot interval means never; NaN is no value
        if not self.blowup_threshold > 0:
            raise ConfigurationError("must be > 0", "blowup_threshold")
        # every snapshot time up to t_max takes a step of its own to land on
        least, snap = self.t_max / self.max_steps, self.snapshot_every
        if snap is not None and not snap >= least:
            raise ConfigurationError(
                f"must be >= t_max / max_steps = {least:.6g}, not {snap!r}", "snapshot_every")

    def refined(self, levels: int) -> "SolverControls":
        """Halve the grid spacing and the safety factor `levels` times."""
        if levels < 0:
            raise ConfigurationError("refinement level must be >= 0")
        f = 2 ** levels
        return replace(self, n_nodes=(self.n_nodes - 1) * f + 1,
                       theta=self.theta / f)


@dataclass(frozen=True)
class Scenario:
    length: float
    p: float
    q: float
    c: CoefficientSpec
    k: CoefficientSpec
    u0: InitialSpec
    controls: SolverControls = field(default_factory=SolverControls)
    boundary: Optional[object] = None   # rule with flux() and acc_weight()

    def __post_init__(self):
        if not (isinstance(self.length, (int, float)) and self.length > 0):
            raise ConfigurationError("must be > 0", "length")
        # the first step is capped at theta h^2 and the dt ladder divides dt_max
        # by it; past dt / h^2 = 2^50 rounding leaves I - dt D no positive
        # definite factor
        h2, dt_max = self.h * self.h, self.controls.dt_max
        cap = self.controls.theta * h2
        if not (cap > 0.0 and dt_max / cap < math.inf and dt_max <= 2.0 ** 50 * h2):
            raise ConfigurationError(
                f"{self.length!r} is too short: dt_max / h^2 must be <= 2^50 and "
                f"dt_max / (theta h^2) finite, at h = {self.h!r}", "length")
        for name in ("p", "q"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise ConfigurationError(f"must be > 0 and finite, not {x!r}", name)
        for name in ("c", "k"):
            if not isinstance(getattr(self, name), CoefficientSpec):
                raise ConfigurationError("must be a CoefficientSpec", name)
        if not isinstance(self.u0, InitialSpec):
            raise ConfigurationError("must be an InitialSpec", "u0")

    @cached_property
    def h(self) -> float:
        return self.length / (self.controls.n_nodes - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.controls.n_nodes)

    @cached_property
    def rule(self):
        """The boundary rule: `boundary`, or the memory rule of k."""
        return self.boundary if self.boundary is not None else MemoryRule(self.k)

    def initial_field(self) -> np.ndarray:
        return self.u0.evaluate(self.length, self.controls.n_nodes)


@dataclass(slots=True)
class State:
    t: float
    u: np.ndarray
    M_left: float
    M_right: float
    steps: int = 0
    sup: Optional[float] = None     # max of u; computed when not given
    # no entry of u is negative (a NaN is not); never computed, only set by
    # the steps and by callers that start from validated or stepped fields
    nonneg: bool = False

    def __post_init__(self):
        if self.sup is None:
            self.sup = float(self.u.max())

    def mass(self, h: float) -> float:
        return float(np.trapezoid(self.u, dx=h))


@dataclass(frozen=True)
class BlowupEstimate:
    T_cross: float
    T_fit: Optional[float]
    fit_quality: Optional[float]


@dataclass
class Trace:
    t: np.ndarray
    sup_norm: np.ndarray
    mass_w: np.ndarray
    M_left: np.ndarray
    M_right: np.ndarray
    dt: np.ndarray


@dataclass
class SimulationOutcome:
    status: str
    t_end: float
    sup_norm_end: float
    trace: Trace
    snapshots: list
    blowup_estimate: Optional[BlowupEstimate] = None
    reason: str = ""
    steps: int = 0


# ---------------------------------------------------------------------------
# diffusion solve

def _load_flapack():
    """scipy's f2py LAPACK extension, loaded from its file.

    `import scipy.linalg` would run the package's __init__, whose array-API
    layer imports numpy.f2py, numpy.testing, numpy.ma and numpy.random: most
    of a CLI process's start-up, for two routines.  The extension registers
    itself in sys.modules under its own name, so a later scipy.linalg
    import shares this module object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no {name} extension in {list(where)}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpbtrs = _flapack.dpbtrs


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """scipy.linalg.cholesky_banded(ab) of an upper banded ab, bit for bit."""
    c, info = _flapack.dpbtrf(np.asarray_chkfinite(ab), lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {info}-th argument of internal pbtrf")
    return c


@lru_cache(maxsize=512)
def _banded_factor(n: int, h: float, dt: float):
    # symmetrized I - dt*D: scaling the end rows by 1/sqrt(2) makes the
    # ghost-node Neumann Laplacian symmetric; spectrum of D is <= 0, so the
    # system is SPD for every dt > 0
    r = dt / (h * h)
    ab = np.zeros((2, n))
    ab[1, :] = 1.0 + 2.0 * r
    ab[0, 1:] = -r
    ab[0, 1] = -r * _SQRT2
    ab[0, -1] = -r * _SQRT2
    return cholesky_banded(ab)


def cho_solve_banded(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with the upper banded Cholesky factor cb, overwriting b."""
    # lower=0, ldab, overwrite_b=1, passed by position: f2py's keyword
    # parsing costs about 0.5 us a call
    x, info = dpbtrs(cb, b, 0, len(cb), 1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
    return x


# ---------------------------------------------------------------------------
# stepping

def _reaction(u: np.ndarray, c_dt, p: float, out=None) -> np.ndarray:
    # u + c_dt u^p for a field, or for block rows that share p with c_dt a
    # column, into out when given: a scalar exponent keeps np.power's sqrt
    # and square fast paths, so each block row equals the field's result bit
    # for bit; p = 1 skips the power, as pow(x, 1) = x for every x, inf and
    # NaN included
    if p == 1.0:
        r = np.multiply(u, c_dt, out=out)
    else:
        r = np.power(u, p, out=out)
        r *= c_dt
    r += u
    return r


def step_values(state: State, scenario: Scenario) -> tuple:
    """(c(t), left slope, right slope, accumulator weight) at state.t."""
    t = state.t
    return ((eval_coeff(scenario.c, t),)
            + scenario.rule.flux(t, state.M_left, state.M_right))


def step(state: State, scenario: Scenario, dt: float, values: tuple) -> State:
    """One IMEX step: explicit reaction and boundary flux, implicit diffusion,
    then the trapezoid update of the memory accumulators.  `values` are the
    step_values of state."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ConfigurationError("dt must be positive and finite")
    c_t, g_left, g_right, w0 = values
    h = scenario.h
    # the end rows take the explicit flux and the symmetrizing 1/sqrt(2) as
    # floats, and the solve overwrites this step's own rhs
    f = dt * (2.0 / h)
    f_left = f * g_left
    f_right = f * g_right
    rhs = _explicit(state, c_t, dt, scenario.p)
    rhs[0] = (rhs.item(0) + f_left) / _SQRT2
    rhs[-1] = (rhs.item(-1) + f_right) / _SQRT2
    u_new = cho_solve_banded(_banded_factor(rhs.shape[0], h, dt), rhs)
    u_new[0] = u_new.item(0) * _SQRT2
    u_new[-1] = u_new.item(-1) * _SQRT2
    # with c(t) >= 0 and both slopes >= 0, a field with no negative entry
    # gives a rhs with none; the factor of I - dt D has a positive diagonal
    # and a negative superdiagonal, so both substitutions add only
    # nonnegative terms and the new field has none either: its min is not
    # needed, and a NaN in the rhs still shows in the max
    nonneg = (state.nonneg and c_t >= 0.0 and g_left >= 0.0
              and g_right >= 0.0)
    m = 0.0 if nonneg else float(_min(u_new))
    sup = float(_max(u_new))
    finite = math.isfinite(m) and math.isfinite(sup)
    if not finite:
        # a non-finite rhs always solves to a non-finite field, so only now
        # is the rhs the solve overwrote rebuilt and tested
        rhs = _explicit(state, c_t, dt, scenario.p)
        rhs[0] = rhs.item(0) + f_left
        rhs[-1] = rhs.item(-1) + f_right
        finite = np.isfinite(rhs).all()
    if finite:
        if m < 0.0:
            if m < -1e-10 * max(sup, 1e-300):
                raise SolverFault(f"negative undershoot {m:.3e} at "
                                  f"t={state.t:.6g} (dt too large)")
            np.clip(u_new, 0.0, None, out=u_new)
            sup = float(_max(u_new))
        # no entry is negative now, unless a NaN hid one from the min
        nonneg = not math.isnan(m)
    else:
        # reaction or flux overflowed: blow-up trigger, not an error
        u_new = np.where(np.isfinite(rhs), rhs, np.inf)
        sup = math.inf
    return _stepped(state, dt, u_new, sup, scenario, w0, nonneg)


# u + c_dt u^p stays below this for entries in [0, sup] when the float bound
# |c_dt| sup^p + sup does; the margin covers the rounding of np.power
_REACTION_CAP = 1e300


def _explicit(state: State, c_t: float, dt: float, p: float) -> np.ndarray:
    """A fresh u + dt c(t) u^p of the state's field.  Only a reaction that
    can overflow, or that meets a negative or non-finite entry, runs under
    np.errstate: the bound is taken from state.sup."""
    u = state.u
    if c_t == 0.0:
        return u.copy()
    c_dt = dt * c_t
    if state.nonneg:
        try:
            in_range = abs(c_dt) * state.sup ** p + state.sup < _REACTION_CAP
        except OverflowError:
            in_range = False
        if in_range:
            return _reaction(u, c_dt, p)
    with np.errstate(over="ignore", invalid="ignore"):
        return _reaction(u, c_dt, p)


def _stepped(state: State, dt: float, u_new: np.ndarray, sup: float,
             scenario: Scenario, w0: float, nonneg: bool) -> State:
    """The state after a step of dt to u_new, with the trapezoid update of
    the memory accumulators (weight w0 at state.t); nonneg tells whether
    u_new is known to have no negative entry."""
    t = state.t + dt
    w1 = scenario.rule.acc_weight(t)
    if w0 == 0.0 and w1 == 0.0:
        # no memory accumulates (prescribed flux); + 0.0 as the update would
        M_left, M_right = state.M_left + 0.0, state.M_right + 0.0
    else:
        u, q = state.u, scenario.q
        M_left = state.M_left + 0.5 * dt * (_acc_term(w0, u.item(0), q)
                                            + _acc_term(w1, u_new.item(0), q))
        M_right = state.M_right + 0.5 * dt * (_acc_term(w0, u.item(-1), q)
                                              + _acc_term(w1, u_new.item(-1), q))
    return State(t, u_new, float(M_left), float(M_right), state.steps + 1,
                 sup, nonneg)


def _acc_term(w: float, ub: float, q: float) -> float:
    # a vanished boundary value contributes nothing even if the weight
    # overflowed; a zero weight (prescribed flux) contributes nothing even if
    # an outflow step left a negative end value, whose ub ** q may be complex
    if ub <= 0.0 or w == 0.0:
        return 0.0
    try:
        return w * ub ** q
    except OverflowError:
        # the power passed the float range
        return math.inf


def choose_dt(state: State, scenario: Scenario, values: tuple) -> float:
    """Rate-controlled step: the explicit reaction and flux terms may change u
    by about theta relative per step.  The quadratic flux term resolves
    boundary-driven blow-up, where the slope grows faster than the field.
    `values` are the step_values of state."""
    ctr = scenario.controls
    c_t, g_left, g_right, _ = values
    sup = state.sup
    rate_react = _reaction_rate(c_t, sup, scenario.p)
    u = state.u
    scale_left = max(u.item(0), 1e-6 * sup, 1e-300)
    scale_right = max(u.item(-1), 1e-6 * sup, 1e-300)
    nu = max(abs(g_left) / scale_left, abs(g_right) / scale_right)
    denom = rate_react + nu + nu * nu + 1e-30
    if not math.isfinite(denom):
        # runaway flux estimate; take a token step so the overflow lands in
        # the field and trips the blow-up threshold
        return ctr.dt_max * 2.0 ** -60
    dt = min(ctr.dt_max, ctr.theta / denom)
    if state.steps == 0:
        dt = min(dt, ctr.theta * scenario.h * scenario.h)
    return dt


def _reaction_rate(c_t: float, sup: float, p: float) -> float:
    """c(t) sup^(p-1), with sup floored at 1e-6 for p < 1, and 0 at sup <= 0.
    A power past the float range gives 0 where c(t) = 0, as 0 x is for every
    finite x, and inf otherwise, which takes the token step."""
    if sup <= 0.0:
        return 0.0
    try:
        return c_t * (sup if p >= 1.0 else max(sup, 1e-6)) ** (p - 1.0)
    except OverflowError:
        return 0.0 if c_t == 0.0 else math.inf


def _ladder(dt: float, dt_max: float) -> float:
    """Round dt down to dt_max * 2^-k so the diffusion factor cache hits."""
    if dt >= dt_max:
        return dt_max
    k = math.ceil(math.log2(dt_max / dt))
    return dt_max * 2.0 ** (-k)


# ---------------------------------------------------------------------------
# full runs

def _stop(state: State, ctr: SolverControls) -> Optional[tuple]:
    """(status, reason) when a run must halt at state, else None."""
    if math.isnan(state.sup):
        return STATUS_ABORTED, "NaN detected in the field"
    if state.sup >= ctr.blowup_threshold:
        return STATUS_BLOWUP, ""
    if state.t >= ctr.t_max - 1e-12:
        return STATUS_GLOBAL, ""
    if state.steps >= ctr.max_steps:
        return STATUS_ABORTED, "step budget exhausted"
    return None


class _Clock:
    """The snapshot times and the horizon that steps land on.  The next
    snapshot time is rebuilt from t by the same float additions, so a clock
    made for a state partway through a run lands where the run's own did."""

    def __init__(self, ctr: SolverControls):
        self.snap_dt = (ctr.snapshot_every if ctr.snapshot_every is not None
                        else ctr.t_max / 100.0)
        self.next_snap = self.snap_dt
        self.t_max = ctr.t_max

    def cut(self, t: float, dt: float) -> tuple:
        """(dt cut to land on the next snapshot time or t_max, whether the
        step from t lands on a snapshot time or the horizon)."""
        while self.next_snap <= t + 1e-12:
            self.next_snap += self.snap_dt
        hit_snap = t + dt >= self.next_snap - 1e-12
        if hit_snap:
            dt = self.next_snap - t
        if t + dt > self.t_max:
            dt = self.t_max - t
            hit_snap = False
        if hit_snap:
            self.next_snap += self.snap_dt
        return dt, hit_snap or t + dt >= self.t_max - 1e-12


def advance(scenario: Scenario, state: State):
    """Step from state until `_stop` halts, with the laddered `choose_dt`
    cut to land on snapshot times and t_max.  Yields (state, dt, values,
    landed) after each step: values are the step_values it used, landed is
    true on a snapshot time or the horizon.  A SolverFault propagates."""
    ctr = scenario.controls
    dt_max = ctr.dt_max
    c = scenario.c
    flux = scenario.rule.flux
    cut = _Clock(ctr).cut
    while _stop(state, ctr) is None:
        t = state.t
        # the step_values of state
        values = (eval_coeff(c, t),) + flux(t, state.M_left, state.M_right)
        dt, landed = cut(t, _ladder(choose_dt(state, scenario, values), dt_max))
        state = step(state, scenario, dt, values)
        yield state, dt, values, landed


class _Run:
    """One run in progress: its state, and the trace rows and snapshots that
    `run` records, at every snapshot time and the horizon plus every step
    once the sup nears the threshold."""

    def __init__(self, scenario: Scenario, u0: np.ndarray):
        self.scenario = scenario
        # u0 comes from a validated InitialSpec: finite and >= 0
        self.state = state = State(0.0, u0, 0.0, 0.0, nonneg=True)
        self.h = scenario.h
        self.dense_from = 0.01 * scenario.controls.blowup_threshold
        self.rows = [(0.0, state.sup, state.mass(self.h), 0.0, 0.0, 0.0)]
        self.snapshots = [(0.0, u0.copy())]
        self.outcome = None

    def add(self, state: State, dt: float, landed: bool):
        """Record a step to state that landed or reached dense_from."""
        self.state = state
        self.rows.append((state.t, state.sup, state.mass(self.h),
                          state.M_left, state.M_right, dt))
        if landed:
            self.snapshots.append((state.t, state.u.copy()))

    def follow(self) -> SimulationOutcome:
        """Record the steps `advance` takes from the state to its halt."""
        state, dense_from = self.state, self.dense_from
        try:
            for state, dt, _, landed in advance(self.scenario, state):
                if landed or state.sup >= dense_from:
                    self.add(state, dt, landed)
            status, reason = _stop(state, self.scenario.controls)
        except SolverFault as fault:
            status, reason = STATUS_ABORTED, str(fault)
        self.state = state
        return self.finish(status, reason)

    def finish(self, status: str, reason: str) -> SimulationOutcome:
        ctr = self.scenario.controls
        state, rows, snapshots = self.state, self.rows, self.snapshots
        if rows[-1][0] != state.t:
            rows.append((state.t, state.sup, state.mass(self.h),
                         state.M_left, state.M_right, 0.0))
        if snapshots[-1][0] != state.t:
            snapshots.append((state.t, state.u.copy()))
        trace = Trace(*(np.array(col) for col in zip(*rows)))
        estimate = None
        if status == STATUS_BLOWUP:
            estimate = estimate_blowup_time(trace, self.scenario.p,
                                            threshold=ctr.blowup_threshold)
        t_end = state.t
        if status == STATUS_GLOBAL:
            t_end = max(t_end, ctr.t_max)
        self.outcome = SimulationOutcome(
            status=status, t_end=t_end, sup_norm_end=state.sup, trace=trace,
            snapshots=snapshots, blowup_estimate=estimate, reason=reason,
            steps=state.steps)
        return self.outcome


def run(scenario: Scenario) -> SimulationOutcome:
    """Advance until blow-up, the horizon, or an abort; record the trace at
    the snapshot cadence plus every step once the sup nears the threshold."""
    return _Run(scenario, scenario.initial_field()).follow()


class _Block:
    """The runs of `run_group`, sorted by p, at a shared t and step count.
    Their fields are the rows of U; every other array has one entry, or a
    left and a right one, per run.  A `MemoryRule`'s flux is (k(t) M_left,
    k(t) M_right, 1), or (0, 0, 1) where k(t) = 0: each distinct c and k is
    evaluated once per t."""

    def __init__(self, runs: list, u0: np.ndarray):
        self.runs = sorted(runs, key=lambda r: r.scenario.p)
        c_index, k_index = {}, {}
        self.c_of = np.array([c_index.setdefault(r.scenario.c, len(c_index))
                              for r in self.runs], dtype=int)
        self.k_of = np.array([k_index.setdefault(r.scenario.k, len(k_index))
                              for r in self.runs], dtype=int)
        self.c_specs, self.k_specs = list(c_index), list(k_index)
        self.p, self.q = (np.array([getattr(r.scenario, x) for r in self.runs],
                                   dtype=float) for x in "pq")
        m, self.steps = len(self.runs), 0
        self.U, self.sup = np.tile(u0, (m, 1)), np.full(m, u0.max())
        self.M = np.zeros((m, 2))
        self.at(0.0, 0.0)

    def at(self, t: float, dt: float):
        """Move to t, reached by a step of dt: evaluate c, the slopes and the
        accumulator terms u_b^q at t, and add the step's trapezoid to M."""
        c = [eval_coeff(spec, t) for spec in self.c_specs]
        k = [eval_coeff(spec, t) for spec in self.k_specs]
        self.t, self.c_t, self.c_nonzero = t, np.array(c).take(self.c_of), all(c)
        ends = self.U[:, ::self.U.shape[1] - 1].tolist()
        acc = np.array([_acc_term(1.0, ub, q) for pair, q in zip(
            ends, self.q.tolist()) for ub in pair]).reshape(-1, 2)
        if dt:
            self.M = self.M + 0.5 * dt * (self.acc + acc)
        self.acc, s = acc, np.array(k, dtype=float).take(self.k_of)[:, None]
        self.g = s * (self.M if all(k) else np.where(s == 0.0, 0.0, self.M))

    def state(self, row: int) -> State:
        return State(self.t, self.U[row], *self.M[row].tolist(), self.steps,
                     self.sup[row].item(), nonneg=True)

    def part(self, keep: np.ndarray) -> list:
        """Keep the runs where keep holds; return the others at their State."""
        if np.count_nonzero(keep) == keep.size:
            return []
        for row in np.flatnonzero(~keep):
            self.runs[row].state = self.state(row)
        gone = [r for r, kept in zip(self.runs, keep) if not kept]
        self.runs = [r for r, kept in zip(self.runs, keep) if kept]
        for name in ("c_of", "k_of", "p", "q", "U", "M", "sup", "c_t", "acc", "g"):
            setattr(self, name, getattr(self, name)[keep])
        return gone

    def laddered_dt(self, ctr: SolverControls, cap: float) -> np.ndarray:
        """`_ladder(choose_dt(...))` of every run, with cap as the first-step
        cap.  The float arithmetic is choose_dt's on arrays; each power and
        log2 stays a Python float, which numpy may round otherwise."""
        sup = self.sup
        rate_react = [_reaction_rate(c, s, p) for s, c, p in zip(
            sup.tolist(), self.c_t.tolist(), self.p.tolist())]
        # no row and no sup in the block is NaN, but a slope may be
        ends = self.U[:, ::self.U.shape[1] - 1]
        scale = np.maximum(np.maximum(ends, 1e-6 * sup[:, None]), 1e-300)
        nu_left, nu_right = (np.abs(self.g) / scale).T
        # Python's max keeps nu_left where nu_right is NaN
        nu = np.where(nu_right > nu_left, nu_right, nu_left)
        denom = rate_react + nu + nu * nu + 1e-30
        dt = np.minimum(np.minimum(ctr.dt_max, ctr.theta / denom), cap)
        if not dt.min() >= ctr.dt_max:
            # a dt to ladder, or a runaway denominator and its token step
            token = ctr.dt_max * 2.0 ** -60
            dt = np.array([_ladder(d if f < math.inf else token, ctr.dt_max)
                           for d, f in zip(dt.tolist(), denom.tolist())])
        return dt

    def step(self, dt: float, h: float) -> list:
        """Step every run by dt: one reaction per distinct p, one solve and
        one max per row.  Returns the runs whose new row is not finite."""
        U, p_of = self.U, self.p.tolist()
        n = U.shape[1]
        rhs = np.empty_like(U)
        for p in dict.fromkeys(p_of):
            rows = slice(bisect_left(p_of, p), bisect_right(p_of, p))
            c_dt = dt * self.c_t[rows, None]
            _reaction(U[rows], c_dt, p, out=rhs[rows])
            if not self.c_nonzero:
                # a row with c(t) = 0 is its field, also where u^p overflows
                np.copyto(rhs[rows], U[rows], where=c_dt == 0.0)
        # the end columns take the explicit flux and the symmetrizing
        # 1/sqrt(2); the solve overwrites rhs, whose transpose is in
        # Fortran order, one field per column
        rhs[:, ::n - 1] = (rhs[:, ::n - 1] + dt * (2.0 / h) * self.g) / _SQRT2
        U_new = cho_solve_banded(_banded_factor(n, h, dt), rhs.T).T
        U_new[:, ::n - 1] *= _SQRT2
        sup = U_new.max(axis=1)
        finite = sup < math.inf
        gone = self.part(finite)
        self.U, self.sup = (U_new[finite], sup[finite]) if gone else (U_new, sup)
        self.steps += 1
        self.at(self.t + dt, dt)
        return gone


def run_group(scenarios) -> list:
    """[run(s) for s in scenarios], bit for bit, for scenarios with the
    memory boundary (`boundary` None) that agree in length, controls and
    initial field.

    The cells step as a `_Block`, and those on the most common laddered dt
    (the larger on a tie) take each step together, with one multi-column
    diffusion solve.  A cell that halts, has another dt or whose new row is
    not finite leaves the block and finishes through `advance` from its
    last state, which redoes that step as `run` takes it.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    head = scenarios[0]
    ctr = head.controls
    u0 = head.initial_field()
    if any(scn.boundary is not None for scn in scenarios):
        raise ConfigurationError(
            "must be None for every group scenario: a group takes the memory "
            "boundary rule only", "boundary")
    for scn in scenarios[1:]:
        if ((scn.length, scn.controls) != (head.length, ctr)
                or not np.array_equal(scn.initial_field(), u0)):
            raise ConfigurationError(
                "group scenarios must agree in length, controls and initial data")
    runs = [_Run(scn, u0) for scn in scenarios]
    # c(t) >= 0 and k(t) >= 0 give slopes >= 0: as in `step`, the block's
    # rows keep no negative entry, so it takes no min
    block = _Block(runs, u0)
    clock = _Clock(ctr)
    while True:
        going = block.t < ctr.t_max - 1e-12 and block.steps < ctr.max_steps
        gone = block.part((block.sup < ctr.blowup_threshold) & going)
        if block.runs:
            with np.errstate(over="ignore", invalid="ignore"):
                dts = block.laddered_dt(ctr, ctr.theta * head.h * head.h
                                        if block.steps == 0 else math.inf)
            votes = Counter(dts.tolist())
            dt = max(votes, key=lambda d: (votes[d], d))
            gone += block.part((dts == dt) & (votes[dt] > 1))
        for r in gone:
            r.follow()
        if not block.runs:
            break
        dt, landed = clock.cut(block.t, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            gone = block.step(dt, head.h)
        for r in gone:
            r.follow()
        dense = (block.sup >= 0.01 * ctr.blowup_threshold).nonzero()[0]
        for row in range(len(block.runs)) if landed else dense:
            block.runs[row].add(block.state(row), dt, landed)
    return [r.outcome for r in runs]


def estimate_blowup_time(trace: Trace, p: float,
                         threshold: float) -> BlowupEstimate:
    """First threshold crossing, plus (for p > 1) the zero crossing of a line
    through the last 20 samples of sup^{1-p} against t."""
    above = np.nonzero(trace.sup_norm >= threshold)[0]
    if above.size == 0:
        raise NotApplicableError("trace never reaches the blow-up threshold")
    i = int(above[0])
    T_cross = float(trace.t[i])
    if p <= 1.0:
        return BlowupEstimate(T_cross, None, None)
    lo = i - 19
    if lo < 0:
        return BlowupEstimate(T_cross, None, None)
    ts = trace.t[lo:i + 1]
    ss = trace.sup_norm[lo:i + 1]
    keep = ss > 0
    # distinct times counted without np.unique, whose first call imports
    # numpy.ma
    if keep.sum() < 20 or np.count_nonzero(np.diff(np.sort(ts[keep]))) < 19:
        return BlowupEstimate(T_cross, None, None)
    g = ss[keep] ** (1.0 - p)
    tt = ts[keep]
    # centered least squares: the samples cluster tightly near the blow-up
    # time, where an uncentered normal-equation fit loses all precision
    t_bar = float(tt.mean())
    g_bar = float(g.mean())
    dt_c = tt - t_bar
    dg_c = g - g_bar
    s_tt = float(np.dot(dt_c, dt_c))
    s_tg = float(np.dot(dt_c, dg_c))
    s_gg = float(np.dot(dg_c, dg_c))
    if s_tt == 0.0:
        return BlowupEstimate(T_cross, None, None)
    m = s_tg / s_tt
    if m >= 0.0:
        return BlowupEstimate(T_cross, None, None)
    T_fit = t_bar - g_bar / m
    r2 = s_tg * s_tg / (s_tt * s_gg) if s_gg > 0.0 else 1.0
    return BlowupEstimate(T_cross, float(T_fit), r2)


# ---------------------------------------------------------------------------
# comparison and mass checks

@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    max_violation: float
    t_end: float
    truncated: bool
    note: str = ""


def verify_comparison(scenario_low: Scenario,
                      scenario_high: Scenario) -> ComparisonReport:
    """Run both problems on the steps `run` takes for the low problem and
    check u_low <= u_high (relative tolerance 1e-8) at every shared step."""
    a, b = scenario_low, scenario_high
    if (a.length, a.p, a.q, a.c, a.k, a.controls) != (b.length, b.p, b.q, b.c,
                                                      b.k, b.controls):
        raise ConfigurationError(
            "comparison scenarios must agree in everything except initial data")
    u0_low = a.initial_field()
    u0_high = b.initial_field()
    if np.any(u0_low > u0_high + 1e-15):
        raise ConfigurationError("low initial data must sit below high pointwise")
    if min(a.p, a.q) < 1.0 and not np.all(u0_low > 0):
        raise ConfigurationError(
            "sublinear exponents require strictly positive lower data")

    threshold = a.controls.blowup_threshold
    flux_b = b.rule.flux
    st_low = State(0.0, u0_low, 0.0, 0.0, nonneg=True)
    st_high = State(0.0, u0_high, 0.0, 0.0, nonneg=True)
    max_viol = 0.0
    note = None
    try:
        # the high field is checked before every low step, the first one
        # included; "not sup < threshold" also catches NaN
        if st_high.sup < threshold:
            for st_low, dt, values, _ in advance(a, st_low):
                values_high = values[:1] + flux_b(st_high.t, st_high.M_left,
                                                  st_high.M_right)
                st_high = step(st_high, b, dt, values_high)
                with np.errstate(invalid="ignore"):
                    gap = float(np.max(st_low.u - st_high.u))
                if math.isfinite(gap) and math.isfinite(st_high.sup):
                    max_viol = max(max_viol, max(0.0, gap) / (1.0 + st_high.sup))
                if not st_high.sup < threshold:
                    break
    except SolverFault as fault:
        note = str(fault)
    if note is None:
        if not st_high.sup < threshold:
            note = "high run reached the blow-up threshold"
        else:
            status, note = _stop(st_low, a.controls)
            if status == STATUS_BLOWUP:
                note = "low run reached the blow-up threshold"
    return ComparisonReport(holds=max_viol <= 1e-8, max_violation=max_viol,
                            t_end=st_low.t, truncated=bool(note), note=note)


def mass_inequality_check(trace, scenario: Scenario) -> float:
    """Max deficit of w' >= |Omega|^{1-p} c(t) w^p over the recorded trace.

    Accepts a Trace or a SimulationOutcome.  Rows with sup norm above
    _MASS_SUP_CAP are excluded: finite differencing of w across near-blow-up
    rows measures only the recording cadence.
    """
    if scenario.p < 1.0:
        raise NotApplicableError("the mass inequality needs p >= 1 (convexity)")
    tr = trace.trace if isinstance(trace, SimulationOutcome) else trace
    keep = tr.sup_norm <= _MASS_SUP_CAP
    t = tr.t[keep]
    w = tr.mass_w[keep]
    t, idx = np.unique(t, return_index=True)
    w = w[idx]
    if t.size < 3:
        raise NotApplicableError("trace has fewer than 3 usable rows")
    dwdt = np.gradient(w, t)
    L = scenario.length
    lower = L ** (1.0 - scenario.p) * eval_coeff(scenario.c, t) * w ** scenario.p
    deficit = lower - dwdt
    return float(np.max(deficit[1:-1], initial=0.0))
