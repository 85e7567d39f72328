"""Solver tests against closed-form and hand-computed oracles."""

import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from memheat import pde_core
from memheat.coeffs import ZERO, CoefficientSpec, CumulativeIntegral
from memheat.criteria import REGIME_GLOBAL_ALL, classify_regime
from memheat.errors import ConfigurationError, NotApplicableError, SolverFault
from memheat.pde_core import (
    BlowupEstimate,
    InitialSpec,
    MemoryRule,
    PrescribedFluxRule,
    Scenario,
    SimulationOutcome,
    SolverControls,
    State,
    Trace,
    WeightedMemoryRule,
    _acc_term,
    _banded_factor,
    _ladder,
    advance,
    choose_dt,
    estimate_blowup_time,
    mass_inequality_check,
    run,
    run_group,
    step,
    step_values,
    verify_comparison,
)
from memheat.transform import to_transformed

ROOT = Path(__file__).resolve().parent.parent
ONE = CoefficientSpec.constant(1.0)


def scenario(p=2.0, q=2.0, c=ZERO, k=ZERO, u0=("constant", 1.0), **ctrl):
    return Scenario(length=1.0, p=p, q=q, c=c, k=k,
                    u0=InitialSpec(*u0), controls=SolverControls(**ctrl))


def _solve_diffusion(rhs, dt, h):
    """Implicit diffusion solve of a field (n,), or of every column of a
    block (n, m), on the cached factor, as `step` and the lockstep block
    take it, leaving rhs as it was."""
    n = rhs.shape[0]
    b = rhs.copy(order="F")
    b[::n - 1] /= math.sqrt(2.0)
    v = pde_core.cho_solve_banded(_banded_factor(n, h, dt), b)
    v[::n - 1] *= math.sqrt(2.0)
    return v


def fresh_state(scn):
    return State(0.0, scn.initial_field(), 0.0, 0.0)


def take_step(state, scn, dt):
    """One step of dt on the state's own step_values."""
    return step(state, scn, dt, step_values(state, scn))


# ---------------------------------------------------------------------------
# single steps

def test_constant_is_exact_steady_state():
    scn = scenario(c=ZERO, k=ZERO, u0=("constant", 3.0))
    st = fresh_state(scn)
    for _ in range(5):
        st = take_step(st, scn, 1e-3)
    assert np.max(np.abs(st.u - 3.0)) <= 1e-13
    assert st.M_left == pytest.approx(st.t * 3.0 ** scn.q, rel=1e-12)


def test_uniform_reaction_single_step_is_explicit_euler():
    # implicit diffusion of a constant is the constant, so one step of the
    # uniform problem is exactly u + dt*c*u^p
    scn = scenario(p=2.0, c=ONE, k=ZERO, u0=("constant", 1.0))
    st = take_step(fresh_state(scn), scn, 0.01)
    assert np.max(np.abs(st.u - 1.01)) <= 1e-13


def test_memory_accumulator_matches_trapezoid():
    scn = scenario(p=2.0, q=1.0, c=ZERO, k=ONE, u0=("constant", 1.0))
    dt = 1e-3
    st = take_step(fresh_state(scn), scn, dt)
    # flux is zero while the accumulator is empty, so u stays 1 exactly
    assert np.max(np.abs(st.u - 1.0)) <= 1e-13
    assert st.M_left == pytest.approx(dt, rel=1e-12)
    assert st.M_right == pytest.approx(dt, rel=1e-12)
    st = take_step(st, scn, dt)
    assert st.M_left == pytest.approx(2 * dt, rel=1e-3)
    assert st.M_left >= dt  # monotone


def test_prescribed_influx_raises_boundary_values_symmetrically():
    scn = replace(scenario(c=ZERO, k=ZERO, u0=("constant", 1.0)),
                  boundary=PrescribedFluxRule(lambda t: 1.0))
    st = take_step(fresh_state(scn), scn, 1e-4)
    assert st.u[0] > 1.0
    assert st.u[0] == pytest.approx(st.u[-1], rel=1e-12)
    assert st.M_left == 0.0  # prescribed flux accumulates no memory


def test_weighted_rule_damps_slope_and_inflates_accumulator():
    cum = CumulativeIntegral(ONE)  # C(t) = t
    rule = WeightedMemoryRule(ONE, cum, q=2.0)
    t = math.log(2.0)
    assert rule.flux(t, 3.0, 3.0)[0] == pytest.approx(1.5, rel=1e-12)
    assert rule.acc_weight(t) == pytest.approx(4.0, rel=1e-12)


def test_weighted_rule_weight_is_inf_only_past_the_float_range():
    # C(t) = t and q = 2: q C = 709.5 at t = 354.75, where e^{qC} is still
    # finite; the float range ends near q C = 709.78
    rule = WeightedMemoryRule(ONE, CumulativeIntegral(ONE), q=2.0)
    assert rule.acc_weight(354.75) == math.exp(709.5)
    assert rule.acc_weight(355.0) == math.inf


def test_step_rejects_nonpositive_dt():
    scn = scenario()
    with pytest.raises(ConfigurationError):
        take_step(fresh_state(scn), scn, 0.0)


# ---------------------------------------------------------------------------
# the stepping kernel's branches

@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 401), m=st.integers(0, 4), level=st.integers(0, 60),
       data=st.data())
def test_direct_solve_matches_scipy_wrapper_bitwise(n, m, level, data):
    # m = 0 solves a field (n,); m > 0 a block (n, m), one field per column,
    # each of which must equal its own one-column solve
    h = 1.0 / (n - 1)
    dt = 2e-3 * 2.0 ** -level
    rhs = data.draw(arrays(np.float64, (n, m) if m else n,
                           elements=st.floats(0.0, 1e12)))
    kept = rhs.copy()

    def wrapper(col):
        b = col.copy()
        b[0] /= math.sqrt(2.0)
        b[-1] /= math.sqrt(2.0)
        x = scipy.linalg.cho_solve_banded((_banded_factor(n, h, dt), False), b,
                                          check_finite=False)
        x[0] *= math.sqrt(2.0)
        x[-1] *= math.sqrt(2.0)
        return x

    got = _solve_diffusion(rhs, dt, h)
    assert got.shape == rhs.shape
    pairs = [(got, rhs)] if not m else [(got[:, j], rhs[:, j]) for j in range(m)]
    for x, col in pairs:
        assert x.tobytes() == wrapper(col).tobytes()
    assert rhs.tobytes() == kept.tobytes()
    # the factor itself is scipy's, of the same symmetrized band
    r = dt / (h * h)
    ab = np.zeros((2, n))
    ab[1, :] = 1.0 + 2.0 * r
    ab[0, 1:] = -r
    ab[0, 1] = ab[0, -1] = -r * math.sqrt(2.0)
    assert (_banded_factor(n, h, dt).tobytes()
            == scipy.linalg.cholesky_banded(ab).tobytes())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cholesky_banded_refuses_a_non_finite_band_as_scipy_does(bad):
    ab = np.array([[0.0, -1.0, -1.0], [4.0, 4.0, 4.0]])
    ab[1, 1] = bad
    for factor in (pde_core.cholesky_banded, scipy.linalg.cholesky_banded):
        with pytest.raises(ValueError, match="infs or NaNs"):
            factor(ab)


def test_cholesky_banded_refuses_an_indefinite_band_as_scipy_does():
    ab = np.array([[0.0, -3.0, -1.0], [1.0, 4.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError) as ours:
        pde_core.cholesky_banded(ab)
    with pytest.raises(np.linalg.LinAlgError) as theirs:
        scipy.linalg.cholesky_banded(ab)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("first", ["memheat.pde_core", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    # pde_core loads scipy's LAPACK extension from its file; scipy.linalg,
    # imported before or after, shares the one module object
    code = (f"import {first}\nimport scipy.linalg.lapack, sys\n"
            "from memheat import pde_core\n"
            "print(pde_core.dpbtrs is scipy.linalg.lapack.dpbtrs,\n"
            "      pde_core._flapack is sys.modules['scipy.linalg._flapack'])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


@pytest.mark.filterwarnings("error")
def test_overflowing_reaction_step_is_inf_where_rhs_overflowed():
    scn = scenario(p=2.0, c=ONE, k=ZERO, n_nodes=51)
    node = 10
    u = np.ones(51)
    u[node] = 1e200
    dt = 1e-3
    new = take_step(State(0.0, u, 0.0, 0.0), scn, dt)
    assert new.u[node] == math.inf
    # the rhs of every other node, 1 + dt * 1^2, is taken as it is
    np.testing.assert_array_equal(np.delete(new.u, node), np.full(50, 1.0 + dt))
    assert new.sup == math.inf


# ---------------------------------------------------------------------------
# refused input: a field never goes negative because no step is given the
# means to make one

def _prescribed_outflow_case(overshoot):
    # outward slope g on both ends of u = 1: the solve is 1 + g w, with w the
    # solve of the end-row unit flux, so g = -(1 + overshoot) / w[0] would put
    # the end values near -overshoot
    scn = scenario(c=ZERO, k=ZERO, u0=("constant", 1.0), n_nodes=51)
    dt = 1e-4
    unit = np.zeros(51)
    unit[[0, -1]] = dt * 2.0 / scn.h
    g = -(1.0 + overshoot) / _solve_diffusion(unit, dt, scn.h)[0]
    return replace(scn, boundary=PrescribedFluxRule(lambda t: g)), dt


@pytest.mark.parametrize("overshoot", [1.0, 1e-12], ids=["large", "slight"])
def test_step_refuses_a_negative_prescribed_slope_by_name(monkeypatch,
                                                          overshoot):
    # at 1.0 the field would undershoot far below zero, at 1e-12 by less
    # than rounding; either way the slope is refused before the step builds
    # a rhs or solves, not the field clipped
    scn, dt = _prescribed_outflow_case(overshoot)
    state = fresh_state(scn)
    kept = state.u.copy()

    def touched(*args):
        raise AssertionError("the step touched the field")
    monkeypatch.setattr(pde_core, "_explicit", touched)
    monkeypatch.setattr(pde_core, "cho_solve_banded", touched)
    with pytest.raises(ConfigurationError, match="^values ") as info:
        take_step(state, scn, dt)
    assert info.value.key == "values"
    assert state.u.tobytes() == kept.tobytes()
    monkeypatch.undo()
    with pytest.raises(ConfigurationError, match="^values "):
        run(replace(scn, controls=replace(scn.controls, t_max=1e-3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 41),
       c=st.sampled_from([0.0, 0.5, 3.0, 1e10, -3.0, -1e10]),
       g_left=st.floats(-1e3, 1e3), g_right=st.floats(-1e3, 1e3),
       scale=st.sampled_from([1.0, 1e200, 1e307]), data=st.data())
def test_step_refuses_negative_values_by_name(n, c, g_left, g_right, scale,
                                              data):
    # a negative c(t) or a negative slope on either end, as drawn for the
    # values of a step of a nonnegative field
    assume(min(c, g_left, g_right) < 0.0)
    scn = scenario(c=CoefficientSpec.constant(abs(c)), n_nodes=n)
    u = scale * data.draw(arrays(np.float64, n, elements=st.floats(0.0, 10.0)))
    state = State(0.5, u, 1.0, 2.0, steps=3)
    kept = u.copy()
    with pytest.raises(ConfigurationError, match="^values ") as info:
        step(state, scn, 1e-4, (c, g_left, g_right, 1.0))
    assert info.value.key == "values"
    assert u.tobytes() == kept.tobytes()


@pytest.mark.parametrize("entry", [-1.0, -math.inf, -5e-324])
@pytest.mark.parametrize("node, nan_at", [(0, None), (4, 1)])
def test_state_refuses_a_negative_entry_by_name(entry, node, nan_at):
    # a NaN elsewhere in the field does not hide the negative entry
    u = np.ones(5)
    if nan_at is not None:
        u[nan_at] = math.nan
    u[node] = entry
    with pytest.raises(ConfigurationError, match="^u ") as info:
        State(0.0, u, 0.0, 0.0)
    assert info.value.key == "u"


@pytest.mark.parametrize("entries, status", [
    ([math.nan], pde_core.STATUS_ABORTED), ([math.inf], pde_core.STATUS_BLOWUP),
    ([math.nan, math.inf], pde_core.STATUS_ABORTED), ([-0.0], None)])
def test_state_accepts_nan_inf_and_negative_zero_entries(entries, status):
    # no input error: `_stop` reports a NaN as Aborted and an inf as BlowUp
    u = np.ones(5)
    u[1:1 + len(entries)] = entries
    state = State(0.0, u, 0.0, 0.0)
    np.testing.assert_equal(state.sup, float(u.max()))
    assert (pde_core._stop(state, SolverControls()) or (None,))[0] == status


def _reference_step(state, scenario, dt, values):
    """step as it was before it skipped the min of a field that cannot go
    negative, dropped the p = 1 power, took its end rows as floats, solved in
    place and entered np.errstate only for a reaction that can overflow: the
    oracle of the lean kernel."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ConfigurationError("dt must be positive and finite")
    c_t, g_left, g_right, w0 = values
    u = state.u
    t = state.t
    with np.errstate(over="ignore", invalid="ignore"):
        if c_t != 0.0:
            rhs = np.power(u, scenario.p)
            rhs *= dt * c_t
            rhs += u
        else:
            rhs = u.copy()
        rhs[0] += dt * (2.0 / scenario.h) * g_left
        rhs[-1] += dt * (2.0 / scenario.h) * g_right
        u_new = _solve_diffusion(rhs, dt, scenario.h)
    m = float(u_new.min())
    sup = float(u_new.max())
    if (math.isfinite(m) and math.isfinite(sup)) or np.isfinite(rhs).all():
        if m < 0.0:
            if m < -1e-10 * max(sup, 1e-300):
                raise SolverFault(
                    f"negative undershoot {m:.3e} at t={t:.6g} (dt too large)")
            np.clip(u_new, 0.0, None, out=u_new)
            sup = float(u_new.max())
    else:
        u_new = np.where(np.isfinite(rhs), rhs, np.inf)
        sup = math.inf
    w1 = scenario.rule.acc_weight(t + dt)
    q = scenario.q
    M_left = state.M_left + 0.5 * dt * (_acc_term(w0, float(u[0]), q)
                                        + _acc_term(w1, float(u_new[0]), q))
    M_right = state.M_right + 0.5 * dt * (_acc_term(w0, float(u[-1]), q)
                                          + _acc_term(w1, float(u_new[-1]), q))
    return State(t + dt, u_new, float(M_left), float(M_right),
                 state.steps + 1, sup)


def _outcome(kernel, state, scn, dt, values):
    """A step's state as bytes, or its exception as (type, message)."""
    try:
        new = kernel(state, scn, dt, values)
    except (SolverFault, ConfigurationError) as exc:
        return type(exc), str(exc)
    return (np.array([new.t, new.M_left, new.M_right, new.sup]).tobytes(),
            new.steps, new.u.tobytes())


def _step_rule(kind, k, q, g):
    if kind == "memory":
        return MemoryRule(k)
    if kind == "weighted":
        return WeightedMemoryRule(k, CumulativeIntegral(CoefficientSpec.power(1.0, 2.0)), q)
    return PrescribedFluxRule(lambda t: g)


def _assert_lean_step_is_reference(state, scn, dt, values):
    want = _outcome(_reference_step, state, scn, dt, values)
    assert _outcome(step, state, scn, dt, values) == want
    if isinstance(want[0], type):
        return
    # from a step's own result, which has no negative entry
    new = step(state, scn, dt, values)
    assert not (new.u < 0).any()
    values = step_values(new, scn)
    assert (_outcome(step, new, scn, dt, values)
            == _outcome(_reference_step, new, scn, dt, values))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(n=st.integers(3, 41), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       q=st.sampled_from([0.5, 1.0, 2.0]),
       c=st.sampled_from([0.0, 0.5, 3.0, 1e10]),
       k=st.sampled_from([0.0, 1.0, 40.0]),
       kind=st.sampled_from(["memory", "weighted", "prescribed"]),
       g=st.floats(0.0, 1e3),
       scale=st.sampled_from([1.0, 1e100, 1e200, 1e300, 1e307]),
       spike=st.sampled_from([None, math.inf, math.nan]),
       level=st.integers(0, 30),
       t=st.floats(0.0, 10.0), M=st.floats(0.0, 1e3), data=st.data())
def test_lean_step_equals_reference_step_bitwise(n, p, q, c, k, kind, g, scale,
                                                 spike, level, t, M, data):
    # a nonnegative field, which may hold an inf or a NaN; the prescribed
    # rule draws an influx and no memory.  Negative values are refused
    # (test_step_refuses_negative_values_by_name)
    scn = replace(scenario(p=p, q=q, c=CoefficientSpec.constant(c), n_nodes=n),
                  boundary=_step_rule(kind, CoefficientSpec.constant(k), q, g))
    u = scale * data.draw(arrays(np.float64, n, elements=st.floats(0.0, 10.0)))
    if spike is not None:
        u[data.draw(st.integers(0, n - 1))] = spike
    state = State(t, u, M, 0.5 * M, steps=3)
    dt = 2e-3 * 2.0 ** -level
    _assert_lean_step_is_reference(state, scn, dt, step_values(state, scn))


def _bound(c_dt, sup, p):
    # the float bound the step takes its reaction's errstate by
    try:
        return abs(c_dt) * sup ** p + sup
    except OverflowError:
        return math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 41), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       q=st.sampled_from([0.5, 2.0]), c=st.sampled_from([0.5, 3.0, 1e10]),
       kind=st.sampled_from(["memory", "weighted", "prescribed"]),
       g=st.floats(0.0, 1e3), level=st.integers(0, 30),
       above=st.booleans(), ulps=st.integers(0, 3), data=st.data())
def test_lean_step_equals_reference_step_at_the_overflow_bound(
        n, p, q, c, kind, g, level, above, ulps, data):
    # a nonnegative field whose max sits just below or just above the sup at
    # which |dt c| sup^p + sup reaches _REACTION_CAP: the step's reaction
    # runs outside np.errstate below it and inside above it
    dt = 2e-3 * 2.0 ** -level
    c_dt = dt * c
    lo, hi = 0.0, sys.float_info.max       # bound(lo) < cap <= bound(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else hi / 2.0 ** 60
        mid = min(max(mid, math.nextafter(lo, math.inf)),
                  math.nextafter(hi, 0.0))
        if _bound(c_dt, mid, p) < pde_core._REACTION_CAP:
            lo = mid
        else:
            hi = mid
    sup = hi if above else lo
    for _ in range(ulps):
        sup = math.nextafter(sup, math.inf if above else 0.0)
    assert (_bound(c_dt, sup, p) < pde_core._REACTION_CAP) is not above
    frac = data.draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    u = sup * frac
    u[data.draw(st.integers(0, n - 1))] = sup
    scn = replace(scenario(p=p, q=q, c=CoefficientSpec.constant(c), n_nodes=n),
                  boundary=_step_rule(kind, CoefficientSpec.constant(1.0), q, g))
    state = State(0.5, u, 1.0, 2.0, steps=3)
    _assert_lean_step_is_reference(state, scn, dt, step_values(state, scn))


def _reference_run(scn):
    """run(scn) as the reference step chained: each step's own step_values,
    the laddered choose_dt cut by a `_Clock`, and the trace rows and
    snapshots that `run` records."""
    ctr, h = scn.controls, scn.h
    state = State(0.0, scn.initial_field(), 0.0, 0.0)
    rows = [(0.0, state.sup, state.mass(h), 0.0, 0.0, 0.0)]
    snapshots = [(0.0, state.u.copy())]
    clock = pde_core._Clock(ctr)
    while pde_core._stop(state, ctr) is None:
        values = step_values(state, scn)
        dt, landed = clock.cut(state.t, _ladder(
            choose_dt(state, scn, values), ctr.dt_max))
        state = _reference_step(state, scn, dt, values)
        if landed or state.sup >= 0.01 * ctr.blowup_threshold:
            rows.append((state.t, state.sup, state.mass(h), state.M_left,
                         state.M_right, dt))
        if landed:
            snapshots.append((state.t, state.u.copy()))
    status, reason = pde_core._stop(state, ctr)
    if rows[-1][0] != state.t:
        rows.append((state.t, state.sup, state.mass(h), state.M_left,
                     state.M_right, 0.0))
    if snapshots[-1][0] != state.t:
        snapshots.append((state.t, state.u.copy()))
    trace = Trace(*(np.array(col) for col in zip(*rows)))
    estimate = (estimate_blowup_time(trace, scn.p, ctr.blowup_threshold)
                if status == pde_core.STATUS_BLOWUP else None)
    t_end = max(state.t, ctr.t_max) if status == pde_core.STATUS_GLOBAL else state.t
    return SimulationOutcome(status, t_end, state.sup, trace, snapshots,
                             estimate, reason, state.steps)


_RUN_COEFF = st.one_of(
    st.just(ZERO),
    st.builds(CoefficientSpec.constant, st.floats(0.1, 4.0)),
    st.builds(CoefficientSpec.power, st.floats(0.1, 4.0), st.floats(0.5, 3.0)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 31), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       q=st.sampled_from([0.5, 1.0, 2.0, 3.0]), c=_RUN_COEFF, k=_RUN_COEFF,
       weighted=st.booleans(),
       u0=st.tuples(st.sampled_from(["constant", "cos_bump"]),
                    st.floats(0.05, 4.0)),
       t_max=st.floats(0.05, 1.0), threshold=st.sampled_from([1e3, 1e10]))
# a reaction blow-up, a boundary blow-up and a weighted (p = 1) blow-up
@example(n=11, p=2.0, q=2.0, c=CoefficientSpec.constant(3.0), k=ZERO,
         weighted=False, u0=("constant", 1.0), t_max=1.0, threshold=1e10)
@example(n=21, p=2.0, q=2.0, c=ZERO, k=CoefficientSpec.constant(4.0),
         weighted=False, u0=("cos_bump", 2.0), t_max=1.0, threshold=1e3)
@example(n=7, p=1.0, q=3.0, c=CoefficientSpec.power(2.0, 1.0),
         k=CoefficientSpec.constant(4.0), weighted=True, u0=("constant", 2.0),
         t_max=1.0, threshold=1e3)
# a power_log k, and a weighted rule on the C(t) of a power_log c
@example(n=51, p=2.0, q=2.0, c=CoefficientSpec.power(1.0, 2.0),
         k=CoefficientSpec.power_log(1.0, 2.0, 1, 1.0), weighted=False,
         u0=("constant", 0.1), t_max=0.4, threshold=1e10)
@example(n=51, p=1.0, q=2.0, c=CoefficientSpec.power_log(1.0, 1.0, 1),
         k=CoefficientSpec.power(2.0, 1.0), weighted=True, u0=("cos_bump", 0.5),
         t_max=0.4, threshold=1e10)
def test_run_equals_the_reference_step_chained_bitwise(n, p, q, c, k, weighted,
                                                       u0, t_max, threshold):
    # `run` hands its recorder only the rows it keeps; the reference tests
    # every step itself.  The weighted rule is the reaction-stripped twin
    # of a p = 1 scenario.
    scn = scenario(1.0 if weighted else p, q, c, k, u0, n_nodes=n, t_max=t_max,
                   blowup_threshold=threshold, max_steps=3000)
    if weighted:
        scn = to_transformed(scn)
    _assert_same_outcome(run(scn), _reference_run(scn))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 401), m=st.integers(0, 4), level=st.integers(0, 60),
       data=st.data())
def test_solve_of_a_nonnegative_rhs_is_nonnegative(n, m, level, data):
    # the premise of skipping the min: positive pivots and a negative
    # superdiagonal only add nonnegative terms, overflow included
    rhs = data.draw(arrays(np.float64, (n, m) if m else n,
                           elements=st.floats(0.0, 1.7e308)))
    v = _solve_diffusion(rhs, 2e-3 * 2.0 ** -level, 1.0 / (n - 1))
    assert v.min() >= 0.0


@pytest.mark.parametrize("make", [
    lambda: scenario(p=2.0, q=2.0, c=ONE, k=ZERO, n_nodes=51, t_max=2.0),
    lambda: scenario(p=1.5, q=2.0, c=ZERO, k=ONE, u0=("cos_bump", 1.0),
                     n_nodes=41, t_max=3.0),
    lambda: _weighted_rule_case()[0],
], ids=["reaction", "boundary", "weighted"])
def test_advance_state_sup_is_the_field_max(make):
    scn = make()
    n = 0
    for state, _, _, _ in advance(scn, fresh_state(scn)):
        assert state.sup == float(state.u.max())
        n += 1
    assert n > 100


_TRACED_PASS = """
import json
from dataclasses import replace
import tracer
from memheat import pde_core
from memheat.coeffs import ZERO, CoefficientSpec
t = tracer.Tracer()
tracer.install(t)
scn = pde_core.Scenario(1.0, 2.0, 2.0, CoefficientSpec.constant(1.0), ZERO,
                        pde_core.InitialSpec("constant", 1.0),
                        pde_core.SolverControls(n_nodes=51, t_max=2.0))

def calls():
    return {name: row["calls"] for name, row in t.summary().items()}

steps = pde_core.run(scn).steps
single = calls()
# with k = 0 the cells differ only in q, so they share every dt
group = [o.steps for o in pde_core.run_group([scn, replace(scn, q=3.0)])]
both = calls()
print(json.dumps({"steps": steps, "single": single, "group_steps": group,
                  "group": {name: n - single.get(name, 0)
                            for name, n in both.items()}}))
"""


def test_traced_benchmark_wraps_the_kernel_names():
    # perfbench/tracer.py patches pde_core.step, choose_dt, cho_solve_banded
    # and cholesky_banded, and coeffs.eval_coeff, by name; a missing name
    # fails its install.  The counts pin one choose_dt and one scalar c(t)
    # and k(t) per step, so a kernel that bypasses a name shows here.  A
    # lockstep block makes one traced solve per block step.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_PASS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    steps, single, group = out["steps"], out["single"], out["group"]
    assert steps == 779
    assert single["pde_core.factor"] >= 1
    del single["pde_core.factor"]
    assert single == {"pde_core.run": 1, "pde_core.step": steps,
                      "pde_core.choose_dt": steps, "pde_core.solve": steps,
                      "coeffs.eval_coeff.constant.scalar": 2 * steps}
    # the block takes its dts on arrays, without choose_dt, and evaluates
    # the c and the k the two cells share once per time it reaches, the
    # start included
    assert out["group_steps"] == [steps, steps]
    assert group == {"pde_core.run": 0, "pde_core.step": 0,
                     "pde_core.factor": 0, "pde_core.choose_dt": 0,
                     "pde_core.solve": steps,
                     "coeffs.eval_coeff.constant.scalar": 2 * (steps + 1)}


# ---------------------------------------------------------------------------
# step-size control

def test_choose_dt_zero_state_uses_grid_cap_on_first_step():
    scn = scenario(p=2.0, q=2.0, c=ONE, k=ONE, u0=("constant", 0.0))
    st = fresh_state(scn)
    h = scn.h
    expected = min(scn.controls.dt_max, scn.controls.theta * h * h)
    assert choose_dt(st, scn, step_values(st, scn)) == pytest.approx(expected,
                                                                     rel=1e-12)


def test_choose_dt_large_field_limits_reaction_growth():
    scn = scenario(p=2.0, c=ONE, k=ZERO)
    st = State(0.0, np.full(scn.controls.n_nodes, 1e6), 0.0, 0.0, steps=7)
    assert choose_dt(st, scn, step_values(st, scn)) <= 1.0000001e-7


def test_choose_dt_stays_positive_at_threshold():
    scn = scenario(p=2.0, c=ONE, k=ONE)
    st = State(0.0, np.full(scn.controls.n_nodes, 1e10), 5.0, 5.0, steps=3)
    assert choose_dt(st, scn, step_values(st, scn)) > 0.0


def _weighted_rule_case():
    base = scenario(p=1.0, q=2.0, c=CoefficientSpec.power_log(1.0, 1.0, 1),
                    k=CoefficientSpec.power(2.0, 1.0), u0=("cos_bump", 0.5),
                    n_nodes=51)
    twin = to_transformed(base)
    return twin, twin.boundary


def test_rule_flux_agrees_with_slope_and_weight():
    cum = CumulativeIntegral(ONE)
    rule = WeightedMemoryRule(ONE, cum, q=2.0)
    t = math.log(2.0)
    assert rule.flux(t, 3.0, 5.0) == (rule.flux(t, 3.0, 3.0)[0],
                                      rule.flux(t, 5.0, 5.0)[0], rule.acc_weight(t))
    assert MemoryRule(ONE).flux(1.0, 2.0, 4.0) == (2.0, 4.0, 1.0)
    assert PrescribedFluxRule(lambda t: 0.5).flux(1.0, 2.0, 4.0) == (0.5, 0.5, 0.0)


def test_weighted_rule_asks_c_once_per_step():
    scn, rule = _weighted_rule_case()
    cum = rule.cum
    asked = []
    rule.cum = lambda t: asked.append(t) or cum(t)
    state = fresh_state(scn)
    for state, _, _, _ in itertools.islice(advance(scn, state), 200):
        pass
    # each step's acc_weight at t + dt is the next step's flux at t + dt
    assert len(asked) == len(set(asked)) == state.steps + 1
    # and the memo returns what the formulas give
    fresh = WeightedMemoryRule(rule.k, cum, rule.q)
    assert rule.flux(state.t, 2.0, 3.0) == fresh.flux(state.t, 2.0, 3.0)
    assert rule.acc_weight(state.t) == math.exp(rule.q * cum(state.t))


def test_dt_ladder_rounds_down_to_powers_of_two():
    assert _ladder(5e-3, 2e-3) == 2e-3
    assert _ladder(1e-3, 2e-3) == pytest.approx(1e-3, rel=1e-15)
    assert _ladder(9e-4, 2e-3) == pytest.approx(5e-4, rel=1e-15)


# ---------------------------------------------------------------------------
# full runs

def test_run_step_count_is_pinned():
    scn = scenario(p=2.0, q=2.0, c=ONE, k=ZERO, u0=("constant", 1.0),
                   n_nodes=51, t_max=2.0)
    out = run(scn)
    assert out.status == "BlowUp"
    assert out.steps == 779


def test_uniform_blowup_matches_ode_closed_form():
    # spatially uniform: the run reduces to u' = u^2, u(0)=1, blow-up at t=1
    scn = scenario(p=2.0, c=ONE, k=ZERO, u0=("constant", 1.0), t_max=5.0)
    out = run(scn)
    assert out.status == "BlowUp"
    assert out.sup_norm_end >= scn.controls.blowup_threshold
    est = out.blowup_estimate
    assert est is not None
    assert 0.98 <= est.T_fit <= 1.02
    assert est.T_cross <= 1.05
    assert est.fit_quality >= 0.99


def test_zero_data_is_exact_fixed_point():
    scn = scenario(p=2.0, q=2.0, c=ONE, k=ONE, u0=("constant", 0.0), t_max=2.0)
    out = run(scn)
    assert out.status == "GlobalToHorizon"
    assert out.t_end >= 2.0
    assert out.sup_norm_end <= 1e-12
    assert out.trace.M_left[-1] == 0.0


def test_symmetric_data_stays_symmetric():
    scn = scenario(p=1.2, q=1.5, c=CoefficientSpec.constant(0.5),
                   k=CoefficientSpec.constant(0.3),
                   u0=("cos_bump", 1.0), t_max=0.5)
    out = run(scn)
    u = out.snapshots[-1][1]
    assert np.max(np.abs(u - u[::-1])) <= 1e-10 * (1.0 + np.max(u))


def test_run_invariants_nonnegative_and_memory_monotone():
    scn = scenario(p=1.2, q=1.5, c=CoefficientSpec.constant(0.5),
                   k=CoefficientSpec.constant(0.3),
                   u0=("cos_bump", 1.0), t_max=0.5)
    out = run(scn)
    assert all(np.min(u) >= 0.0 for _, u in out.snapshots)
    assert np.all(np.diff(out.trace.M_left) >= 0.0)
    assert np.all(np.diff(out.trace.M_right) >= 0.0)
    assert np.all(np.diff(out.trace.t) > 0.0)


def test_snapshot_cadence_hits_requested_times():
    scn = scenario(c=ZERO, k=ZERO, u0=("constant", 1.0),
                   t_max=1.0, snapshot_every=0.25)
    out = run(scn)
    times = [t for t, _ in out.snapshots]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)


def test_refined_controls_double_resolution():
    ctr = SolverControls(n_nodes=201, theta=0.1)
    fine = ctr.refined(2)
    assert fine.n_nodes == 801
    assert fine.theta == pytest.approx(0.025)
    with pytest.raises(ConfigurationError):
        ctr.refined(-1)


# ---------------------------------------------------------------------------
# temporal accuracy on the linear problem

def _cos_mode_eigenvalue(n, length):
    h = length / (n - 1)
    return -(4.0 / h**2) * math.sin(math.pi * h / length) ** 2


def test_linear_problem_matches_per_mode_recurrence():
    # u0 = 1/2 - cos(2 pi x)/2; both modes are exact eigenvectors of the
    # discrete operator, so the scheme has a closed per-mode form
    n = 41
    scn = scenario(p=1.0, c=ONE, k=ZERO, u0=("cos_bump", 1.0))
    scn = Scenario(length=1.0, p=1.0, q=2.0, c=ONE, k=ZERO,
                   u0=InitialSpec("cos_bump", 1.0),
                   controls=SolverControls(n_nodes=n))
    mu = _cos_mode_eigenvalue(n, 1.0)
    dt, steps = 0.01, 100
    st = fresh_state(scn)
    for _ in range(steps):
        st = take_step(st, scn, dt)
    x = scn.grid()
    amp_const = 0.5 * (1.0 + dt) ** steps
    amp_cos = -0.5 * ((1.0 + dt) / (1.0 - dt * mu)) ** steps
    expected = amp_const + amp_cos * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(st.u - expected)) <= 1e-10 * amp_const


def test_temporal_convergence_is_first_order():
    n = 41
    scn = Scenario(length=1.0, p=1.0, q=2.0, c=ONE, k=ZERO,
                   u0=InitialSpec("cos_bump", 1.0),
                   controls=SolverControls(n_nodes=n))
    mu = _cos_mode_eigenvalue(n, 1.0)
    x = scn.grid()
    exact = 0.5 * math.e + (-0.5 * math.exp(1.0 + mu)) * np.cos(2.0 * np.pi * x)
    errs = []
    for steps in (100, 200, 400):
        dt = 1.0 / steps
        st = fresh_state(scn)
        for _ in range(steps):
            st = take_step(st, scn, dt)
        errs.append(np.max(np.abs(st.u - exact)))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert 0.9 <= s <= 1.1


# ---------------------------------------------------------------------------
# blow-up time extrapolation

def _trace_from(ts, sups):
    z = np.zeros_like(np.asarray(ts, dtype=float))
    return Trace(np.asarray(ts, dtype=float), np.asarray(sups, dtype=float),
                 z.copy(), z.copy(), z.copy(), z.copy())


def test_estimate_exact_reciprocal_trace():
    # u = 1/(1-t): u^{-1} is exactly linear in t, zero crossing at 1
    gap = np.geomspace(1e-4, 1e-8, 30)
    ts = 1.0 - gap
    tr = _trace_from(ts, 1.0 / gap)
    est = estimate_blowup_time(tr, p=2.0, threshold=1e8)
    assert est.T_cross == pytest.approx(1.0 - 1e-8, rel=1e-12)
    assert est.T_fit == pytest.approx(1.0, abs=1e-6)
    assert est.fit_quality >= 1.0 - 1e-9


def test_estimate_square_root_trace():
    # u = (1-2t)^{-1/2}: u^{-2} = 1 - 2t, zero crossing at 1/2
    gap = np.geomspace(1e-2, 1e-6, 25)
    ts = (1.0 - gap) / 2.0
    tr = _trace_from(ts, gap ** -0.5)
    est = estimate_blowup_time(tr, p=3.0, threshold=1e3)
    assert est.T_fit == pytest.approx(0.5, abs=1e-6)
    assert est.fit_quality >= 1.0 - 1e-9


def test_estimate_requires_threshold_crossing():
    tr = _trace_from(np.linspace(0, 1, 50), np.full(50, 5.0))
    with pytest.raises(NotApplicableError):
        estimate_blowup_time(tr, p=2.0, threshold=1e10)


def test_estimate_boundary_driven_reports_crossing_only():
    ts = np.linspace(0.0, 1.0, 40)
    sups = np.exp(30.0 * ts)
    tr = _trace_from(ts, sups)
    est = estimate_blowup_time(tr, p=1.0, threshold=1e9)
    assert est.T_fit is None and est.fit_quality is None
    assert est.T_cross == pytest.approx(ts[np.argmax(sups >= 1e9)])


def test_estimate_omits_fit_with_short_history():
    gap = np.geomspace(1e-4, 1e-8, 10)   # crossing at index 9 < 19
    tr = _trace_from(1.0 - gap, 1.0 / gap)
    est = estimate_blowup_time(tr, p=2.0, threshold=1e8)
    assert est.T_fit is None


@pytest.mark.parametrize("repeats, fitted", [(0, True), (1, False), (2, False)])
def test_estimate_omits_fit_unless_its_20_times_are_distinct(repeats, fitted):
    gap = np.geomspace(1e-4, 1e-8, 30)
    ts = 1.0 - gap
    ts[-1 - repeats:] = ts[-1]     # the last 20 hold 20 - repeats times
    tr = _trace_from(ts, 1.0 / gap)
    est = estimate_blowup_time(tr, p=2.0, threshold=1e8)
    assert (est.T_fit is not None) == fitted


# ---------------------------------------------------------------------------
# lockstep groups

def _assert_same_outcome(got, want):
    assert (got.status, got.reason, got.steps) == (want.status, want.reason,
                                                   want.steps)
    assert repr((got.t_end, got.sup_norm_end, got.blowup_estimate)) == repr(
        (want.t_end, want.sup_norm_end, want.blowup_estimate))
    for name in ("t", "sup_norm", "mass_w", "M_left", "M_right", "dt"):
        assert (getattr(got.trace, name).tobytes()
                == getattr(want.trace, name).tobytes()), name
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
    for (_, u_got), (_, u_want) in zip(got.snapshots, want.snapshots):
        assert u_got.tobytes() == u_want.tobytes()


_EXPONENT = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
_AMPLITUDE = st.floats(0.1, 3.0)
_C = st.one_of(
    st.just(ZERO),
    st.builds(CoefficientSpec.constant, _AMPLITUDE),
    st.builds(CoefficientSpec.power, _AMPLITUDE, st.floats(0.5, 3.0)),
    st.builds(CoefficientSpec.exp_decay, _AMPLITUDE, st.floats(0.1, 2.0)),
    st.builds(CoefficientSpec.power_log, _AMPLITUDE, st.floats(0.5, 3.0),
              st.integers(1, 2), st.floats(0.0, 2.0)))
_K = st.one_of(
    st.just(ZERO),
    st.builds(CoefficientSpec.constant, _AMPLITUDE),
    st.builds(CoefficientSpec.power, _AMPLITUDE, st.floats(1.0, 4.0)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(11, 61), t_max=st.floats(0.05, 0.3),
       family=st.sampled_from(["constant", "cos_bump"]),
       value=st.floats(0.05, 1.5),
       cells=st.lists(st.tuples(_EXPONENT, _EXPONENT, _C, _K),
                      min_size=1, max_size=5))
def test_run_group_equals_run_bitwise(n, t_max, family, value, cells):
    ctrl = dict(n_nodes=n, t_max=t_max, max_steps=3000)
    group = [scenario(p, q, c, k, (family, value), **ctrl)
             for p, q, c, k in cells]
    # a fast reaction blow-up, whose dt leaves the block's well before t_max
    group.append(scenario(2.0, 1.0, CoefficientSpec.constant(8.0 / (value * t_max)),
                          ZERO, (family, value), **ctrl))
    for got, scn in zip(run_group(group), group):
        _assert_same_outcome(got, run(scn))


def _record_block_steps(monkeypatch) -> list:
    """(runs, all M finite, all slopes finite, runs that left) of every
    lockstep step that run_group takes from here on."""
    steps = []
    take = pde_core._Block.step

    def recorded(block, dt, h):
        runs = list(block.runs)
        finite = bool(np.isfinite(block.M).all()), bool(np.isfinite(block.g).all())
        gone = take(block, dt, h)
        steps.append((runs, *finite, gone))
        return gone
    monkeypatch.setattr(pde_core._Block, "step", recorded)
    return steps


def test_run_group_evaluates_each_distinct_spec_once_per_time(monkeypatch):
    def specs():
        return CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power_log(1.0, 2.0, 1)
    (c, k), (c_copy, k_copy) = specs(), specs()
    assert (c_copy, k_copy) == (c, k) and c_copy is not c and k_copy is not k
    ctrl = dict(n_nodes=41, t_max=0.5)
    group = [scenario(2.0, 2.0, c, k, ("constant", 0.1), **ctrl),
             scenario(2.0, 3.0, c, k, ("constant", 0.1), **ctrl),
             scenario(1.0, 2.0, c_copy, k_copy, ("constant", 0.1), **ctrl),
             scenario(1.5, 2.0, c, ONE, ("constant", 0.1), **ctrl)]
    asked = Counter()
    evaluate = pde_core.eval_coeff
    monkeypatch.setattr(pde_core, "eval_coeff",
                        lambda spec, t: asked.update([spec]) or evaluate(spec, t))
    outs = run_group(group)
    monkeypatch.undo()
    for got, scn in zip(outs, group):
        _assert_same_outcome(got, run(scn))
    # every cell stays in the block to the horizon, which halts it unstepped
    assert {out.steps for out in outs} == {outs[0].steps}
    assert asked == {c: outs[0].steps + 1, k: outs[0].steps + 1,
                     ONE: outs[0].steps + 1}


def test_run_group_member_whose_flux_overflows_leaves_as_under_run(monkeypatch):
    # u = e^t passes 1.8e308 ** (1 / 400) near t = 1.77, where the memory
    # accumulator overflows; the tiny k keeps the flux small until then.  The
    # first two cells share every dt, so the block holds the two of them when
    # their accumulators and slopes turn inf, and takes the token step with
    # them; the third leaves earlier, when the flux first shortens their dt
    cell = scenario(p=1.0, q=400.0, c=ONE, k=CoefficientSpec.constant(1e-300),
                    n_nodes=21, t_max=3.0)
    group = [cell, replace(cell, c=CoefficientSpec.constant(1.0)),
             replace(cell, q=2.0, k=ZERO)]
    blocks = _record_block_steps(monkeypatch)
    outs = run_group(group)
    for got, scn in zip(outs, group):
        _assert_same_outcome(got, run(scn))
    assert [out.status for out in outs] == ["BlowUp", "BlowUp", "GlobalToHorizon"]
    assert outs[0].trace.M_left[-1] == math.inf
    left = [(len(runs), finite_M, finite_g, len(gone))
            for runs, finite_M, finite_g, gone in blocks if gone]
    assert left == [(2, False, False, 2)]


def test_run_group_row_without_reaction_keeps_its_field_past_the_power_range(
        monkeypatch):
    # with c = 0 a row's rhs is its field, also once u^40 passes the float
    # range (u above 5.1e7), where u + 0 u^40 would be NaN; the two cells
    # share every dt, so the block holds both up to the threshold
    cell = scenario(p=40.0, q=2.0, c=ZERO, k=CoefficientSpec.constant(5.0),
                    n_nodes=21, t_max=3.0, blowup_threshold=7e7)
    blocks = _record_block_steps(monkeypatch)
    sups = []
    take = pde_core._Block.step

    def recorded(block, dt, h):
        sups.append(block.sup.max())
        return take(block, dt, h)
    monkeypatch.setattr(pde_core._Block, "step", recorded)
    outs = run_group([cell, cell])
    for got in outs:
        _assert_same_outcome(got, run(cell))
    assert [out.status for out in outs] == ["BlowUp", "BlowUp"]
    assert max(sups) > np.finfo(float).max ** (1.0 / 40.0)
    assert not any(gone for *_, gone in blocks)


def test_run_group_row_without_reaction_passes_the_rate_power_range():
    # past sup = 8e7 the rate power sup^39 leaves the float range; with
    # c = 0 the reaction rate is 0 there, so the flux still sets dt and both
    # cells reach the default threshold in lockstep, as under run
    cell = scenario(p=40.0, q=2.0, c=ZERO, k=CoefficientSpec.constant(5.0),
                    n_nodes=21, t_max=3.0)
    want = run(cell)
    assert (want.status, want.steps) == ("BlowUp", 20984)
    assert want.t_end == 0.66313897907755281
    for got in run_group([cell, cell]):
        _assert_same_outcome(got, want)


def test_choose_dt_reaction_rate_past_the_float_range():
    # sup^(p - 1) overflows: a rate of 0 without reaction, the token step
    # with it
    cell = scenario(p=40.0, q=2.0, c=ZERO, k=ZERO, n_nodes=21)
    state = State(1.0, np.full(21, 1e9), 0.0, 0.0, steps=1)
    assert choose_dt(state, cell, step_values(state, cell)) == cell.controls.dt_max
    hot = replace(cell, c=ONE)
    assert (choose_dt(state, hot, step_values(state, hot))
            == hot.controls.dt_max * 2.0 ** -60)


def test_run_group_rejects_a_given_boundary_rule():
    base = scenario(n_nodes=21, t_max=0.1)
    for rule in (MemoryRule(ONE), PrescribedFluxRule(lambda t: 0.5),
                 WeightedMemoryRule(ONE, CumulativeIntegral(ONE), q=2.0)):
        with pytest.raises(ConfigurationError, match="^boundary "):
            run_group([base, replace(base, boundary=rule)])


def _accumulator_overflow_case():
    # the boundary values pass 1.8e308 ** (1 / 40) long before the threshold
    return scenario(p=2.0, q=40.0, c=ONE, k=ZERO, n_nodes=51, t_max=2.0)


def test_accumulator_overflow_ends_blowup():
    out = run(_accumulator_overflow_case())
    assert out.status == "BlowUp"
    assert out.trace.M_left[-1] == math.inf
    # with k = 0 the memory exponent cannot matter, overflow or not
    same = run(replace(_accumulator_overflow_case(), q=2.0))
    assert (out.steps, out.t_end, out.sup_norm_end) == (
        same.steps, same.t_end, same.sup_norm_end)
    assert math.isfinite(out.sup_norm_end)


def test_overflowed_accumulator_without_memory_reaches_the_horizon():
    # u = e^t stays below the threshold up to t = 18, while u_b^40 passes
    # the float range near t = 17.74: k = 0 keeps the inf accumulator out
    # of the flux
    out = run(scenario(p=1.0, q=40.0, c=ONE, k=ZERO, n_nodes=51, t_max=18.0))
    assert out.status == "GlobalToHorizon"
    assert out.trace.M_left[-1] == math.inf
    assert 1e7 < out.sup_norm_end < math.exp(18.0)


def test_run_group_overflowing_member_ends_blowup_as_under_run():
    group = [_accumulator_overflow_case(),
             replace(_accumulator_overflow_case(), q=2.0)]
    outs = run_group(group)
    for got, scn in zip(outs, group):
        _assert_same_outcome(got, run(scn))
    assert [o.status for o in outs] == ["BlowUp", "BlowUp"]


def test_run_group_rejects_cells_that_differ_beyond_coefficients():
    assert run_group([]) == []
    base = scenario(n_nodes=21, t_max=0.1)
    table = replace(base, u0=InitialSpec("tabulated", np.full(21, 0.5)))
    for other in (replace(base, u0=InitialSpec("constant", 2.0)),
                  replace(base, length=2.0),
                  scenario(n_nodes=31, t_max=0.1)):
        with pytest.raises(ConfigurationError):
            run_group([base, other])
    with pytest.raises(ConfigurationError):
        run_group([table, replace(table, u0=InitialSpec(
            "tabulated", np.full(21, 0.7)))])
    # equal node values in distinct arrays make one initial field
    group = [table, replace(table, u0=InitialSpec("tabulated", np.full(21, 0.5)),
                            c=ONE)]
    for got, scn in zip(run_group(group), group):
        _assert_same_outcome(got, run(scn))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 41), q=_EXPONENT, k=_K,
       family=st.sampled_from(["constant", "cos_bump"]),
       value=st.floats(0.0, 2.0, allow_subnormal=False))
@example(n=41, q=0.5, k=ZERO, family="cos_bump", value=sys.float_info.min)
def test_mass_never_decreases_without_reaction(n, q, k, family, value):
    # diffusion keeps the trapezoid mass and an inward flux k M >= 0 adds
    # to it, so every step may lose only rounding; rounding is absolute on
    # subnormal floats, where no relative bound holds, so the data are normal
    scn = scenario(p=2.0, q=q, c=ZERO, k=k, u0=(family, value), n_nodes=n,
                   t_max=0.3, max_steps=2000)
    state = fresh_state(scn)
    mass = state.mass(scn.h)
    for state, _, _, _ in advance(scn, state):
        new = state.mass(scn.h)
        assert new >= mass * (1.0 - 1e-13)
        mass = new


def test_no_global_all_cell_blows_up():
    ps = qs = (0.5, 1.0, 2.0)
    cs = (ONE, CoefficientSpec.power(1.0, 2.0))
    ks = (ONE, CoefficientSpec.power(1.0, 3.0))
    group = [scenario(p, q, c, k, n_nodes=41, t_max=3.0, max_steps=20000)
             for p, q, c, k in itertools.product(ps, qs, cs, ks)]
    checked = 0
    for scn, out in zip(group, run_group(group)):
        if classify_regime(scn.p, scn.q, scn.c, scn.k).regime == REGIME_GLOBAL_ALL:
            assert out.status != "BlowUp", (scn.p, scn.q, scn.c, scn.k)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# comparison runs

def test_comparison_identical_scenarios_is_exact():
    scn = scenario(p=2.0, q=2.0, c=CoefficientSpec.power(1.0, 2.0),
                   k=CoefficientSpec.power(1.0, 3.0),
                   u0=("cos_bump", 0.1), t_max=1.0)
    rep = verify_comparison(scn, scn)
    assert rep.holds
    assert rep.max_violation <= 1e-12


@pytest.mark.parametrize("scn", [
    # blow-up after snapshot landings at the default cadence t_max/100
    scenario(p=2.0, q=2.0, c=ONE, k=ZERO, u0=("constant", 1.0),
             n_nodes=51, t_max=2.0),
    # horizon reached by landing on the summed snapshot times 0.1 + ... + 0.1
    scenario(p=2.0, q=2.0, c=ZERO, k=ONE, u0=("cos_bump", 0.5),
             n_nodes=51, t_max=1.0, snapshot_every=0.1),
])
def test_comparison_takes_the_steps_of_run(scn):
    out = run(scn)
    rep = verify_comparison(scn, scn)
    assert rep.t_end == out.trace.t[-1] == out.snapshots[-1][0]
    assert rep.holds and rep.max_violation == 0.0


def test_comparison_zero_below_one_until_blowup():
    low = scenario(p=2.0, q=2.0, c=ONE, k=ONE, u0=("constant", 0.0), t_max=2.0)
    high = scenario(p=2.0, q=2.0, c=ONE, k=ONE, u0=("constant", 1.0), t_max=2.0)
    rep = verify_comparison(low, high)
    assert rep.holds
    assert rep.truncated
    assert "blow-up" in rep.note


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 21), t_max=st.floats(0.05, 0.5),
       p=st.floats(1.0, 3.0), q=st.floats(1.0, 3.0),
       c=st.floats(0.0, 5.0), k=st.floats(0.0, 5.0),
       family=st.sampled_from(["constant", "cos_bump"]),
       value=st.floats(0.0, 2.0), scale=st.floats(1.0, 4.0))
def test_comparison_principle_holds_for_scaled_data(n, t_max, p, q, c, k,
                                                    family, value, scale):
    # p, q >= 1 and c, k >= 0: data scaled up by >= 1 stays on top
    ctrl = dict(n_nodes=n, t_max=t_max, max_steps=5000)
    c, k = CoefficientSpec.constant(c), CoefficientSpec.constant(k)
    low = scenario(p, q, c, k, (family, value), **ctrl)
    high = scenario(p, q, c, k, (family, scale * value), **ctrl)
    rep = verify_comparison(low, high)
    assert rep.holds, rep


def test_comparison_rejects_mismatched_scenarios():
    low = scenario(p=2.0, q=2.0, c=ONE, k=ZERO, u0=("constant", 0.5))
    high = scenario(p=2.0, q=2.0, c=ZERO, k=ZERO, u0=("constant", 1.0))
    with pytest.raises(ConfigurationError):
        verify_comparison(low, high)


def test_comparison_rejects_crossed_data():
    low = scenario(u0=("constant", 2.0))
    high = scenario(u0=("constant", 1.0))
    with pytest.raises(ConfigurationError):
        verify_comparison(low, high)


def test_comparison_sublinear_needs_positive_lower_data():
    low = scenario(p=0.5, q=2.0, u0=("cos_bump", 1.0))   # vanishes at endpoints
    high = scenario(p=0.5, q=2.0, u0=("cos_bump", 2.0))
    with pytest.raises(ConfigurationError):
        verify_comparison(low, high)
    ok_low = scenario(p=0.5, q=2.0, u0=("constant", 1.0), t_max=0.2)
    ok_high = scenario(p=0.5, q=2.0, u0=("constant", 2.0), t_max=0.2)
    assert verify_comparison(ok_low, ok_high).holds


# ---------------------------------------------------------------------------
# mass functional

def test_mass_inequality_uniform_equality_case():
    # k=0, uniform field: w' = c w exactly, deficit is pure time bias
    scn = scenario(p=1.0, q=2.0, c=ONE, k=ZERO, u0=("constant", 1.0),
                   t_max=2.0, snapshot_every=0.02)
    out = run(scn)
    deficit = mass_inequality_check(out, scn)
    assert 0.0 <= deficit <= 0.02
    # spatially uniform: recorded mass equals sup * |Omega|
    assert np.allclose(out.trace.mass_w, out.trace.sup_norm, rtol=1e-10)


def test_mass_nondecreasing_without_reaction():
    scn = scenario(p=2.0, q=2.0, c=ZERO, k=ONE, u0=("constant", 1.0),
                   t_max=0.5, snapshot_every=0.01)
    out = run(scn)
    assert mass_inequality_check(out, scn) == 0.0
    assert np.all(np.diff(out.trace.mass_w) >= -1e-14)


def test_mass_check_rejects_sublinear_reaction():
    scn = scenario(p=0.5, q=2.0, u0=("constant", 1.0), t_max=0.1)
    out = run(scn)
    with pytest.raises(NotApplicableError):
        mass_inequality_check(out, scn)


# ---------------------------------------------------------------------------
# scenario and initial-data validation

def test_initial_families_and_validation():
    spec = InitialSpec("cos_bump", 2.0)
    u = spec.evaluate(1.0, 101)
    assert u[0] == pytest.approx(0.0, abs=1e-15)
    assert u[50] == pytest.approx(2.0)
    assert InitialSpec("constant", 1.5).evaluate(2.0, 11) == pytest.approx(1.5)
    with pytest.raises(ConfigurationError):
        InitialSpec("constant", -1.0)
    with pytest.raises(ConfigurationError):
        InitialSpec("spike", 1.0)
    with pytest.raises(ConfigurationError):
        InitialSpec("constant", math.inf)


def test_tabulated_initial_data_checks_endpoint_slope():
    n = 21
    x = np.linspace(0.0, 1.0, n)
    flat = np.ones(n)
    flat[5:16] += np.hanning(11)    # bump with flat ends, zero discrete slope
    got = InitialSpec("tabulated", tuple(flat)).evaluate(1.0, n)
    assert np.allclose(got, flat)
    sloped = tuple(1.0 + x)
    with pytest.raises(ConfigurationError):
        InitialSpec("tabulated", sloped).evaluate(1.0, n)
    with pytest.raises(ConfigurationError):
        InitialSpec("tabulated", tuple(flat)).evaluate(1.0, n + 4)
    with pytest.raises(ConfigurationError):
        InitialSpec("tabulated", (1.0, -0.5, 1.0))


def test_scaled_initial_data():
    assert InitialSpec("constant", 1.0).scaled(2.0).value == 2.0
    tab = InitialSpec("tabulated", (1.0, 1.0, 1.0)).scaled(3.0)
    assert tab.value == (3.0, 3.0, 3.0)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        scenario(p=0.0)
    for name, bad in itertools.product(("p", "q"), (math.inf, math.nan)):
        with pytest.raises(ConfigurationError, match=f"^{name} must be > 0 and finite"):
            scenario(**{name: bad})
    with pytest.raises(ConfigurationError):
        Scenario(length=-1.0, p=2.0, q=2.0, c=ZERO, k=ZERO,
                 u0=InitialSpec("constant", 1.0))
    with pytest.raises(ConfigurationError):
        SolverControls(n_nodes=2)
    # np.linspace takes no float count, and a bool is no node count
    for n in (51.0, True, "51", math.nan):
        with pytest.raises(ConfigurationError, match="n_nodes"):
            SolverControls(n_nodes=n)
    assert SolverControls(n_nodes=np.int64(51)).n_nodes == 51
    with pytest.raises(ConfigurationError):
        SolverControls(theta=1.5)


@pytest.mark.parametrize("name, value", [
    ("t_max", math.nan), ("t_max", math.inf),
    ("dt_max", math.nan), ("dt_max", math.inf),
    ("blowup_threshold", math.nan), ("snapshot_every", math.nan),
])
def test_controls_reject_non_finite_values(name, value):
    # a NaN t_max never ends a run; only the step budget would
    with pytest.raises(ConfigurationError, match=name):
        SolverControls(**{name: value})


def test_controls_allow_an_infinite_threshold_and_snapshot_interval():
    ctr = SolverControls(blowup_threshold=math.inf, snapshot_every=math.inf)
    assert ctr.blowup_threshold == ctr.snapshot_every == math.inf
