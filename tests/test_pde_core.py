"""Solver tests against closed-form and hand-computed oracles."""

import math

import numpy as np
import pytest

from memheat.coeffs import ZERO, CoefficientSpec, CumulativeIntegral
from memheat.errors import ConfigurationError, NotApplicableError
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
    _ladder,
    choose_dt,
    estimate_blowup_time,
    mass_inequality_check,
    run,
    step,
    step_values,
    verify_comparison,
)
from memheat.transform import to_transformed

ONE = CoefficientSpec.constant(1.0)


def scenario(p=2.0, q=2.0, c=ZERO, k=ZERO, u0=("constant", 1.0), **ctrl):
    return Scenario(length=1.0, p=p, q=q, c=c, k=k,
                    u0=InitialSpec(*u0), controls=SolverControls(**ctrl))


def fresh_state(scn):
    return State(0.0, scn.initial_field(), 0.0, 0.0)


# ---------------------------------------------------------------------------
# single steps

def test_constant_is_exact_steady_state():
    scn = scenario(c=ZERO, k=ZERO, u0=("constant", 3.0))
    st = fresh_state(scn)
    for _ in range(5):
        st = step(st, scn, 1e-3)
    assert np.max(np.abs(st.u - 3.0)) <= 1e-13
    assert st.M_left == pytest.approx(st.t * 3.0 ** scn.q, rel=1e-12)


def test_uniform_reaction_single_step_is_explicit_euler():
    # implicit diffusion of a constant is the constant, so one step of the
    # uniform problem is exactly u + dt*c*u^p
    scn = scenario(p=2.0, c=ONE, k=ZERO, u0=("constant", 1.0))
    st = step(fresh_state(scn), scn, 0.01)
    assert np.max(np.abs(st.u - 1.01)) <= 1e-13


def test_memory_accumulator_matches_trapezoid():
    scn = scenario(p=2.0, q=1.0, c=ZERO, k=ONE, u0=("constant", 1.0))
    dt = 1e-3
    st = step(fresh_state(scn), scn, dt)
    # flux is zero while the accumulator is empty, so u stays 1 exactly
    assert np.max(np.abs(st.u - 1.0)) <= 1e-13
    assert st.M_left == pytest.approx(dt, rel=1e-12)
    assert st.M_right == pytest.approx(dt, rel=1e-12)
    st = step(st, scn, dt)
    assert st.M_left == pytest.approx(2 * dt, rel=1e-3)
    assert st.M_left >= dt  # monotone


def test_prescribed_influx_raises_boundary_values_symmetrically():
    scn = scenario(c=ZERO, k=ZERO, u0=("constant", 1.0))
    rule = PrescribedFluxRule(lambda t: 1.0)
    st = step(fresh_state(scn), scn, 1e-4, rule=rule)
    assert st.u[0] > 1.0
    assert st.u[0] == pytest.approx(st.u[-1], rel=1e-12)
    assert st.M_left == 0.0  # prescribed flux accumulates no memory


def test_weighted_rule_damps_slope_and_inflates_accumulator():
    cum = CumulativeIntegral(ONE)  # C(t) = t
    rule = WeightedMemoryRule(ONE, cum, q=2.0)
    t = math.log(2.0)
    assert rule.flux(t, 3.0, 3.0)[0] == pytest.approx(1.5, rel=1e-12)
    assert rule.acc_weight(t) == pytest.approx(4.0, rel=1e-12)


def test_step_rejects_nonpositive_dt():
    scn = scenario()
    with pytest.raises(ConfigurationError):
        step(fresh_state(scn), scn, 0.0)


# ---------------------------------------------------------------------------
# step-size control

def test_choose_dt_zero_state_uses_grid_cap_on_first_step():
    scn = scenario(p=2.0, q=2.0, c=ONE, k=ONE, u0=("constant", 0.0))
    st = fresh_state(scn)
    h = scn.h
    expected = min(scn.controls.dt_max, scn.controls.theta * h * h)
    assert choose_dt(st, scn) == pytest.approx(expected, rel=1e-12)


def test_choose_dt_large_field_limits_reaction_growth():
    scn = scenario(p=2.0, c=ONE, k=ZERO)
    st = State(0.0, np.full(scn.controls.n_nodes, 1e6), 0.0, 0.0, steps=7)
    assert choose_dt(st, scn) <= 1.0000001e-7


def test_choose_dt_stays_positive_at_threshold():
    scn = scenario(p=2.0, c=ONE, k=ONE)
    st = State(0.0, np.full(scn.controls.n_nodes, 1e10), 5.0, 5.0, steps=3)
    assert choose_dt(st, scn) > 0.0


def _powerlog_k_case():
    scn = scenario(p=2.0, q=2.0, c=CoefficientSpec.power(1.0, 2.0),
                   k=CoefficientSpec.power_log(1.0, 2.0, 1, 1.0),
                   u0=("constant", 0.1), n_nodes=51)
    return scn, scn.boundary_rule()


def _weighted_rule_case():
    base = scenario(p=1.0, q=2.0, c=CoefficientSpec.power_log(1.0, 1.0, 1),
                    k=CoefficientSpec.power(2.0, 1.0), u0=("cos_bump", 0.5),
                    n_nodes=51)
    twin = to_transformed(base).scenario
    return twin, twin.boundary


@pytest.mark.parametrize("case", [_powerlog_k_case, _weighted_rule_case])
def test_shared_step_values_match_self_evaluating_kernel(case):
    scn, rule = case()
    assert isinstance(rule, (MemoryRule, WeightedMemoryRule))
    shared = own = fresh_state(scn)
    for _ in range(200):
        values = step_values(shared, scn, rule)
        dt = _ladder(choose_dt(shared, scn, rule, values), scn.controls.dt_max)
        assert _ladder(choose_dt(own, scn, rule), scn.controls.dt_max) == dt
        shared = step(shared, scn, dt, rule, values)
        own = step(own, scn, dt, rule)
        assert np.array_equal(shared.u, own.u)
        assert (shared.t, shared.M_left, shared.M_right) == (own.t, own.M_left, own.M_right)
    assert shared.M_left > 0.0 and shared.sup == float(np.max(shared.u))


def test_rule_flux_agrees_with_slope_and_weight():
    cum = CumulativeIntegral(ONE)
    rule = WeightedMemoryRule(ONE, cum, q=2.0)
    t = math.log(2.0)
    assert rule.flux(t, 3.0, 5.0) == (rule.flux(t, 3.0, 3.0)[0],
                                      rule.flux(t, 5.0, 5.0)[0], rule.acc_weight(t))
    assert MemoryRule(ONE).flux(1.0, 2.0, 4.0) == (2.0, 4.0, 1.0)
    assert PrescribedFluxRule(lambda t: 0.5).flux(1.0, 2.0, 4.0) == (0.5, 0.5, 0.0)


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
        st = step(st, scn, dt)
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
            st = step(st, scn, dt)
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
    with pytest.raises(ConfigurationError):
        Scenario(length=-1.0, p=2.0, q=2.0, c=ZERO, k=ZERO,
                 u0=InitialSpec("constant", 1.0))
    with pytest.raises(ConfigurationError):
        SolverControls(n_nodes=2)
    with pytest.raises(ConfigurationError):
        SolverControls(theta=1.5)
