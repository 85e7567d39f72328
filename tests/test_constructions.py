"""Barrier construction tests with closed-form and arithmetic oracles."""

import functools
import math
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from memheat import constructions
from memheat.coeffs import ZERO, CoefficientSpec, CumulativeIntegral, eval_coeff
from memheat.constructions import (
    SupersolutionSpec,
    build_th00_supersolution,
    build_th2_supersolution,
    build_th4_supersolution,
    check_domination,
    small_data_threshold,
    solve_auxiliary_linear,
    verify_supersolution,
    z_profile,
)
from memheat.errors import ConfigurationError, NotApplicableError
from memheat.pde_core import InitialSpec, Scenario, SolverControls, run

ONE = CoefficientSpec.constant(1.0)


def scenario(p, q, c, k, u0_value=1.0, length=1.0, **ctrl):
    return Scenario(length=length, p=p, q=q, c=c, k=k,
                    u0=InitialSpec("constant", u0_value),
                    controls=SolverControls(**ctrl))


def rows_shape(x, t):
    """The shape of a barrier's rows: (len(x),) at a float t, (m, len(x))
    at a time column of shape (m, 1)."""
    return np.broadcast_shapes(np.shape(t), np.shape(x))


# ---------------------------------------------------------------------------
# exponential barrier

def test_exponential_barrier_frozen_parameters():
    scn = scenario(0.5, 0.5, ONE, ONE, u0_value=0.3)
    spec = build_th00_supersolution(scn, T=10.0)
    assert spec.kind == "Th00"
    assert spec.params["M"] == pytest.approx(1.0)
    # b = max(pi^2 + 2, 2 / (0.5 pi)) with the first branch winning
    assert spec.params["b"] == pytest.approx(math.pi ** 2 + 2.0, rel=1e-12)
    assert spec.params["d"] == 1.0   # sup u0 = 0.3 loses to the floor 1


def test_exponential_barrier_zero_coefficients_reduce_to_eigenrate():
    scn = scenario(1.0, 1.0, ZERO, ZERO, u0_value=2.0)
    spec = build_th00_supersolution(scn, T=10.0)
    assert spec.params["b"] == pytest.approx(math.pi ** 2, rel=1e-12)
    assert spec.params["d"] == 2.0
    x = np.array([0.0, 0.5, 1.0])
    assert spec.evaluate(x, 0.0) == pytest.approx([4.0, 2.0, 4.0], rel=1e-12)


def test_exponential_barrier_rejects_superlinear():
    with pytest.raises(NotApplicableError):
        build_th00_supersolution(scenario(2.0, 0.5, ONE, ONE), T=1.0)


def test_exponential_barrier_residuals_pass():
    scn = scenario(1.0, 1.0, ONE, ONE, u0_value=1.0)
    spec = build_th00_supersolution(scn, T=5.0)
    rep = verify_supersolution(spec, scn, T=5.0)
    assert rep.passed
    assert rep.r_int_min >= -rep.tol_res
    assert rep.r_bnd_min >= -rep.tol_res
    assert rep.r_init_min >= -rep.tol_res


def test_exponential_barrier_underpowered_rate_fails_boundary():
    # memory-rate branch binding: q=1, L=10 makes 2ML/pi beat lambda1 + 2M
    two = CoefficientSpec.constant(2.0)
    scn = scenario(0.5, 1.0, ZERO, two, u0_value=1.0, length=10.0)
    spec = build_th00_supersolution(scn, T=3.0)
    assert spec.params["b"] == pytest.approx(2.0 * 2.0 * 10.0 / math.pi, rel=1e-12)
    assert verify_supersolution(spec, scn, T=3.0).passed

    b_bad = spec.params["b"] / 2.0
    d = spec.params["d"]
    bad = SupersolutionSpec(
        "Th00", {**spec.params, "b": b_bad},
        lambda x, t: d * np.exp(b_bad * t)
        * (2.0 - np.sin(math.pi * np.asarray(x) / 10.0)))
    rep = verify_supersolution(bad, scn, T=3.0)
    assert not rep.passed
    assert rep.r_bnd_min < -rep.tol_res
    assert rep.r_int_min >= -rep.tol_res


def test_zero_barrier_fails_initial_inequality():
    scn = scenario(1.0, 1.0, ZERO, ZERO, u0_value=1.0)
    zero_spec = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.zeros(rows_shape(x, t)))
    rep = verify_supersolution(zero_spec, scn, T=1.0)
    assert not rep.passed
    assert rep.r_init_min == pytest.approx(-1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# auxiliary linear runs

def test_auxiliary_zero_flux_is_constant():
    aux = solve_auxiliary_linear(None, scenario(2.0, 2.0, ZERO, ZERO,
                                                n_nodes=51), t_max=1.0)
    assert aux.stabilized
    assert aux.bound == 1.0
    assert np.max(np.abs(aux.fields - 1.0)) == 0.0


def test_auxiliary_integrable_flux_stabilizes():
    aux = solve_auxiliary_linear(lambda t: t / (1.0 + t) ** 3,
                                 scenario(2.0, 2.0, ZERO, ZERO, n_nodes=51),
                                 t_max=20.0)
    assert aux.stabilized
    # total influx 2*int t(1+t)^-3 = 1 over |domain| = 1, starting from 1
    assert 1.5 <= aux.bound <= 2.5


def test_auxiliary_linear_flux_never_settles():
    aux = solve_auxiliary_linear(lambda t: t,
                                 scenario(2.0, 2.0, ZERO, ZERO, n_nodes=51),
                                 t_max=20.0)
    assert not aux.stabilized
    assert aux.bound > 10.0


def test_auxiliary_interpolation_clamps():
    k3 = CoefficientSpec.power(1.0, 3.0)
    aux = build_th2_supersolution(
        scenario(2.0, 2.0, ZERO, k3, n_nodes=21, t_max=1.0), t_max=1.0).aux
    grid = aux.grid
    assert aux.at(grid, -1.0).tolist() == aux.fields[0].tolist()
    assert aux.at(grid, 99.0).tolist() == aux.fields[-1].tolist()
    assert aux.at(grid, aux.times[7]).tolist() == aux.fields[7].tolist()
    t = 0.5 * (aux.times[7] + aux.times[8])
    row = aux.at(grid, t)
    np.testing.assert_allclose(row, 0.5 * (aux.fields[7] + aux.fields[8]),
                               rtol=1e-14)
    # on x: the nodes exactly, linear between them
    on_x = aux.at(np.array([0.0, 0.025, 0.05, 1.0]), t)
    assert on_x[[0, 2, 3]].tolist() == row[[0, 1, 20]].tolist()
    assert on_x[1] == pytest.approx(0.5 * (row[0] + row[1]), rel=1e-14)


def _aux_runs(monkeypatch, scn, t_max):
    """The controls and step count of each auxiliary run that building the
    Th2 barrier of scn makes."""
    runs = []

    def recorded(aux_scn):
        out = run(aux_scn)
        runs.append((aux_scn.controls, out.steps))
        return out
    monkeypatch.setattr(constructions, "run", recorded)
    build_th2_supersolution(scn, t_max)
    return runs


def test_auxiliary_run_follows_the_scenario_controls(monkeypatch):
    c2, k3 = CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 3.0)
    base = scenario(2.0, 2.0, c2, k3, n_nodes=51, t_max=2.0)
    finer_dt = scenario(2.0, 2.0, c2, k3, n_nodes=51, t_max=2.0, dt_max=1e-3)
    refined = replace(base, controls=base.controls.refined(1))
    runs = {}
    for name, scn in (("base", base), ("dt_max", finer_dt),
                      ("refined", refined)):
        [runs[name]] = _aux_runs(monkeypatch, scn, 1.5)
        assert runs[name][0] == replace(scn.controls, t_max=1.5)
    # the run is held to dt_max, so a smaller one takes more steps; the
    # refinement keeps dt_max and halves theta
    assert runs["dt_max"][1] > runs["base"][1]
    assert runs["refined"][0].theta == 0.05


def test_verify_past_the_auxiliary_horizon_is_not_applicable():
    c2, k3 = CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 3.0)
    scn = scenario(2.0, 2.0, c2, k3, u0_value=0.05, t_max=2.0)
    spec = build_th2_supersolution(scn, t_max=2.0)
    with pytest.raises(NotApplicableError, match=r"t = 2\b.*t = 20\b"):
        verify_supersolution(spec, scn, T=20.0)
    assert verify_supersolution(spec, scn, T=2.0).passed
    longer = scenario(2.0, 2.0, c2, k3, u0_value=0.05, t_max=3.0,
                      snapshot_every=1.0)
    with pytest.raises(NotApplicableError, match=r"t = 2\b.*t = 3\b"):
        check_domination(spec, run(longer), longer)


# ---------------------------------------------------------------------------
# absorber profile and thresholds

def test_z_profile_closed_forms():
    assert z_profile(2.0, 1.0, 1.0, ZERO, 0.0) == 1.0
    c2 = CoefficientSpec.power(1.0, 2.0)
    # tail = 1/(1+t): z = (1+t)/(2+t)
    assert z_profile(2.0, 1.0, 1.0, c2, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert z_profile(2.0, 1.0, 1.0, c2, 3.0) == pytest.approx(0.8, rel=1e-12)
    assert z_profile(2.0, 1.0, 1.0, c2, 1e8) == pytest.approx(1.0, abs=1e-7)
    zs = [z_profile(2.0, 1.0, 1.0, c2, t) for t in (0.0, 1.0, 10.0, 100.0)]
    assert zs == sorted(zs)


def test_z_profile_requires_convergent_tail():
    harmonic = CoefficientSpec.power(1.0, 1.0)
    with pytest.raises(NotApplicableError):
        z_profile(2.0, 1.0, 1.0, harmonic, 0.0)
    with pytest.raises(ConfigurationError):
        z_profile(1.0, 1.0, 1.0, ZERO, 0.0)
    with pytest.raises(ConfigurationError):
        z_profile(2.0, 1.0, 0.5, ZERO, 0.0)


def _z_ode_residual(p, alpha, Y, c, ts):
    """Max |z' - (alpha Y)^{p-1} c z^p| with z' by 5-point finite difference
    on a uniform grid, on the interior of the stencil (two nodes trimmed at
    each end)."""
    dt = ts[1] - ts[0]
    assert len(ts) >= 5 and np.allclose(np.diff(ts), dt)
    z = z_profile(p, alpha, Y, c, ts)
    dz = (z[:-4] - 8 * z[1:-3] + 8 * z[3:-1] - z[4:]) / (12 * dt)
    mid = slice(2, -2)
    rhs = (alpha * Y) ** (p - 1.0) * eval_coeff(c, ts[mid]) * z[mid] ** p
    return float(np.max(np.abs(dz - rhs)))


def test_z_ode_residual_small_on_closed_form_tail():
    c2 = CoefficientSpec.power(1.0, 2.0)
    ts = np.arange(0.0, 100.0, 0.01)
    assert _z_ode_residual(2.0, 1.0, 1.0, c2, ts) <= 1e-8
    assert _z_ode_residual(3.0, 0.5, 2.0, c2, ts) <= 1e-8


def test_z_profile_takes_arrays_and_a_cumulative_integral():
    c = CoefficientSpec.exp_decay(2.0, 0.5)
    ts = np.array([0.0, 0.3, 4.0, 50.0])
    zs = z_profile(3.0, 0.5, 2.0, c, ts)
    assert zs.tolist() == [z_profile(3.0, 0.5, 2.0, c, t) for t in ts.tolist()]
    cum = CumulativeIntegral(c)
    assert z_profile(3.0, 0.5, 2.0, cum, ts).tolist() == zs.tolist()
    # tail = 4 e^{-t/2}: z = (1 + 2 * 4 e^{-t/2})^{-1/2}
    np.testing.assert_allclose(zs, (1.0 + 8.0 * np.exp(-0.5 * ts)) ** -0.5, rtol=1e-13)


def test_small_data_threshold_values():
    assert small_data_threshold(2.0, 0.7, 1.0, ZERO) == pytest.approx(0.7)
    c2 = CoefficientSpec.power(1.0, 2.0)
    assert small_data_threshold(2.0, 1.0, 1.0, c2) == pytest.approx(0.5)
    # threshold shrinks as the reaction mass grows
    weaker = small_data_threshold(2.0, 1.0, 1.0, CoefficientSpec.power(2.0, 2.0))
    assert weaker < 0.5


# ---------------------------------------------------------------------------
# product barrier

def test_product_barrier_reductions():
    c2 = CoefficientSpec.power(1.0, 2.0)
    # k = 0: y = 1, Y = 1, barrier = alpha z(t)
    scn = scenario(2.0, 2.0, c2, ZERO, u0_value=0.1, t_max=5.0)
    spec = build_th2_supersolution(scn, t_max=5.0)
    assert spec.params["Y"] == 1.0
    assert spec.params["alpha"] == pytest.approx(1.0)
    x = scn.grid()
    got = spec.evaluate(x, 3.0)
    assert np.allclose(got, z_profile(2.0, 1.0, 1.0, c2, 3.0), rtol=1e-12)

    # c = 0: z = 1, barrier = alpha y
    k3 = CoefficientSpec.power(1.0, 3.0)
    scn0 = scenario(2.0, 2.0, ZERO, k3, u0_value=0.1, t_max=5.0)
    spec0 = build_th2_supersolution(scn0, t_max=5.0)
    y_end = spec0.aux.at(scn0.grid(), 5.0)
    assert np.allclose(spec0.evaluate(scn0.grid(), 5.0),
                       spec0.params["alpha"] * y_end, rtol=1e-12)


def test_product_barrier_admissibility_cap():
    k3 = CoefficientSpec.power(1.0, 3.0)
    c2 = CoefficientSpec.power(1.0, 2.0)
    scn = scenario(2.0, 2.0, c2, k3, u0_value=0.01, t_max=10.0)
    spec = build_th2_supersolution(scn, t_max=10.0)
    q, Y = 2.0, spec.params["Y"]
    assert spec.params["alpha"] == pytest.approx(Y ** (-q / (q - 1.0)), rel=1e-12)
    assert spec.params["alpha"] ** (q - 1.0) * Y ** q <= 1.0 + 1e-12


def test_product_barrier_rejects_bad_inputs():
    with pytest.raises(NotApplicableError):
        build_th2_supersolution(scenario(1.0, 2.0, ZERO, ZERO), t_max=1.0)
    # divergent total forcing: k constant has int t k = infinity
    with pytest.raises(NotApplicableError):
        build_th2_supersolution(
            scenario(2.0, 2.0, ZERO, ONE, t_max=1.0), t_max=1.0)


def test_product_barrier_residuals_pass():
    c2 = CoefficientSpec.power(1.0, 2.0)
    k3 = CoefficientSpec.power(1.0, 3.0)
    scn = scenario(2.0, 2.0, c2, k3, u0_value=0.05, t_max=50.0)
    spec = build_th2_supersolution(scn, t_max=50.0)
    rep = verify_supersolution(spec, scn, T=50.0)
    assert rep.passed, rep


def test_product_barrier_dominates_small_data_run():
    c2 = CoefficientSpec.power(1.0, 2.0)
    k3 = CoefficientSpec.power(1.0, 3.0)
    probe = scenario(2.0, 2.0, c2, k3, t_max=50.0)
    spec = build_th2_supersolution(probe, t_max=50.0)
    ceiling = small_data_threshold(2.0, spec.params["alpha"],
                                   spec.params["Y"], c2)
    scn = scenario(2.0, 2.0, c2, k3, u0_value=0.5 * ceiling, t_max=50.0)
    out = run(scn)
    assert out.status == "GlobalToHorizon"
    rep = check_domination(spec, out, scn)
    assert rep.holds, rep


# ---------------------------------------------------------------------------
# exponential-factor barrier

def test_factor_barrier_bounded_flag_tracks_reaction_tail():
    k4 = CoefficientSpec.power(1.0, 4.0)
    c2 = CoefficientSpec.power(1.0, 2.0)
    harmonic = CoefficientSpec.power(1.0, 1.0)
    scn_b = scenario(1.0, 2.0, c2, k4, t_max=5.0)
    spec_b = build_th4_supersolution(scn_b, t_max=5.0)
    assert spec_b.params["bounded"] is True
    scn_u = scenario(1.0, 2.0, harmonic, k4, t_max=5.0)
    spec_u = build_th4_supersolution(scn_u, t_max=5.0)
    assert spec_u.params["bounded"] is False
    assert spec_u.params["H"] >= 1.0


def test_factor_barrier_zero_reaction_matches_product_aux():
    # c = 0 collapses the exponential factor; the effective flux is t k(t)
    k3 = CoefficientSpec.power(1.0, 3.0)
    scn = scenario(1.0, 2.0, ZERO, k3, t_max=5.0)
    spec = build_th4_supersolution(scn, t_max=5.0)
    x = scn.grid()
    h_mid = spec.aux.at(x, 2.5)
    assert np.allclose(spec.evaluate(x, 2.5), spec.params["alpha"] * h_mid,
                       rtol=1e-12)


def test_factor_barrier_rejects_nonlinear_reaction():
    with pytest.raises(NotApplicableError):
        build_th4_supersolution(
            scenario(2.0, 2.0, ZERO, CoefficientSpec.power(1.0, 4.0)),
            t_max=1.0)


def test_factor_barrier_residuals_pass():
    k4 = CoefficientSpec.power(1.0, 4.0)
    c2 = CoefficientSpec.power(1.0, 2.0)
    scn = scenario(1.0, 2.0, c2, k4, u0_value=0.05, t_max=20.0)
    spec = build_th4_supersolution(scn, t_max=20.0)
    rep = verify_supersolution(spec, scn, T=20.0)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# streamed residual check

@np.errstate(over="ignore", invalid="ignore")
def _whole_array_residual_mins(spec, scenario, times, x):
    """The residual check on whole (n_t, n_x) arrays: the reference that the
    time-blocked constructions._residual_mins must match bit for bit."""
    h = x[1] - x[0]
    U = np.stack([spec.evaluate(x, float(t)) for t in times])
    cvals = eval_coeff(scenario.c, times)
    kvals = eval_coeff(scenario.k, times)

    react = cvals[:, None] * U ** scenario.p
    dUdt = np.gradient(U, times, axis=0, edge_order=2)
    lap = (U[:, :-2] - 2.0 * U[:, 1:-1] + U[:, 2:]) / (h * h)
    r_int = dUdt[:, 1:-1] - lap - react[:, 1:-1]

    slope_nu_l = (3.0 * U[:, 0] - 4.0 * U[:, 1] + U[:, 2]) / (2.0 * h)
    slope_nu_r = (3.0 * U[:, -1] - 4.0 * U[:, -2] + U[:, -3]) / (2.0 * h)
    mem_l = cumulative_trapezoid(U[:, 0] ** scenario.q, times, initial=0.0)
    mem_r = cumulative_trapezoid(U[:, -1] ** scenario.q, times, initial=0.0)
    r_bnd = np.stack([slope_nu_l - kvals * mem_l, slope_nu_r - kvals * mem_r])

    u0_on_x = np.interp(x, scenario.grid(), scenario.initial_field())
    r_init = U[0] - u0_on_x

    i_int = np.unravel_index(np.argmin(r_int), r_int.shape)
    i_bnd = np.unravel_index(np.argmin(r_bnd), r_bnd.shape)
    i_init = int(np.argmin(r_init))
    worst = {
        "interior": (float(x[i_int[1] + 1]), float(times[i_int[0]])),
        "boundary": (float(x[0] if i_bnd[0] == 0 else x[-1]),
                     float(times[i_bnd[1]])),
        "initial": (float(x[i_init]), 0.0),
    }
    mins = (float(r_int.min()), float(r_bnd.min()), float(r_init.min()))
    return mins, worst


def _nonfinite_barrier(x, t):
    # from t = 0.1 a spike of 1e300 gives residuals near -1e304; from t = 0.3
    # a column of inf gives -inf beside a NaN in the same row; from t = 0.7 a
    # NaN column gives more NaNs: the first NaN must win.  The columns are
    # picked by x, so the barrier is elementwise in x like every other.
    x = np.asarray(x)
    u = (1.0 + t) * (2.0 - np.sin(math.pi * x))
    for at, t_from, value in ((0.75, 0.1, 1e300), (0.25, 0.3, math.inf),
                              (0.5, 0.7, math.nan)):
        u = np.where((x == at) & (t >= t_from), value, u)
    return u


def _bad_rate_barrier():
    two = CoefficientSpec.constant(2.0)
    scn = scenario(0.5, 1.0, ZERO, two, u0_value=1.0, length=10.0)
    spec = build_th00_supersolution(scn, T=3.0)
    b_bad, d = spec.params["b"] / 2.0, spec.params["d"]
    return scn, SupersolutionSpec(
        "Th00", {}, lambda x, t: d * np.exp(b_bad * t)
        * (2.0 - np.sin(math.pi * np.asarray(x) / 10.0))), 3.0


# off the closed forms of C(t): an off-lane power_log and a tabulated c
POWER_LOG_C = CoefficientSpec.power_log(1.0, 2.0, 1, 1.0)
TABLE_C = CoefficientSpec.tabulated([(0.0, 1.0), (1.0, 0.0)])


def _barrier_case(kind):
    c2, k3 = CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 3.0)
    k4 = CoefficientSpec.power(1.0, 4.0)
    if kind == "th00":      # the certify benchmark's verify_th00
        scn = scenario(0.5, 0.5, ONE, ONE, t_max=5.0)
        return scn, build_th00_supersolution(scn, T=5.0), 5.0
    if kind == "th2":
        scn = scenario(2.0, 2.0, c2, k3, u0_value=0.05, t_max=5.0)
        return scn, build_th2_supersolution(scn, t_max=5.0), 5.0
    if kind == "th4":       # the certify benchmark's verify_th4
        scn = scenario(1.0, 2.0, c2, k4, u0_value=0.05, t_max=2.0)
        return scn, build_th4_supersolution(scn, t_max=2.0), 2.0
    if kind in ("th2_power_log", "th2_table", "th4_power_log", "th4_table"):
        c = POWER_LOG_C if kind.endswith("power_log") else TABLE_C
        if kind.startswith("th2"):
            scn = scenario(2.0, 2.0, c, k3, u0_value=0.05, n_nodes=51,
                           t_max=2.0)
            return scn, build_th2_supersolution(scn, t_max=2.0), 2.0
        scn = scenario(1.0, 2.0, c, k4, u0_value=0.05, n_nodes=51, t_max=2.0)
        return scn, build_th4_supersolution(scn, t_max=2.0), 2.0
    if kind == "b_bad":
        return _bad_rate_barrier()
    if kind in ("wave", "uniform"):
        # flat in x with c = 0, so the residual is dU/dt itself, most
        # negative mid-horizon: its rows there take the interior stencil
        return scenario(1.0, 1.0, ZERO, ZERO), SupersolutionSpec(
            "Th00", {},
            lambda x, t: np.full(rows_shape(x, t), 3.0 + np.cos(t))), 5.0
    scn = scenario(1.0, 1.0, ONE, ONE, u0_value=1.0)
    if kind == "zero":
        return scn, SupersolutionSpec(
            "Th00", {}, lambda x, t: np.zeros(rows_shape(x, t))), 1.0
    return scn, SupersolutionSpec("Th00", {}, _nonfinite_barrier), 1.0


def _check_grids(spec, scn, T):
    """The (times, x) of the coarse and the refined grid that
    verify_supersolution checks spec on."""
    grids = []
    with mock.patch.object(constructions, "_residual_mins",
                           lambda sp, sc, times, x: grids.append((times, x))
                           or ((0.0, 0.0, 0.0), {})):
        verify_supersolution(spec, scn, T)
    return grids


@functools.lru_cache(maxsize=None)
def _residual_case(kind):
    """The scenario, the barrier, and for the coarse and the refined grid of
    verify_supersolution: (times, x, whole-array reference)."""
    scn, spec, T = _barrier_case(kind)
    grids = _check_grids(spec, scn, T)
    if kind == "uniform":
        # dyadic steps are exact, so np.gradient takes its uniform branch
        times = np.arange(257) * (T / 256)
        grids = [(times, grids[0][1]),
                 (constructions._refine_axis(times), grids[1][1])]
    return scn, spec, [(times, x, _whole_array_residual_mins(spec, scn, times, x))
                       for times, x in grids]


def _bits(v):
    # NaN payloads are not printed, so any NaN matches any NaN
    return "nan" if math.isnan(v) else struct.pack("<d", v)


@pytest.mark.parametrize("width", [None, 1, 2, 5, 7])
@pytest.mark.parametrize("grid", [0, 1], ids=["coarse", "refined"])
@pytest.mark.parametrize("kind", ["th00", "th2", "th4", "b_bad", "zero",
                                  "nonfinite", "wave", "uniform"])
def test_streamed_residuals_match_whole_array_bit_for_bit(monkeypatch, kind,
                                                          grid, width):
    scn, spec, grids = _residual_case(kind)
    times, x, (ref_mins, ref_worst) = grids[grid]
    if width is not None:
        # blocks of `width` interior columns; 5 divides neither grid's
        # interior column count, so the last block is a short one
        assert (len(x) - 2) % 5 != 0
        monkeypatch.setattr(constructions, "_BLOCK_BYTES",
                            width * 8 * len(times))
    mins, worst = constructions._residual_mins(spec, scn, times, x)
    assert [_bits(v) for v in mins] == [_bits(v) for v in ref_mins]
    assert worst == ref_worst


def test_cumulative_trapezoid_is_scipys_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(1, 300))
        times = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-6.0, 6.0)
        y = rng.exponential(size=n) ** rng.uniform(0.5, 4.0) * 10.0 ** rng.uniform(-300.0, 300.0)
        if rng.random() < 0.1:
            y[rng.integers(n)] = rng.choice([np.inf, np.nan])
        got = constructions._cumulative_trapezoid(y, times)
        want = cumulative_trapezoid(y, times, initial=0.0)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]


@pytest.mark.parametrize("grid", [0, 1], ids=["coarse", "refined"])
@pytest.mark.parametrize("kind", ["th00", "th2", "th4", "th2_power_log",
                                  "th2_table", "th4_power_log", "th4_table"])
def test_evaluate_on_a_time_column_equals_time_by_time_bit_for_bit(kind, grid):
    # the residual check asks each block of columns over every time in one
    # call, and the six edge columns in another
    scn, spec, T = _barrier_case(kind)
    times, x = _check_grids(spec, scn, T)[grid]
    want = np.stack([spec.evaluate(x, float(t)) for t in times])
    for lo, hi in ((0, len(times)), (5, 12), (3, 4), (0, 0)):
        rows = spec.evaluate(x, times[lo:hi, None])
        assert rows.shape == (hi - lo, len(x))
        assert rows.tobytes() == want[lo:hi].tobytes()
    m = len(x)
    for cols in (np.arange(4, 12), [0, 1, 2, m - 3, m - 2, m - 1], [m // 2]):
        block = spec.evaluate(x[cols], times[:, None])
        assert block.shape == (len(times), len(cols))
        assert block.tobytes() == want[:, cols].tobytes()
        row = spec.evaluate(x[cols], float(times[-1]))
        assert row.tobytes() == want[-1, cols].tobytes()


def test_streamed_residuals_keep_the_first_nan():
    _, _, grids = _residual_case("nonfinite")
    for times, x, (mins, worst) in grids:
        assert math.isnan(mins[0])
        assert worst["interior"] == (x[len(x) // 4], times[times >= 0.3][0])


@pytest.mark.filterwarnings("error")
def test_barrier_with_nothing_checkable_names_horizon_0_in_few_checks(monkeypatch):
    # every row NaN: the bisection for a checkable horizon stops at
    # 1e-6 T instead of halving T down to the smallest float
    scn = scenario(1.0, 1.0, ONE, ONE, n_nodes=21)
    spec = SupersolutionSpec("Th00", {},
                             lambda x, t: np.full(rows_shape(x, t), np.nan))
    horizons = []
    check = constructions._check_mins
    monkeypatch.setattr(constructions, "_check_mins",
                        lambda sp, sc, T: horizons.append(T) or check(sp, sc, T))
    with pytest.raises(NotApplicableError, match=(
            r"^the residuals of the Th00 barrier pass the float range on "
            r"\[0, 1\]; 0 is the largest horizon on which they can be checked$")):
        verify_supersolution(spec, scn, 1.0)
    assert len(horizons) <= 25


def test_residual_check_memory_is_bounded():
    # the certify benchmark's verify_th00: 2001 x 201, refined 4001 x 401
    scn = scenario(0.5, 0.5, ONE, ONE, t_max=5.0)
    spec = build_th00_supersolution(scn, T=5.0)
    tracemalloc.start()
    try:
        rep = verify_supersolution(spec, scn, T=5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 4e6


# ---------------------------------------------------------------------------
# domination report

def test_domination_flags_violations():
    scn = scenario(1.0, 1.0, ZERO, ZERO, u0_value=1.0, t_max=0.5)
    out = run(scn)
    above = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.full(rows_shape(x, t), 2.0))
    below = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.full(rows_shape(x, t), 0.5))
    assert check_domination(above, out, scn).holds
    rep = check_domination(below, out, scn)
    assert not rep.holds
    assert rep.max_violation == pytest.approx(0.5 / 1.5, rel=1e-6)
