"""Barrier construction tests with closed-form and arithmetic oracles."""

import math

import numpy as np
import pytest

from memheat.coeffs import ZERO, CoefficientSpec
from memheat.constructions import (
    SupersolutionSpec,
    build_th00_supersolution,
    build_th2_supersolution,
    build_th4_supersolution,
    check_domination,
    small_data_threshold,
    solve_auxiliary_linear,
    verify_supersolution,
    z_ode_residual,
    z_profile,
)
from memheat.errors import ConfigurationError, NotApplicableError
from memheat.pde_core import InitialSpec, Scenario, SolverControls, run

ONE = CoefficientSpec.constant(1.0)


def scenario(p, q, c, k, u0_value=1.0, length=1.0, **ctrl):
    return Scenario(length=length, p=p, q=q, c=c, k=k,
                    u0=InitialSpec("constant", u0_value),
                    controls=SolverControls(**ctrl))


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
        lambda x, t: d * math.exp(b_bad * t)
        * (2.0 - np.sin(math.pi * np.asarray(x) / 10.0)))
    rep = verify_supersolution(bad, scn, T=3.0)
    assert not rep.passed
    assert rep.r_bnd_min < -rep.tol_res
    assert rep.r_int_min >= -rep.tol_res


def test_zero_barrier_fails_initial_inequality():
    scn = scenario(1.0, 1.0, ZERO, ZERO, u0_value=1.0)
    zero_spec = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.zeros_like(np.asarray(x, dtype=float)))
    rep = verify_supersolution(zero_spec, scn, T=1.0)
    assert not rep.passed
    assert rep.r_init_min == pytest.approx(-1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# auxiliary linear runs

def test_auxiliary_zero_flux_is_constant():
    aux = solve_auxiliary_linear(ZERO, 1.0, 51, t_max=1.0, t_settle=100.0)
    assert aux.stabilized
    assert aux.bound == 1.0
    assert np.max(np.abs(aux.fields - 1.0)) == 0.0


def test_auxiliary_integrable_flux_stabilizes():
    aux = solve_auxiliary_linear(lambda t: t / (1.0 + t) ** 3, 1.0, 51,
                                 t_max=20.0)
    assert aux.stabilized
    # total influx 2*int t(1+t)^-3 = 1 over |domain| = 1, starting from 1
    assert 1.5 <= aux.bound <= 2.5


def test_auxiliary_linear_flux_never_settles():
    aux = solve_auxiliary_linear(lambda t: t, 1.0, 51, t_max=20.0,
                                 t_settle=2000.0)
    assert not aux.stabilized
    assert aux.bound > 10.0


def test_auxiliary_interpolation_clamps():
    aux = solve_auxiliary_linear(ZERO, 1.0, 21, t_max=1.0, t_settle=1.0)
    assert np.allclose(aux.at(-1.0), aux.fields[0])
    assert np.allclose(aux.at(99.0), aux.fields[-1])
    assert np.allclose(aux.at(0.123), 1.0)


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


def test_z_ode_residual_small_on_closed_form_tail():
    c2 = CoefficientSpec.power(1.0, 2.0)
    ts = np.arange(0.0, 100.0, 0.01)
    assert z_ode_residual(2.0, 1.0, 1.0, c2, ts) <= 1e-8
    assert z_ode_residual(3.0, 0.5, 2.0, c2, ts) <= 1e-8


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
    y_end = spec0.aux.at(5.0)
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
    tighter = build_th2_supersolution(scn, t_max=10.0, alpha=1e-3)
    assert tighter.params["alpha"] == pytest.approx(1e-3)


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
    h_mid = spec.aux.at(2.5)
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
# domination report

def test_domination_flags_violations():
    scn = scenario(1.0, 1.0, ZERO, ZERO, u0_value=1.0, t_max=0.5)
    out = run(scn)
    above = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.full(np.asarray(x).shape, 2.0))
    below = SupersolutionSpec(
        "Th00", {}, lambda x, t: np.full(np.asarray(x).shape, 0.5))
    assert check_domination(above, out, scn).holds
    rep = check_domination(below, out, scn)
    assert not rep.holds
    assert rep.max_violation == pytest.approx(0.5 / 1.5, rel=1e-6)
