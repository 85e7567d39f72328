"""ODE oracle tests against closed-form solutions and analytic verdicts."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from memheat import ode_oracle
from memheat.coeffs import ZERO, CoefficientSpec, eval_coeff
from memheat.errors import ConfigurationError, NotApplicableError, SolverFault
from memheat.ode_oracle import (
    OdeControls,
    OdeProblem,
    Th0Report,
    check_th0_criterion,
    energy_drift,
    integrate_ode,
)

SQRT6 = math.sqrt(6.0)
ROOT = Path(__file__).resolve().parent.parent


def closed_form_problem():
    # y'' = y^2, y = (1 - r/sqrt(6))^{-2}: checks out since
    # y'' = (1 - r/sqrt(6))^{-4} = y^2 and y'(0) = 2/sqrt(6) = sqrt(2/3)
    return OdeProblem(a=0.0, y_a=1.0, yp_a=math.sqrt(2.0 / 3.0), q=2.0,
                      b=CoefficientSpec.constant(1.0))


# ---------------------------------------------------------------------------
# validation

def test_problem_validation():
    b = CoefficientSpec.constant(1.0)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=-1.0, y_a=1.0, yp_a=0.0, q=2.0, b=b)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=0.0, y_a=-1.0, yp_a=0.0, q=2.0, b=b)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=0.0, y_a=1.0, yp_a=-1.0, q=2.0, b=b)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=0.0, y_a=0.0, yp_a=0.0, q=2.0, b=b)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=0.0, y_a=1.0, yp_a=0.0, q=1.0, b=b)
    with pytest.raises(ConfigurationError):
        OdeProblem(a=0.0, y_a=1.0, yp_a=0.0, q=2.0, b=1.0)
    with pytest.raises(ConfigurationError):
        integrate_ode(OdeProblem(0.0, 1.0, 0.0, 2.0, b), r_max=0.0)
    with pytest.raises(ConfigurationError):
        OdeControls(rtol=0.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0])
def test_controls_need_a_finite_threshold(threshold):
    with pytest.raises(ConfigurationError, match="blowup_threshold"):
        OdeControls(blowup_threshold=threshold)


# ---------------------------------------------------------------------------
# integration against closed forms

def test_zero_b_is_linear():
    prob = OdeProblem(a=1.0, y_a=2.0, yp_a=3.0, q=2.0, b=ZERO)
    out = integrate_ode(prob, r_max=100.0)
    assert out.status == "GlobalUpTo"
    assert out.R_star is None
    assert out.refinement_stability is None
    assert out.r_end == 100.0 == out.r_path[-1]
    assert np.all(np.diff(out.r_path) > 0)
    assert out.y_end == pytest.approx(2.0 + 3.0 * 99.0, rel=1e-10)
    exact = 2.0 + 3.0 * (out.r_path - 1.0)
    assert np.max(np.abs(out.y_path - exact) / exact) <= 1e-10
    assert np.max(np.abs(out.yp_path - 3.0)) <= 1e-10


def test_closed_form_blowup_radius():
    out = integrate_ode(closed_form_problem(), r_max=10.0)
    assert out.status == "BlowUp"
    # threshold crossing sits at sqrt(6)(1 - 1e-5), inside 0.5% of sqrt(6)
    r_cross = SQRT6 * (1.0 - 1e-5)
    assert abs(out.R_star - SQRT6) / SQRT6 <= 5e-3
    assert abs(out.R_star - r_cross) / SQRT6 <= 1e-6
    assert out.y_end == pytest.approx(1e10, rel=1e-6)
    assert out.refinement_stability is not None
    assert out.refinement_stability <= 1e-6


def test_closed_form_crossing_radius_to_1e8():
    out = integrate_ode(closed_form_problem(), r_max=10.0)
    r_cross = SQRT6 * (1.0 - 1e-5)
    assert abs(out.R_star - r_cross) / r_cross <= 1e-8


@pytest.mark.parametrize("prob", [
    closed_form_problem(),
    OdeProblem(a=0.0, y_a=1.0, yp_a=1.0, q=2.0,
               b=CoefficientSpec.power(0.01, 4.0)),
], ids=["blowup", "global"])
def test_one_solve_per_tolerance_pass(prob, monkeypatch):
    calls = []
    solve_ivp = ode_oracle.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)
    monkeypatch.setattr(ode_oracle, "solve_ivp", counted)
    integrate_ode(prob, r_max=100.0)
    assert len(calls) == 2


# the oracle configs (q, b, r_max) of the analyze workload, from y(0) = 1,
# y'(0) = 0
BENCHMARK_ORACLES = [
    (2.0, CoefficientSpec.constant(1.0), 20.0),
    (3.0, CoefficientSpec.power_log(1.0, 2.0, log_depth=1, log_power=0.0), 50.0),
]


@pytest.mark.parametrize("q, b, r_max, want", [
    (*BENCHMARK_ORACLES[0], 2.9744529233453743),
    (*BENCHMARK_ORACLES[1], 18.815959079373236),
], ids=["q2_const", "q3_powerlog"])
def test_benchmark_oracle_radii(q, b, r_max, want):
    out = integrate_ode(OdeProblem(0.0, 1.0, 0.0, q, b), r_max=r_max)
    assert abs(out.R_star - want) / want <= 1e-7


def test_closed_form_trajectory_accuracy():
    out = integrate_ode(closed_form_problem(), r_max=10.0)
    mask = out.y_path <= 1e6
    exact = (1.0 - out.r_path[mask] / SQRT6) ** -2.0
    # forward error amplifies near the singularity; 2e-5 reflects the
    # tolerance 1e-8 grown by the variational dynamics, not sloppiness
    assert np.max(np.abs(out.y_path[mask] - exact) / exact) <= 2e-5
    assert np.all(np.diff(out.r_path) > 0)
    assert np.all(np.diff(out.y_path) >= 0)


def test_steps_shrink_near_blowup():
    out = integrate_ode(closed_form_problem(), r_max=10.0)
    # the last five r-steps shrink with the gap to R* = sqrt(6); the last
    # one is cut short by the threshold crossing
    steps = np.diff(out.r_path)[-5:]
    assert np.all(steps <= 0.25 * (SQRT6 - out.r_path[-6:-1]))
    assert np.all(np.diff(steps) < 0)
    assert steps[-2] <= 1e-5


def _energy_crossing_radius(q):
    # y'' = y^q, y(0) = 1, y'(0) = 0 conserves (y')^2/2 - y^{q+1}/(q+1), so
    # the threshold 1e10 is crossed at int_1^1e10 dy / y'(y)
    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        f = lambda y: 1 / mpmath.sqrt(2 * (y ** (q + 1) - 1) / (q + 1))
        pts = [1, 1.5, 2, 4] + [mpmath.mpf(10) ** k for k in range(1, 11)]
        return float(mpmath.quad(f, pts))


@pytest.mark.parametrize("q", [5.0, 10.0, 40.0, 60.0])
def test_steep_blowup_reaches_the_threshold(q):
    # stepping in r, the step size collapsed below the float spacing of r
    # before y reached 1e10 for the first three; at q = 60, y' is about
    # 1e305 at the threshold, which scipy's solver overflowed on
    out = integrate_ode(OdeProblem(0.0, 1.0, 0.0, q, CoefficientSpec.constant(1.0)),
                        r_max=10.0)
    assert out.status == "BlowUp"
    want = _energy_crossing_radius(q)
    assert abs(out.R_star - want) / want <= 1e-8
    assert out.y_end == pytest.approx(1e10, rel=1e-9)


def test_float_overflow_is_a_solver_fault():
    # y' ~ y^{(q+1)/2} leaves the float range near y = 1e3 at q = 200,
    # long before the threshold
    prob = OdeProblem(0.0, 1.0, 0.0, 200.0, CoefficientSpec.constant(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFault, match="^integration failed at r = .*"
                                              "leaves the float range"):
            integrate_ode(prob, r_max=10.0)


def test_analyze_oracle_problems_need_few_rhs_evaluations(monkeypatch):
    # rescaled time keeps DOP853 from rejecting a step after each accepted
    # one near blow-up: 11,612 evaluations when stepping in r
    nfev = []
    solve_ivp = ode_oracle.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    monkeypatch.setattr(ode_oracle, "solve_ivp", counted)
    for q, b, r_max in BENCHMARK_ORACLES:
        integrate_ode(OdeProblem(0.0, 1.0, 0.0, q, b), r_max=r_max)
    assert len(nfev) == 4
    assert sum(nfev) <= 6000


_TRACED_ORACLES = """
import contextlib, io, json, os, sys, tempfile
import tracer
from workloads import WORKLOADS
from memheat import cli
t = tracer.Tracer()
tracer.install(t)
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for o in WORKLOADS["analyze"]:
        if o["command"] != "oracle":
            continue
        cfg = os.path.join(tmp, o["name"] + ".json")
        with open(cfg, "w") as f:
            json.dump(o["config"], f)
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([o["command"], "--config", cfg, "--out",
                                   os.path.join(tmp, o["name"])] + o["args"]))
print(json.dumps({"codes": codes,
                  "calls": t.summary()["ode_oracle.solve_ivp"]["calls"],
                  "nfev": t.counts["ode_oracle.nfev"]}))
"""


def test_traced_benchmark_counts_the_oracle_solves():
    # perfbench/tracer.py wraps ode_oracle.solve_ivp by name and sums the
    # nfev of what it returns; the two oracle commands of the analyze
    # workload make one solve per tolerance pass
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_ORACLES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    assert out["calls"] == 4
    assert 0 < out["nfev"] <= 6000


# ---------------------------------------------------------------------------
# the module's own DOP853

def test_dop853_tableau_is_scipys_bit_for_bit():
    d = dop853_coefficients
    for i, row in enumerate(ode_oracle._A, start=1):
        assert row.tolist() == d.A[i, :i].tolist()
        # each stage sits at node C_i, the sum of its row, up to the
        # rounding of the published digits
        assert math.fsum(row) == pytest.approx(d.C[i], rel=1e-14, abs=1e-16)
    assert len(ode_oracle._A) == d.N_STAGES - 1
    assert ode_oracle._B.tolist() == d.B.tolist()
    assert ode_oracle._E3.tolist() == d.E3.tolist()
    assert ode_oracle._E5.tolist() == d.E5.tolist()


@pytest.mark.parametrize("q, b, r_max", BENCHMARK_ORACLES, ids=["q2_const", "q3_powerlog"])
@pytest.mark.parametrize("rtol, atol", [(1e-8, 1e-12), (5e-9, 5e-13)])
def test_accepted_steps_are_scipys_bit_for_bit(q, b, r_max, rtol, atol):
    # the in-module DOP853 repeats scipy's arithmetic step for step; only
    # the event point differs (a cubic Hermite, not the order-7 dense
    # output), and it saves scipy's 3 dense-output evaluations per solve
    def rhs(s):
        r, y, v = s.tolist()
        phi, h = (1.0 + y) / (1.0 + y + v), y ** (0.5 * q)
        return phi, phi * v, h * phi * eval_coeff(b, r) * h

    def blow(t, s):
        return s[1] - 1e10
    blow.terminal, blow.direction = True, 1
    want = scipy_solve_ivp(lambda t, s: rhs(s), (0.0, math.inf), (0.0, 1.0, 0.0),
                           method="DOP853", rtol=rtol, atol=atol, events=blow)
    got = ode_oracle.solve_ivp(rhs, (0.0, 1.0, 0.0), rtol, atol, 1e10, r_max)
    assert got.blew
    path = np.array([got.r, got.y, got.v])
    assert np.array_equal(path[:, :-1], want.y[:, :-1])
    assert got.nfev == want.nfev - 3
    assert got.r[-1] == pytest.approx(want.y[0, -1], rel=1e-9)
    assert got.y[-1] == pytest.approx(1e10, rel=1e-12)


def test_dop853_step_is_eighth_order():
    # y'' = 6 y^2 from y = 1, y' = 2 is y = (1 - tau)^{-2}; the global error
    # at tau = 1/2 falls like h^8
    def fun(s):
        return 1.0, s[2], 6.0 * s[1] * s[1]

    def rel_error(n):
        s, h = np.array([0.0, 1.0, 2.0]), 0.5 / n
        f = fun(s)
        for _ in range(n):
            s, k = ode_oracle._dop853_step(fun, s, f, h)
            f = k[-1]
        assert s[0] == pytest.approx(0.5, rel=1e-15)
        return abs(s[1] / 4.0 - 1.0)

    coarse, fine = rel_error(8), rel_error(16)
    assert fine <= 1e-12
    assert 7.5 <= math.log2(coarse / fine) <= 8.5


def test_collapsing_step_is_a_solver_fault_naming_r():
    # r' = r^2 passes every float near tau = 1: the step falls below
    # 10 ulps of tau first
    with pytest.raises(SolverFault, match=r"^integration failed at r = \S+: "
                                          r"Required step size is less than"):
        ode_oracle.solve_ivp(lambda s: (s[0] * s[0], 0.0, 0.0), (1.0, 0.0, 0.0),
                             1e-8, 1e-12, 1.0, math.inf)


def test_negative_state_is_a_solver_fault():
    with pytest.raises(SolverFault, match="^state turned negative$"):
        ode_oracle.solve_ivp(lambda s: (1.0, -1.0, 0.0), (0.0, 1.0, 0.0),
                             1e-8, 1e-12, 10.0, 10.0)


def test_data_already_over_threshold():
    prob = OdeProblem(a=0.5, y_a=2e10, yp_a=0.0, q=2.0, b=ZERO)
    out = integrate_ode(prob, r_max=10.0)
    assert out.status == "BlowUp"
    assert out.R_star == 0.5
    assert out.y_end == 2e10
    assert (out.nfev, out.steps) == (0, 0)


def test_global_case_with_weak_integrable_b():
    prob = OdeProblem(a=0.0, y_a=1.0, yp_a=1.0, q=2.0,
                      b=CoefficientSpec.power(0.01, 4.0))
    out = integrate_ode(prob, r_max=100.0)
    assert out.status == "GlobalUpTo"
    # slope gain is a contraction: y stays close to the free linear motion
    assert 100.0 <= out.y_end <= 200.0


# ---------------------------------------------------------------------------
# energy invariant

def test_energy_conserved_along_blowup_trajectory():
    prob = closed_form_problem()
    out = integrate_ode(prob, r_max=10.0)
    assert energy_drift(prob, out) <= 1e-6


def test_energy_conserved_free_motion():
    prob = OdeProblem(a=0.0, y_a=1.0, yp_a=2.0, q=2.0, b=ZERO)
    out = integrate_ode(prob, r_max=50.0)
    assert energy_drift(prob, out) <= 1e-12


def test_energy_accepts_constant_aliases():
    prob = closed_form_problem()
    out = integrate_ode(prob, r_max=10.0)
    want = energy_drift(prob, out)
    for b in (CoefficientSpec.power(1.0, 0.0), CoefficientSpec.exp_decay(1.0, 0.0),
              CoefficientSpec.power_log(1.0, 0.0, 0)):
        assert energy_drift(OdeProblem(a=0.0, y_a=1.0, yp_a=math.sqrt(2.0 / 3.0),
                                       q=2.0, b=b), out) == want


def test_energy_needs_constant_b():
    prob = OdeProblem(a=0.0, y_a=1.0, yp_a=1.0, q=2.0,
                      b=CoefficientSpec.power(1.0, 1.0))
    out = integrate_ode(prob, r_max=2.0)
    with pytest.raises(NotApplicableError):
        energy_drift(prob, out)


# ---------------------------------------------------------------------------
# analytic criterion

def test_criterion_boundary_power_family():
    # b = (1+r)^{-3}, q = 2: integral of r^2 b diverges and b <= B r^{-3}
    rep = check_th0_criterion(CoefficientSpec.power(1.0, 3.0), q=2.0)
    assert rep.divergence.diverges
    assert rep.alt_bounded
    assert rep.alt_monotone
    assert rep.applies


def test_criterion_constant_b():
    rep = check_th0_criterion(CoefficientSpec.constant(1.0), q=2.0)
    assert rep.divergence.diverges
    assert not rep.alt_bounded      # constants are not O(r^{-(q+1)})
    assert rep.alt_monotone
    assert rep.applies


def test_criterion_convergent_tail_does_not_apply():
    rep = check_th0_criterion(CoefficientSpec.power(1.0, 4.0), q=2.0)
    assert rep.divergence.converges
    assert rep.alt_bounded
    assert not rep.applies
    rep_log = check_th0_criterion(
        CoefficientSpec.power_log(1.0, 3.0, log_depth=1, log_power=1.0), q=2.0)
    assert rep_log.divergence.converges
    assert not rep_log.applies


def test_criterion_log_boundary_applies():
    rep = check_th0_criterion(
        CoefficientSpec.power_log(1.0, 3.0, log_depth=1, log_power=0.0), q=2.0)
    assert rep.divergence.diverges
    assert rep.alt_bounded
    assert rep.applies


def test_criterion_tabulated_sampling():
    plateau = CoefficientSpec.tabulated([(0.0, 0.0), (10.0, 5.0)])
    rep = check_th0_criterion(plateau, q=2.0)
    assert rep.divergence.diverges
    assert rep.alt_monotone         # constant beyond the table
    assert not rep.alt_bounded      # r^{q+1} b grows without bound
    assert rep.applies

    vanishing = CoefficientSpec.tabulated([(0.0, 1.0), (10.0, 0.0)])
    rep0 = check_th0_criterion(vanishing, q=2.0)
    assert rep0.alt_bounded and rep0.alt_monotone
    assert not rep0.applies         # integral is finite


def test_criterion_table_constant_past_its_last_node_applies():
    # b = 2 for r >= 2e4; sampling on [1e3, 1e5] saw the rise before the
    # last node and denied the monotone alternative
    b = CoefficientSpec.tabulated([[0.0, 0.0], [5000.0, 1.0], [20000.0, 2.0]])
    rep = check_th0_criterion(b, q=2.0)
    assert rep.divergence.diverges
    assert rep.alt_monotone and not rep.alt_bounded
    assert rep.applies


def test_criterion_validation():
    with pytest.raises(ConfigurationError):
        check_th0_criterion(ZERO, q=1.0)


# ---------------------------------------------------------------------------
# concordance and scaling

def test_applying_criterion_means_finite_blowup():
    grid = [
        CoefficientSpec.constant(1.0),
        CoefficientSpec.power(1.0, 1.0),
        CoefficientSpec.power(1.0, 3.0),
        CoefficientSpec.power_log(1.0, 3.0, log_depth=1, log_power=0.0),
    ]
    for b in grid:
        rep = check_th0_criterion(b, q=2.0)
        assert rep.applies, b
        out = integrate_ode(OdeProblem(0.0, 1.0, 1.0, 2.0, b), r_max=1e6)
        assert out.status == "BlowUp", b
        assert out.R_star < 1e6


def test_amplifying_b_never_delays_blowup():
    radii = []
    for amp in (1.0, 2.0, 4.0):
        out = integrate_ode(
            OdeProblem(0.0, 1.0, 1.0, 2.0, CoefficientSpec.constant(amp)),
            r_max=100.0)
        assert out.status == "BlowUp"
        radii.append(out.R_star)
    assert radii[0] >= radii[1] >= radii[2]
