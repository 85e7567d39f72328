"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line summarizing what was
measured, then asserts.  Expensive simulations are cached per scenario so the
comparison and mass-inequality sweeps can reuse earlier runs.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np

from memheat.coeffs import CoefficientSpec, ZERO
from memheat.constructions import (build_th00_supersolution,
                                   build_th2_supersolution, check_domination,
                                   small_data_threshold, verify_supersolution,
                                   z_profile)
from memheat.criteria import (REGIME_BLOWUP_ALL, REGIME_BOUNDED_SMALL,
                              REGIME_GLOBAL_SMALL, classify_regime)
from memheat.ode_oracle import (OdeProblem, check_th0_criterion, energy_drift,
                                integrate_ode)
from memheat.pde_core import (STATUS_BLOWUP, STATUS_GLOBAL, InitialSpec,
                              Scenario, SolverControls, mass_inequality_check,
                              run, verify_comparison)
from memheat.transform import equivalence_check

ONE = CoefficientSpec.constant(1.0)
P = CoefficientSpec.power
PL = CoefficientSpec.power_log


def _scenario(p, q, c, k, value, t_max, threshold=1e10, snap=None):
    return Scenario(length=1.0, p=p, q=q, c=c, k=k,
                    u0=InitialSpec("constant", value),
                    controls=SolverControls(t_max=t_max,
                                            blowup_threshold=threshold,
                                            snapshot_every=snap))


@functools.lru_cache(maxsize=None)
def _run(scenario):
    return run(scenario)


@functools.lru_cache(maxsize=None)
def _small_data_parts():
    """Bounded-regime barrier for p = q = 2 with integrable forcing."""
    seed = _scenario(2.0, 2.0, P(1.0, 2.0), P(1.0, 3.0), 0.0, 200.0, snap=2.0)
    spec = build_th2_supersolution(seed, 200.0)
    alpha, big_y = spec.params["alpha"], spec.params["Y"]
    threshold = small_data_threshold(2.0, alpha, big_y, seed.c)
    return seed, spec, alpha, big_y, threshold


def _comparison_table():
    """Every concrete scenario exercised by criteria 1 through 8."""
    _, _, _, _, thr = _small_data_parts()
    return [
        _scenario(2.0, 2.0, ONE, ZERO, 1.0, 2.0),
        _scenario(2.0, 2.0, ONE, ONE, 0.0, 100.0),
        _scenario(1.0, 1.0, ONE, ONE, 1.0, 50.0, 1e200, 5.0),
        _scenario(0.5, 1.0, ONE, ONE, 1.0, 50.0, 1e200, 5.0),
        _scenario(1.0, 0.5, ONE, ONE, 1.0, 50.0, 1e200, 5.0),
        _scenario(0.5, 0.5, ONE, ONE, 1.0, 50.0, 1e200, 5.0),
        _scenario(2.0, 2.0, ZERO, ONE, 1.0, 10.0),
        _scenario(2.0, 2.0, P(1, 2), P(1, 3), 0.5 * thr, 200.0, snap=2.0),
        _scenario(2.0, 2.0, ZERO, PL(1, 2, log_depth=1, log_power=0), 1.0, 20.0),
        _scenario(2.0, 2.0, P(1, 2), PL(1, 2, log_depth=1, log_power=1), 0.1, 20.0),
        _scenario(1.0, 2.0, P(1, 1), PL(1, 3, log_depth=1, log_power=0), 0.1, 20.0),
        _scenario(1.0, 2.0, P(1, 1), PL(1, 3, log_depth=1, log_power=1), 0.1, 20.0),
        _scenario(1.0, 2.0, P(1, 2), PL(1, 3, log_depth=1, log_power=1), 0.1, 20.0),
        _scenario(1.0, 2.0, P(1, 2), P(1, 4), 0.05, 2.0),
        _scenario(1.0, 2.0, ONE, ONE, 1.0, 10.0),
    ]


def _report(num, ok, detail):
    print("criterion %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d: %s" % (num, detail)


# ---------------------------------------------------------------------------
# 1. uniform reaction blow-up, fitted time converges to the exact value

def test_criterion_01_reaction_blowup_time():
    base = _scenario(2.0, 2.0, ONE, ZERO, 1.0, 2.0)
    t0 = time.perf_counter()
    fits = []
    for level in range(3):
        scn = replace(base, controls=base.controls.refined(level))
        out = _run(scn)
        assert out.status == STATUS_BLOWUP
        fits.append(out.blowup_estimate.T_fit)
    elapsed = time.perf_counter() - t0
    errs = [abs(f - 1.0) for f in fits]
    ok = (0.98 <= fits[0] <= 1.02 and errs[0] > errs[1] > errs[2]
          and elapsed < 5.0)
    _report(1, ok, "T_fit %.5f, errors %.2e > %.2e > %.2e, %.1fs"
            % (fits[0], errs[0], errs[1], errs[2], elapsed))


# ---------------------------------------------------------------------------
# 2. zero initial data stays identically zero over a long horizon

def test_criterion_02_trivial_solution():
    scn = _scenario(2.0, 2.0, ONE, ONE, 0.0, 100.0)
    t0 = time.perf_counter()
    out = _run(scn)
    elapsed = time.perf_counter() - t0
    sup_max = float(out.trace.sup_norm.max())
    ok = (out.status == STATUS_GLOBAL and out.t_end >= 100.0 - 1e-9
          and sup_max <= 1e-12 and elapsed < 5.0)
    _report(2, ok, "sup max %.2e over [0,100], %.1fs" % (sup_max, elapsed))


# ---------------------------------------------------------------------------
# 3. sublinear scenarios run globally under an exponential barrier

def test_criterion_03_sublinear_global_domination():
    details = []
    ok = True
    for (p, q) in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.5)):
        scn = _scenario(p, q, ONE, ONE, 1.0, 50.0, 1e200, 5.0)
        out = _run(scn)
        spec = build_th00_supersolution(scn, 50.0)
        dom = check_domination(spec, out, scn)
        res = verify_supersolution(spec, scn, 50.0)
        good = (out.status == STATUS_GLOBAL and dom.holds and res.passed
                and all(m >= -res.tol_res for m in res.mins))
        ok = ok and good
        details.append("p=%g,q=%g %s" % (p, q, "ok" if good else "BAD"))
    _report(3, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. memory-driven blow-up with zero reaction, stable crossing time

def test_criterion_04_memory_blowup():
    verdict = classify_regime(2.0, 2.0, ZERO, ONE)
    t0 = time.perf_counter()
    base = _scenario(2.0, 2.0, ZERO, ONE, 1.0, 10.0)
    out0 = _run(base)
    out1 = _run(replace(base, controls=base.controls.refined(1)))
    elapsed = time.perf_counter() - t0
    tc0 = out0.blowup_estimate.T_cross if out0.blowup_estimate else math.nan
    tc1 = out1.blowup_estimate.T_cross if out1.blowup_estimate else math.nan
    shift = abs(tc0 - tc1) / tc0
    ok = (verdict.regime == REGIME_BLOWUP_ALL
          and out0.status == STATUS_BLOWUP and out1.status == STATUS_BLOWUP
          and shift <= 0.05 and elapsed < 30.0)
    _report(4, ok, "T_cross %.4f vs %.4f (shift %.2e), %.1fs"
            % (tc0, tc1, shift, elapsed))


# ---------------------------------------------------------------------------
# 5. integrable forcing admits a bounded small-data barrier

def test_criterion_05_bounded_small_data():
    seed, spec, alpha, big_y, thr = _small_data_parts()
    verdict = classify_regime(2.0, 2.0, seed.c, seed.k)
    scn = replace(seed, u0=InitialSpec("constant", 0.5 * thr))
    out = _run(scn)
    bound = alpha * big_y * z_profile(2.0, alpha, big_y, seed.c, 200.0)
    sup_max = float(out.trace.sup_norm.max())
    res = verify_supersolution(spec, scn, 200.0)
    dom = check_domination(spec, out, scn)
    ok = (verdict.regime == REGIME_BOUNDED_SMALL
          and out.status == STATUS_GLOBAL and sup_max <= bound
          and res.passed and dom.holds)
    _report(5, ok, "sup %.4f <= alpha*Y*z %.4f, residuals %s"
            % (sup_max, bound, "ok" if res.passed else "BAD"))


# ---------------------------------------------------------------------------
# 6. logarithmic corrections flip the memory-moment verdict

def test_criterion_06_log_borderline_memory():
    sharp = classify_regime(2.0, 2.0, ZERO, PL(1, 2, log_depth=1, log_power=0))
    damped = classify_regime(2.0, 2.0, P(1, 2), PL(1, 2, log_depth=1, log_power=1))
    ok = (sharp.regime == REGIME_BLOWUP_ALL
          and damped.regime == REGIME_BOUNDED_SMALL)
    _report(6, ok, "log_power=0 -> %s, log_power=1 -> %s"
            % (sharp.regime, damped.regime))


# ---------------------------------------------------------------------------
# 7. linear reaction weighting shifts the borderline and the upgrade

def test_criterion_07_weighted_borderline():
    sharp = classify_regime(1.0, 2.0, P(1, 1), PL(1, 3, log_depth=1, log_power=0))
    damped = classify_regime(1.0, 2.0, P(1, 1), PL(1, 3, log_depth=1, log_power=1))
    upgraded = classify_regime(1.0, 2.0, P(1, 2), PL(1, 3, log_depth=1, log_power=1))
    ok = (sharp.regime == REGIME_BLOWUP_ALL
          and damped.regime == REGIME_GLOBAL_SMALL
          and upgraded.regime == REGIME_BOUNDED_SMALL)
    _report(7, ok, "%s / %s / %s"
            % (sharp.regime, damped.regime, upgraded.regime))


# ---------------------------------------------------------------------------
# 8. the exponential substitution reproduces the direct solution

def test_criterion_08_transform_equivalence():
    small = _scenario(1.0, 2.0, P(1, 2), P(1, 4), 0.05, 2.0)
    rep = equivalence_check(small, 2.0)
    ctr = small.controls
    fine = replace(small, controls=replace(ctr, n_nodes=401, theta=ctr.theta / 2,
                                           dt_max=ctr.dt_max / 2))
    rep_fine = equivalence_check(fine, 2.0)

    blow = _scenario(1.0, 2.0, ONE, ONE, 1.0, 10.0)
    rep_b = equivalence_check(blow, 10.0)
    tc_d = rep_b.estimate_direct.T_cross
    tc_m = rep_b.estimate_mapped.T_cross
    gap = abs(tc_d - tc_m) / tc_d
    ok = (rep.agree and rep.status_direct == STATUS_GLOBAL
          and rep.discrepancy <= 1e-4
          and rep_fine.discrepancy < rep.discrepancy
          and rep_b.agree and rep_b.status_direct == STATUS_BLOWUP
          and gap <= 0.05)
    _report(8, ok, "discrepancy %.2e -> %.2e, blow-up T_cross gap %.2e"
            % (rep.discrepancy, rep_fine.discrepancy, gap))


# ---------------------------------------------------------------------------
# 9. radial comparison oracle reproduces a closed-form blow-up radius

def test_criterion_09_oracle_closed_form():
    prob = OdeProblem(0.0, 1.0, math.sqrt(2.0 / 3.0), 2.0, ONE)
    t0 = time.perf_counter()
    out = integrate_ode(prob, 10.0)
    drift = energy_drift(prob, out)
    elapsed = time.perf_counter() - t0
    rel = abs(out.R_star - math.sqrt(6.0)) / math.sqrt(6.0)
    ok = (out.status == "BlowUp" and rel <= 0.005 and drift <= 1e-6
          and elapsed < 1.0)
    _report(9, ok, "R* rel err %.2e, energy drift %.2e, %.2fs"
            % (rel, drift, elapsed))


# ---------------------------------------------------------------------------
# 10. whenever the divergence test applies, the oracle confirms blow-up

def test_criterion_10_criterion_oracle_concordance():
    grid = [P(1.0, 0.0), P(1.0, 1.0), P(1.0, 2.0), P(1.0, 3.0),
            PL(1.0, 3.0, log_depth=1, log_power=0.0),
            PL(1.0, 1.0, log_depth=1, log_power=2.0)]
    details = []
    ok = True
    for b in grid:
        rep = check_th0_criterion(b, 2.0)
        out = integrate_ode(OdeProblem(0.0, 1.0, 1.0, 2.0, b), 1e6)
        good = rep.applies and out.status == "BlowUp" and out.R_star < 1e6
        ok = ok and good
        details.append("%s(%g)%s R*=%.3g" % (b.family, b.gamma,
                                             "" if good else " BAD", out.R_star))
    _report(10, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 11. doubling the initial data never lowers the solution anywhere

def test_criterion_11_comparison_monotonicity():
    checked = 0
    ok = True
    bad = ""
    for scn in _comparison_table():
        low = _run(scn)
        high_scn = replace(scn, u0=scn.u0.scaled(2.0))
        high = _run(high_scn)
        rep = verify_comparison(scn, high_scn)
        upgrade_ok = not (low.status == STATUS_BLOWUP
                          and high.status == STATUS_GLOBAL)
        if not (rep.holds and upgrade_ok):
            ok = False
            bad += " p=%g,q=%g" % (scn.p, scn.q)
        checked += 1
    _report(11, ok, "%d scenarios, doubled data stays above%s" % (checked, bad))


# ---------------------------------------------------------------------------
# 12. recorded mass obeys its growth inequality up to discretization error

def test_criterion_12_mass_inequality():
    checked = 0
    ok = True
    worst = 0.0
    for scn in _comparison_table():
        if scn.p < 1.0:
            continue
        ctr = scn.controls
        base = replace(scn, controls=replace(ctr, snapshot_every=ctr.t_max / 200.0))
        fine = replace(scn, controls=replace(ctr, theta=ctr.theta / 2.0,
                                             dt_max=ctr.dt_max / 2.0,
                                             snapshot_every=ctr.t_max / 400.0))
        d0 = mass_inequality_check(_run(base), base)
        d1 = mass_inequality_check(_run(fine), fine)
        tol_cal = 1e-6 + 2.0 * abs(d0 - d1)
        if d0 > 10.0 * tol_cal:
            ok = False
        worst = max(worst, d0 / (10.0 * tol_cal))
        checked += 1
    _report(12, ok, "%d scenarios, worst deficit at %.2f of the calibrated cap"
            % (checked, worst))


# ---------------------------------------------------------------------------
# 13-14. exact growth rate for p = q = 1 with constant c and k > 0
#
# u = e^{lam t} cosh(mu (x - L/2)) solves the linear problem with
# lam = c + mu^2, where mu tanh(mu L/2)(c + mu^2) = k; the late log-slope of
# the sup converges to lam at first order in dt_max.

_GROWTH_CASES = [(1.0, 1.0, 2.056624161), (0.0, 1.0, 1.497874387)]


def _exact_growth_rate(c, k, length=1.0):
    """lam = c + mu^2 for the root mu > 0 of mu tanh(mu L/2)(c + mu^2) = k,
    by bisection (the left side rises from 0)."""
    def g(mu):
        return mu * math.tanh(0.5 * mu * length) * (c + mu * mu) - k
    lo, hi = 0.0, 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    return c + hi * hi


def _growth_rate(c, k, refine):
    """The log-slope of sup over t in [40, 50] at dt_max / refine."""
    scn = _scenario(1.0, 1.0, CoefficientSpec.constant(c),
                    CoefficientSpec.constant(k), 1.0, 50.0, 1e200, 5.0)
    scn = replace(scn, controls=replace(scn.controls,
                                        dt_max=scn.controls.dt_max / refine))
    tr = _run(scn).trace
    at = {t: s for t, s in zip(tr.t.tolist(), tr.sup_norm.tolist())}
    return (math.log(at[50.0]) - math.log(at[40.0])) / 10.0


def test_criterion_13_growth_rate_extrapolates_to_exact():
    # a consistent scheme: Richardson from dt_max and dt_max/4 removes the
    # first-order error, leaving 3.5e-6 at both (c, k)
    worst, details = 0.0, []
    for c, k, published in _GROWTH_CASES:
        exact = _exact_growth_rate(c, k)
        assert abs(exact - published) <= 1e-9
        coarse, fine = _growth_rate(c, k, 1), _growth_rate(c, k, 4)
        err = (4.0 * fine - coarse) / 3.0 - exact
        worst = max(worst, abs(err))
        details.append("c=%g k=%g: %.2e" % (c, k, err))
    _report(13, worst <= 1e-4, "Richardson lambda error " + ", ".join(details))


def test_criterion_14_growth_rate_error_at_dt_max():
    # the first-order error at dt_max: -2.95e-3 at (1, 1), -1.31e-3 at (0, 1)
    worst, details = 0.0, []
    for c, k, _ in _GROWTH_CASES:
        err = _growth_rate(c, k, 1) - _exact_growth_rate(c, k)
        worst = max(worst, abs(err))
        details.append("c=%g k=%g: %.2e" % (c, k, err))
    _report(14, worst < 3.5e-3, "lambda error at dt_max " + ", ".join(details))
