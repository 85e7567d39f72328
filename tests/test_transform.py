"""Reaction-stripping transform tests: both routes must tell the same story."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from memheat.coeffs import ZERO, CoefficientSpec, CumulativeIntegral
from memheat.errors import ConfigurationError, NotApplicableError
from memheat.pde_core import (
    InitialSpec,
    PrescribedFluxRule,
    Scenario,
    SolverControls,
    run,
)
from memheat.transform import equivalence_check, from_transformed, to_transformed

ONE = CoefficientSpec.constant(1.0)


def scenario(p, q, c, k, u0=1.0, family="constant", **ctrl):
    return Scenario(length=1.0, p=p, q=q, c=c, k=k,
                    u0=InitialSpec(family, u0),
                    controls=SolverControls(**ctrl))


def rho(twin, t, tau):
    """The memory weight e^{q C(tau) - C(t)} of a transformed twin."""
    if tau > t:
        raise ConfigurationError("memory weight needs tau <= t")
    C = twin.boundary.cum
    return math.exp(twin.q * C(tau) - C(t))


# ---------------------------------------------------------------------------
# structure of the transformed problem

def test_transform_requires_linear_reaction():
    with pytest.raises(NotApplicableError):
        to_transformed(scenario(2.0, 2.0, ONE, ONE))


def test_transform_rejects_custom_boundary():
    scn = Scenario(length=1.0, p=1.0, q=2.0, c=ONE, k=ONE,
                   u0=InitialSpec("constant", 1.0),
                   controls=SolverControls(),
                   boundary=PrescribedFluxRule(lambda t: 0.0))
    with pytest.raises(ConfigurationError):
        to_transformed(scn)


def test_transform_strips_reaction_and_weights_memory():
    twin = to_transformed(scenario(1.0, 2.0, ONE, ONE))
    assert twin.c.is_zero
    assert twin.p == 1.0
    # C(t) = t: rho(t, tau) = e^{2 tau - t}
    assert rho(twin, 2.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert rho(twin, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    with pytest.raises(ConfigurationError):
        rho(twin, 1.0, 2.0)


def test_memory_weight_diagonal_bound():
    twin = to_transformed(scenario(1.0, 3.0, ONE, ONE))
    for t in (0.0, 0.5, 2.0):
        assert rho(twin, t, t) <= math.exp(2.0 * t) * (1.0 + 1e-12)


def test_zero_reaction_transform_is_identity():
    twin = to_transformed(scenario(1.0, 2.0, ZERO, ONE))
    assert rho(twin, 3.0, 1.0) == 1.0
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(from_transformed(v, ZERO, 7.0), v)


# ---------------------------------------------------------------------------
# the map back

def test_from_transformed_values():
    v = np.array([0.5, 1.0])
    assert np.allclose(from_transformed(v, ONE, 0.0), v)
    assert np.allclose(from_transformed(v, ONE, 1.0), math.e * v, rtol=1e-12)
    cum = CumulativeIntegral(CoefficientSpec.power(1.0, 1.0))
    got = from_transformed(v, cum, 3.0)       # C(3) = ln 4
    assert np.allclose(got, 4.0 * v, rtol=1e-12)


def test_from_transformed_past_the_float_range():
    # C(80) = 800 at c = 10: e^C alone overflows, v e^C only for v = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = from_transformed(np.array([0.0, 1e-300, 2.0, -2.0]),
                               CoefficientSpec.constant(10.0), 80.0)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1e-300 * math.exp(400.0) * math.exp(400.0), rel=1e-12)
    assert got[2:].tolist() == [math.inf, -math.inf]


# u0 = 1e-300 grows like e^{10 t}; e^{C(t)} = e^{10 t} overflows from t = 71
_TINY = dict(u0=1e-300, n_nodes=11, dt_max=0.05, snapshot_every=1.0)


def test_mapped_crossing_not_before_the_exact_one():
    scn = scenario(1.0, 2.0, CoefficientSpec.constant(10.0), ZERO,
                   t_max=80.0, **_TINY)
    rep = equivalence_check(scn, T=80.0)
    assert rep.agree
    assert rep.estimate_mapped.T_cross >= 310.0 * math.log(10.0) / 10.0


def test_mapped_route_below_a_high_threshold():
    # u stays near 1e26 at t = 75, far below the threshold 1e100
    scn = scenario(1.0, 2.0, CoefficientSpec.constant(10.0), ZERO,
                   t_max=75.0, blowup_threshold=1e100, **_TINY)
    rep = equivalence_check(scn, T=75.0)
    assert rep.status_direct == rep.status_transformed == "GlobalToHorizon"
    assert rep.estimate_mapped is None


def test_round_trip_matches_scalar_growth():
    # k = 0 and constant data: v stays flat, u = u0 e^{C(t)} solves u' = c u
    scn = scenario(1.0, 2.0, ONE, ZERO, u0=0.7, t_max=1.0, snapshot_every=0.25)
    out = run(to_transformed(scn))
    assert out.status == "GlobalToHorizon"
    for t, v in out.snapshots:
        u = from_transformed(v, scn.c, t)
        assert np.allclose(u, 0.7 * math.exp(t), rtol=1e-9)


# ---------------------------------------------------------------------------
# two-route equivalence

def test_equivalence_identity_when_reaction_absent():
    scn = scenario(1.0, 2.0, ZERO, ONE, u0=0.3, family="cos_bump", t_max=1.0)
    rep = equivalence_check(scn, T=1.0)
    assert rep.discrepancy <= 1e-10
    assert rep.agree
    assert len(rep.times) >= 5


def test_equivalence_validation():
    with pytest.raises(NotApplicableError):
        equivalence_check(scenario(2.0, 2.0, ONE, ONE), T=1.0)
    with pytest.raises(ConfigurationError):
        equivalence_check(scenario(1.0, 2.0, ONE, ONE), T=-1.0)


def test_equivalence_small_data_discrepancy():
    scn = scenario(1.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                   CoefficientSpec.power(1.0, 4.0), u0=0.05, t_max=2.0)
    rep = equivalence_check(scn, T=2.0)
    assert rep.status_direct == "GlobalToHorizon"
    assert rep.agree
    assert rep.discrepancy <= 1e-4


def test_equivalence_first_order_refinement():
    # the gap between routes is the direct route's explicit reaction error,
    # so halving (h, dt) together must halve the discrepancy
    discs = []
    for lvl in range(3):
        ctrl = SolverControls(t_max=2.0, n_nodes=200 * 2 ** lvl + 1,
                              theta=0.1 / 2 ** lvl, dt_max=2e-3 / 2 ** lvl)
        scn = Scenario(length=1.0, p=1.0, q=2.0,
                       c=CoefficientSpec.power(1.0, 2.0),
                       k=CoefficientSpec.power(1.0, 4.0),
                       u0=InitialSpec("constant", 0.05), controls=ctrl)
        discs.append(equivalence_check(scn, T=2.0).discrepancy)
    for coarse, fine in zip(discs, discs[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_equivalence_blowup_agreement():
    scn = scenario(1.0, 2.0, ONE, ONE, u0=1.0, t_max=10.0)
    rep = equivalence_check(scn, T=10.0)
    assert rep.status_direct == "BlowUp"
    assert rep.status_transformed == "BlowUp"
    assert rep.agree
    tc_d = rep.estimate_direct.T_cross
    tc_m = rep.estimate_mapped.T_cross
    assert abs(tc_d - tc_m) / tc_d <= 0.05
