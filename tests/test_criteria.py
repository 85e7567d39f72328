"""Regime classifier: rule ladder, weighted reductions, and flag conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from memheat.coeffs import (
    CONVERGES,
    DIVERGES,
    CoefficientSpec,
    CumulativeIntegral,
    eval_coeff,
    integrate_improper,
    memory_window_check,
)
from memheat.criteria import (
    REGIME_BLOWUP_ALL,
    REGIME_BOUNDED_SMALL,
    REGIME_GLOBAL_ALL,
    REGIME_GLOBAL_SMALL,
    REGIME_INDETERMINATE,
    classify_regime,
    effective_flux,
    effective_flux_conditions,
    memory_moment_conditions,
    total_forcing_condition,
    weighted_memory_conditions,
)
from memheat.criteria import _log_weight, _Weight, _weight_growth
from memheat.errors import ConfigurationError

CONST1 = CoefficientSpec.constant(1.0)
ZERO = CoefficientSpec.constant(0.0)


def cond_ids(verdict):
    return [c.id for c in verdict.conditions]


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 5.0), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       st.sampled_from([(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (0.5, 0.8)]),
       st.booleans())
def test_verdicts_agree_across_coefficient_aliases(a, gamma, pq, alias_is_c):
    # constant / power gamma=0 / exp_decay lambda=0 / power_log depth 0
    # (and power / power_log depth 0 for gamma > 0) name the same function
    aliases = [CoefficientSpec.power(a, gamma), CoefficientSpec.power_log(a, gamma, 0),
               CoefficientSpec.power_log(a, gamma, 0, log_power=1.5)]
    if gamma == 0.0:
        aliases += [CoefficientSpec.constant(a), CoefficientSpec.exp_decay(a, 0.0)]
    other = CoefficientSpec.power(1.0, 3.0)
    seen = set()
    for alias in aliases:
        c, k = (alias, other) if alias_is_c else (other, alias)
        v = classify_regime(*pq, c, k)
        seen.add((v.regime, v.rule, tuple((x.id, x.outcome) for x in v.conditions)))
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# rule ladder

def test_global_all_small_exponents():
    v = classify_regime(0.5, 1.0, CONST1, CONST1)
    assert v.regime == REGIME_GLOBAL_ALL
    assert v.rule == "linear-growth-barrier"
    assert cond_ids(v) == ["max-exponent"]


def test_global_all_boundary_pair():
    assert classify_regime(1.0, 1.0, CONST1, CONST1).regime == REGIME_GLOBAL_ALL


def test_reaction_mass_blowup():
    v = classify_regime(2.0, 2.0, CONST1, ZERO)
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "reaction-mass-blowup"
    rc = [c for c in v.conditions if c.id == "reaction-integral"][0]
    assert rc.outcome == "holds" and rc.verdict.diverges


def test_memory_moment_blowup():
    # convergent reaction mass, divergent memory moment with tame envelope
    v = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                        CoefficientSpec.power(1.0, 2.0))
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "memory-moment-blowup"
    env = [c for c in v.conditions if c.id == "memory-envelope"][0]
    assert env.outcome == "holds"


def test_memory_moment_blowup_constant_flux():
    # k constant: envelope fails but the monotone alternative certifies
    v = classify_regime(3.0, 2.0, CoefficientSpec.exp_decay(1.0, 1.0), CONST1)
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "memory-moment-blowup"
    env = [c for c in v.conditions if c.id == "memory-envelope"][0]
    mono = [c for c in v.conditions if c.id == "memory-moment-monotone"][0]
    assert env.outcome == "fails" and mono.outcome == "holds"


def test_small_data_barrier():
    v = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                        CoefficientSpec.power(1.0, 3.0))
    assert v.regime == REGIME_BOUNDED_SMALL
    assert v.rule == "small-data-barrier"
    tf = [c for c in v.conditions if c.id == "total-forcing"][0]
    # int (1+t)^-2 + int t(1+t)^-3 = 1 + 1/2
    assert tf.verdict.value == pytest.approx(1.5, rel=1e-6)


def test_weighted_memory_blowup_borderline():
    # linear reaction c = 1/(1+t) against k = 1/((e+t)^3 ln(e+t)): the weighted
    # memory integrand decays exactly at the harmonic borderline -> divergence
    beta, q = 1.0, 2.0
    k = CoefficientSpec.power_log(1.0, beta * (q - 1.0) + 2.0, 1)
    v = classify_regime(1.0, q, CoefficientSpec.power(1.0, 1.0), k)
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "weighted-memory-blowup"


def test_exponential_factor_barrier_unbounded():
    # same harmonic reaction, flux smaller by one log power: global small data,
    # not bounded (the reaction integral diverges)
    omega, q = 1.0, 2.0
    k = CoefficientSpec.power_log(1.0, omega * (q - 1.0) + 2.0, 1, log_power=1.0)
    v = classify_regime(1.0, q, CoefficientSpec.power(1.0, 1.0), k)
    assert v.regime == REGIME_GLOBAL_SMALL
    assert v.rule == "exponential-factor-barrier"
    rt = [c for c in v.conditions if c.id == "reaction-integral"][-1]
    assert rt.outcome == "fails"


def test_exponential_factor_barrier_bounded():
    # p = 1 with integrable reaction and strongly decaying flux: bounded
    v = classify_regime(1.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                        CoefficientSpec.power(1.0, 3.0))
    assert v.regime == REGIME_BOUNDED_SMALL
    assert v.rule == "exponential-factor-barrier"


def test_indeterminate_uncovered_region():
    v = classify_regime(2.0, 0.5, CoefficientSpec.power(1.0, 2.0), CONST1)
    assert v.regime == REGIME_INDETERMINATE
    assert "uncovered" in v.notes


def test_classifier_input_validation():
    with pytest.raises(ConfigurationError):
        classify_regime(0.0, 1.0, CONST1, CONST1)
    with pytest.raises(ConfigurationError):
        classify_regime(1.0, -2.0, CONST1, CONST1)
    with pytest.raises(ConfigurationError):
        classify_regime(1.0, 2.0, 1.0, CONST1)


def test_k_scaling_monotonicity():
    # certification through a lower envelope survives replacing k by any
    # pointwise larger coefficient
    kl = CoefficientSpec.power(0.5, 2.0)
    base = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                           CoefficientSpec.power(1.0, 2.0), k_lower=kl)
    bigger = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                             CoefficientSpec.constant(5.0), k_lower=kl)
    assert base.regime == REGIME_BLOWUP_ALL
    assert bigger.regime == REGIME_BLOWUP_ALL
    assert base.rule == bigger.rule == "memory-moment-blowup"


# ---------------------------------------------------------------------------
# weighted conditions: reductions

@pytest.mark.parametrize("k", [
    CoefficientSpec.power(1.0, 2.0),
    CoefficientSpec.power(1.0, 3.0),
    CoefficientSpec.exp_decay(2.0, 1.0),
    CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]]),
])
def test_weighted_reduces_exactly_at_zero_reaction(k):
    res = weighted_memory_conditions(2.0, ZERO, k)
    base = integrate_improper(k, weight=1.0)
    assert res.blowup_integral.status == base.status
    assert res.blowup_integral.value == base.value


def test_effective_flux_reduces_exactly_at_zero_reaction():
    k = CoefficientSpec.power(1.0, 3.0)
    res = effective_flux_conditions(2.0, ZERO, k)
    base = integrate_improper(k, weight=1.0)
    assert res.flux_integral.status == base.status
    assert res.flux_integral.value == base.value
    direct = memory_window_check(k)
    assert res.window.k_sup == pytest.approx(direct.k_sup, rel=1e-12)
    assert res.window.holds == direct.holds


def test_effective_flux_window_overflow_is_not_stabilized():
    # constant reaction with q = 2: kappa grows like e^t and overflows a float
    # inside the probe range, so the window sup cannot have stabilized
    res = effective_flux_conditions(2.0, CONST1, CoefficientSpec.power(1.0, 4.0))
    assert math.isinf(res.window.k_sup)
    assert not res.window.holds


def test_effective_flux_grid_lane_overflow_is_not_stabilized():
    # off-lane c: kappa comes from the log-space grid and passes e^705 near
    # t = 240, where it must read inf, not a constant plateau; the flux
    # integral diverges in log-space numerics on C(t) and log_int_exp panels
    k = CoefficientSpec.exp_decay(1.0, 1e-3)

    def window(amplitude):
        c = CoefficientSpec.power_log(amplitude, 0.5, 1)
        res = effective_flux_conditions(10.0, c, k)
        assert res.flux_integral.status == DIVERGES
        assert res.flux_integral.evidence == ("log-space numerics: numeric: "
                                              "decade increments growing")
        return res.window

    big = window(10.0)
    assert not big.holds
    assert math.isinf(big.k_sup)
    assert not np.isnan(big.values).any()
    # amplitude 1 stays below the overflow: finite values, still not stabilized
    small = window(1.0)
    assert not small.holds
    assert np.isfinite(small.values).all()
    assert small.k_sup == pytest.approx(8.132901094461697e+113, rel=1e-9)


def test_effective_flux_window_at_zero_memory_is_the_plain_window():
    # kappa = t k exactly when k = 0, whatever lane c is on
    res = effective_flux_conditions(2.0, CoefficientSpec.power(1.0, 0.5), ZERO)
    plain = memory_window_check(ZERO)
    assert (res.window.k_sup, res.window.holds) == (plain.k_sup, plain.holds)
    np.testing.assert_array_equal(res.window.values, plain.values)


def _ln_leading_term(form, t):
    """ln of e^{exp_rate t} e^{stretch_rate t^stretch_pow} t^power prod ln_i(t)^logs[i]."""
    ln = form.exp_rate * t + form.stretch_rate * t ** form.stretch_pow + form.power * math.log(t)
    v = t
    for e in form.logs:
        v = math.log(v)
        ln += e * math.log(v)
    return ln


@pytest.mark.parametrize("c", [
    CoefficientSpec.constant(0.5),
    CoefficientSpec.power(1.0, 1.0),
    CoefficientSpec.power(0.7, 0.5),
    CoefficientSpec.power_log(1.0, 1.0, 1),
    CoefficientSpec.power_log(1.0, 1.0, 2),
], ids=["constant", "harmonic", "subharmonic", "log1", "log2"])
def test_weight_growth_forms_track_the_weights(c):
    # ln w - ln(leading term) tends to a constant.  Over t in [1e4, 1e6] it
    # moves by at most 0.16 (log lane, q = 3, bound weight: the 1/ln t
    # correction of int e^{rC}); a power exponent off by 0.1 moves it by
    # another 0.1 ln 100 = 0.46, so either sign of such an error fails
    cum = CumulativeIntegral(c)
    for q in (1.5, 3.0):
        for w in (_Weight.blowup(q), _Weight.bound(q), _Weight.flux(q)):
            form = _weight_growth(c, w)
            drift = [_log_weight(cum, w, t) - _ln_leading_term(form, t) for t in (1e4, 1e6)]
            assert abs(drift[1] - drift[0]) < 0.23, (q, w)


def test_weighted_constant_reaction_rate_balance():
    # c = 1: weight grows like e^{(q-1)t}; flux e^{-2qt} wins -> convergence
    q = 2.0
    res = weighted_memory_conditions(q, CONST1, CoefficientSpec.exp_decay(1.0, 2.0 * q))
    assert res.blowup_integral.status == CONVERGES
    # flux e^{-t/2} loses against e^{(q-1)t} = e^t -> divergence
    res2 = weighted_memory_conditions(q, CONST1, CoefficientSpec.exp_decay(1.0, 0.5))
    assert res2.blowup_integral.status == DIVERGES
    assert res2.monotone.holds  # e^{-2t} weight dominates the sampled values


def test_weighted_bounded_reaction_delegates():
    # int c < inf: weighted verdict must match the plain t-moment status
    c = CoefficientSpec.exp_decay(1.0, 1.0)
    for k, expected in [(CoefficientSpec.power(1.0, 2.0), DIVERGES),
                        (CoefficientSpec.power(1.0, 3.0), CONVERGES)]:
        res = weighted_memory_conditions(2.0, c, k)
        assert res.blowup_integral.status == expected


def test_weighted_numeric_fallback_stretched_growth():
    # c = (1+t)^-0.5 with an extra log factor sits outside every closed-form
    # lane; the log-space numerics must still detect the stretched divergence
    c = CoefficientSpec.power_log(1.0, 0.5, 1)
    res = weighted_memory_conditions(2.0, c, CoefficientSpec.power(1.0, 5.0))
    assert res.blowup_integral.status == DIVERGES
    assert "numeric" in res.blowup_integral.evidence


def test_weighted_envelope_overflow_is_not_bounded():
    # off every lane with tabulated k, the companion weight is sampled; at
    # q = 10 it passes e^709 before t = 1e3, and an overflow is not a bound
    c = CoefficientSpec.power_log(1.0, 0.5, 1)
    k = CoefficientSpec.tabulated([[0.0, 1.0], [1.0, 1.0]])
    res = weighted_memory_conditions(10.0, c, k)
    assert res.envelope.holds is False
    assert "inf" in res.envelope.evidence


def test_effective_flux_closed_forms_match_quadrature():
    q = 2.0
    k = CoefficientSpec.power(1.0, 3.0)
    for c in (CoefficientSpec.constant(0.7), CoefficientSpec.power(1.0, 1.0)):

        def C(t):
            if c.family == "constant":
                return 0.7 * t
            return math.log1p(t)

        kappa = effective_flux(c, k, q)
        for t in (0.5, 2.0, 7.0):
            inner, _ = integrate.quad(lambda s: math.exp(q * C(s)), 0.0, t)
            want = eval_coeff(k, t) * math.exp(-C(t)) * inner
            assert float(kappa(t)) == pytest.approx(want, rel=1e-9)


def _deleted_lane_kappa(c, k, q, ts):
    """The closed forms that effective_flux had for its two lanes, and the
    rounding of their subtraction, 2^-52 times the sum of the magnitudes."""
    A = c.amplitude
    with np.errstate(over="ignore", invalid="ignore"):
        if c.family == "constant":
            a, b = np.exp((q - 1.0) * A * ts), np.exp(-A * ts)
            kv = eval_coeff(k, ts) / (q * A)
        else:
            e = q * A
            a, b = (1.0 + ts) ** (e + 1.0), 1.0
            kv = eval_coeff(k, ts) * (1.0 + ts) ** (-A) / (e + 1.0)
        out, mag = kv * (a - b), kv * (a + b)
    return (np.nan_to_num(out, nan=0.0, posinf=np.inf),
            np.nan_to_num(mag, nan=0.0, posinf=np.inf))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 10.0), st.booleans(), st.floats(1.5, 10.0),
       st.sampled_from([CONST1, CoefficientSpec.exp_decay(2.0, 0.01),
                        CoefficientSpec.power(1.0, 3.0),
                        CoefficientSpec.tabulated([[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]])]),
       st.lists(st.one_of(st.floats(0.0, 2e4), st.floats(0.0, 1e-6)),
                min_size=1, max_size=30))
def test_effective_flux_lanes_match_the_deleted_closed_forms(A, harmonic, q, k, ts):
    # kappa = k e^{log_int_exp - C} on the constant and harmonic lanes.  The
    # times keep 1 + t exact and k is 0 or above 1e-87, so the reference's own
    # rounding is that of its subtraction; q >= 1.5 keeps the log-space
    # cancellation of q A t against A t within 1e-12 where kappa is finite
    c = CoefficientSpec.power(A, 1.0) if harmonic else CoefficientSpec.constant(A)
    ts = (1.0 + np.array(ts)) - 1.0
    want, mag = _deleted_lane_kappa(c, k, q, ts)
    got = effective_flux(c, k, q)(ts)
    both = np.isfinite(want) & np.isfinite(got)
    assert np.all(np.isfinite(got) | ~np.isfinite(want))
    got, want, mag = got[both], want[both], mag[both]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 2.0 ** -52 * mag)


def test_effective_flux_grid_lane_matches_quadrature():
    # c = (1+t)^-1/2 forces the dense-grid lane
    q, A = 2.0, 1.0
    c = CoefficientSpec.power(A, 0.5)
    k = CoefficientSpec.power(1.0, 3.0)

    def C(t):
        return 2.0 * A * (math.sqrt(1.0 + t) - 1.0)

    kappa = effective_flux(c, k, q)
    for t in (1.0, 5.0, 20.0):
        inner, _ = integrate.quad(lambda s: math.exp(q * C(s)), 0.0, t)
        want = eval_coeff(k, t) * math.exp(-C(t)) * inner
        assert float(kappa(t)) == pytest.approx(want, rel=2e-3)


def test_effective_flux_window_decaying_holds():
    res = effective_flux_conditions(2.0, CoefficientSpec.power(1.0, 1.0),
                                    CoefficientSpec.power_log(1.0, 3.0, 1, log_power=1.0))
    assert res.flux_integral.status == CONVERGES
    assert res.window.holds
    assert res.reaction_tail.status == DIVERGES


def test_reaction_tail_value_frozen():
    res = effective_flux_conditions(2.0, CoefficientSpec.power(1.0, 2.0),
                                    CoefficientSpec.power(1.0, 3.0))
    # int_0^inf (1+t)^-2 dt = 1
    assert res.reaction_tail.value == pytest.approx(1.0, rel=1e-6)


def test_total_forcing_divergent_part():
    v = total_forcing_condition(CONST1, ZERO)
    assert v.diverges and "reaction" in v.evidence
    v2 = total_forcing_condition(ZERO, CONST1)
    assert v2.diverges and "moment" in v2.evidence


def test_memory_moment_conditions_guard():
    with pytest.raises(ConfigurationError):
        memory_moment_conditions(1.0, CONST1)
    with pytest.raises(ConfigurationError):
        weighted_memory_conditions(0.5, CONST1, CONST1)
    with pytest.raises(ConfigurationError):
        effective_flux_conditions(1.0, CONST1, CONST1)


# ---------------------------------------------------------------------------
# disjointness of certified rules

SCAN = [
    (2.0, 2.0, CoefficientSpec.constant(1.0), ZERO),
    (2.0, 2.0, CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 2.0)),
    (2.0, 2.0, CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 3.0)),
    (3.0, 1.5, CoefficientSpec.exp_decay(1.0, 1.0), CoefficientSpec.constant(0.5)),
    (1.0, 2.0, CoefficientSpec.power(1.0, 1.0),
     CoefficientSpec.power_log(1.0, 3.0, 1)),
    (1.0, 2.0, CoefficientSpec.power(1.0, 1.0),
     CoefficientSpec.power_log(1.0, 3.0, 1, log_power=1.0)),
    (1.0, 2.0, CoefficientSpec.power(1.0, 2.0), CoefficientSpec.power(1.0, 3.0)),
    (1.0, 3.0, CoefficientSpec.constant(1.0), CoefficientSpec.exp_decay(1.0, 12.0)),
    (0.5, 1.0, CoefficientSpec.constant(1.0), CoefficientSpec.constant(1.0)),
    (2.0, 0.5, CoefficientSpec.power(1.0, 2.0), CoefficientSpec.constant(1.0)),
]


def _blowup_certified(p, q, c, k):
    if p > 1.0 and integrate_improper(c).diverges:
        return True
    if q > 1.0:
        mm = memory_moment_conditions(q, k)
        if mm.moment.diverges and (mm.envelope.holds or mm.monotone.holds):
            return True
    if p == 1.0 and q > 1.0:
        wm = weighted_memory_conditions(q, c, k)
        if wm.blowup_integral.diverges and (wm.envelope.holds or wm.monotone.holds):
            return True
    return False


def _small_data_certified(p, q, c, k):
    if min(p, q) > 1.0:
        if total_forcing_condition(c, k).converges and memory_window_check(k).holds:
            return True
    if p == 1.0 and q > 1.0:
        ef = effective_flux_conditions(q, c, k)
        if ef.flux_integral.converges and ef.window.holds:
            return True
    return False


def test_certified_rules_disjoint_on_scan():
    for p, q, c, k in SCAN:
        assert not (_blowup_certified(p, q, c, k)
                    and _small_data_certified(p, q, c, k)), (p, q, c, k)


def test_classifier_consistent_with_direct_checks():
    for p, q, c, k in SCAN:
        v = classify_regime(p, q, c, k)
        if v.regime == REGIME_BLOWUP_ALL:
            assert _blowup_certified(p, q, c, k)
        if v.regime in (REGIME_GLOBAL_SMALL, REGIME_BOUNDED_SMALL):
            assert _small_data_certified(p, q, c, k)
