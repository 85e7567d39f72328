"""Regime classifier: rule ladder, weighted reductions, and flag conditions."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from memheat.constructions import build_th2_supersolution
from memheat.criteria import _Weight, _weight_growth
from memheat.errors import ConfigurationError, NotApplicableError
from memheat.ode_oracle import check_th0_criterion
from memheat.pde_core import InitialSpec, Scenario

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
        seen.add((v.regime, v.rule, tuple((x.id, x.holds) for x in v.conditions)))
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
    assert rc.holds and rc.verdict.diverges


def test_memory_moment_blowup():
    # convergent reaction mass, divergent memory moment with tame envelope
    v = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0),
                        CoefficientSpec.power(1.0, 2.0))
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "memory-moment-blowup"
    env = [c for c in v.conditions if c.id == "memory-envelope"][0]
    assert env.holds


def test_memory_moment_blowup_constant_flux():
    # k constant: envelope fails but the monotone alternative certifies
    v = classify_regime(3.0, 2.0, CoefficientSpec.exp_decay(1.0, 1.0), CONST1)
    assert v.regime == REGIME_BLOWUP_ALL
    assert v.rule == "memory-moment-blowup"
    env = [c for c in v.conditions if c.id == "memory-envelope"][0]
    mono = [c for c in v.conditions if c.id == "memory-moment-monotone"][0]
    assert not env.holds and mono.holds


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
    assert not rt.holds


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
    blow, _, _ = weighted_memory_conditions(2.0, ZERO, k)
    base = integrate_improper(k, weight=1.0)
    assert blow.id == "weighted-memory"
    assert blow.verdict.status == base.status
    assert blow.verdict.value is None


def test_effective_flux_reduces_exactly_at_zero_reaction():
    k = CoefficientSpec.power(1.0, 3.0)
    flux, window, _ = effective_flux_conditions(2.0, ZERO, k)
    base = integrate_improper(k, weight=1.0)
    assert flux.verdict.status == base.status
    assert flux.verdict.value is None
    direct = memory_window_check(k)
    win = memory_window_check(k, flux=effective_flux(ZERO, k, 2.0))
    assert win.k_sup == pytest.approx(direct.k_sup, rel=1e-12)
    assert win.holds == direct.holds == window.holds


def test_effective_flux_window_overflow_is_not_stabilized():
    # constant reaction with q = 2: kappa grows like e^t and overflows a float
    # inside the probe range, so the window sup cannot have stabilized
    k = CoefficientSpec.power(1.0, 4.0)
    win = memory_window_check(k, flux=effective_flux(CONST1, k, 2.0))
    assert math.isinf(win.k_sup)
    assert not win.holds
    _, window, _ = effective_flux_conditions(2.0, CONST1, k)
    assert not window.holds
    assert window.evidence.startswith("windowed effective flux sup inf on the probes")


def test_effective_flux_grid_lane_overflow_is_not_stabilized():
    # off-lane c: kappa comes from the log-space grid and passes e^705 near
    # t = 240, where it must read inf, not a constant plateau; kappa's growth
    # form is bounded, as e^{-t/1000} beats the stretch e^{9 C}, and the flux
    # integral converges for the same reason
    k = CoefficientSpec.exp_decay(1.0, 1e-3)

    def window(amplitude):
        c = CoefficientSpec.power_log(amplitude, 0.5, 1)
        flux, window, _ = effective_flux_conditions(10.0, c, k)
        assert flux.verdict.status == CONVERGES
        assert flux.evidence == ("weighted growth-form reduction: "
                                 "exponential decay rate -0.001")
        win = memory_window_check(k, flux=effective_flux(c, k, 10.0))
        assert window.holds == win.holds
        return win

    big = window(10.0)
    assert not big.holds
    assert math.isinf(big.k_sup)
    assert not np.isnan(big.values).any()
    # amplitude 1 stays below the overflow: finite values, a bounded window
    small = window(1.0)
    assert small.holds
    assert np.isfinite(small.values).all()
    assert small.k_sup == pytest.approx(8.132901094461697e+113, rel=1e-9)


def test_effective_flux_window_sum_past_the_float_range_fails_quietly():
    # finite kappa values whose window sum passes the float range: the sup
    # is inf, without an overflow warning
    spec = CoefficientSpec.power_log(2.2222832706920586, 0.1523892675354173, 2,
                                     1.0091248264704185)
    _, window, _ = effective_flux_conditions(9.17708526409792, spec, spec)
    assert not window.holds
    assert window.evidence.startswith("windowed effective flux sup inf on the probes")


def test_effective_flux_window_at_zero_memory_is_the_plain_window():
    # kappa = t k exactly when k = 0, whatever lane c is on
    c = CoefficientSpec.power(1.0, 0.5)
    win = memory_window_check(ZERO, flux=effective_flux(c, ZERO, 2.0))
    plain = memory_window_check(ZERO)
    assert (win.k_sup, win.holds) == (plain.k_sup, plain.holds)
    np.testing.assert_array_equal(win.values, plain.values)
    _, window, _ = effective_flux_conditions(2.0, c, ZERO)
    assert window.holds == plain.holds


def _ln_leading_term(form, t):
    """ln of e^{exp_rate t} e^{stretch_rate t^stretch_pow} t^power prod ln_i(t)^logs[i]."""
    ln = form.exp_rate * t + form.stretch_rate * t ** form.stretch_pow + form.power * math.log(t)
    v = t
    for e in form.logs:
        v = math.log(v)
        ln += e * math.log(v)
    return ln


def _log_weight(cum, w, t):
    """ln w(t) as the log-space numerics evaluated it, before every weight
    was judged by its growth form."""
    return w.a * math.log(t) - w.m * cum(t) + w.n * cum.log_int_exp(t, w.r)


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


def test_weight_rate_keeps_its_sign_where_it_underflows():
    # q = 1.5, c = 5e-324: x A = 0.5 * 5e-324 rounds to 0, but e^{C/2} still
    # beats every power of t
    form = _weight_growth(CoefficientSpec.constant(5e-324), _Weight.blowup(1.5))
    assert form.exp_rate > 0.0
    stretch = _weight_growth(CoefficientSpec.power(5e-324, 0.5), _Weight.blowup(1.5))
    assert stretch.stretch_rate > 0.0
    v = classify_regime(1.0, 1.5, CoefficientSpec.constant(5e-324),
                        CoefficientSpec.power(1.0, 9.0))
    assert (v.regime, v.rule) == (REGIME_BLOWUP_ALL, "weighted-memory-blowup")


def test_reaction_power_just_past_harmonic_has_finite_mass():
    # int (1+t)^-(1 + 5e-13) = 2e12 converges: the reaction mass is finite,
    # so this is no reaction-mass blow-up (it once read as the harmonic
    # borderline)
    c = CoefficientSpec.power(1.0, 1.0 + 5e-13)
    v = classify_regime(2.0, 2.0, c, CoefficientSpec.power(1.0, 3.0))
    assert v.regime != REGIME_BLOWUP_ALL
    rc = [x for x in v.conditions if x.id == "reaction-integral"][0]
    assert rc.verdict.converges and not rc.holds


def test_reaction_power_just_off_harmonic_takes_no_harmonic_lane():
    # gamma = 1 + 5e-13 has a convergent int c, so the flux weight is t up
    # to constants and kappa ~ t k = t^-1.5 (the harmonic lane once gave
    # t^-0.5); gamma = 1 - 5e-13 stretches C ~ t^(5e-13) / 5e-13
    k = CoefficientSpec.power(1.0, 2.5)
    assert effective_flux(CoefficientSpec.power(1.0, 1.0 + 5e-13), k, 2.0).form.power == -1.5
    g = 1.0 - 5e-13
    form = _weight_growth(CoefficientSpec.power(1.0, g), _Weight.flux(2.0))
    assert form.stretch_rate > 0.0 and form.stretch_pow == 1.0 - g


def test_max_exponent_evidence_never_reads_as_one():
    v = classify_regime(1.0 + 1e-9, 0.5, CONST1, CONST1)
    assert v.conditions[0].evidence == "max(p, q) = 1.000000001 > 1"
    v = classify_regime(1.0, 0.5, CONST1, CONST1)
    assert v.conditions[0].evidence == "max(p, q) = 1 <= 1"


def test_weighted_constant_reaction_rate_balance():
    # c = 1: weight grows like e^{(q-1)t}; flux e^{-2qt} wins -> convergence
    q = 2.0
    blow, _, _ = weighted_memory_conditions(q, CONST1, CoefficientSpec.exp_decay(1.0, 2.0 * q))
    assert blow.verdict.status == CONVERGES
    # flux e^{-t/2} loses against e^{(q-1)t} = e^t -> divergence
    blow2, _, monotone2 = weighted_memory_conditions(q, CONST1,
                                                     CoefficientSpec.exp_decay(1.0, 0.5))
    assert blow2.verdict.status == DIVERGES
    assert monotone2.holds  # e^{-2t} weight dominates the sampled values


def test_weighted_bounded_reaction_delegates():
    # int c < inf: weighted verdict must match the plain t-moment status
    c = CoefficientSpec.exp_decay(1.0, 1.0)
    for k, expected in [(CoefficientSpec.power(1.0, 2.0), DIVERGES),
                        (CoefficientSpec.power(1.0, 3.0), CONVERGES)]:
        blow, _, _ = weighted_memory_conditions(2.0, c, k)
        assert blow.verdict.status == expected


def test_weighted_numeric_fallback_stretched_growth():
    # c = (1+t)^-0.5 with an extra log factor: C(t) ~ 2 t^0.5 / ln t, a
    # stretch that its log factor slows but does not stop, so the blow-up
    # weight e^{(q-1) C} beats every power of t
    c = CoefficientSpec.power_log(1.0, 0.5, 1)
    blow, _, _ = weighted_memory_conditions(2.0, c, CoefficientSpec.power(1.0, 5.0))
    assert blow.verdict.status == DIVERGES
    assert blow.evidence == (
        "weighted growth-form reduction: stretched-exponential growth ~ exp(2 t^0.5)")


def test_weighted_envelope_overflow_is_not_bounded():
    # off every lane with tabulated k, the companion weight grows like
    # e^{9 C} (it passes e^709 before t = 1e3): not a bound
    c = CoefficientSpec.power_log(1.0, 0.5, 1)
    k = CoefficientSpec.tabulated([[0.0, 1.0], [1.0, 1.0]])
    _, envelope, _ = weighted_memory_conditions(10.0, c, k)
    assert envelope.holds is False
    assert envelope.evidence == ("weighted growth-form reduction: "
                                 "companion weight unbounded")


# ---------------------------------------------------------------------------
# off-lane c: stretches the decade numerics and the samplers misread

def test_slow_stretch_weighted_integral_diverges():
    # C(t) ~ 10 t^0.1 / ln t grows without bound, so the blow-up weight,
    # which grows like e^{C/2}, beats k = (1+t)^-5; decade numerics up to
    # t = 1e9 saw flat increments
    blow, _, _ = weighted_memory_conditions(1.5, CoefficientSpec.power_log(1.0, 0.9, 1),
                                            CoefficientSpec.power(1.0, 5.0))
    assert blow.verdict.status == DIVERGES
    assert blow.evidence == (
        "weighted growth-form reduction: stretched-exponential growth ~ exp(5 t^0.1)")


def test_exponential_decay_beats_a_stretched_weight():
    # e^{-t/1000} beats e^{2 C} with C ~ 2 t^0.5 / (ln t ln_2^2 t); decade
    # numerics to 1e9 saw the weight's growth before the decay took over
    blow, _, _ = weighted_memory_conditions(3.0, CoefficientSpec.power_log(1.0, 0.5, 2, 1.0),
                                            CoefficientSpec.exp_decay(1.0, 1e-3))
    assert blow.verdict.status == CONVERGES
    assert blow.evidence == ("weighted growth-form reduction: "
                             "exponential decay rate -0.001")


def test_memory_window_of_a_late_rise_fails():
    # k is 0 on every probe time and 1 past t = 1e5: t k is unbounded, and
    # the product barrier that the window gates is refused
    k = CoefficientSpec.tabulated([[0.0, 0.0], [1e4, 0.0], [1e5, 1.0]])
    win = memory_window_check(k)
    assert not win.holds and win.k_sup == 0.0
    scn = Scenario(length=1.0, p=2.0, q=2.0, c=CoefficientSpec.power(1.0, 2.0),
                   k=k, u0=InitialSpec("constant", 0.05))
    with pytest.raises(NotApplicableError):
        build_th2_supersolution(scn, 1.0)


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
    flux, window, tail = effective_flux_conditions(
        2.0, CoefficientSpec.power(1.0, 1.0),
        CoefficientSpec.power_log(1.0, 3.0, 1, log_power=1.0))
    assert flux.verdict.status == CONVERGES
    assert window.holds
    assert tail.verdict.status == DIVERGES


def test_reaction_tail_value_frozen():
    _, _, tail = effective_flux_conditions(2.0, CoefficientSpec.power(1.0, 2.0),
                                           CoefficientSpec.power(1.0, 3.0))
    # int_0^inf (1+t)^-2 dt = 1
    assert tail.id == "reaction-integral"
    assert tail.verdict.value == pytest.approx(1.0, rel=1e-6)


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
# tables judged by their tail

def test_table_reaction_with_finite_mass_is_not_mass_blowup():
    # int c = 2e9 + 0.5e9 is finite; decade numerics up to 1e9 saw only
    # growing increments and certified reaction-mass blow-up
    c = CoefficientSpec.tabulated([[0.0, 1.0], [2e9, 1.0], [3e9, 0.0]])
    v = classify_regime(2.0, 2.0, c, CoefficientSpec.power(1.0, 3.0))
    assert (v.regime, v.rule) == (REGIME_BOUNDED_SMALL, "small-data-barrier")
    tf = total_forcing_condition(c, CoefficientSpec.power(1.0, 3.0))
    assert tf.value == pytest.approx(2.5e9 + 0.5, rel=1e-12)


def test_table_memory_that_rises_past_the_data_blows_up():
    # k = 1 for t >= 1e5; decade numerics saw k = 0 on [1, 1e4] and read a
    # vanishing tail, and sampling saw the rise and failed both alternatives
    k = CoefficientSpec.tabulated([[0.0, 0.0], [1e4, 0.0], [1e5, 1.0]])
    v = classify_regime(2.0, 2.0, CoefficientSpec.power(1.0, 2.0), k)
    assert (v.regime, v.rule) == (REGIME_BLOWUP_ALL, "memory-moment-blowup")
    holds = {r.id: r.holds for r in v.conditions}
    assert holds["memory-moment"]
    assert not holds["memory-envelope"]
    assert holds["memory-moment-monotone"]


# The reference below is the sampling and decade numerics that judged
# tables, and the two monotone alternatives of every family, before each
# tail was read off `CoefficientSpec.eventual`.  Table values before the
# last are at least 1e-2: a zero stretch inside the data reads as a
# vanishing tail to the decade protocol (the test above), and a tail under
# 1e-12 reads as bounded to `_old_sup_stabilized`'s absolute tolerance.
_OLD_TS = np.geomspace(1e3, 1e7, 400)
_INDETERMINATE = "Indeterminate"  # the decade protocol's third status


def _old_sup_stabilized(times, values):
    """Whether sampled values are finite and their last decade adds at most
    0.1% to the sup of the earlier ones: how windows and envelopes were
    judged before each was read off a growth form."""
    early = values[times <= times[-1] / 10.0].max()
    return bool(np.isfinite(values).all()
                and values.max() <= early * (1.0 + 1e-3) + 1e-12 * (1.0 + abs(early)))


def _quad(f, a, b):
    """quad's value of f over [a, b], its warnings silenced, as the decade
    protocol took it."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(lambda t: float(f(t)), a, b, limit=200)[0]


def _old_decade_status(f):
    """The status the decade protocol gave int_0^inf f: quad over [0, 1]
    and the decades [1, 10], ..., [1e8, 1e9], judged by how the decade
    increments shrink.  How integrals off the closed forms were judged
    before each was read off a growth form."""
    tiny = 1e-300
    total = _quad(f, 0.0, 1.0)
    incs = []
    for e in range(9):
        inc = _quad(f, 10.0 ** e, 10.0 ** (e + 1))
        if not math.isfinite(inc):
            return DIVERGES
        incs.append(inc)
        total += inc
        if len(incs) >= 2:
            prev = incs[-2]
            if abs(inc) <= tiny and abs(prev) <= tiny:
                return CONVERGES
            if abs(inc) / max(abs(total), tiny) < 1e-6 and inc <= prev:
                return CONVERGES
        rs = [b / a for a, b in zip(incs[-4:-1], incs[-3:]) if a > tiny]
        if len(incs) >= 4 and len(rs) == 3 and min(rs) >= 1.2:
            return DIVERGES
    if len(rs) == 3:
        if min(rs) >= 0.999 or rs[-1] > 1.0:
            return DIVERGES
        if max(rs) < 0.9 and max(rs) - min(rs) < 0.005:
            return CONVERGES
    return _INDETERMINATE


def _old_nonincreasing(values):
    v = np.asarray(values, dtype=float)
    return bool(np.isfinite(v).all()
                and np.all(np.diff(v) <= 1e-9 * np.maximum(v[:-1], 1e-300)))


def _old_th0_alternatives(b, q):
    """(alt_bounded, alt_monotone) as sampled for a table at a = 0."""
    rs = np.geomspace(1e3, 1e5, 241)
    vals = eval_coeff(b, rs)
    return _old_nonincreasing(rs ** (q + 1.0) * vals), _old_nonincreasing(vals)


@st.composite
def _tables(draw):
    times = draw(st.lists(st.floats(0.0, 999.0), min_size=1, max_size=6,
                          unique=True))
    values = draw(st.lists(st.floats(1e-2, 10.0), min_size=len(times),
                           max_size=len(times)))
    values[-1] = draw(st.one_of(st.just(0.0), st.floats(1e-2, 10.0)))
    return CoefficientSpec.tabulated(list(zip(sorted(times), values)),
                                     amplitude=draw(st.floats(0.1, 10.0)))


_AMPS = st.floats(0.0, 10.0)
_SPECS = st.one_of(
    st.builds(CoefficientSpec.constant, _AMPS),
    st.builds(CoefficientSpec.power, _AMPS, st.floats(0.0, 6.0)),
    st.builds(CoefficientSpec.exp_decay, _AMPS, st.floats(0.0, 2.0)),
    st.builds(CoefficientSpec.power_log, _AMPS, st.floats(0.0, 4.0),
              st.integers(0, 3), st.floats(0.0, 3.0)),
    _tables())


@settings(max_examples=150, deadline=None)
@given(_SPECS, _SPECS, st.floats(1.0, 20.0, exclude_min=True))
def test_closed_form_tail_judgements_match_the_old_sampled_ones(k, c, q):
    with np.errstate(all="ignore"):
        mm_old = _old_nonincreasing(_OLD_TS ** (1.0 - q) * eval_coeff(k, _OLD_TS))
        wm_old = _old_nonincreasing(np.exp(
            (1.0 - q) * np.log(_OLD_TS) - 2.0 * CumulativeIntegral(c)(_OLD_TS)
            + np.log(eval_coeff(k, _OLD_TS))))
    assert memory_moment_conditions(q, k)[2].holds is mm_old
    assert weighted_memory_conditions(q, c, k)[2].holds is wm_old
    rep = check_th0_criterion(k, q)
    if k.family != "tabulated":
        return
    assert (rep.alt_bounded, rep.alt_monotone) == _old_th0_alternatives(k, q)
    envelope = _old_sup_stabilized(_OLD_TS, _OLD_TS ** 2 * eval_coeff(k, _OLD_TS))
    assert memory_moment_conditions(q, k)[1].holds is envelope
    for weight in (0.0, 1.0, q):
        old = _old_decade_status(
            lambda t: np.asarray(t, dtype=float) ** weight * eval_coeff(k, t))
        if old != _INDETERMINATE:
            assert integrate_improper(k, weight=weight).status == old


def test_tables_are_judged_without_sampling_or_decade_numerics(monkeypatch):
    # a table is valued by the panel rule over its nodes: no quad at all
    def refuse(*args, **kwargs):
        raise AssertionError("quad")
    monkeypatch.setattr(integrate, "quad", refuse)
    tables = [CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]]),
              CoefficientSpec.tabulated([[0.0, 0.0], [1e4, 0.0], [1e5, 1.0]]),
              CoefficientSpec.tabulated([[0.0, 1.0], [2e9, 1.0], [3e9, 0.0]])]
    for c in tables:
        for k in tables:
            for p in (1.0, 2.0):
                for q in (2.0, 3.0):
                    classify_regime(p, q, c, k)
    for b in tables:
        check_th0_criterion(b, 2.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("depth", [1, 2])
def test_off_lane_reaction_is_judged_without_decade_numerics(gamma, depth):
    # every condition on an off-lane c is read off growth forms: the
    # weighted integrals, the envelope and both windows
    ks = [CONST1, CoefficientSpec.power(1.0, 3.0), CoefficientSpec.exp_decay(1.0, 0.5),
          CoefficientSpec.power_log(1.0, 3.0, 1, log_power=1.0),
          CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]])]
    for c in (CoefficientSpec.power_log(1.0, gamma, depth),
              CoefficientSpec.power_log(0.2, gamma, depth, log_power=1.0)):
        for k in ks:
            for p in (1.0, 2.0):
                v = classify_regime(p, 2.0, c, k)
                assert all(isinstance(r.holds, bool) for r in v.conditions), (c, k, p)


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


_BLOWUP_RULES = {"reaction-mass-blowup", "memory-moment-blowup", "weighted-memory-blowup"}


def _certified_rules(p, q, c, k):
    """The ladder's rules whose hypotheses hold, each checked on its own."""
    rules = set()
    if max(p, q) <= 1.0:
        rules.add("linear-growth-barrier")
    if p > 1.0 and integrate_improper(c).diverges:
        rules.add("reaction-mass-blowup")
    if q > 1.0:
        moment, envelope, monotone = memory_moment_conditions(q, k)
        if moment.holds and (envelope.holds or monotone.holds):
            rules.add("memory-moment-blowup")
    if p == 1.0 and q > 1.0:
        blow, envelope, monotone = weighted_memory_conditions(q, c, k)
        if blow.holds and (envelope.holds or monotone.holds):
            rules.add("weighted-memory-blowup")
    if min(p, q) > 1.0:
        if total_forcing_condition(c, k).converges and memory_window_check(k).holds:
            rules.add("small-data-barrier")
    if p == 1.0 and q > 1.0:
        flux, window, _ = effective_flux_conditions(q, c, k)
        if flux.holds and window.holds:
            rules.add("exponential-factor-barrier")
    return rules


def _tiny(spec, amplitude):
    return dataclasses.replace(spec, amplitude=amplitude)


_SCAN_EXAMPLES = [example(*case) for case in SCAN] + [
    # a weight rate of 1e-15 once read as no rate, so both outcomes held
    example(1.0, 2.0, CoefficientSpec.constant(1e-15), CoefficientSpec.power(1.0, 2.0))]


def _ladder_draws(test):
    """About 150 derandomized (p, q, c, k) draws, p = 1 and c amplitudes down
    to 5e-324 among them, plus the SCAN cases as examples."""
    for ex in reversed(_SCAN_EXAMPLES):
        test = ex(test)
    return settings(max_examples=150, deadline=None, derandomize=True)(given(
        st.one_of(st.just(1.0), st.floats(0.1, 4.0)),
        st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(0.1, 10.0)),
        st.one_of(_SPECS, st.builds(_tiny, _SPECS, st.floats(5e-324, 1e-9))),
        _SPECS)(test))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_SPECS, _SPECS, st.one_of(st.sampled_from([1.5, 2.0, 3.0]),
                                 st.floats(1.0, 20.0, exclude_min=True)))
def test_bounded_reaction_weights_reduce_to_the_t_moment(c, k, q):
    # with C bounded (int c converges, or c = 0) every p = 1 weight is t^{a+n}
    # up to constants: both weighted integrals judge as the t-moment of k,
    # and the companion bound as t^2 k
    assume(c.is_zero or integrate_improper(c).converges)
    moment = integrate_improper(k, weight=1.0).status
    blow, envelope, _ = weighted_memory_conditions(q, c, k)
    flux = effective_flux_conditions(q, c, k)[0]
    assert blow.verdict.status == flux.verdict.status == moment
    assert envelope.holds == memory_moment_conditions(q, k)[1].holds


@_ladder_draws
def test_certified_rules_disjoint_on_scan(p, q, c, k):
    # no data certifies both a blow-up rule and a small-data rule
    rules = _certified_rules(p, q, c, k)
    assert not (rules & _BLOWUP_RULES and rules - _BLOWUP_RULES), rules


@_ladder_draws
def test_classifier_consistent_with_direct_checks(p, q, c, k):
    # the verdict's rule is certified, and a certified rule is never left
    # for Indeterminate
    v = classify_regime(p, q, c, k)
    rules = _certified_rules(p, q, c, k)
    if v.regime == REGIME_INDETERMINATE:
        assert not rules, rules
    else:
        assert v.rule in rules, (v.rule, rules)
