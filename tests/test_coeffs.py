"""Coefficient families, iterated logs, and improper-integral verdicts."""

import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from memheat import coeffs
from memheat.coeffs import (
    CONVERGES,
    DIVERGES,
    ZERO,
    CoefficientSpec,
    CumulativeIntegral,
    Flux,
    GrowthForm,
    coefficient_sup,
    eval_coeff,
    form_bounded,
    growth_form,
    harmonic_lane,
    integrate_improper,
    log_lane,
    log_tower,
    memory_window_check,
    spec_from_json,
    spec_to_json,
    tail_verdict,
)
from memheat.criteria import effective_flux
from memheat.errors import ConfigurationError, DomainError, NotApplicableError

E = math.e


# ---------------------------------------------------------------------------
# iterated logarithms

def test_log_tower_values():
    assert log_tower(0) == 1.0
    assert log_tower(1) == pytest.approx(E)
    assert log_tower(2) == pytest.approx(math.exp(E))


def test_iterated_log_values():
    # ln_2(e^e) = ln(ln(e^e)) = ln(e) = 1, with l_2(e^e) = e * 1
    assert coeffs._log_chain(math.exp(E), 2, np.log) == pytest.approx((1.0, E))
    assert coeffs._log_chain(E**3, 1, np.log) == pytest.approx((3.0, 3.0))
    assert coeffs._log_chain(5.0, 0, np.log) == (5.0, 1.0)


# ---------------------------------------------------------------------------
# coefficient evaluation

def test_constant_and_power_eval():
    c = CoefficientSpec.constant(2.5)
    assert eval_coeff(c, 0.0) == 2.5
    assert c(7.0) == 2.5
    p = CoefficientSpec.power(3.0, 2.0)
    assert p(1.0) == pytest.approx(0.75)
    np.testing.assert_allclose(p(np.array([0.0, 1.0])), [3.0, 0.75])


def test_exp_decay_eval():
    k = CoefficientSpec.exp_decay(2.0, 0.5)
    assert k(2.0) == pytest.approx(2.0 * math.exp(-1.0))


def test_power_log_eval_frozen():
    # depth 1, gamma 2, log_power 0, at t = e^2 - e:
    # value = 1 / ((e + t)^2 * ln(e + t)) = 1 / (e^4 * 2)
    c = CoefficientSpec.power_log(1.0, 2.0, 1)
    assert c(E**2 - E) == pytest.approx(1.0 / (2.0 * E**4), rel=1e-12)


def test_power_log_depth_zero_matches_power():
    a = CoefficientSpec.power_log(2.0, 1.5, 0, log_power=3.0)
    b = CoefficientSpec.power(2.0, 1.5)
    ts = np.linspace(0.0, 50.0, 7)
    # with no log factors the shift T_0 = 1 reproduces (1+t)^(-gamma)
    np.testing.assert_allclose(eval_coeff(a, ts), eval_coeff(b, ts), rtol=1e-14)


def test_tabulated_eval_and_extrapolation():
    k = CoefficientSpec.tabulated([[1.0, 2.0], [3.0, 4.0]])
    assert k(0.0) == 2.0      # constant extrapolation left
    assert k(2.0) == 3.0      # linear interior
    assert k(10.0) == 4.0     # constant extrapolation right
    k2 = CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]], amplitude=2.0)
    assert k2(2.5) == pytest.approx(1.0)


def test_tabulated_eval_finite_between_close_nodes():
    # nodes closer than the value step over DBL_MAX: a slope would overflow
    k = CoefficientSpec.tabulated([[0.0, 0.0], [2.2250738585072014e-308, 4.0]])
    t = 1.1125369292536007e-308
    assert eval_coeff(k, t) == 2.0
    np.testing.assert_array_equal(k(np.array([0.0, t, 1.0])), [0.0, 2.0, 4.0])
    assert eval_coeff(CoefficientSpec.tabulated(k.table, amplitude=0.0), t) == 0.0


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        eval_coeff(CoefficientSpec.constant(1.0), -0.1)


_amplitudes = st.floats(0.0, 1e3)
_exponents = st.floats(0.0, 5.0)
_tables = st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 10.0)),
                   min_size=1, max_size=6, unique_by=lambda row: row[0])
_specs = st.one_of(
    st.builds(CoefficientSpec.constant, _amplitudes),
    st.builds(CoefficientSpec.power, _amplitudes, _exponents),
    st.builds(CoefficientSpec.exp_decay, _amplitudes, _exponents),
    st.builds(CoefficientSpec.power_log, _amplitudes, _exponents,
              st.integers(0, 3), st.floats(0.0, 3.0)),
    st.builds(lambda rows, a: CoefficientSpec.tabulated(sorted(rows), amplitude=a),
              _tables, _amplitudes),
)


@settings(max_examples=400, deadline=None)
@given(_specs, st.floats(0.0, 1e6))
def test_compiled_scalar_evaluator_matches_array_path(spec, t):
    want = eval_coeff(spec, np.array([t]))[0]
    assert math.isclose(eval_coeff(spec, t), want, rel_tol=1e-14, abs_tol=1e-300)


@settings(max_examples=100, deadline=None)
@given(_specs, st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
def test_compiled_scalar_evaluator_rejects_negative_time(spec, t):
    with pytest.raises(DomainError):
        eval_coeff(spec, t)


def test_compiled_scalar_evaluator_is_built_on_first_use():
    spec = CoefficientSpec.power_log(1.0, 2.0, 1, 1.0)
    assert "_scalar_law" not in vars(spec)
    spec(0.5)
    assert "_scalar_law" in vars(spec)
    assert spec == CoefficientSpec.power_log(1.0, 2.0, 1, 1.0)


_INTEGER_PARAMETER_SPECS = [
    CoefficientSpec.constant(2), CoefficientSpec.power(3, 2),
    CoefficientSpec.exp_decay(2, 1), CoefficientSpec.power_log(2, 1, 2, 1),
    CoefficientSpec.tabulated([[0, 1], [2, 3]], amplitude=2),
]


@pytest.mark.parametrize("spec", _INTEGER_PARAMETER_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("t", [0.0, 0.7, 3, np.float64(0.7), 1e300, math.nan],
                         ids=["zero", "float", "int", "np.float64", "huge", "nan"])
def test_eval_coeff_scalar_path_equals_the_formula_bitwise(spec, t):
    # the float fast path, and every other scalar, give the formula's float
    want = float(coeffs._formula(spec, math.exp, math.log)(float(t)))
    got = eval_coeff(spec, t)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("spec", _INTEGER_PARAMETER_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("t", [-0.5, -1, np.float64(-0.5), -math.inf])
def test_eval_coeff_scalar_path_rejects_negative_time(spec, t):
    with pytest.raises(DomainError, match="t >= 0"):
        eval_coeff(spec, t)


def _float_path_outcome(spec, t):
    """eval_coeff's value at t as (type, bits), or its DomainError."""
    try:
        got = eval_coeff(spec, t)
    except DomainError as exc:
        return DomainError, str(exc)
    return type(got), np.float64(got).tobytes()


@pytest.mark.parametrize("spec", _INTEGER_PARAMETER_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("t", [3, np.float64(0.7), math.nan, np.float64(math.nan),
                               -1, np.float64(-0.5), np.int64(3), np.int32(3),
                               np.int64(-1)],
                         ids=["int", "np.float64", "nan", "np.nan", "negative int",
                              "negative np.float64", "np.int64", "np.int32",
                              "negative np.int64"])
def test_eval_coeff_takes_any_real_scalar_as_its_float(spec, t):
    # an int, a numpy integer or a numpy float gives the bits, or the
    # DomainError, of the Python float it converts to
    assert _float_path_outcome(spec, t) == _float_path_outcome(spec, float(t))


@pytest.mark.parametrize("bad", [True, "1", None, [1.0], complex(1.0, 0.0)])
@pytest.mark.parametrize("key", ["amplitude", "gamma", "lam", "log_power"])
def test_spec_rejects_bool_and_non_real_parameters(key, bad):
    with pytest.raises(ConfigurationError, match=f"{key} must be a real number"):
        CoefficientSpec("power_log", **{key: bad})


@pytest.mark.parametrize("table", [[[0.0, True]], [["0", 1.0]], [[0.0, None]]])
def test_tabulated_rejects_bool_and_non_real_entries(table):
    with pytest.raises(ConfigurationError, match="table entry must be a real number"):
        CoefficientSpec.tabulated(table)
    with pytest.raises(ConfigurationError, match="table entry must be a real number"):
        CoefficientSpec("tabulated", table=tuple(map(tuple, table)))


def test_spec_json_names_the_bad_key():
    with pytest.raises(ConfigurationError, match="c.amplitude must be a real number"):
        spec_from_json({"family": "constant", "amplitude": True}, where="c")
    with pytest.raises(ConfigurationError, match="k.lambda must be a real number"):
        spec_from_json({"family": "exp_decay", "lambda": "0.5"}, where="k")
    with pytest.raises(ConfigurationError, match="k.table must be a list"):
        spec_from_json({"family": "tabulated", "table": 5}, where="k")
    # a table value times the amplitude that overflows is refused up front
    with pytest.raises(ConfigurationError,
                       match="c.table values times amplitude must be finite"):
        spec_from_json({"family": "tabulated", "amplitude": 1e200,
                        "table": [[0.0, 1e200], [1.0, 0.0]]}, where="c")
    with pytest.raises(ConfigurationError, match="log_depth"):
        spec_from_json({"family": "power_log", "log_depth": True}, where="k")
    with pytest.raises(ConfigurationError, match=r"c.log_depth must be an integer in \[0, 3\]"):
        spec_from_json({"family": "power_log", "gamma": 1.0, "log_depth": 4}, where="c")


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CoefficientSpec("mystery")
    with pytest.raises(ConfigurationError):
        CoefficientSpec.constant(-1.0)
    with pytest.raises(ConfigurationError):
        CoefficientSpec.power(1.0, -0.5)
    with pytest.raises(ConfigurationError):
        CoefficientSpec.tabulated([[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ConfigurationError):
        CoefficientSpec.tabulated([[0.0, -1.0]])
    with pytest.raises(ConfigurationError):
        CoefficientSpec("constant", table=((0.0, 1.0),))
    # the tower T_4 overflows a float, so depth 4 is refused up front
    with pytest.raises(ConfigurationError, match="log_depth"):
        CoefficientSpec.power_log(1.0, 1.0, 4)
    assert CoefficientSpec.power_log(1.0, 1.0, 3)(1e8) > 0.0


def test_is_zero():
    assert CoefficientSpec.constant(0.0).is_zero
    assert CoefficientSpec.tabulated([[0.0, 0.0], [1.0, 0.0]]).is_zero
    assert not CoefficientSpec.constant(1.0).is_zero


def test_coefficient_sup():
    assert coefficient_sup(CoefficientSpec.power(1.0, 2.0), 10.0) == pytest.approx(1.0)
    bump = CoefficientSpec.tabulated([[0.0, 0.0], [1.0, 5.0], [2.0, 0.0]], amplitude=2.0)
    assert coefficient_sup(bump, 10.0) == pytest.approx(10.0)
    spec = CoefficientSpec.power_log(2.0, 1.5, 2, log_power=1.0)
    assert coefficient_sup(spec, 50.0) == spec(0.0)
    assert coefficient_sup(bump, 0.5) == bump(0.5)  # t_max on the rising edge


# ---------------------------------------------------------------------------
# JSON round-trip

def test_json_round_trip_all_families():
    specs = [
        CoefficientSpec.constant(1.5),
        CoefficientSpec.power(2.0, 1.25),
        CoefficientSpec.exp_decay(1.0, 0.75),
        CoefficientSpec.power_log(1.0, 1.0, 2, log_power=0.5),
        CoefficientSpec.tabulated([[0.0, 1.0], [2.0, 3.0]], amplitude=0.5),
    ]
    for spec in specs:
        doc = json.loads(json.dumps(spec_to_json(spec)))
        assert spec_from_json(doc, "c") == spec


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_spec_json_round_trip(spec):
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec))), "k") == spec


def test_json_key_names():
    doc = spec_to_json(CoefficientSpec.exp_decay(1.0, 2.0))
    assert set(doc) == {"family", "amplitude", "lambda"}
    doc = spec_to_json(CoefficientSpec.power_log(1.0, 2.0, 1, log_power=3.0))
    assert set(doc) == {"family", "amplitude", "gamma", "log_depth", "log_power"}


def test_json_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown key 'gamma' in c"):
        spec_from_json({"family": "constant", "amplitude": 1.0, "gamma": 2.0}, "c")
    with pytest.raises(ConfigurationError, match="unknown key 'rate' in k"):
        spec_from_json({"family": "power", "amplitude": 1.0, "gamma": 1.0, "rate": 3},
                       "k")
    with pytest.raises(ConfigurationError, match="^c.family must be one of"):
        spec_from_json({"family": "nope"}, "c")


# ---------------------------------------------------------------------------
# cumulative integrals

@pytest.mark.parametrize("nodes", [20, 48])
def test_gauss_table_is_leggauss_bit_for_bit(nodes):
    # the module's table stands in for numpy.polynomial, which the CLI does
    # not import; the rule on [0, 1] keeps leggauss's bytes exactly
    x, w = leggauss(nodes)
    u, v = coeffs._gauss_rule(nodes)
    assert u.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert v.tobytes() == (0.5 * w).tobytes()
    assert not (u.flags.writeable or v.flags.writeable)
    # exact for every degree up to 2n - 1 (leggauss's own largest error is
    # 8.0e-16 at n = 20 and 1.8e-15 at n = 48)
    errors = [abs(np.sum(v * u ** k) - 1.0 / (k + 1)) for k in range(2 * nodes)]
    assert max(errors) <= 1e-14


def test_cumulative_constant_and_power():
    C = CumulativeIntegral(CoefficientSpec.constant(3.0))
    assert C(2.0) == pytest.approx(6.0)
    # int_0^t (1+s)^-2 ds = t / (1+t)
    C2 = CumulativeIntegral(CoefficientSpec.power(1.0, 2.0))
    assert C2(1.0) == pytest.approx(0.5)
    assert C2(9.0) == pytest.approx(0.9)
    # gamma = 1 -> log growth
    C3 = CumulativeIntegral(CoefficientSpec.power(2.0, 1.0))
    assert C3(E - 1.0) == pytest.approx(2.0)


def test_cumulative_exp_decay():
    C = CumulativeIntegral(CoefficientSpec.exp_decay(2.0, 0.5))
    # int_0^t 2 e^{-s/2} ds = 4 (1 - e^{-t/2})
    assert C(2.0) == pytest.approx(4.0 * (1.0 - math.exp(-1.0)))


def test_cumulative_power_log_frozen():
    # depth 1, gamma 1: integrand 1/((e+s) ln(e+s)) has antiderivative
    # ln ln(e+s), so C(e^2 - e) = ln ln(e^2) = ln 2
    C = CumulativeIntegral(CoefficientSpec.power_log(1.0, 1.0, 1))
    assert C(E**2 - E) == pytest.approx(math.log(2.0), rel=1e-8)
    # cache reuse at an interior point: ln ln(e + (e-1)) = ln ln(2e - 1)
    assert C(E - 1.0) == pytest.approx(math.log(math.log(2.0 * E - 1.0)), rel=1e-8)


def test_cumulative_tabulated():
    C = CumulativeIntegral(CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]]))
    assert C(3.0) == pytest.approx(2.1)   # 3 - 3^2/10
    assert C(10.0) == pytest.approx(2.5)  # triangle area, then zero
    ts = np.array([3.0, 10.0])
    np.testing.assert_allclose(C(ts), [2.1, 2.5])


def test_cumulative_array_monotone():
    C = CumulativeIntegral(CoefficientSpec.power_log(1.0, 1.0, 1))
    ts = np.linspace(0.0, 20.0, 9)
    vals = C(ts)
    assert np.all(np.diff(vals) > 0)


def _quad_cumulative(spec, t):
    # adaptive quad over geometric panels, so each panel sees one scale
    edges = [0.0] + [e for e in np.geomspace(1e-9, 1e8, 35) if e < t] + [t]
    return math.fsum(integrate.quad(spec, a, b, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(1, 3), st.floats(-9.0, 8.0))
def test_cumulative_log_lane_closed_form_matches_quad(amp, depth, log10_t):
    spec = CoefficientSpec.power_log(amp, 1.0, depth)
    assert log_lane(spec) == (amp, depth)
    C = CumulativeIntegral(spec)
    t = 10.0 ** log10_t
    # a closed form evaluates c nowhere, so it builds no panel table
    with mock.patch.object(coeffs, "eval_coeff", side_effect=AssertionError):
        got = C(t)
    assert got == pytest.approx(_quad_cumulative(spec, t), rel=1e-10)


def test_log_lane_needs_unit_gamma_no_log_power_and_depth():
    assert log_lane(CoefficientSpec.power_log(2.0, 1.0, 2)) == (2.0, 2)
    assert log_lane(CoefficientSpec.power_log(2.0, 1.0, 0)) is None
    assert log_lane(CoefficientSpec.power_log(2.0, 2.0, 1)) is None
    assert log_lane(CoefficientSpec.power_log(2.0, 1.0, 1, log_power=1.0)) is None
    assert log_lane(CoefficientSpec.power(2.0, 1.0)) is None


def test_cumulative_numeric_revisits_match_quad():
    # off the log lane, C(t) is a panel table plus one partial panel; the
    # order of the calls does not matter, and a revisit gives the same bits
    spec = CoefficientSpec.power_log(1.0, 2.0, 1, log_power=1.0)
    C = CumulativeIntegral(spec)
    forward = [0.5, 3.0, 40.0, 2000.0, 1e5]
    first = {t: C(t) for t in forward}
    for t in [1e5, 7.0, 0.25, 3.0, 1500.0, 40.0]:
        assert C(t) == pytest.approx(_quad_cumulative(spec, t), rel=1e-12)
        assert t not in first or C(t) == first[t]
    assert CumulativeIntegral(spec)(7.0) == C(7.0)


def _mp_power_log(spec):
    """A power_log coefficient as an mpmath function of an mpf t."""
    a, gamma = mpmath.mpf(spec.amplitude), mpmath.mpf(spec.gamma)
    tower = mpmath.mpf(1)
    for _ in range(spec.log_depth):
        tower = mpmath.exp(tower)

    def f(t):
        s = v = tower + t
        prod = 1
        for _ in range(spec.log_depth):
            v = mpmath.log(v)
            prod *= v
        return a / (s ** gamma * prod * v ** mpmath.mpf(spec.log_power))
    return f


_off_lane = st.builds(CoefficientSpec.power_log, st.floats(0.1, 10.0),
                      st.floats(0.0, 3.0), st.integers(1, 3),
                      st.floats(0.0, 3.0)).filter(lambda s: log_lane(s) is None)


@settings(max_examples=40, deadline=None)
@given(_off_lane, st.floats(-6.0, 9.0))
@example(CoefficientSpec.power_log(1.0, 2.0, 1, log_power=1.0), 9.0)
@example(CoefficientSpec.power_log(10.0, 0.5, 1), -6.0)
def test_cumulative_off_lane_matches_mpmath(spec, log10_t):
    # reference: mpmath.quad at 30 digits over the dyadic panels up to t
    t = 10.0 ** log10_t
    with mpmath.workdps(30):
        edges = ([0] + [mpmath.mpf(2) ** e for e in range(31) if 2.0 ** e < t]
                 + [mpmath.mpf(t)])
        want = float(mpmath.quad(_mp_power_log(spec), edges))
    C = CumulativeIntegral(spec)
    assert C(t) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert C(np.array([t]))[0] == C(t)


def _power_aliases(a, gamma):
    """Spellings of a (1+t)^-gamma; the first one is the canonical form."""
    specs = [CoefficientSpec.power(a, gamma), CoefficientSpec.power_log(a, gamma, 0),
             CoefficientSpec.power_log(a, gamma, 0, log_power=2.5)]
    if gamma == 0.0:
        specs = [CoefficientSpec.constant(a), CoefficientSpec.exp_decay(a, 0.0)] + specs
    return specs


def test_canonical_maps_aliases_and_keeps_everything_else():
    for gamma in (0.0, 0.5, 2.0):
        specs = _power_aliases(1.5, gamma)
        assert all(s.canonical == specs[0] for s in specs)
    for spec in (CoefficientSpec.exp_decay(1.5, 0.3),
                 CoefficientSpec.power_log(1.5, 0.0, 1),
                 CoefficientSpec.tabulated([[0.0, 1.0], [1.0, 1.0]])):
        assert spec.canonical is spec
    # the JSON round trip keeps the user's spelling
    alias = CoefficientSpec.power_log(2.0, 0.0, 0)
    assert spec_from_json(spec_to_json(alias), "c") == alias
    assert spec_to_json(alias)["family"] == "power_log"


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
       st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
@example(a=1.0, gamma=3.7, ts=[1.192092896e-07])  # once lost digits at small t
def test_cumulative_of_aliases_matches_canonical_without_quad(a, gamma, ts):
    specs = _power_aliases(a, gamma)
    ts = np.array(ts)
    calls = []
    real_quad = integrate.quad

    def counting_quad(*args, **kw):
        calls.append(args[1:3])
        return real_quad(*args, **kw)

    integrate.quad = counting_quad
    try:
        want = CumulativeIntegral(specs[0])(ts)
        for spec in specs:
            C = CumulativeIntegral(spec)
            np.testing.assert_allclose(C(ts), want, rtol=1e-14, atol=0.0)
            assert C(float(ts[-1])) == pytest.approx(want[-1], rel=1e-14, abs=0.0)
    finally:
        integrate.quad = real_quad
    assert calls == []


def _mp_integrand(spec):
    """The closed-form lanes of c as mpmath functions of an mpf t."""
    a = mpmath.mpf(spec.amplitude)
    if spec.family == "constant":
        return lambda t: a
    if spec.family == "power":
        return lambda t: a * (1 + t) ** -mpmath.mpf(spec.gamma)
    if spec.family == "exp_decay":
        return lambda t: a * mpmath.exp(-mpmath.mpf(spec.lam) * t)
    tower = mpmath.mpf(1)
    for _ in range(spec.log_depth):
        tower = mpmath.exp(tower)

    def log_lane(t):
        s = v = tower + t
        for _ in range(spec.log_depth):
            v = mpmath.log(v)
            s *= v
        return a / s
    return log_lane


_closed_form_lanes = st.one_of(
    st.builds(CoefficientSpec.constant, st.floats(0.1, 10.0)),
    st.builds(CoefficientSpec.power, st.floats(0.1, 10.0),
              st.sampled_from([0.5, 1.0, 2.0, 3.7])),
    st.builds(CoefficientSpec.exp_decay, st.floats(0.1, 10.0), st.floats(1e-3, 1e2)),
    st.builds(CoefficientSpec.power_log, st.floats(0.1, 10.0), st.just(1.0),
              st.integers(1, 3)),
)


@settings(max_examples=120, deadline=None)
@given(_closed_form_lanes, st.floats(-12.0, 6.0))
def test_cumulative_closed_forms_match_mpmath(spec, log10_t):
    # reference: mpmath.quad at 30 digits over decade panels
    t = 10.0 ** log10_t
    with mpmath.workdps(30):
        edges = [0] + [mpmath.mpf(10) ** e for e in range(-12, 7) if 10.0 ** e < t] + [t]
        want = float(mpmath.quad(_mp_integrand(spec), edges))
    C = CumulativeIntegral(spec)
    assert C(t) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert C(np.array([t]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_closed_form_lanes,
                 st.builds(CoefficientSpec.power, _amplitudes, _exponents),
                 _off_lane),
       arrays(np.float64, st.integers(2, 64),
              elements=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-6))))
def test_cumulative_scalar_path_matches_array_path_bitwise(spec, ts):
    # a float skips the arrays but applies the same ufuncs
    C = CumulativeIntegral(spec)
    scalars = [C(t) for t in ts.tolist()]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == C(ts).tobytes()
    assert [C(np.float64(t)) for t in ts] == scalars


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(0.0, 1e8), st.floats(0.0, 1e-6)),
       arrays(np.float64, st.integers(1, 20), elements=st.floats(0.0, 1e8)))
@example(1.0, np.array([0.0]))
def test_tail_value(t, ts):
    C = CumulativeIntegral(CoefficientSpec.power(1.0, 2.0))
    # int_t^inf (1+s)^-2 ds = 1/(1+t)
    assert C.tail(t) == pytest.approx(1.0 / (1.0 + t), rel=0.0, abs=1e-12)
    np.testing.assert_allclose(C.tail(ts), 1.0 / (1.0 + ts), rtol=0.0, atol=1e-12)


def test_tail_takes_one_verdict_and_raises_when_divergent():
    C = CumulativeIntegral(CoefficientSpec.exp_decay(2.0, 0.5))
    with mock.patch.object(coeffs, "integrate_improper",
                           wraps=integrate_improper) as verdicts:
        tails = [C.tail(t) for t in (0.0, 1.0, 10.0)]
    assert verdicts.call_count == 1
    np.testing.assert_allclose(tails, 4.0 * np.exp(-0.5 * np.array([0.0, 1.0, 10.0])),
                               rtol=0.0, atol=1e-13)
    for spec in (CoefficientSpec.power(1.0, 1.0), CoefficientSpec.constant(1.0)):
        with pytest.raises(NotApplicableError):
            CumulativeIntegral(spec).tail(3.0)


def test_tail_refuses_a_value_that_overflows():
    # A / lam = 1e300 / 2e-12 passes the float range
    spec = CoefficientSpec.exp_decay(1e300, 2e-12)
    assert integrate_improper(spec).value == math.inf
    C = CumulativeIntegral(spec)
    with pytest.raises(NotApplicableError, match=(
            r"^tail integral converges but its value is not finite \(closed form: "
            r"exponential decay rate -2e-12\)$")):
        C.tail(0.0)


def test_log_int_exp_constant():
    C = CumulativeIntegral(CoefficientSpec.constant(2.0))
    # ln int_0^3 e^{2 s} ds = ln((e^6 - 1)/2)
    assert C.log_int_exp(3.0, 1.0) == pytest.approx(math.log((math.exp(6.0) - 1) / 2))
    # amplitude and multiplier combine: rate 6
    assert C.log_int_exp(3.0, 3.0) == pytest.approx(18.0 + math.log1p(-math.exp(-18.0)) - math.log(6.0))
    # far beyond overflow range of the direct integral
    C1 = CumulativeIntegral(CoefficientSpec.constant(1.0))
    assert C1.log_int_exp(1000.0, 1.0) == pytest.approx(1000.0)


def test_log_int_exp_power_gamma_one():
    C = CumulativeIntegral(CoefficientSpec.power(1.0, 1.0))
    # exp(2 C(s)) = (1+s)^2, integral ((1+t)^3 - 1)/3
    t = 4.0
    assert C.log_int_exp(t, 2.0) == pytest.approx(math.log(((1 + t) ** 3 - 1) / 3.0))


def test_log_int_exp_generic_matches_quad():
    spec = CoefficientSpec.power(1.0, 2.0)
    C = CumulativeIntegral(spec)
    direct, _ = integrate.quad(lambda s: math.exp(3.0 * C(s)), 0.0, 5.0)
    assert C.log_int_exp(5.0, 3.0) == pytest.approx(math.log(direct), rel=1e-8)


def _mp_cumulative(spec):
    """C(t) in closed form as an mpmath function, for the specs of
    _panel_lanes."""
    a = mpmath.mpf(spec.amplitude)
    if spec.family == "power":
        e = 1 - mpmath.mpf(spec.gamma)
        return lambda t: a * ((1 + t) ** e - 1) / e
    if spec.family == "exp_decay":
        lam = mpmath.mpf(spec.lam)
        return lambda t: a * -mpmath.expm1(-lam * t) / lam
    if spec.family == "power_log":
        # gamma = 1: c = a/((T_j+t) l_j ln_j^{1+b}) = d/dt a (1 - ln_j^-b)/b
        b, tower = mpmath.mpf(spec.log_power), mpmath.mpf(1)
        for _ in range(spec.log_depth):
            tower = mpmath.exp(tower)

        def log_cumulative(t):
            v = tower + t
            for _ in range(spec.log_depth):
                v = mpmath.log(v)
            return a * (1 - v ** -b) / b
        return log_cumulative
    nodes = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in spec.table]

    def table_cumulative(t):
        # trapezoids are exact on the linear pieces; c is constant outside
        (t0, v0), acc = nodes[0], min(t, nodes[0][0]) * nodes[0][1]
        for t1, v1 in nodes[1:] + [(mpmath.inf, nodes[-1][1])]:
            if t <= t0:
                break
            b = min(t, t1)
            vb = v0 + (v1 - v0) * (b - t0) / (t1 - t0) if t1 < mpmath.inf else v0
            acc += (v0 + vb) / 2 * (b - t0)
            t0, v0 = t1, v1
        return a * acc
    return table_cumulative


_panel_lanes = st.one_of(
    st.builds(CoefficientSpec.power, st.floats(0.1, 10.0),
              st.sampled_from([0.0, 0.5, 2.0, 3.7])),
    st.builds(CoefficientSpec.exp_decay, st.floats(0.1, 10.0), st.floats(1e-3, 10.0)),
    st.builds(CoefficientSpec.power_log, st.floats(0.1, 10.0), st.just(1.0),
              st.integers(1, 3), st.floats(0.25, 3.0)),
    st.builds(CoefficientSpec.tabulated,
              st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6, unique=True)
              .flatmap(lambda ts: st.tuples(*[st.tuples(st.just(t), st.floats(0.0, 5.0))
                                              for t in sorted(ts)]))),
).filter(lambda s: s.canonical.family != "constant" and not s.is_zero)


@settings(max_examples=30, deadline=None)
@given(_panel_lanes, st.floats(-3.0, 5.0), st.floats(0.5, 10.0))
@example(CoefficientSpec.exp_decay(10.0, 1e-3), 3.0, 10.0)
@example(CoefficientSpec.tabulated([[0.0, 1.0], [2.0, 5.0], [3.0, 0.1], [10.0, 2.0]]),
         1.5, 3.0)
def test_log_int_exp_panels_match_mpmath(spec, log10_t, mult):
    # reference: mpmath.quad at 30 digits, split at the table nodes and on
    # both ends at the integrand's scale 1/(mult sup c); 1e-12 absolute on
    # the log is 1e-12 relative on the integral
    t = 10.0 ** log10_t
    scale = 1.0 / max(mult * coefficient_sup(spec, t), 1.0)
    splits = {t * f for f in (0.25, 0.5, 0.75)} | {t - scale * 2.0 ** e for e in range(12)}
    if spec.family == "tabulated":
        splits |= {row[0] for row in spec.table}
    with mpmath.workdps(30):
        C = _mp_cumulative(spec)
        ct = C(mpmath.mpf(t))
        edges = [0] + [mpmath.mpf(x) for x in sorted(splits) if 0.0 < x < t] + [mpmath.mpf(t)]
        inner = mpmath.quad(lambda s: mpmath.exp(mult * (C(s) - ct)), edges)
        want = float(mult * ct + mpmath.log(inner))
    got = CumulativeIntegral(spec).log_int_exp(t, mult)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.booleans(), st.floats(0.0, 10.0),
       arrays(np.float64, st.integers(1, 20),
              elements=st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 1e-6))))
def test_log_int_exp_closed_forms_take_arrays(A, harmonic, mult, ts):
    C = CumulativeIntegral(CoefficientSpec.power(A, 1.0) if harmonic
                           else CoefficientSpec.constant(A))
    got = C.log_int_exp(ts, mult)
    assert got.shape == ts.shape
    assert got.tolist() == [C.log_int_exp(t, mult) for t in ts.tolist()]
    assert np.all(got[ts == 0.0] == -math.inf)


def test_log_int_exp_zero_cases():
    C = CumulativeIntegral(CoefficientSpec.constant(0.0))
    assert C.log_int_exp(7.0, 2.0) == pytest.approx(math.log(7.0))
    C2 = CumulativeIntegral(CoefficientSpec.constant(5.0))
    assert C2.log_int_exp(7.0, 0.0) == pytest.approx(math.log(7.0))
    assert C2.log_int_exp(0.0, 1.0) == -math.inf


# ---------------------------------------------------------------------------
# growth forms

def test_growth_form_families():
    assert growth_form(CoefficientSpec.constant(2.0)) == GrowthForm()
    assert growth_form(CoefficientSpec.power(1.0, 1.5)).power == -1.5
    assert growth_form(CoefficientSpec.exp_decay(1.0, 2.0)).exp_rate == -2.0
    f = growth_form(CoefficientSpec.power_log(1.0, 1.0, 2, log_power=0.5))
    assert f.power == -1.0
    assert f.logs == (-1.0, -1.5)
    # a table is judged by its last value, held constant
    assert growth_form(CoefficientSpec.tabulated([[0.0, 1.0]])) == GrowthForm()
    assert growth_form(CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]])).zero
    assert growth_form(CoefficientSpec.constant(0.0)).zero


def test_growth_form_product():
    a = GrowthForm(power=-2.0, logs=(-1.0,))
    b = GrowthForm(power=1.0)
    c = a.times(b)
    assert c.power == -1.0 and c.logs == (-1.0,)


def test_tail_verdict_ladder():
    assert tail_verdict(GrowthForm(power=-0.5))[0] == DIVERGES
    assert tail_verdict(GrowthForm(power=-1.5))[0] == CONVERGES
    assert tail_verdict(GrowthForm(power=-1.0))[0] == DIVERGES
    assert tail_verdict(GrowthForm(power=-1.0, logs=(-1.0,)))[0] == DIVERGES
    assert tail_verdict(GrowthForm(power=-1.0, logs=(-1.2,)))[0] == CONVERGES
    assert tail_verdict(GrowthForm(power=-1.0, logs=(-1.0, -0.5)))[0] == DIVERGES
    assert tail_verdict(GrowthForm(exp_rate=-1.0, power=5.0))[0] == CONVERGES
    assert tail_verdict(GrowthForm(stretch_rate=-0.5, stretch_pow=0.5, power=3.0))[0] == CONVERGES
    assert tail_verdict(GrowthForm(stretch_rate=0.5, stretch_pow=0.5, power=-9.0))[0] == DIVERGES


def test_form_bounded_ladder():
    # the first nonzero exponent decides, in the order exp, stretch, power, logs
    assert form_bounded(GrowthForm(zero=True))
    assert form_bounded(GrowthForm())
    assert form_bounded(GrowthForm(exp_rate=-1.0, stretch_rate=2.0, stretch_pow=0.5,
                                   power=9.0))
    assert not form_bounded(GrowthForm(exp_rate=1e-3, power=-9.0))
    assert form_bounded(GrowthForm(stretch_rate=-0.5, stretch_pow=0.5, power=9.0))
    assert not form_bounded(GrowthForm(stretch_rate=0.5, stretch_pow=0.5, power=-9.0))
    assert form_bounded(GrowthForm(power=-0.5, logs=(3.0,)))
    assert not form_bounded(GrowthForm(power=0.5, logs=(-3.0,)))
    # ln^-1 * ln ln is bounded: the ln exponent outranks the ln_2 one
    assert form_bounded(GrowthForm(logs=(-1.0, 1.0)))
    assert not form_bounded(GrowthForm(logs=(1.0, -1.0)))
    assert form_bounded(GrowthForm(logs=(0.0, -1.0)))
    assert not form_bounded(GrowthForm(logs=(0.0, 1e-3)))


# ---------------------------------------------------------------------------
# improper integrals: analytic lane

def test_improper_power_weight_one():
    assert integrate_improper(CoefficientSpec.power(1.0, 0.5)).status == DIVERGES
    v = integrate_improper(CoefficientSpec.power(1.0, 2.0))
    # int_0^inf (1+t)^-2 dt = 1
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0, rel=1e-6)


def test_improper_power_weight_t():
    # int_0^inf t (1+t)^-3 dt = 1/2
    v = integrate_improper(CoefficientSpec.power(1.0, 3.0), weight=1.0)
    assert v.status == CONVERGES
    assert v.value == pytest.approx(0.5, rel=1e-6)
    # int t (1+t)^-2 diverges (harmonic)
    assert integrate_improper(CoefficientSpec.power(1.0, 2.0), weight=1.0).status == DIVERGES
    assert integrate_improper(CoefficientSpec.power(1.0, 1.5), weight=1.0).status == DIVERGES


def test_improper_exp_decay():
    v = integrate_improper(CoefficientSpec.exp_decay(2.0, 0.5), weight=1.0)
    # int_0^inf 2 t e^{-t/2} dt = 8
    assert v.status == CONVERGES
    assert v.value == pytest.approx(8.0, rel=1e-6)


def test_improper_power_log_borderlines():
    # 1/((e+t) ln(e+t)): diverges like ln ln t
    assert integrate_improper(CoefficientSpec.power_log(1.0, 1.0, 1)).status == DIVERGES
    # 1/((e+t) ln^2(e+t)): converges, value = 1/ln(e) = 1 exactly
    v = integrate_improper(CoefficientSpec.power_log(1.0, 1.0, 1, log_power=1.0))
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0, rel=1e-5)
    # depth 2, all exponents -1: diverges
    assert integrate_improper(CoefficientSpec.power_log(1.0, 1.0, 2)).status == DIVERGES
    # depth 2 with extra ln_2 power: converges
    assert integrate_improper(
        CoefficientSpec.power_log(1.0, 1.0, 2, log_power=0.5)).status == CONVERGES


def test_improper_weight_t_power_log():
    # t * c with c = 1/((e+t)^2 ln^2(e+t)): total power -1, ln exponent -2
    v = integrate_improper(
        CoefficientSpec.power_log(1.0, 2.0, 1, log_power=1.0), weight=1.0)
    assert v.status == CONVERGES
    # substituting u = ln(e+t) turns int_0^inf t/((e+t)^2 ln^2(e+t)) dt into
    # int_1^inf (1 - e^{1-u})/u^2 du = 1 - e*E_2(1) = e*E_1(1)
    assert v.value == pytest.approx(math.e * special.exp1(1.0), rel=1e-6)
    assert integrate_improper(
        CoefficientSpec.power_log(1.0, 2.0, 1), weight=1.0).status == DIVERGES


def test_improper_weight_not_integrable_at_zero_is_a_domain_error():
    # t^-2 is not integrable at 0, whatever the tail does
    for weight in (-2.0, -1.0):
        for spec in (CoefficientSpec.constant(1.0),
                     CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]])):
            with pytest.raises(DomainError, match="weight"):
                integrate_improper(spec, weight=weight)


@pytest.mark.parametrize("amp,lam,weight", [
    (1.0, 1e-3, 20.0), (2.0, 0.5, 1.0), (3.0, 7.0, 0.0), (1.0, 1.0, -0.5)])
def test_improper_exp_decay_from_zero_is_closed_form(amp, lam, weight):
    # A Gamma(a+1) / lam^(a+1), without quad
    want = amp * math.gamma(weight + 1.0) / lam ** (weight + 1.0)
    with mock.patch.object(integrate, "quad", side_effect=AssertionError("quad")):
        v = integrate_improper(CoefficientSpec.exp_decay(amp, lam), weight=weight)
    assert v.status == CONVERGES
    assert v.value == pytest.approx(want, rel=1e-12)
    assert v.evidence == f"closed form: exponential decay rate {-lam:.6g}"


@pytest.mark.parametrize("lam", [1e-11, 1e-12, 1e-13])
def test_improper_exp_decay_at_a_tiny_rate_converges(lam):
    # a rate is judged by its sign: a decay rate within 1e-12 of 0 once read
    # as no rate at all, so int e^{-lam t} = 1/lam was said to diverge
    v = integrate_improper(CoefficientSpec.exp_decay(1.0, lam))
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0 / lam, rel=1e-12)


def test_rate_sum_drops_only_the_rounding_of_a_balance():
    # 3 * 0.1 - 0.3 is 5.6e-17 in floats: a balance, so no rate is left
    balance = GrowthForm(exp_rate=3 * 0.1, power=-2.0).times(GrowthForm(exp_rate=-0.3))
    assert balance.exp_rate == 0.0 and tail_verdict(balance)[0] == CONVERGES
    stretch = GrowthForm(stretch_rate=3 * 0.1, stretch_pow=0.5).times(
        GrowthForm(stretch_rate=-0.3, stretch_pow=0.5))
    assert stretch.stretch_rate == 0.0 and form_bounded(stretch)
    # an overflowed weight rate x A still beats any decay
    assert GrowthForm(exp_rate=math.inf).times(GrowthForm(exp_rate=-1.0)).exp_rate == math.inf
    # a rate far below 1e-12 that nothing cancels keeps its sign
    tiny = GrowthForm(exp_rate=1e-300).times(GrowthForm(power=-9.0))
    assert tail_verdict(tiny)[0] == DIVERGES and not form_bounded(tiny)
    assert tail_verdict(GrowthForm(stretch_rate=-1e-300, stretch_pow=0.5,
                                   power=9.0))[0] == CONVERGES


@pytest.mark.parametrize("eps", [5e-13, 1e-14, 4e-16])
def test_lone_power_exponent_near_its_borderline_compares_exactly(eps):
    # -gamma is one term that nothing rounded: int (1+t)^-gamma = 1/(gamma-1)
    # converges however close gamma is to 1 (1 + 5e-13 once read as the
    # harmonic borderline and diverged)
    spec = CoefficientSpec.power(1.0, 1.0 + eps)
    v = integrate_improper(spec)
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0 / (spec.gamma - 1.0), rel=1e-9)
    # t^eps grows without bound, t^-eps does not
    assert not form_bounded(GrowthForm(power=eps))
    assert form_bounded(growth_form(CoefficientSpec.power(1.0, eps)))


def test_lone_log_exponent_near_its_borderline_compares_exactly():
    # 1/((e+t) ln^(1+lam)(e+t)) integrates to 1/lam in u = ln(e+t)
    lam = 5e-13
    v = integrate_improper(CoefficientSpec.power_log(1.0, 1.0, 1, log_power=lam))
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0 / lam, rel=1e-9)


def test_lanes_take_gamma_one_exactly():
    # a gamma 5e-13 past 1 has a convergent int c, so it is on no lane
    assert harmonic_lane(CoefficientSpec.power(1.0, 1.0))
    assert log_lane(CoefficientSpec.power_log(2.0, 1.0, 1)) == (2.0, 1)
    for gamma in (1.0 + 5e-13, 1.0 - 5e-13):
        assert not harmonic_lane(CoefficientSpec.power(1.0, gamma))
        assert log_lane(CoefficientSpec.power_log(2.0, gamma, 1)) is None


@pytest.mark.parametrize("spec,want", [
    (CoefficientSpec.power(1.0, 1.0 + 5e-13),
     "closed form: tail ~ t^-1.0000000000005 with exponent < -1"),
    (CoefficientSpec.power(1.0, 1.0 - 5e-13),
     "closed form: tail ~ t^-0.9999999999995 with exponent > -1"),
    (CoefficientSpec.power_log(1.0, 1.0, 1, log_power=5e-13),
     "closed form: harmonic tail, ln_1 exponent -1.0000000000005 < -1"),
    (CoefficientSpec.power(1.0, 2.5), "closed form: tail ~ t^-2.5 with exponent < -1"),
])
def test_evidence_never_prints_an_exponent_as_its_borderline(spec, want):
    # six digits of -1 - 5e-13 read "-1", the borderline it is not; an
    # exponent that six digits show faithfully keeps them
    assert integrate_improper(spec).evidence == want


def test_exponent_sum_reads_a_rounded_balance_as_the_borderline():
    # -2.2 + 1.2 is -1.0000000000000002 in floats, a balance of two terms
    assert -2.2 + 1.2 != -1.0
    assert coeffs.exponent_sum(-2.2, 1.2) == -1.0
    v = integrate_improper(CoefficientSpec.power(1.0, 2.2), weight=1.2)
    assert v.status == DIVERGES
    assert v.evidence.endswith("harmonic tail with all iterated-log exponents = -1")
    assert coeffs.exponent_sum(0.1 + 0.2, -0.3) == 0.0
    # a lone term, or a sum beyond 1e-12 of either borderline, stays
    assert coeffs.exponent_sum(-1.0 - 5e-13, 0.0) == -1.0 - 5e-13
    assert coeffs.exponent_sum(-21.0 - 1e-11, 20.0) < -1.0


def test_improper_zero_and_lower_limit():
    v = integrate_improper(CoefficientSpec.constant(0.0))
    assert v.status == CONVERGES and v.value == 0.0


# ---------------------------------------------------------------------------
# improper integrals: values in closed form and by the panel rule

@pytest.mark.parametrize("gamma,weight,expected", [
    (0.5, "1", DIVERGES),
    (1.5, "1", CONVERGES),
    (2.5, "1", CONVERGES),
    (1.5, "t", DIVERGES),
    (2.0, "t", DIVERGES),
    (2.5, "t", CONVERGES),
])
def test_numeric_agrees_with_analytic_power(gamma, weight, expected):
    # int_0^inf t^a (1+t)^-gamma = B(a+1, gamma-a-1)
    spec = CoefficientSpec.power(1.0, gamma)
    a = {"1": 0.0, "t": 1.0}[weight]
    v = integrate_improper(spec, weight=a)
    assert v.status == expected
    if expected == CONVERGES:
        assert v.value == pytest.approx(special.beta(a + 1.0, gamma - a - 1.0),
                                        rel=1e-13)


@pytest.mark.parametrize("amp", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("weight", [0.0, 1.0, 1.5, 3.0, 20.0])
@pytest.mark.parametrize("eps", [1e-11, 1e-3, 0.05, 0.4, 3.0])
def test_power_value_is_the_beta_closed_form(amp, weight, eps):
    # power_log at depth 0 is the same function, valued the same way
    gamma = weight + 1.0 + eps
    want = amp * special.beta(weight + 1.0, gamma - weight - 1.0)
    for spec in (CoefficientSpec.power(amp, gamma), CoefficientSpec.power_log(amp, gamma, 0)):
        assert integrate_improper(spec, weight=weight).value == pytest.approx(
            want, rel=1e-13, abs=0.0)


def _mp_power_log_total(spec, a):
    """int_0^inf t^a c(t) dt for a convergent power_log c, to 20 digits.

    At depth 1 with an integer weight the substitution u = ln(e + t) gives
    A sum_k binom(a, k) (-e)^k E_{1+lam}(eps + k), eps = gamma - a - 1, in
    the generalized exponential integrals E_n(x) = int_1^inf e^{-xu} u^-n du.
    Otherwise mpmath.quad takes the same substitution, which is exact: in
    w = ln(T_j + t) - T_{j-1} on the dyadic w-panels, and on the borderline
    eps = 0 past w = 2^8 by the antiderivative ln_{j-1}^{-lam} / lam.
    """
    with mpmath.workdps(20):
        A, lam = mpmath.mpf(spec.amplitude), mpmath.mpf(spec.log_power)
        eps = mpmath.mpf(spec.gamma) - a - 1
        j = spec.log_depth
        if j == 1 and a == int(a):
            return float(A * mpmath.fsum(mpmath.binomial(a, k) * (-mpmath.e) ** k
                                         * mpmath.expint(1 + lam, eps + k)
                                         for k in range(int(a) + 1)))
        u0 = mpmath.mpf(1)
        for _ in range(j - 1):
            u0 = mpmath.exp(u0)

        def chain(u):
            v, prod = u, 1
            for _ in range(j - 1):
                v = mpmath.log(v)
                prod *= v
            return v, prod

        def f(w):
            v, prod = chain(u0 + w)
            return (-mpmath.expm1(-w)) ** a * mpmath.exp(-eps * w) / (
                (u0 + w) * prod * v ** lam)
        top = 8 if eps == 0 else max(1, int(mpmath.ceil(mpmath.log(80 / eps, 2))))
        edges = [0] + [mpmath.ldexp(1, k) for k in range(-8, top + 1)]
        total = mpmath.quad(f, edges + ([] if eps == 0 else [mpmath.inf]))
        if eps == 0:
            total += chain(u0 + edges[-1])[0] ** -lam / lam
        return float(A * mpmath.exp(-eps * u0) * total)


@pytest.mark.parametrize("depth,lam", [(1, 0.0), (2, 1.0), (3, 2.5)])
@pytest.mark.parametrize("weight", [0.0, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.4, 3.0])
def test_power_log_value_matches_mpmath(depth, lam, weight, eps):
    spec = CoefficientSpec.power_log(1.7, weight + 1.0 + eps, depth, log_power=lam)
    v = integrate_improper(spec, weight=weight)
    assert v.status == CONVERGES
    assert v.value == pytest.approx(_mp_power_log_total(spec, weight), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec,weight,exact", [
    # the harmonic borderline: int_0^inf A/((T_j+t) l_j ln_j^lam) = A/lam
    (CoefficientSpec.power_log(2.0, 1.0, 3, log_power=0.5), 0.0, 4.0),
    (CoefficientSpec.power_log(1.5, 2.0, 2, log_power=1.0), 1.0, None),
])
def test_power_log_borderline_value_matches_mpmath(spec, weight, exact):
    v = integrate_improper(spec, weight=weight)
    assert v.evidence.startswith("closed form: harmonic tail")
    want = _mp_power_log_total(spec, weight)
    assert v.value == pytest.approx(want, rel=1e-12, abs=0.0)
    if exact is not None:
        assert want == pytest.approx(exact, rel=1e-15)


def test_power_log_slow_tail_is_the_exponential_integral():
    # int_0^inf dt/((e+t)^(1+eps) ln(e+t)) = E_1(eps), ~ -gamma_E - ln eps
    spec = CoefficientSpec.power_log(1.0, 1.0 + 5e-10, 1)
    want = float(mpmath.e1(mpmath.mpf(spec.gamma) - 1))
    assert integrate_improper(spec).value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_improper_values_call_no_quad():
    # every family, at the weights the criteria and the oracle ask for
    q = 2.5
    specs = [CoefficientSpec.constant(0.0), CoefficientSpec.power(1.0, 4.0),
             CoefficientSpec.exp_decay(2.0, 0.5),
             CoefficientSpec.power_log(1.0, 4.0, 2, log_power=1.0),
             CoefficientSpec.power_log(1.0, 2.0, 1, log_power=1.0),
             CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]])]
    with mock.patch.object(integrate, "quad", side_effect=AssertionError("quad")):
        verdicts = [integrate_improper(spec, weight=a)
                    for spec in specs for a in (0.0, 1.0, q)]
    assert {spec.family for spec in specs} == set(coeffs.FAMILIES)
    for v in verdicts:
        assert v.diverges or math.isfinite(v.value) and v.value >= 0.0


def test_improper_slow_log_tail_is_added_in_closed_form():
    # int_0^inf dt / ((e+t) ln^2(e+t)) = 1 / ln(e) = 1: harmonic, so the
    # panels stop at a fixed cut and the tail is its antiderivative
    v = integrate_improper(CoefficientSpec.power_log(1.0, 1.0, 1, log_power=1.0))
    assert v.status == CONVERGES
    assert v.value == pytest.approx(1.0, rel=1e-14)
    assert v.evidence == "closed form: harmonic tail, ln_1 exponent -2 < -1"


def test_numeric_divergent_borderline_detected():
    v = integrate_improper(CoefficientSpec.power(1.0, 1.0))
    assert v.status == DIVERGES
    assert v.evidence == "closed form: harmonic tail with all iterated-log exponents = -1"


def test_numeric_tabulated_compact_support():
    spec = CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 0.0]])
    v = integrate_improper(spec)
    assert v.status == CONVERGES
    assert v.value == pytest.approx(2.5, rel=1e-9)


def test_numeric_tabulated_constant_tail_diverges():
    spec = CoefficientSpec.tabulated([[0.0, 1.0], [5.0, 2.0]])
    assert integrate_improper(spec).status == DIVERGES


# ---------------------------------------------------------------------------
# square-root-window integrals

def sqrt_window_integral(flux, t, t0, nodes=48):
    """int_{t-t0}^{t} flux(tau)/sqrt(t-tau) dtau via the substitution
    tau = t - s^2, which removes the endpoint singularity exactly: the
    integral equals 2 int_0^{sqrt(t0)} flux(t - s^2) ds.  The reference for
    memory_window_check, one probe time at a time, on its window rule."""
    if t < t0:
        raise DomainError("window integral needs t >= t0")
    s2, w, scale = coeffs._window_rule(float(t0), nodes)
    return float(scale * np.sum(w * flux(t - s2)))


def test_sqrt_window_linear_flux_frozen():
    # flux(tau) = tau, window width 1:
    # int_{t-1}^t tau/sqrt(t-tau) dtau = 2t - 2/3
    for t in (1.0, 2.0, 10.0, 1e4):
        got = sqrt_window_integral(lambda s: np.asarray(s, dtype=float), t, 1.0)
        assert got == pytest.approx(2.0 * t - 2.0 / 3.0, rel=1e-12)


def test_sqrt_window_matches_weighted_quad():
    k = CoefficientSpec.power(1.0, 3.0)

    def flux(ts):
        return np.asarray(ts, dtype=float) * eval_coeff(k, ts)

    for t in (2.0, 7.0, 42.0):
        direct, _ = integrate.quad(lambda s: float(flux(s)), t - 1.0, t,
                                   weight="alg", wvar=(0.0, -0.5))
        assert sqrt_window_integral(flux, t, 1.0) == pytest.approx(direct, rel=1e-9)


def test_sqrt_window_domain_guard():
    with pytest.raises(DomainError):
        sqrt_window_integral(lambda s: s, 0.5, 1.0)


def _t_times(k):
    """The flux t k(t)."""
    return effective_flux(ZERO, k, 2.0)


def test_memory_window_check_decaying():
    # flux t*k decays like t^-2: the windowed sup stabilizes early
    res = memory_window_check(_t_times(CoefficientSpec.power(1.0, 3.0)))
    assert res.holds
    assert res.k_sup > 0.0


def test_memory_window_check_growing():
    # k constant: windowed integral grows linearly, sup keeps moving
    res = memory_window_check(_t_times(CoefficientSpec.constant(1.0)))
    assert not res.holds
    assert res.k_sup == pytest.approx(2.0 * 1e4 - 2.0 / 3.0, rel=1e-6)


_WINDOW_KS = [CoefficientSpec.power(1.0, 3.0),
               CoefficientSpec.power_log(1.0, 2.0, 1, log_power=1.0),
               CoefficientSpec.constant(0.5)]


@pytest.mark.parametrize("k", _WINDOW_KS, ids=lambda k: k.family)
def test_memory_window_check_matches_per_probe_integrals(k):
    res = memory_window_check(_t_times(k))

    def flux(ts):
        return np.asarray(ts, dtype=float) * eval_coeff(k, ts)
    want = [sqrt_window_integral(flux, float(t), 1.0) for t in res.probe_times]
    np.testing.assert_allclose(res.values, want, rtol=1e-14, atol=0.0)


def test_memory_window_check_effective_flux_matches_per_probe_integrals():
    k = CoefficientSpec.power(1.0, 3.0)
    flux = effective_flux(CoefficientSpec.power_log(1.0, 1.0, 1), k, 2.0)
    res = memory_window_check(flux)
    want = [sqrt_window_integral(flux, float(t), 1.0) for t in res.probe_times]
    np.testing.assert_allclose(res.values, want, rtol=1e-14, atol=0.0)


def test_memory_window_check_calls_flux_on_one_flat_array():
    shapes = []

    def flux(ts):
        assert ts.ndim == 1
        shapes.append(ts.shape)
        return np.ones_like(ts)

    res = memory_window_check(Flux(flux, GrowthForm()))
    assert shapes == [(120 * 48,)]
    # flux 1 over a width-1 window: int_0^1 s^-1/2 ds = 2
    np.testing.assert_allclose(res.values, 2.0, rtol=1e-14)


def test_memory_window_check_decides_by_the_growth_form():
    # t e^{-t/1000} peaks at t = 1000, inside the last probed decade, and
    # is bounded
    res = memory_window_check(_t_times(CoefficientSpec.exp_decay(1.0, 1e-3)))
    assert res.holds
    assert res.k_sup == pytest.approx(2.0 * 1e3 / math.e, rel=1e-3)
    # a flux with a bounded form still fails when its probed sup overflows
    inf = Flux(lambda ts: np.full_like(ts, np.inf), GrowthForm())
    assert not memory_window_check(inf).holds
