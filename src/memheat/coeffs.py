"""Time-dependent coefficient families and improper-integral verdicts.

The solver and the regime classifier consume nonnegative continuous
coefficients of time.  Five parametric families cover the regimes the
classifier distinguishes; each names the analytic family it equals for
large t (`CoefficientSpec.eventual`, a table's last value held constant).
Every judgement on behaviour as t -> inf that the classifier and the
oracle make lives here, and each is read off a growth form: improper
integrals against a power weight, boundedness and eventual monotonicity.
Samples only report the sup of a windowed flux.  The value of a
convergent improper integral, cumulative integrals C(t) = int_0^t c, their
tails and the weights ln int_0^t e^{mC} are closed forms where the family
allows and otherwise use one Gauss-Legendre rule on dyadic panels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NotApplicableError

FAMILIES = ("constant", "power", "exp_decay", "power_log", "tabulated")

CONVERGES = "Converges"
DIVERGES = "Diverges"

_EXP_TOL = 1e-12  # tolerance when comparing exponents for borderline cases
_MAX_LOG_DEPTH = 3  # T_4 = e^(T_3) = e^(3.8e6) overflows a float


def as_real(value, key: str, entry: bool = False) -> float:
    """value as a float; bool and non-real values raise a ConfigurationError
    about key, or about an entry of key's value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{'entry ' if entry else ''}must be a real number, not {value!r}", key)
    return float(value)


# ---------------------------------------------------------------------------
# iterated logarithms

def log_tower(j: int) -> float:
    """T_j, the tower of exponentials: T_0 = 1, T_1 = e, T_2 = e^e, ..."""
    if j < 0:
        raise DomainError("tower height must be >= 0")
    t = 1.0
    for _ in range(j):
        t = math.exp(t)
    return t


def _log_chain(s, depth: int, log):
    """(ln_depth s, l_depth(s)) by repeated log (math.log or np.log); (s, 1.0) at depth 0."""
    v, prod = s, 1.0
    for _ in range(depth):
        v = log(v)
        prod = prod * v
    return v, prod


# ---------------------------------------------------------------------------
# coefficient specs

@dataclass(frozen=True)
class CoefficientSpec:
    """One nonnegative coefficient of time.

    family
        "constant":  c0
        "power":     c0 * (1+t)^(-gamma)
        "exp_decay": c0 * exp(-lam*t)
        "power_log": c0 / ((T_j+t)^gamma * l_j(T_j+t) * ln_j(T_j+t)^log_power),
                     shifted by the tower T_j so every log factor is >= 1 at t=0.
                     With log_depth == 0 the log factors are absent and the family
                     coincides with "power" (log_power is inert).
        "tabulated": piecewise-linear through `table`, constant extrapolation
                     of the first/last value, times `amplitude`.
    """

    family: str
    amplitude: float = 1.0
    gamma: float = 0.0
    lam: float = 0.0
    log_depth: int = 0
    log_power: float = 0.0
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"must be one of {FAMILIES}, not {self.family!r}",
                                     "family")
        for key in ("amplitude", "gamma", "lam", "log_power"):
            as_real(getattr(self, key), key)
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ConfigurationError("must be finite and >= 0", "amplitude")
        if not math.isfinite(self.gamma):
            raise ConfigurationError("must be finite", "gamma")
        if self.family in ("power", "power_log") and self.gamma < 0:
            raise ConfigurationError("must be >= 0", "gamma")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ConfigurationError("must be finite and >= 0", "lam")
        depth = self.log_depth
        if not isinstance(depth, numbers.Integral) or isinstance(depth, bool) \
                or not 0 <= depth <= _MAX_LOG_DEPTH:
            raise ConfigurationError(
                f"must be an integer in [0, {_MAX_LOG_DEPTH}], not {depth!r}", "log_depth")
        if self.log_power < 0:
            raise ConfigurationError("must be >= 0", "log_power")
        if self.family == "tabulated":
            try:
                pairs = [(t, v) for t, v in self.table]
            except (TypeError, ValueError):
                pairs = []
            if not pairs:
                raise ConfigurationError("must be a list of one or more [t, value] pairs",
                                         "table")
            ts = [as_real(t, "table", entry=True) for t, _ in pairs]
            vs = [as_real(v, "table", entry=True) for _, v in pairs]
            # a JSON table arrives as lists, perhaps of integers
            object.__setattr__(self, "table", tuple(zip(ts, vs)))
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigurationError("times must be strictly increasing", "table")
            if ts[0] < 0:
                raise ConfigurationError("times must be >= 0", "table")
            if any(v < 0 or not math.isfinite(v) for v in vs):
                raise ConfigurationError("values must be finite and >= 0", "table")
            if not math.isfinite(self.amplitude * max(vs)):
                raise ConfigurationError("values times amplitude must be finite", "table")
        elif self.table is not None:
            raise ConfigurationError("belongs to the tabulated family only", "table")

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, c0: float) -> "CoefficientSpec":
        return cls("constant", amplitude=c0)

    @classmethod
    def power(cls, c0: float, gamma: float) -> "CoefficientSpec":
        return cls("power", amplitude=c0, gamma=gamma)

    @classmethod
    def exp_decay(cls, c0: float, lam: float) -> "CoefficientSpec":
        return cls("exp_decay", amplitude=c0, lam=lam)

    @classmethod
    def power_log(cls, c0: float, gamma: float, log_depth: int,
                  log_power: float = 0.0) -> "CoefficientSpec":
        return cls("power_log", amplitude=c0, gamma=gamma,
                   log_depth=log_depth, log_power=log_power)

    @classmethod
    def tabulated(cls, table: Sequence[Sequence[float]],
                  amplitude: float = 1.0) -> "CoefficientSpec":
        return cls("tabulated", amplitude=amplitude, table=table)

    def __call__(self, t):
        return eval_coeff(self, t)

    @cached_property
    def _scalar_law(self) -> tuple[str, float, float, Callable[[float], float]]:
        """(family, amplitude, -gamma, formula on math) for `eval_coeff`,
        built on first use: the float amplitude and -gamma give the
        formula's bits, since an int operand converts to the same float
        either way."""
        return (self.family, float(self.amplitude), -float(self.gamma),
                _formula(self, math.exp, math.log))

    @cached_property
    def canonical(self) -> "CoefficientSpec":
        """The same function in its simplest family, found on first use:
        power with gamma 0 and exp_decay with lambda 0 are constant, and
        power_log with log_depth 0 is power."""
        if self.family == "power_log" and self.log_depth == 0:
            return CoefficientSpec.power(self.amplitude, self.gamma).canonical
        if (self.family == "power" and self.gamma == 0.0
                or self.family == "exp_decay" and self.lam == 0.0):
            return CoefficientSpec.constant(self.amplitude)
        return self

    @cached_property
    def eventual(self) -> "CoefficientSpec":
        """The canonical spec this one equals for all large t: a table is
        its last value, times the amplitude, held constant."""
        if self.family == "tabulated":
            return CoefficientSpec.constant(self.amplitude * self.table[-1][1])
        return self.canonical

    @property
    def is_zero(self) -> bool:
        if self.amplitude == 0.0:
            return True
        if self.family == "tabulated":
            return all(v == 0.0 for _, v in self.table)
        return False


def _formula(spec: CoefficientSpec, exp, log) -> Callable:
    """The coefficient as a function of t >= 0, built on exp and log from
    math (one float) or numpy (arrays)."""
    amp, neg_gamma, neg_lam = spec.amplitude, -spec.gamma, -spec.lam
    if spec.family == "constant":
        return lambda t: amp
    if spec.family == "power":
        return lambda t: amp * (1.0 + t) ** neg_gamma
    if spec.family == "exp_decay":
        return lambda t: amp * exp(neg_lam * t)
    if spec.family == "tabulated":
        return _table_formula(spec.table, amp)
    depth, gamma, log_power = spec.log_depth, spec.gamma, spec.log_power
    tower = log_tower(depth)

    def power_log(t):
        s = tower + t
        v, prod = _log_chain(s, depth, log)
        denom = s ** gamma * prod
        if depth >= 1 and log_power != 0.0:
            denom = denom * v ** log_power
        return amp / denom
    return power_log


def _table_formula(table, amp: float) -> Callable:
    """Piecewise-linear interpolation through `table`, constant outside it,
    at one float t or an array of times.

    Each segment is weighted as (1 - w) * v0 + w * v1 with w clamped to
    [0, 1], not by a slope as np.interp does: a slope (v1 - v0) / (t1 - t0)
    overflows to inf when two nodes sit closer than the value step over
    DBL_MAX.  The offset t - t0 is clamped to the segment before it is
    divided by the width, which may be subnormal.  The ends return the first
    and last value exactly."""
    ts, vs = (np.array(col) for col in zip(*table))
    if ts.size == 1:
        return lambda t: amp * vs[0] + 0.0 * t
    # per segment j: start time, width, end values; the interior nodes pick j
    inner, t0, width, v0, v1 = ts[1:-1], ts[:-1], np.diff(ts), vs[:-1], vs[1:]

    def table_at(t):
        j = np.searchsorted(inner, t, side="right")
        w = np.minimum(np.maximum(t - t0[j], 0.0), width[j]) / width[j]
        return amp * ((1.0 - w) * v0[j] + w * v1[j])
    return table_at


ZERO = CoefficientSpec.constant(0.0)


def eval_coeff(spec: CoefficientSpec, t):
    """Evaluate the coefficient at t (scalar or array), t >= 0.

    A float t >= 0, the stepping loop's case, computes a constant or a power
    in this one frame and calls the math formula otherwise; an int, a numpy
    integer or float, or a NaN is converted to a float and calls the formula.
    """
    if t.__class__ is float and t >= 0.0:
        family, amp, exponent, f = spec._scalar_law
        if family == "constant":
            return amp
        if family == "power":
            return amp * (1.0 + t) ** exponent
        return float(f(t))
    if isinstance(t, (int, float, np.integer)):
        if t < 0:
            raise DomainError("coefficients are defined for t >= 0")
        return float(spec._scalar_law[3](float(t)))
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("coefficients are defined for t >= 0")
    if spec.family == "constant":
        return np.full_like(arr, spec.amplitude)
    return _formula(spec, np.exp, np.log)(arr)


# Every coefficient is nonincreasing for large t: an analytic family decays
# or stays flat on all of t >= 0 (amplitude, gamma and lambda are >= 0), and
# a table is constant past its last node.
EVENTUALLY_NONINCREASING = True


def coefficient_sup(spec: CoefficientSpec, t_max: float) -> float:
    """sup of the coefficient on [0, t_max].

    The four analytic families are nonincreasing (EVENTUALLY_NONINCREASING),
    so the sup sits at t = 0; a tabulated spec is piecewise linear, so its
    sup sits at 0, at t_max or at a node in between.
    """
    if spec.family != "tabulated":
        return eval_coeff(spec, 0.0)
    ts = [0.0, t_max] + [t for t, _ in spec.table if t <= t_max]
    return float(eval_coeff(spec, np.array(ts)).max())


# ---------------------------------------------------------------------------
# JSON mapping

# each family's JSON keys after "family", in the order spec_to_json writes
# them; a key sets the field of its name, but for "lambda", which sets `lam`
_FAMILY_KEYS = {
    "constant": ("amplitude",),
    "power": ("amplitude", "gamma"),
    "exp_decay": ("amplitude", "lambda"),
    "power_log": ("amplitude", "gamma", "log_depth", "log_power"),
    "tabulated": ("amplitude", "table"),
}
_FIELD_OF_KEY = {"lambda": "lam"}
_KEY_OF_FIELD = {f: k for k, f in _FIELD_OF_KEY.items()}


def spec_to_json(spec: CoefficientSpec) -> dict:
    doc = {"family": spec.family}
    for key in _FAMILY_KEYS[spec.family]:
        value = getattr(spec, _FIELD_OF_KEY.get(key, key))
        doc[key] = [list(row) for row in value] if key == "table" else value
    return doc


def spec_from_json(doc: dict, where: str) -> CoefficientSpec:
    """The spec a JSON object describes; an error names its key as where.key."""
    if not isinstance(doc, dict):
        raise ConfigurationError("must be an object", where)
    family = doc.get("family")
    if family not in FAMILIES:
        raise ConfigurationError(f"must be one of {FAMILIES}", f"{where}.family")
    keys = _FAMILY_KEYS[family]
    kwargs = {}
    for key, value in doc.items():
        if key != "family" and key not in keys:
            raise ConfigurationError(f"unknown key {key!r} in {where}")
        kwargs[_FIELD_OF_KEY.get(key, key)] = value
    try:
        return CoefficientSpec(**kwargs)
    except ConfigurationError as exc:
        key = _KEY_OF_FIELD.get(exc.key, exc.key)
        raise ConfigurationError(exc.detail, f"{where}.{key}") from None


# ---------------------------------------------------------------------------
# cumulative integrals

_PANEL_NODES = 20  # Gauss-Legendre nodes per panel of C(t) and log_int_exp

# The positive nodes and their weights of numpy's leggauss(n) on [-1, 1],
# ascending, for the two rules in use (_PANEL_NODES and _WINDOW_NODES).
# leggauss's rules are exactly antisymmetric in x and symmetric in w, so
# mirroring these halves gives its arrays bit for bit.
_GAUSS_HALVES = {
    20: (
        (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
         0.5108670019508271, 0.636053680726515, 0.7463319064601508,
         0.8391169718222188, 0.912234428251326, 0.9639719272779138,
         0.993128599185095),
        (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
         0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
         0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
         0.017614007139150893),
    ),
    48: (
        (0.03238017096286937, 0.0970046992094627, 0.1612223560688917,
         0.22476379039468905, 0.28736248735545555, 0.3487558862921607,
         0.4086864819907167, 0.4669029047509584, 0.523160974722233,
         0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
         0.7240341309238146, 0.7671590325157404, 0.8070662040294426,
         0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
         0.9313866907065543, 0.9529877031604308, 0.9705915925462473,
         0.9841245837228269, 0.9935301722663508, 0.9987710072524261),
        (0.06473769681268365, 0.06446616443594982, 0.06392423858464787,
         0.06311419228625373, 0.06203942315989242, 0.0607044391658936,
         0.059114839698395344, 0.057277292100402916, 0.05519950369998403,
         0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
         0.04467456085669423, 0.04154508294346455, 0.0382413510658305,
         0.034777222564770394, 0.031167227832798097, 0.027426509708357034,
         0.023570760839324047, 0.019616160457356056, 0.015579315722943226,
         0.011477234579234614, 0.007327553901276135, 0.0031533460523098414),
    ),
}


@lru_cache(maxsize=16)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [0, 1] as (nodes, weights).

    Built from _GAUSS_HALVES on first use and shared read-only by callers.
    """
    x, w = map(np.array, _GAUSS_HALVES[nodes])
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    u, w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _panel_sums(f: Callable, a, b):
    """int_a^b f by the panel rule, elementwise over arrays a <= b; f maps
    an array of times to values."""
    u, w = _gauss_rule(_PANEL_NODES)
    width = b - a
    # far out s^gamma overflows to inf, where the coefficient is 0
    with np.errstate(over="ignore"):
        vals = f(a[..., None] + width[..., None] * u)
    return width * np.sum(vals * w, axis=-1)


def bisect_crossing(g: Callable[[float], float], lo: float, hi: float) -> float:
    """The point in (lo, hi] where g turns nonnegative, given g(lo) < 0 <=
    g(hi): bisection until no float lies between the ends, then hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def harmonic_lane(spec: CoefficientSpec) -> bool:
    """Whether spec = A/(1+t): a power with gamma exactly 1.

    On this lane C(t) = A ln(1+t) and log_int_exp has a closed form.
    """
    return spec.family == "power" and spec.gamma == 1.0


def log_lane(spec: CoefficientSpec) -> Optional[tuple[float, int]]:
    """(A, j) when spec = A/((T_j+t) l_j(T_j+t)) with j >= 1, else None.

    On this lane C(t) = A ln_{j+1}(T_j+t), since ln_{j+1}(T_j) = 0.
    """
    if (spec.family == "power_log" and spec.log_depth >= 1
            and spec.gamma == 1.0 and spec.log_power == 0.0):
        return spec.amplitude, spec.log_depth
    return None


def _log_lane_chain(t, j: int):
    """ln_{j+1}(T_j + t) without cancellation at small t.

    ln(T_i + d) = T_{i-1} + log1p(d/T_i) for i >= 1, so peeling one tower
    level per log leaves d = log1p(d/T_i) at each level, down to T_0 = 1.
    """
    d = t
    for i in range(j, -1, -1):
        d = np.log1p(d / log_tower(i))
    return d


class CumulativeIntegral:
    """C(t) = int_0^t f, plus tails and log-domain exponential integrals.

    C(t) works on the canonical form of the spec, so aliases share a path:
    closed form for constant, power, exp_decay and the log lane of power_log
    (`log_lane`), exact piecewise for tabulated, and for the rest of
    power_log a table of Gauss-Legendre panel sums on the dyadic panels
    [0, 1], [1, 2], [2, 4], ... plus one partial panel (`_panel_sums`).
    The same rule gives `log_int_exp` off its closed forms; `tail` is the
    total integral less C(t).
    """

    def __init__(self, spec: CoefficientSpec):
        self.spec = spec.canonical

    def __call__(self, t):
        if isinstance(t, (int, float)):
            # a float takes the same numpy ufuncs as a 0-d array, which give
            # the same bits, without the array
            if t < 0:
                raise DomainError("cumulative integral defined for t >= 0")
            return float(self._cumulative(float(t)))
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError("cumulative integral defined for t >= 0")
        out = self._cumulative(arr)
        return float(out) if arr.ndim == 0 else out

    def _cumulative(self, t):
        """C(t) for a float or an array t >= 0."""
        sp = self.spec
        if sp.family == "tabulated":
            return self._tabulated_cumulative(np.asarray(t))
        if sp.family == "constant":
            return sp.amplitude * t
        if harmonic_lane(sp):
            return sp.amplitude * np.log1p(t)
        if sp.family == "power":
            # (1+t)^(1-gamma) - 1 as expm1, without cancellation at small t
            e = 1.0 - sp.gamma
            return sp.amplitude * np.expm1(e * np.log1p(t)) / e
        if sp.family == "exp_decay":
            return sp.amplitude * (-np.expm1(-sp.lam * t)) / sp.lam
        if log_lane(sp) is not None:
            return sp.amplitude * _log_lane_chain(t, sp.log_depth)
        edges, cum = self._panel_table
        t = np.asarray(t)
        j = np.searchsorted(edges, t, side="right") - 1
        return cum[j] + _panel_sums(self.spec, edges[j], t)

    def _tabulated_cumulative(self, arr):
        sp = self.spec
        ts = np.array([0.0] + [row[0] for row in sp.table if row[0] > 0.0])
        vs = eval_coeff(sp, ts)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))])
        # past the last node f is constant, so the trapezoid is exact there too
        j = np.searchsorted(ts, arr, side="right") - 1
        return cum[j] + 0.5 * (vs[j] + eval_coeff(sp, arr)) * (arr - ts[j])

    @cached_property
    def _panel_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, C at the edges) for the panels [0, 1], [1, 2], [2, 4], ...
        up to 2^1023, the largest power of two in a float; built on first use."""
        edges = np.concatenate([[0.0], np.ldexp(1.0, np.arange(1024))])
        sums = _panel_sums(self.spec, edges[:-1], edges[1:])
        return edges, np.concatenate([[0.0], np.cumsum(sums)])

    @cached_property
    def _total(self) -> IntegralVerdict:
        """The verdict on int_0^inf f, taken on first use."""
        return integrate_improper(self.spec)

    def tail(self, t):
        """int_t^inf f = int_0^inf f - C(t), for a float or an array t >= 0.
        Raises NotApplicableError when divergent, or convergent to a value
        that overflows."""
        total = self._total
        if not total.converges:
            raise NotApplicableError(
                f"tail integral does not converge ({total.status})")
        if not math.isfinite(total.value):
            raise NotApplicableError(
                f"tail integral converges but its value is not finite "
                f"({total.evidence})")
        return total.value - self(t)

    def log_int_exp(self, t, mult: float):
        """ln of int_0^t exp(mult * C(tau)) dtau, evaluated without overflow.

        t may be an array on the closed forms: c = 0 or mult A = 0 in
        floats, constant c and harmonic c = A/(1+t).
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError("log_int_exp defined for t >= 0")
        sp = self.spec
        with np.errstate(divide="ignore"):
            if sp.is_zero or mult * sp.amplitude == 0.0:
                out = np.log(arr)
            elif sp.family == "constant":
                # int_0^t e^{r tau} = e^{rt} (1 - e^{-rt})/r, r = mult A
                r = mult * sp.amplitude
                out = r * arr + np.log(-np.expm1(-r * arr)) - math.log(r)
            elif harmonic_lane(sp):
                # int_0^t (1+tau)^e = e^x (1 - e^{-x})/(e+1), e = mult A and
                # x = (e+1) ln(1+t)
                e1 = mult * sp.amplitude + 1.0
                x = e1 * np.log1p(arr)
                out = x + np.log(-np.expm1(-x)) - math.log(e1)
            else:
                return self._log_int_exp_panels(float(t), mult)
        return float(out) if arr.ndim == 0 else out

    def _log_int_exp_panels(self, t: float, mult: float) -> float:
        """log_int_exp by the panel rule.

        The integrand exp(mult (C(tau) - C(t))) <= 1 varies on the scale
        1/(mult sup f), so panels of about that width sit at tau = 0 and
        tau = t and double toward t/2; a tabulated f adds its nodes as edges.
        """
        if t == 0.0:
            return -math.inf
        rate = mult * coefficient_sup(self.spec, t)
        h = 2.0 ** -math.ceil(math.log2(max(rate, 1.0)))
        half = 0.5 * t
        d = np.ldexp(h, np.arange(math.frexp(half / h)[1]))
        d = d[d < half]
        edges = np.concatenate([[0.0], d, [half], t - d[::-1], [t]])
        if self.spec.family == "tabulated":
            edges = np.union1d(edges, [row[0] for row in self.spec.table
                                       if 0.0 < row[0] < t])
        ct = self(t)

        def g(tau):
            return np.exp(np.minimum(mult * (self(tau) - ct), 0.0))
        val = float(np.sum(_panel_sums(g, edges[:-1], edges[1:])))
        return mult * ct + math.log(max(val, 1e-300))


# ---------------------------------------------------------------------------
# asymptotic growth forms

@dataclass(frozen=True)
class GrowthForm:
    """Envelope  C * e^{exp_rate t} * e^{stretch_rate t^stretch_pow} * t^power * prod ln_i(t)^logs[i]."""

    exp_rate: float = 0.0
    stretch_rate: float = 0.0
    stretch_pow: float = 0.0
    power: float = 0.0
    logs: tuple[float, ...] = ()
    zero: bool = False

    def times(self, other: "GrowthForm") -> "GrowthForm":
        if self.zero or other.zero:
            return GrowthForm(zero=True)
        if self.stretch_rate and other.stretch_rate and \
                abs(self.stretch_pow - other.stretch_pow) > _EXP_TOL:
            raise NotApplicableError("incompatible stretched-exponential factors")
        sp = self.stretch_pow if self.stretch_rate else other.stretch_pow
        n = max(len(self.logs), len(other.logs))
        logs = tuple(
            exponent_sum(self.logs[i] if i < len(self.logs) else 0.0,
                         other.logs[i] if i < len(other.logs) else 0.0)
            for i in range(n)
        )
        return GrowthForm(
            exp_rate=_rate_sum(self.exp_rate, other.exp_rate),
            stretch_rate=_rate_sum(self.stretch_rate, other.stretch_rate),
            stretch_pow=sp,
            power=exponent_sum(self.power, other.power),
            logs=logs,
        )


def _rate_sum(a: float, b: float) -> float:
    """a + b, or 0 where the sum is within _EXP_TOL of the larger term,
    relative to it: the rounding noise of a balance such as x A - lam.  An
    infinite term stays infinite."""
    s = a + b
    return 0.0 if abs(s) < _EXP_TOL * max(abs(a), abs(b)) else s


def exponent_sum(*terms: float) -> float:
    """The sum of power (or iterated-log) exponents, or the borderline 0 or
    -1 where the sum is within _EXP_TOL of it: the rounding noise of a
    balance such as a + n s + x A - gamma.  A sum with one nonzero term is
    that term, which nothing rounded, and is compared exactly."""
    s = 0.0
    for term in terms:
        s += term
    if sum(term != 0.0 for term in terms) < 2:
        return s
    for border in (0.0, -1.0):
        if abs(s - border) <= _EXP_TOL:
            return border
    return s


def growth_form(spec: CoefficientSpec) -> GrowthForm:
    """Tail growth form of spec, read off `spec.eventual`."""
    spec = spec.eventual
    if spec.is_zero:
        return GrowthForm(zero=True)
    fam = spec.family
    if fam == "constant":
        return GrowthForm()
    if fam == "power":
        return GrowthForm(power=-spec.gamma)
    if fam == "exp_decay":
        return GrowthForm(exp_rate=-spec.lam)
    logs = (-1.0,) * (spec.log_depth - 1) + (-(1.0 + spec.log_power),)
    return GrowthForm(power=-spec.gamma, logs=logs)


def exponent_text(e: float, border: float) -> str:
    """e to 6 significant digits, or to every digit where 6 would read as
    the borderline that e is not."""
    text = f"{e:.6g}"
    return repr(e) if float(text) == border != e else text


def tail_verdict(form: GrowthForm) -> tuple[str, str]:
    """(status, reason) for int^inf of a function with the given growth form.

    Rates are judged by their sign, powers and log exponents against their
    borderline -1 exactly; a sum of exponents that was a balance already
    reads as the borderline (`exponent_sum`).
    """
    if form.zero:
        return CONVERGES, "integrand vanishes for large t"
    if form.exp_rate > 0.0:
        return DIVERGES, f"exponential growth rate {form.exp_rate:.6g}"
    if form.exp_rate < 0.0:
        return CONVERGES, f"exponential decay rate {form.exp_rate:.6g}"
    if form.stretch_rate > 0.0:
        return DIVERGES, f"stretched-exponential growth ~ exp({form.stretch_rate:.4g} t^{form.stretch_pow:.4g})"
    if form.stretch_rate < 0.0:
        return CONVERGES, f"stretched-exponential decay ~ exp({form.stretch_rate:.4g} t^{form.stretch_pow:.4g})"
    power = exponent_text(form.power, -1.0)
    if form.power > -1.0:
        return DIVERGES, f"tail ~ t^{power} with exponent > -1"
    if form.power < -1.0:
        return CONVERGES, f"tail ~ t^{power} with exponent < -1"
    # harmonic borderline: ladder of iterated-log exponents
    for i, e in enumerate(form.logs, start=1):
        text = exponent_text(e, -1.0)
        if e > -1.0:
            return DIVERGES, f"harmonic tail, ln_{i} exponent {text} > -1"
        if e < -1.0:
            return CONVERGES, f"harmonic tail, ln_{i} exponent {text} < -1"
    return DIVERGES, "harmonic tail with all iterated-log exponents = -1"


def form_bounded(form: GrowthForm) -> bool:
    """Whether a function with this growth form stays bounded as t -> inf.

    The factors are compared in order of dominance (exponential, stretched
    exponential, power, then each iterated log); the first nonzero exponent
    decides, and a form with none is a constant.  Every exponent is judged
    by its sign; a sum of exponents that was a balance already reads 0
    (`_rate_sum`, `exponent_sum`).
    """
    if form.zero:
        return True
    for e in (form.exp_rate, form.stretch_rate, form.power) + form.logs:
        if e != 0.0:
            return e < 0.0
    return True


# ---------------------------------------------------------------------------
# improper integrals

@dataclass(frozen=True)
class IntegralVerdict:
    status: str
    value: Optional[float]
    evidence: str

    @property
    def converges(self) -> bool:
        return self.status == CONVERGES

    @property
    def diverges(self) -> bool:
        return self.status == DIVERGES


def integrate_improper(spec: CoefficientSpec, weight: float = 0.0) -> IntegralVerdict:
    """Verdict on int_0^inf t^weight * spec(t) dt.

    The verdict is the tail verdict of the growth form; a weight <= -1 is a
    DomainError, since t^weight is not integrable at 0.  A convergent
    integral of the canonical spec is valued in closed form or by the panel
    rule: a table by the panel rule over its nodes, since its eventual
    constant is then 0; exp_decay as A Gamma(a+1) / lam^(a+1); power as
    A B(a+1, gamma-a-1); power_log by `_power_log_total`.  A value that
    passes the float range is inf.
    """
    a = float(weight)
    if a <= -1.0:
        raise DomainError(f"weight must be > -1, not {a!r}: "
                          "t^weight is not integrable at 0")
    spec = spec.canonical
    status, reason = tail_verdict(growth_form(spec).times(GrowthForm(power=a)))
    if status == DIVERGES:
        return IntegralVerdict(DIVERGES, None, f"closed form: {reason}")
    if spec.is_zero:
        return IntegralVerdict(CONVERGES, 0.0, "closed form: integrand identically zero")
    if spec.family == "tabulated":
        edges = np.array([0.0] + [t for t, _ in spec.table if t > 0.0])
        value = float(np.sum(_panel_sums(lambda t: t ** a * eval_coeff(spec, t),
                                         edges[:-1], edges[1:])))
    elif spec.family == "exp_decay":
        value = exp_or_inf(math.log(spec.amplitude) + math.lgamma(a + 1.0)
                           - (a + 1.0) * math.log(spec.lam))
    elif spec.family == "power":
        value = exp_or_inf(math.log(spec.amplitude) + math.lgamma(a + 1.0)
                           + math.lgamma(spec.gamma - a - 1.0) - math.lgamma(spec.gamma))
    else:
        value = _power_log_total(spec, a)
    return IntegralVerdict(CONVERGES, value, f"closed form: {reason}")


def moment_criterion(spec: CoefficientSpec, a: float) -> tuple[IntegralVerdict, bool]:
    """(verdict on int_0^inf t^a spec(t) dt, whether t^(a+1) spec(t) stays
    bounded for large t): the divergence a moment blow-up criterion asks
    for, and its alternative spec <= B t^-(a+1) for large t."""
    return (integrate_improper(spec, weight=a),
            form_bounded(growth_form(spec).times(GrowthForm(power=a + 1.0))))


def exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where e^x passes the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power_log_total(spec: CoefficientSpec, a: float) -> float:
    """int_0^inf t^a spec(t) dt for a convergent power_log of depth j >= 1.

    In u = ln(T_j + t) = T_{j-1} + w it is A e^{-eps T_{j-1}} int_0^inf
    (1 - e^{-w})^a e^{-eps w} / (u l_{j-1}(u) ln_{j-1}(u)^lam) dw with
    eps = gamma - a - 1: the panel rule on [0, 2^-60] and dyadic panels up
    to where eps w passes 800.  On the borderline, where the power
    `exponent_sum`(-gamma, a) is -1, the panels stop at w = 2^7, where
    1 - e^{-w} is 1 in floats, and the rest is the antiderivative
    ln_{j-1}(u)^{-lam} / lam, exact but for e^{-eps w}.
    """
    j, lam = spec.log_depth, spec.log_power
    eps = spec.gamma - a - 1.0
    u0 = log_tower(j - 1)
    borderline = exponent_sum(-spec.gamma, a) == -1.0
    top = 7 if borderline else max(0, math.ceil(math.log2(800.0 / eps)))
    edges = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-60, top + 1))])

    def integrand(w):
        v, prod = _log_chain(u0 + w, j - 1, np.log)
        return (-np.expm1(-w)) ** a * np.exp(-eps * w) / ((u0 + w) * prod * v ** lam)
    body = math.exp(-eps * u0) * float(np.sum(_panel_sums(integrand, edges[:-1], edges[1:])))
    if borderline:
        body += float(_log_chain(u0 + edges[-1], j - 1, np.log)[0]) ** -lam / lam
    return spec.amplitude * body


# ---------------------------------------------------------------------------
# square-root-window supremum

# the window width, the first and last probe times, the number of probe
# times (geometric) and the Gauss-Legendre nodes per window; the geometry
# only sizes the reported sup, since `holds` is read off the growth form
_WINDOW_T0 = 1.0
_WINDOW_START = 2.0
_WINDOW_T_PROBE = 1e4
_WINDOW_PROBES = 120
_WINDOW_NODES = 48


def _window_rule(t0: float, nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Legendre rule on s in [0, sqrt(t0)]: (s^2, weights, scale)."""
    u, w = _gauss_rule(nodes)
    s2 = (math.sqrt(t0) * u) ** 2
    return s2, w, 2.0 * math.sqrt(t0)


@dataclass(frozen=True)
class Flux:
    """A flux for the window check: its values at a 1-D array of times, and
    the growth form of the function it equals for large t."""

    at: Callable
    form: GrowthForm

    def __call__(self, ts):
        return self.at(ts)


@dataclass(frozen=True)
class WindowBound:
    k_sup: float
    holds: bool
    probe_times: np.ndarray
    values: np.ndarray


def memory_window_check(flux: Flux) -> WindowBound:
    """Supremum over t in [_WINDOW_START, _WINDOW_T_PROBE] of the
    sqrt-window integral of flux, over windows of width _WINDOW_T0, from
    one call of flux on every window node of every probe time.

    A window of fixed width over a continuous flux is bounded for all t
    exactly when the flux is bounded for large t, so `holds` is
    `form_bounded` of its growth form; the probed sup only reports the
    size, and an overflow of it still fails.
    """
    times = np.geomspace(_WINDOW_START, _WINDOW_T_PROBE, _WINDOW_PROBES)
    s2, w, scale = _window_rule(_WINDOW_T0, _WINDOW_NODES)
    fvals = np.asarray(flux((times[:, None] - s2).ravel()), dtype=float)
    # a window of flux values near the float range sums to inf, and fails
    with np.errstate(over="ignore"):
        vals = scale * np.sum(w * fvals.reshape(_WINDOW_PROBES, _WINDOW_NODES), axis=1)
    k_sup = float(vals.max())
    holds = form_bounded(flux.form) and math.isfinite(k_sup)
    return WindowBound(k_sup=k_sup, holds=holds, probe_times=times, values=vals)
