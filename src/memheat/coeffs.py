"""Time-dependent coefficient families and improper-integral verdicts.

The solver and the regime classifier consume nonnegative continuous
coefficients of time.  Five parametric families cover the regimes the
classifier distinguishes; each family knows its own tail behavior, so
convergence questions are answered in closed form whenever possible and by
a guarded numerical protocol otherwise.  Every judgement on behaviour as
t -> inf that the classifier and the oracle make lives here: improper
integrals against a power weight, boundedness of a growth form, and the
sampled monotonicity and sup-stabilization checks.  Cumulative integrals
C(t) = int_0^t c, their tails and the weights ln int_0^t e^{mC} are closed
forms where the family allows and otherwise use one Gauss-Legendre rule on
dyadic panels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import ConfigurationError, DomainError, NotApplicableError

FAMILIES = ("constant", "power", "exp_decay", "power_log", "tabulated")

CONVERGES = "Converges"
DIVERGES = "Diverges"
INDETERMINATE = "Indeterminate"

_EXP_TOL = 1e-12  # tolerance when comparing exponents for borderline cases
_MAX_LOG_DEPTH = 3  # T_4 = e^(T_3) = e^(3.8e6) overflows a float
T_LARGE = 1e3  # where sampling "for large t" starts


def as_real(value, key: str) -> float:
    """value as a float; bool and non-real values raise a ConfigurationError naming key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{key} must be a real number, not {value!r}")
    return float(value)


def _check_log_depth(value, key: str) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or not 0 <= value <= _MAX_LOG_DEPTH:
        raise ConfigurationError(
            f"{key} must be an integer in [0, {_MAX_LOG_DEPTH}], not {value!r}")


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


def iterated_log(j: int, t):
    """ln_j t  (ln_1 = ln, ln_{j+1} = ln o ln_j).  Requires t > T_{j-1}."""
    if j < 1:
        raise DomainError("iterated_log depth must be >= 1")
    threshold = log_tower(j - 1)
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= threshold):
        raise DomainError(
            f"iterated_log depth {j} needs t > {threshold!r}; got min {arr.min()!r}")
    v, _ = _log_chain(arr, j, np.log)
    return float(v) if arr.ndim == 0 else v


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
            raise ConfigurationError(f"unknown coefficient family {self.family!r}")
        for key in ("amplitude", "gamma", "lam", "log_power"):
            as_real(getattr(self, key), key)
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ConfigurationError("amplitude must be finite and >= 0")
        if not math.isfinite(self.gamma):
            raise ConfigurationError("gamma must be finite")
        if self.family in ("power", "power_log") and self.gamma < 0:
            raise ConfigurationError("gamma must be >= 0")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ConfigurationError("lambda must be finite and >= 0")
        _check_log_depth(self.log_depth, "log_depth")
        if self.log_power < 0:
            raise ConfigurationError("log_power must be >= 0")
        if self.family == "tabulated":
            if not self.table:
                raise ConfigurationError("tabulated family needs a nonempty table")
            ts = [as_real(row[0], "table entry") for row in self.table]
            vs = [as_real(row[1], "table entry") for row in self.table]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigurationError("table times must be strictly increasing")
            if ts[0] < 0:
                raise ConfigurationError("table times must be >= 0")
            if any(v < 0 or not math.isfinite(v) for v in vs):
                raise ConfigurationError("table values must be finite and >= 0")
        elif self.table is not None:
            raise ConfigurationError("only the tabulated family carries a table")

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
        rows = tuple((as_real(a, "table entry"), as_real(b, "table entry"))
                     for a, b in table)
        return cls("tabulated", amplitude=amplitude, table=rows)

    def __call__(self, t):
        return eval_coeff(self, t)

    @cached_property
    def scalar(self) -> Callable[[float], float]:
        """Pure-math evaluator for one float t >= 0, compiled on first use."""
        f = _formula(self, math.exp, math.log)

        def scalar(t: float) -> float:
            if t < 0:
                raise DomainError("coefficients are defined for t >= 0")
            return float(f(t))
        return scalar

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
    DBL_MAX.  The ends return the first and last value exactly."""
    ts, vs = (np.array(col) for col in zip(*table))
    if ts.size == 1:
        return lambda t: amp * vs[0] + 0.0 * t
    # per segment j: start time, width, end values; the interior nodes pick j
    inner, t0, width, v0, v1 = ts[1:-1], ts[:-1], np.diff(ts), vs[:-1], vs[1:]

    def table_at(t):
        j = np.searchsorted(inner, t, side="right")
        w = np.minimum(np.maximum((t - t0[j]) / width[j], 0.0), 1.0)
        return amp * ((1.0 - w) * v0[j] + w * v1[j])
    return table_at


ZERO = CoefficientSpec.constant(0.0)


def eval_coeff(spec: CoefficientSpec, t):
    """Evaluate the coefficient at t (scalar or array), t >= 0."""
    if isinstance(t, (int, float)):
        return spec.scalar(float(t))
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("coefficients are defined for t >= 0")
    if spec.family == "constant":
        return np.full_like(arr, spec.amplitude)
    return _formula(spec, np.exp, np.log)(arr)


def coefficient_sup(spec: CoefficientSpec, t_max: float) -> float:
    """sup of the coefficient on [0, t_max].

    The four analytic families are nonincreasing, so the sup sits at t = 0;
    a tabulated spec is piecewise linear, so its sup sits at 0, at t_max or
    at a node in between.
    """
    if spec.family != "tabulated":
        return eval_coeff(spec, 0.0)
    ts = [0.0, t_max] + [t for t, _ in spec.table if t <= t_max]
    return float(eval_coeff(spec, np.array(ts)).max())


# ---------------------------------------------------------------------------
# JSON mapping

def spec_to_json(spec: CoefficientSpec) -> dict:
    d = {"family": spec.family, "amplitude": spec.amplitude}
    if spec.family == "power":
        d["gamma"] = spec.gamma
    elif spec.family == "exp_decay":
        d["lambda"] = spec.lam
    elif spec.family == "power_log":
        d["gamma"] = spec.gamma
        d["log_depth"] = spec.log_depth
        d["log_power"] = spec.log_power
    elif spec.family == "tabulated":
        d["table"] = [[a, b] for a, b in spec.table]
    return d


_JSON_KEYS = {
    "constant": {"family", "amplitude"},
    "power": {"family", "amplitude", "gamma"},
    "exp_decay": {"family", "amplitude", "lambda"},
    "power_log": {"family", "amplitude", "gamma", "log_depth", "log_power"},
    "tabulated": {"family", "amplitude", "table"},
}


def spec_from_json(doc: dict, where: str = "coefficient") -> CoefficientSpec:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be an object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise ConfigurationError(f"{where}.family must be one of {FAMILIES}")
    allowed = _JSON_KEYS[family]
    for key in doc:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {where}")
        if key in ("amplitude", "gamma", "lambda", "log_power"):
            as_real(doc[key], f"{where}.{key}")
        elif key == "log_depth":
            _check_log_depth(doc[key], f"{where}.log_depth")
    try:
        if family == "tabulated":
            return CoefficientSpec.tabulated(doc["table"],
                                             amplitude=doc.get("amplitude", 1.0))
        return CoefficientSpec(
            family,
            amplitude=doc.get("amplitude", 1.0),
            gamma=doc.get("gamma", 0.0),
            lam=doc.get("lambda", 0.0),
            log_depth=doc.get("log_depth", 0),
            log_power=doc.get("log_power", 0.0),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{where} is missing required key {exc}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}.table must be a list of [t, value] pairs") from exc


# ---------------------------------------------------------------------------
# cumulative integrals

_PANEL_NODES = 20  # Gauss-Legendre nodes per panel of C(t) and log_int_exp


@lru_cache(maxsize=16)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [0, 1] as (nodes, weights).

    Built on first use (never at import) and shared read-only by callers.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
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


def log_lane(spec: CoefficientSpec) -> Optional[tuple[float, int]]:
    """(A, j) when spec = A/((T_j+t) l_j(T_j+t)) with j >= 1, else None.

    On this lane C(t) = A ln_{j+1}(T_j+t), since ln_{j+1}(T_j) = 0.
    """
    if (spec.family == "power_log" and spec.log_depth >= 1
            and abs(spec.gamma - 1.0) <= _EXP_TOL and spec.log_power == 0.0):
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
        if sp.family == "power":
            if abs(sp.gamma - 1.0) <= _EXP_TOL:
                return sp.amplitude * np.log1p(t)
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
        Raises NotApplicableError when divergent."""
        total = self._total
        if not total.converges:
            raise NotApplicableError(
                f"tail integral does not converge ({total.status})")
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
            elif sp.family == "power" and abs(sp.gamma - 1.0) <= _EXP_TOL:
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
            (self.logs[i] if i < len(self.logs) else 0.0)
            + (other.logs[i] if i < len(other.logs) else 0.0)
            for i in range(n)
        )
        return GrowthForm(
            exp_rate=self.exp_rate + other.exp_rate,
            stretch_rate=self.stretch_rate + other.stretch_rate,
            stretch_pow=sp,
            power=self.power + other.power,
            logs=logs,
        )


def growth_form(spec: CoefficientSpec) -> Optional[GrowthForm]:
    """Tail growth form of a family, or None when unknown (tabulated)."""
    if spec.is_zero:
        return GrowthForm(zero=True)
    spec = spec.canonical
    fam = spec.family
    if fam == "constant":
        return GrowthForm()
    if fam == "power":
        return GrowthForm(power=-spec.gamma)
    if fam == "exp_decay":
        return GrowthForm(exp_rate=-spec.lam)
    if fam == "power_log":
        logs = (-1.0,) * (spec.log_depth - 1) + (-(1.0 + spec.log_power),)
        return GrowthForm(power=-spec.gamma, logs=logs)
    return None


def tail_verdict(form: GrowthForm) -> tuple[str, str]:
    """(status, reason) for int^inf of a function with the given growth form."""
    if form.zero:
        return CONVERGES, "integrand vanishes identically"
    if form.exp_rate > _EXP_TOL:
        return DIVERGES, f"exponential growth rate {form.exp_rate:.6g}"
    if form.exp_rate < -_EXP_TOL:
        return CONVERGES, f"exponential decay rate {form.exp_rate:.6g}"
    if form.stretch_rate > _EXP_TOL:
        return DIVERGES, f"stretched-exponential growth ~ exp({form.stretch_rate:.4g} t^{form.stretch_pow:.4g})"
    if form.stretch_rate < -_EXP_TOL:
        return CONVERGES, f"stretched-exponential decay ~ exp({form.stretch_rate:.4g} t^{form.stretch_pow:.4g})"
    if form.power > -1.0 + _EXP_TOL:
        return DIVERGES, f"tail ~ t^{form.power:.6g} with exponent > -1"
    if form.power < -1.0 - _EXP_TOL:
        return CONVERGES, f"tail ~ t^{form.power:.6g} with exponent < -1"
    # harmonic borderline: ladder of iterated-log exponents
    for i, e in enumerate(form.logs, start=1):
        if e > -1.0 + _EXP_TOL:
            return DIVERGES, f"harmonic tail, ln_{i} exponent {e:.6g} > -1"
        if e < -1.0 - _EXP_TOL:
            return CONVERGES, f"harmonic tail, ln_{i} exponent {e:.6g} < -1"
    return DIVERGES, "harmonic tail with all iterated-log exponents = -1"


def form_bounded(form: GrowthForm) -> bool:
    """Whether a function with this growth form stays bounded as t -> inf.

    The factors are compared in order of dominance (exponential, stretched
    exponential, power, then each iterated log); the first nonzero exponent
    decides, and a form with none is a constant.
    """
    if form.zero:
        return True
    for e in (form.exp_rate, form.stretch_rate, form.power) + form.logs:
        if abs(e) > _EXP_TOL:
            return e < 0.0
    return True


# ---------------------------------------------------------------------------
# sampled checks for eventual behaviour

def sampled_nonincreasing(values) -> bool:
    """Whether samples taken in time order never rise by more than 1e-9
    relative; a non-finite sample fails."""
    v = np.asarray(values, dtype=float)
    return bool(np.isfinite(v).all()
                and np.all(np.diff(v) <= 1e-9 * np.maximum(v[:-1], 1e-300)))


def sup_stabilized(times, values) -> tuple[float, float, bool]:
    """(sup, early sup, holds) of samples on a geometric grid of times.

    The early sup is taken over the times up to a tenth of the last one
    (at least the first quarter of the grid); `holds` when every sample is
    finite and the last decade adds at most 0.1% to the early sup.
    """
    times, values = np.asarray(times), np.asarray(values, dtype=float)
    early_mask = times <= times[-1] / 10.0
    if not early_mask.any():
        early_mask = times <= times[max(1, len(times) // 4)]
    late, early = float(values.max()), float(values[early_mask].max())
    holds = (bool(np.isfinite(values).all())
             and late <= early * (1.0 + 1e-3) + 1e-12 * (1.0 + abs(early)))
    return late, early, holds


# ---------------------------------------------------------------------------
# improper integrals

# thresholds of the numerical decade protocol
_NUMERIC_T_MAX = 1e9
_EPS_FLAT = 1e-6          # relative decade increment that counts as flat
_RATIO_CONVERGE = 0.9     # sustained decade ratio below this => geometric tail
_RATIO_DRIFT = 0.005      # max allowed drift among the final ratios
_RATIO_DIVERGE = 0.999    # sustained ratio at/above this => still growing


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


def integrate_improper(spec: CoefficientSpec, weight: float = 0.0,
                       t_lower: float = 0.0) -> IntegralVerdict:
    """Verdict on int_{t_lower}^inf t^weight * spec(t) dt.

    Families with a growth form get an analytic verdict; tabulated specs go
    through the numerical protocol.
    """
    if t_lower < 0:
        raise DomainError("t_lower must be >= 0")
    a = float(weight)

    def integrand(t):
        return np.asarray(t, dtype=float) ** a * eval_coeff(spec, t)

    form = growth_form(spec)
    if form is None:
        return numeric_improper(integrand, t_lower, [row[0] for row in spec.table])
    total = form.times(GrowthForm(power=a))
    status, reason = tail_verdict(total)
    if status == DIVERGES:
        return IntegralVerdict(DIVERGES, None, f"closed form: {reason}")
    if total.zero:
        return IntegralVerdict(CONVERGES, 0.0, "closed form: integrand identically zero")
    value, note = _convergent_value(integrand, t_lower, spec, total)
    return IntegralVerdict(CONVERGES, value, f"closed form: {reason}{note}")


def _convergent_value(integrand, t_lower, spec, form: GrowthForm):
    """Numerical value of a convergent improper integral."""
    borderline = abs(form.power + 1.0) <= 1e-9 and form.logs
    if borderline and spec.family == "power_log":
        # slow iterated-log decay: decade panels to t_cut, then the tail in
        # closed form (the integrand is the derivative of -ln_j^{-delta}/delta
        # up to a factor that is 1 + O(T_j/t_cut) at the cut)
        t_cut = max(t_lower, 1e8)
        body = 0.0
        a = t_lower
        while a < t_cut:
            b = min(max(a * 10.0, 1.0), t_cut)
            body += _panel(integrand, a, b, None)
            a = b
        delta = -(form.logs[-1] + 1.0)  # ln_j exponent is -(1+delta)
        j = spec.log_depth
        s = log_tower(j) + t_cut
        tail = spec.amplitude * iterated_log(j, s) ** (-delta) / delta
        return body + tail, f"; slow-log tail beyond {t_cut:.3g} added in closed form"
    try:
        with np.errstate(all="ignore"):
            val, err = integrate.quad(lambda t: float(integrand(t)),
                                      t_lower, np.inf, limit=400)
        if math.isfinite(val) and err <= 1e-6 * max(1.0, abs(val)):
            return val, ""
    except Exception:
        pass
    # fall back to decade summation with a geometric tail estimate
    verdict = numeric_improper(integrand, t_lower)
    if verdict.value is not None:
        return verdict.value, "; value from decade summation"
    return math.nan, "; value unresolved numerically"


def _panel(f, a, b, points):
    pts = None
    if points:
        pts = [p for p in points if a < p < b][:50] or None
    with np.errstate(all="ignore"):
        val, _ = integrate.quad(lambda t: float(f(t)), a, b, points=pts, limit=200)
    return val


def numeric_improper(f: Callable, t_lower: float = 0.0,
                     points: Optional[Sequence[float]] = None) -> IntegralVerdict:
    """Decade protocol on an arbitrary scalar integrand callable."""
    tiny = 1e-300
    start = max(t_lower, 1.0)
    total = _panel(f, t_lower, start, points) if start > t_lower else 0.0
    incs: list[float] = []
    a = start
    while a < _NUMERIC_T_MAX:
        b = min(a * 10.0, _NUMERIC_T_MAX)
        inc = _panel(f, a, b, points)
        if not math.isfinite(inc):
            return IntegralVerdict(DIVERGES, None,
                                   "numeric: integrand overflows on a finite panel")
        incs.append(inc)
        total += inc
        if len(incs) >= 2:
            prev = incs[-2]
            if abs(inc) <= tiny and abs(prev) <= tiny:
                return IntegralVerdict(CONVERGES, total,
                                       "numeric: tail vanishes beyond the data")
            rel = abs(inc) / max(abs(total), tiny)
            if rel < _EPS_FLAT and inc <= prev:
                r = inc / prev if prev > tiny else 0.0
                tail = inc * r / (1.0 - r) if 0.0 <= r < 1.0 else 0.0
                return IntegralVerdict(
                    CONVERGES, total + tail,
                    f"numeric: decade increments flattened (relative {rel:.2e})")
        if len(incs) >= 4:
            r3 = [incs[i] / incs[i - 1] for i in range(len(incs) - 3, len(incs))
                  if incs[i - 1] > tiny]
            if len(r3) == 3 and min(r3) >= 1.2:
                return IntegralVerdict(DIVERGES, None,
                                       "numeric: decade increments growing")
        a = b
    if len(incs) >= 4:
        rs = [incs[i] / incs[i - 1] for i in range(len(incs) - 3, len(incs))
              if incs[i - 1] > tiny]
        if len(rs) == 3:
            if min(rs) >= _RATIO_DIVERGE or rs[-1] > 1.0:
                return IntegralVerdict(
                    DIVERGES, None,
                    f"numeric: partial sums still growing at t={_NUMERIC_T_MAX:.3g}"
                    f" (decade ratio {rs[-1]:.4f})")
            if max(rs) < _RATIO_CONVERGE and max(rs) - min(rs) < _RATIO_DRIFT:
                r = rs[-1]
                tail = incs[-1] * r / (1.0 - r)
                return IntegralVerdict(
                    CONVERGES, total + tail,
                    f"numeric: stable geometric decade decay (ratio {r:.4f})")
    return IntegralVerdict(
        INDETERMINATE, None,
        f"numeric: undecided at t={_NUMERIC_T_MAX:.3g}; partial sum {total:.6g}")


# ---------------------------------------------------------------------------
# square-root-window supremum

def _window_rule(t0: float, nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Legendre rule on s in [0, sqrt(t0)]: (s^2, weights, scale)."""
    u, w = _gauss_rule(nodes)
    s2 = (math.sqrt(t0) * u) ** 2
    return s2, w, 2.0 * math.sqrt(t0)


def sqrt_window_integral(flux: Callable, t: float, t0: float, nodes: int = 48) -> float:
    """int_{t-t0}^{t} flux(tau)/sqrt(t-tau) dtau via the substitution tau = t - s^2.

    The substitution removes the endpoint singularity exactly:
    the integral equals 2 * int_0^{sqrt(t0)} flux(t - s^2) ds.
    """
    if t < t0:
        raise DomainError("window integral needs t >= t0")
    s2, w, scale = _window_rule(float(t0), nodes)
    return float(scale * np.sum(w * flux(t - s2)))


@dataclass(frozen=True)
class WindowBound:
    k_sup: float
    holds: bool
    probe_times: np.ndarray
    values: np.ndarray


def memory_window_check(k: CoefficientSpec, t0: float = 1.0, alpha: float = 2.0,
                        t_probe: float = 1e4, n_probes: int = 120,
                        nodes: int = 48, flux: Optional[Callable] = None) -> WindowBound:
    """Supremum over t in [alpha, t_probe] of the sqrt-window integral of tau*k(tau).

    `flux` (default tau*k(tau)) maps a 1-D array of times to a 1-D array of
    values; it is called once, on every window node of every probe time.
    `holds` reports whether the sup has stabilized (`sup_stabilized`): it is
    finite and the last probed decade adds at most 0.1% to the earlier sup.
    """
    if alpha < t0:
        raise DomainError("probe start must be >= the window width t0")
    if flux is None:
        def flux(ts):
            return np.asarray(ts, dtype=float) * eval_coeff(k, ts)
    times = np.geomspace(alpha, t_probe, n_probes)
    s2, w, scale = _window_rule(float(t0), nodes)
    fvals = np.asarray(flux((times[:, None] - s2).ravel()), dtype=float)
    vals = scale * np.sum(w * fvals.reshape(n_probes, nodes), axis=1)
    k_sup, _, holds = sup_stabilized(times, vals)
    return WindowBound(k_sup=k_sup, holds=holds, probe_times=times, values=vals)
