"""Change of variables removing a linear reaction term, and its verification.

For p = 1 the substitution u = v e^{C(t)} with C(t) = int_0^t c strips the
reaction from the interior equation and moves it into the memory kernel:
the flux becomes k(t) e^{-C(t)} int_0^t e^{q C(tau)} v^q dtau.  Since the
time-dependent damping factors out of the history integral, the transformed
problem still runs with one scalar accumulator per endpoint.
equivalence_check solves a scenario along both routes and reports how far
the mapped-back solution strays from the direct one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coeffs import ZERO, CumulativeIntegral, exp_or_inf
from .errors import ConfigurationError, NotApplicableError
from .pde_core import (
    STATUS_BLOWUP,
    BlowupEstimate,
    Scenario,
    WeightedMemoryRule,
    estimate_blowup_time,
    run,
)


def to_transformed(scenario: Scenario) -> Scenario:
    """The reaction-stripped twin of a p = 1 scenario: c = 0 and the
    weighted memory rule as its boundary, whose `cum` evaluates C(t).

    The memory weight rho(t, tau) = e^{q C(tau) - C(t)} is never
    materialized as a table: the solver keeps A(t) = int e^{q C} v^q and
    multiplies by k(t) e^{-C(t)} at flux time.
    """
    if scenario.p != 1.0:
        raise NotApplicableError("the change of variables needs p = 1")
    if scenario.boundary is not None:
        raise ConfigurationError(
            "only the standard memory boundary can be transformed")
    rule = WeightedMemoryRule(scenario.k, CumulativeIntegral(scenario.c),
                              scenario.q)
    return replace(scenario, c=ZERO, boundary=rule)


@np.errstate(over="ignore")
def _scaled(v, C):
    """v e^C: 0 where v = 0, and inf only where v e^C passes the float range,
    by exp(ln|v| + C) where e^C alone does (math.exp for a scalar C)."""
    factor = np.exp(C) if np.ndim(C) else exp_or_inf(C)
    v = np.asarray(v, dtype=float)
    out = np.multiply(v, factor, out=np.zeros_like(v), where=v != 0.0)
    far = np.isinf(out) & np.isfinite(v)
    if far.any():
        C = np.broadcast_to(C, v.shape)[far]
        out[far] = np.copysign(np.exp(np.log(np.abs(v[far])) + C), v[far])
    return out


def from_transformed(v_field, c, t: float):
    """Map a transformed field back: u = v e^{C(t)} by `_scaled`'s rule."""
    cum = c if isinstance(c, CumulativeIntegral) else CumulativeIntegral(c)
    return _scaled(v_field, cum(float(t)))


@dataclass(frozen=True)
class EquivalenceReport:
    discrepancy: float          # max over shared snapshots, inf-norm relative
    status_direct: str
    status_transformed: str     # verdict of the mapped-back route
    agree: bool
    times: np.ndarray           # snapshot times that entered the comparison
    estimate_direct: Optional[BlowupEstimate]
    estimate_mapped: Optional[BlowupEstimate]


def equivalence_check(scenario: Scenario, T: float) -> EquivalenceReport:
    """Solve directly and through the transform; compare at shared snapshots.

    Returns the max over shared snapshot times of
    ||u_direct - u_mapped||_inf / (1 + ||u_direct||_inf), truncated at the
    earlier end when one route stops first, together with both statuses and
    their blow-up estimates in original-variable units.
    """
    if scenario.p != 1.0:
        raise NotApplicableError("equivalence check needs p = 1")
    if not (T > 0 and math.isfinite(T)):
        raise ConfigurationError("horizon T must be positive and finite")
    ctr = scenario.controls
    snap = ctr.snapshot_every if ctr.snapshot_every is not None else T / 16.0
    base = replace(scenario, controls=replace(ctr, t_max=T, snapshot_every=snap))
    twin = to_transformed(base)

    out_d = run(base)
    out_t = run(twin)
    cum = twin.boundary.cum
    threshold = ctr.blowup_threshold

    C = cum(out_t.trace.t)
    mapped = replace(out_t.trace, sup_norm=_scaled(out_t.trace.sup_norm, C),
                     mass_w=_scaled(out_t.trace.mass_w, C))
    crossed = bool(np.any(mapped.sup_norm >= threshold))
    status_t = STATUS_BLOWUP if crossed else out_t.status
    est_mapped = (estimate_blowup_time(mapped, scenario.p, threshold)
                  if crossed else None)

    t_stop = min(out_d.snapshots[-1][0], out_t.snapshots[-1][0])
    trans_times = np.array([t for t, _ in out_t.snapshots])
    disc = 0.0
    used = []
    for t, u in out_d.snapshots:
        if t > t_stop * (1.0 + 1e-12) + 1e-12:
            continue
        j = int(np.argmin(np.abs(trans_times - t)))
        if abs(trans_times[j] - t) > 1e-9 * (1.0 + abs(t)):
            continue
        u_mapped = from_transformed(out_t.snapshots[j][1], cum, t)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(u_mapped))):
            continue
        gap = float(np.max(np.abs(u - u_mapped)))
        disc = max(disc, gap / (1.0 + float(np.max(np.abs(u)))))
        used.append(t)

    return EquivalenceReport(
        discrepancy=disc, status_direct=out_d.status,
        status_transformed=status_t,
        agree=out_d.status == status_t,
        times=np.array(used), estimate_direct=out_d.blowup_estimate,
        estimate_mapped=est_mapped)
