"""Span tracer for the traced benchmark pass.

The wrappers are installed from outside the package: each traced public
function is replaced, in every memheat module that bound it with
`from ... import`, by one wrapper that records a span.  Spans live in flat
arrays in memory (name, parent, start, end) and are reduced once, after the
pass, into per-name call counts, inclusive time and self time.  Self time is
a span's duration minus the time covered by its child spans.  Untimed passes
never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")     # 0 when a span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def wrap(self, name, fn, name_of=None, count=None, on_result=None):
        """A wrapper that records one span per call of fn.

        name_of(args) may pick the span name per call; count names a counter
        bumped per call; on_result(tracer, result) inspects the result.
        """
        fixed = self._id(name) if name_of is None else None
        stack, depth, counts = self._stack, self._depth, self.counts
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if name_of is None else self._id(name_of(args))
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(i)
            if count is not None:
                counts[count] += 1
            end.append(0.0)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = _now()
                stack.pop()
                depth[nid] -= 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """name -> {"calls", "s" (outermost spans only), "self_s"}."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            row = table[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            if self.outer[i]:
                row["s"] += dur
        return dict(table)


def _patch(tracer: Tracer, original, wrapper, modules):
    """Rebind every module-level name that refers to `original`."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"tracer found no binding of {original!r}")


def _sum_nfev(tracer: Tracer, sol):
    tracer.counts["ode_oracle.nfev"] += int(sol.nfev)


def install(tracer: Tracer):
    """Wrap the public functions of the seven memheat layers."""
    import scipy.integrate
    from memheat import cli, coeffs, constructions, criteria, ode_oracle
    from memheat import pde_core, transform

    modules = [m for name, m in sys.modules.items()
               if name == "memheat" or name.startswith("memheat.")]

    def traced(name, fn, **kw):
        _patch(tracer, fn, tracer.wrap(name, fn, **kw), modules)

    def eval_coeff_name(args):
        spec, t = args[0], args[1]
        kind = "scalar" if isinstance(t, (int, float)) else "array"
        return f"coeffs.eval_coeff.{spec.family}.{kind}"

    traced("coeffs.eval_coeff", coeffs.eval_coeff, name_of=eval_coeff_name)
    for fn in (coeffs.integrate_improper, coeffs.memory_window_check):
        traced(f"coeffs.{fn.__name__}", fn)
    cum_call = coeffs.CumulativeIntegral.__call__
    coeffs.CumulativeIntegral.__call__ = tracer.wrap(
        "coeffs.CumulativeIntegral", cum_call)
    coeffs.integrate = _ModuleView(
        scipy.integrate,
        quad=tracer.wrap("coeffs.quad", scipy.integrate.quad))

    # step is also bound in constructions, where only the settle loop calls it
    settle = tracer.wrap("pde_core.step", pde_core.step,
                         count="constructions.settle_steps")
    constructions.step = settle
    for fn in (pde_core.run, pde_core.step, pde_core.choose_dt):
        traced(f"pde_core.{fn.__name__}", fn)
    traced("pde_core.solve", pde_core.cho_solve_banded)
    traced("pde_core.factor", pde_core.cholesky_banded)

    for fn in (criteria.classify_regime, criteria.weighted_memory_conditions,
               criteria.effective_flux_conditions, criteria.effective_flux,
               criteria.total_forcing_condition,
               criteria.memory_moment_conditions):
        traced(f"criteria.{fn.__name__}", fn)

    for fn in (constructions.build_th00_supersolution,
               constructions.build_th2_supersolution,
               constructions.build_th4_supersolution):
        traced("constructions.build_barrier", fn)
    for fn in (constructions.solve_auxiliary_linear,
               constructions.verify_supersolution, constructions.z_profile):
        traced(f"constructions.{fn.__name__}", fn)

    for fn in (ode_oracle.integrate_ode, ode_oracle.check_th0_criterion):
        traced(f"ode_oracle.{fn.__name__}", fn)
    traced("ode_oracle.solve_ivp", ode_oracle.solve_ivp, on_result=_sum_nfev)

    for fn in (transform.equivalence_check, transform.from_transformed):
        traced(f"transform.{fn.__name__}", fn)

    traced("cli.parse_config", cli.parse_config)
    for command in ("run", "classify", "verify", "oracle", "sweep"):
        traced(f"cli.{command}", getattr(cli, f"_cmd_{command}"))


class _ModuleView:
    """Stands in for a module with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)
