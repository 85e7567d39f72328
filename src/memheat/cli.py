"""Command-line surface: scenario ingestion, dispatch, sweeps, CSV emission.

Config documents are JSON with top-level blocks domain / exponents / c / k /
initial / solver / output.  In sweep mode, exponents.p, exponents.q, c and k
may be JSON lists; the sweep is their Cartesian product, one row per cell.
Reports go to stdout one finding per line, prefixed VERDICT: / RESIDUAL: /
OUTCOME: so they stay machine-greppable.  Exit codes: 0 success, 2 bad
configuration, 3 aborted run, 4 failed verification.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .coeffs import spec_from_json, spec_to_json
from .constructions import (
    build_th00_supersolution,
    build_th2_supersolution,
    build_th4_supersolution,
    verify_supersolution,
)
from .criteria import classify_regime
from .errors import (ConfigurationError, DomainError, NotApplicableError,
                     SolverFault)
from .ode_oracle import (
    DEFAULT_ODE_CONTROLS,
    OdeProblem,
    check_th0_criterion,
    integrate_ode,
)
from .pde_core import (
    TRACE_HEADER,
    InitialSpec,
    Scenario,
    SolverControls,
    run,
    run_group,
)
from .transform import equivalence_check

COMMANDS = ("run", "classify", "verify", "sweep", "oracle")

_TOP_KEYS = ("domain", "exponents", "c", "k", "initial", "solver", "output")
_REQUIRED = ("exponents", "c", "k", "initial")
_BLOCK_KEYS = {
    "domain": ("length", "nodes"),
    "exponents": ("p", "q"),
    "initial": ("family", "value"),
    "solver": ("t_max", "blowup_threshold", "theta", "dt_max", "max_steps"),
    "output": ("dir", "snapshot_every"),
}


@dataclass
class RunConfig:
    """Parsed scenario plus output options and an optional sweep grid.

    `scenario` uses the first entry of every swept axis; `grid` holds the
    full value lists for the axes given as JSON lists (p, q, c, k).
    """

    scenario: Scenario
    out_dir: str
    grid: dict = field(default_factory=dict)

    @property
    def is_sweep(self) -> bool:
        return bool(self.grid)

    def cells(self):
        """Scenarios of the Cartesian product, k varying fastest."""
        scn = self.scenario
        ps = self.grid.get("p", (scn.p,))
        qs = self.grid.get("q", (scn.q,))
        cs = self.grid.get("c", (scn.c,))
        ks = self.grid.get("k", (scn.k,))
        for p, q, c, k in itertools.product(ps, qs, cs, ks):
            yield replace(scn, p=p, q=q, c=c, k=k)


def _reject_unknown(block: dict, name: str):
    for key in block:
        if key not in _BLOCK_KEYS[name]:
            raise ConfigurationError(f"unknown key '{name}.{key}'")


def _number(block: dict, name: str, key: str, default, positive=True):
    if key not in block:
        return default
    v = block[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigurationError(f"{name}.{key} must be a finite number")
    if positive and v <= 0:
        raise ConfigurationError(f"{name}.{key} must be > 0")
    return float(v)


def _exponent_axis(block: dict, key: str) -> tuple:
    if key not in block:
        raise ConfigurationError(f"exponents is missing required key {key!r}")
    raw = block[key]
    values = raw if isinstance(raw, list) else [raw]
    if not values:
        raise ConfigurationError(f"exponents.{key} must not be an empty list")
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v <= 0:
            raise ConfigurationError(f"exponents.{key} must be > 0")
        out.append(float(v))
    return tuple(out)


def _coeff_axis(doc: dict, key: str) -> tuple:
    raw = doc[key]
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ConfigurationError(f"{key} must not be an empty list")
    return tuple(spec_from_json(entry, where=key) for entry in entries)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"unknown key {key!r}")
    for key in _REQUIRED:
        if key not in doc:
            raise ConfigurationError(f"config is missing required key {key!r}")
    for name in ("domain", "exponents", "initial", "solver", "output"):
        block = doc.get(name, {})
        if not isinstance(block, dict):
            raise ConfigurationError(f"{name} must be an object")
        _reject_unknown(block, name)

    domain = doc.get("domain", {})
    length = _number(domain, "domain", "length", 1.0)
    nodes = domain.get("nodes", 201)
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 3:
        raise ConfigurationError("domain.nodes must be an integer >= 3")

    exponents = doc["exponents"]
    ps = _exponent_axis(exponents, "p")
    qs = _exponent_axis(exponents, "q")
    cs = _coeff_axis(doc, "c")
    ks = _coeff_axis(doc, "k")

    initial = doc["initial"]
    family = initial.get("family")
    if not isinstance(family, str):
        raise ConfigurationError("initial.family must be a string")
    if "value" not in initial:
        raise ConfigurationError("initial is missing required key 'value'")
    value = initial["value"]
    if isinstance(value, list):
        value = tuple(value)
    u0 = InitialSpec(family, value)

    solver = doc.get("solver", {})
    max_steps = solver.get("max_steps", 5_000_000)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 1:
        raise ConfigurationError("solver.max_steps must be an integer >= 1")
    output = doc.get("output", {})
    out_dir = output.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigurationError("output.dir must be a nonempty string")
    snap = output.get("snapshot_every", None)
    if snap is not None:
        snap = _number(output, "output", "snapshot_every", None)

    controls = SolverControls(
        n_nodes=nodes,
        theta=_number(solver, "solver", "theta", 0.1),
        dt_max=_number(solver, "solver", "dt_max", 2e-3),
        blowup_threshold=_number(solver, "solver", "blowup_threshold", 1e10),
        t_max=_number(solver, "solver", "t_max", 10.0),
        snapshot_every=snap,
        max_steps=max_steps,
    )
    scenario = Scenario(length=length, p=ps[0], q=qs[0], c=cs[0], k=ks[0],
                        u0=u0, controls=controls)
    scenario.initial_field()    # surfaces tabulated endpoint-slope violations

    grid = {}
    if isinstance(exponents.get("p"), list):
        grid["p"] = ps
    if isinstance(exponents.get("q"), list):
        grid["q"] = qs
    if isinstance(doc["c"], list):
        grid["c"] = cs
    if isinstance(doc["k"], list):
        grid["k"] = ks
    return RunConfig(scenario=scenario, out_dir=out_dir, grid=grid)


def config_to_json(config: RunConfig) -> dict:
    """Inverse of parse_config, up to filled defaults."""
    scn = config.scenario
    ctr = scn.controls

    def axis(name, single, encode):
        if name in config.grid:
            return [encode(v) for v in config.grid[name]]
        return encode(single)

    value = scn.u0.value
    if isinstance(value, tuple):
        value = list(value)
    return {
        "domain": {"length": scn.length, "nodes": ctr.n_nodes},
        "exponents": {"p": axis("p", scn.p, float),
                      "q": axis("q", scn.q, float)},
        "c": axis("c", scn.c, spec_to_json),
        "k": axis("k", scn.k, spec_to_json),
        "initial": {"family": scn.u0.family, "value": value},
        "solver": {"t_max": ctr.t_max, "blowup_threshold": ctr.blowup_threshold,
                   "theta": ctr.theta, "dt_max": ctr.dt_max,
                   "max_steps": ctr.max_steps},
        "output": {"dir": config.out_dir, "snapshot_every": ctr.snapshot_every},
    }


# ---------------------------------------------------------------------------
# artifacts

def _write_csv(path: Path, header: str, columns):
    """One %.17g field per value of the equal-length array columns."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = "".join(row % r for r in zip(*(col.tolist() for col in columns)))
    path.write_text(header + "\n" + body)


def _write_run_artifacts(outcome, scenario: Scenario, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    tr = outcome.trace
    _write_csv(outdir / "trace.csv", TRACE_HEADER,
               (tr.t, tr.sup_norm, tr.mass_w, tr.M_left, tr.M_right, tr.dt))
    # every snapshot has the same x column: format it once, into the rows
    # that each snapshot's u column fills as _write_csv would
    rows = "x,u\n" + "".join(["%.17g,%%.17g\n" % x
                              for x in scenario.grid().tolist()])
    for i, (_, u) in enumerate(outcome.snapshots):
        (outdir / f"snap_{i:06d}.csv").write_text(rows % tuple(u.tolist()))


def _print_outcome(outcome):
    print(f"OUTCOME: status {outcome.status}")
    print(f"OUTCOME: t_end {outcome.t_end:.17g}")
    print(f"OUTCOME: sup_norm_end {outcome.sup_norm_end:.17g}")
    print(f"OUTCOME: steps {outcome.steps}")
    est = outcome.blowup_estimate
    if est is not None:
        print(f"OUTCOME: T_cross {est.T_cross:.17g}")
        if est.T_fit is not None:
            print(f"OUTCOME: T_fit {est.T_fit:.17g} "
                  f"fit_quality {est.fit_quality:.6g}")
    if outcome.reason:
        print(f"OUTCOME: reason {outcome.reason}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(config: RunConfig, outdir: Path) -> int:
    outcome = run(config.scenario)
    _write_run_artifacts(outcome, config.scenario, outdir)
    _print_outcome(outcome)
    return 3 if outcome.status == "Aborted" else 0


def _cmd_classify(config: RunConfig) -> int:
    scn = config.scenario
    verdict = classify_regime(scn.p, scn.q, scn.c, scn.k)
    print(f"VERDICT: {verdict.regime} via {verdict.rule}")
    for cond in verdict.conditions:
        print(f"OUTCOME: {cond.id} {cond.outcome} ({cond.evidence})")
    if verdict.notes:
        print(f"OUTCOME: note {verdict.notes}")
    return 0


def _build_barrier(scenario: Scenario, T: float):
    p, q = scenario.p, scenario.q
    if max(p, q) <= 1.0:
        return build_th00_supersolution(scenario, T)
    if min(p, q) > 1.0:
        return build_th2_supersolution(scenario, T)
    if p == 1.0 and q > 1.0:
        return build_th4_supersolution(scenario, T)
    raise NotApplicableError(
        f"no barrier construction covers p = {p:g}, q = {q:g}")


def _cmd_verify(config: RunConfig, transform: bool) -> int:
    scn = config.scenario
    T = scn.controls.t_max
    if transform:
        rep = equivalence_check(scn, T)
        print(f"OUTCOME: direct {rep.status_direct}")
        print(f"OUTCOME: transformed {rep.status_transformed}")
        print(f"RESIDUAL: discrepancy {rep.discrepancy:.6g}")
        if rep.estimate_direct is not None and rep.estimate_mapped is not None:
            print(f"OUTCOME: T_cross direct {rep.estimate_direct.T_cross:.17g} "
                  f"mapped {rep.estimate_mapped.T_cross:.17g}")
        print(f"VERDICT: {'PASS' if rep.agree else 'FAIL'} (route agreement)")
        return 0 if rep.agree else 4

    barrier = _build_barrier(scn, T)
    rep = verify_supersolution(barrier, scn, T)
    for label, value in (("interior", rep.r_int_min),
                         ("boundary", rep.r_bnd_min),
                         ("initial", rep.r_init_min)):
        where = rep.worst[label]
        print(f"RESIDUAL: {label} min {value:.6g} at x={where[0]:.6g} "
              f"t={where[1]:.6g}")
    print(f"RESIDUAL: tolerance {rep.tol_res:.6g}")
    print(f"VERDICT: {'PASS' if rep.passed else 'FAIL'} ({barrier.kind} barrier)")
    return 0 if rep.passed else 4


# a lockstep group holds the trace rows and snapshots of all its runs until
# they end, so a sweep runs its cells in groups of at most this many
SWEEP_GROUP_CELLS = 32


def _run_cells(cells: list):
    """The outcomes of cells, in order, from lockstep groups of at most
    SWEEP_GROUP_CELLS cells."""
    for start in range(0, len(cells), SWEEP_GROUP_CELLS):
        yield from run_group(cells[start:start + SWEEP_GROUP_CELLS])


def _cmd_sweep(config: RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    cells = list(config.cells())
    rows = []
    for i, (scn, outcome) in enumerate(zip(cells, _run_cells(cells))):
        verdict = classify_regime(scn.p, scn.q, scn.c, scn.k)
        name = f"cell_{i:04d}"
        _write_run_artifacts(outcome, scn, outdir / name)
        # `memheat run --config cell_NNNN/config.json` reruns this cell
        cell = RunConfig(scenario=scn, out_dir=str(Path(config.out_dir) / name))
        (outdir / name / "config.json").write_text(
            json.dumps(config_to_json(cell), indent=2) + "\n")
        rows.append((scn.p, scn.q, scn.c.family, scn.c.gamma,
                     scn.k.family, scn.k.gamma, verdict.regime,
                     outcome.status, outcome.t_end, outcome.sup_norm_end))
        print(f"OUTCOME: cell {i} p={scn.p:g} q={scn.q:g} "
              f"c={scn.c.family} k={scn.k.family} "
              f"predicted={verdict.regime} outcome={outcome.status}")
    header = ("p,q,c_family,c_gamma,k_family,k_gamma,"
              "regime_predicted,outcome,t_end,sup_norm_end")
    lines = [header]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else f"{v:.17g}" for v in row))
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_oracle(config: RunConfig, refine: int) -> int:
    scn = config.scenario
    if not isinstance(scn.u0.value, (int, float)):
        raise ConfigurationError("oracle mode needs a scalar initial.value")
    ctr = replace(DEFAULT_ODE_CONTROLS,
                  rtol=DEFAULT_ODE_CONTROLS.rtol / 2 ** refine,
                  blowup_threshold=scn.controls.blowup_threshold)
    prob = OdeProblem(a=0.0, y_a=float(scn.u0.value), yp_a=0.0, q=scn.q,
                      b=scn.k)
    outcome = integrate_ode(prob, r_max=scn.controls.t_max, controls=ctr)
    print(f"OUTCOME: status {outcome.status}")
    if outcome.R_star is not None:
        print(f"OUTCOME: R_star {outcome.R_star:.17g}")
        print(f"OUTCOME: refinement_stability "
              f"{outcome.refinement_stability:.6g}")
    else:
        print(f"OUTCOME: r_end {outcome.r_end:.17g} "
              f"y_end {outcome.y_end:.17g}")
        print("OUTCOME: note no blow-up up to the horizon is evidence only, "
              "not a counterexample")
    rep = check_th0_criterion(scn.k, scn.q, a=0.0)
    print(f"OUTCOME: divergence {rep.divergence.status} "
          f"({rep.divergence.evidence})")
    print(f"OUTCOME: alt-bounded {rep.alt_bounded} "
          f"alt-monotone {rep.alt_monotone}")
    print(f"VERDICT: criterion {'applies' if rep.applies else 'does not apply'}")
    return 0


def dispatch(command: str, config: RunConfig, out_dir: Optional[str] = None,
             refine: int = 0, transform: bool = False) -> int:
    """Execute one subcommand against a parsed config; returns the exit code."""
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    if refine < 0:
        raise ConfigurationError("refine level must be >= 0")
    if config.is_sweep and command != "sweep":
        raise ConfigurationError(
            "config contains sweep lists; only the sweep command accepts them")
    if refine:
        config = replace(
            config,
            scenario=replace(config.scenario,
                             controls=config.scenario.controls.refined(refine)))
    outdir = Path(out_dir) if out_dir else Path(config.out_dir)

    if command == "run":
        return _cmd_run(config, outdir)
    if command == "classify":
        return _cmd_classify(config)
    if command == "verify":
        return _cmd_verify(config, transform)
    if command == "sweep":
        return _cmd_sweep(config, outdir)
    return _cmd_oracle(config, refine)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memheat",
        description="Semilinear heat flow with memory flux: run, classify, "
                    "verify, sweep, oracle.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a JSON scenario document")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--refine", type=int, default=0, metavar="K",
                        help="double N and halve theta K times; for "
                             "oracle, halve rtol K times")
    parser.add_argument("--transform", action="store_true",
                        help="verify: check the two-route equivalence instead "
                             "of a barrier")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"CONFIG ERROR: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        return dispatch(args.command, config, out_dir=args.out,
                        refine=args.refine, transform=args.transform)
    except (ConfigurationError, DomainError, NotApplicableError) as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    except SolverFault as exc:
        print(f"SOLVER FAULT: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
