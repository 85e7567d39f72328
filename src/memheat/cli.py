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
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .coeffs import CoefficientSpec, as_real, spec_from_json, spec_to_json
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
    STATUS_ABORTED,
    TRACE_HEADER,
    InitialSpec,
    Scenario,
    SolverControls,
    run,
    run_group,
)
from .transform import equivalence_check

COMMANDS = ("run", "classify", "verify", "sweep", "oracle")

# each level doubles the nodes and halves theta, so it takes about four
# times the work of the level before: eight levels are 65,536 times a run
MAX_REFINE = 8


@dataclass
class RunConfig:
    """Parsed scenario plus output options and an optional sweep grid.

    `scenario` uses the first entry of every swept axis; `grid` holds the
    full value lists for the axes given as JSON lists (p, q, c, k).
    """

    scenario: Scenario
    out_dir: str = "out"
    grid: dict = field(default_factory=dict)

    @property
    def is_sweep(self) -> bool:
        return bool(self.grid)

    def cells(self):
        """Scenarios of the Cartesian product, k varying fastest."""
        axes = [key.attr for key in _SCHEMA if key.axis]
        values = [self.grid.get(a, (getattr(self.scenario, a),)) for a in axes]
        for combo in itertools.product(*values):
            yield replace(self.scenario, **dict(zip(axes, combo)))


def _real(value, key: str) -> float:
    # Python's json module also reads NaN and Infinity, which JSON has not
    x = as_real(value, key)
    if not math.isfinite(x):
        raise ConfigurationError(f"must be a finite number, not {value!r}", key)
    return x


def _integer(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"must be an integer, not {value!r}", key)
    return value


def _string(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"must be a nonempty string, not {value!r}", key)
    return value


class _Key(NamedTuple):
    """The JSON key block.name (name alone at the top level) sets `attr` of
    `owner` to read(value, path), which checks the JSON type.  The owner
    holds the default, unless `default` stands in, and the range check.  A
    sweep runs through the JSON list an axis may hold."""

    block: Optional[str]
    name: str
    owner: type
    attr: str
    read: Callable
    axis: bool = False
    default: object = MISSING

    @property
    def path(self) -> str:
        return f"{self.block}.{self.name}" if self.block else self.name


_SCHEMA = (
    _Key("domain", "length", Scenario, "length", _real, default=1.0),
    _Key("domain", "nodes", SolverControls, "n_nodes", _integer),
    _Key("exponents", "p", Scenario, "p", _real, axis=True),
    _Key("exponents", "q", Scenario, "q", _real, axis=True),
    _Key(None, "c", Scenario, "c", spec_from_json, axis=True),
    _Key(None, "k", Scenario, "k", spec_from_json, axis=True),
    _Key("initial", "family", InitialSpec, "family", _string),
    # InitialSpec checks the number or the list entries
    _Key("initial", "value", InitialSpec, "value",
         lambda v, key: tuple(v) if isinstance(v, list) else v),
    _Key("solver", "t_max", SolverControls, "t_max", _real),
    _Key("solver", "blowup_threshold", SolverControls, "blowup_threshold", _real),
    _Key("solver", "theta", SolverControls, "theta", _real),
    _Key("solver", "dt_max", SolverControls, "dt_max", _real),
    _Key("solver", "max_steps", SolverControls, "max_steps", _integer),
    _Key("output", "dir", RunConfig, "out_dir", _string),
    _Key("output", "snapshot_every", SolverControls, "snapshot_every",
         lambda v, key: None if v is None else _real(v, key)),
)


def _check_keys(doc: dict):
    paths = {key.path for key in _SCHEMA}
    blocks = {key.block for key in _SCHEMA} - {None}
    for name in doc:
        if name not in paths and name not in blocks:
            raise ConfigurationError(f"unknown key {name!r}")
    for block in blocks:
        value = doc.get(block, {})
        if not isinstance(value, dict):
            raise ConfigurationError("must be an object", block)
        for name in value:
            if f"{block}.{name}" not in paths:
                raise ConfigurationError(f"unknown key '{block}.{name}'")


def _json_keyed(exc: ConfigurationError) -> ConfigurationError:
    """The dataclasses name the field at fault; name its JSON key instead."""
    path_of = {key.attr: key.path for key in _SCHEMA}
    return ConfigurationError(exc.detail, path_of.get(exc.key, exc.key))


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig.  An error names
    the JSON key at fault."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(doc)

    kwargs = {Scenario: {}, SolverControls: {}, InitialSpec: {}, RunConfig: {}}
    grid = {}
    for key in _SCHEMA:
        holder = doc.get(key.block, {}) if key.block else doc
        if key.name in holder:
            raw = holder[key.name]
            if key.axis and isinstance(raw, list):
                if not raw:
                    raise ConfigurationError("must not be an empty list", key.path)
                grid[key.attr] = tuple(key.read(v, key.path) for v in raw)
                value = grid[key.attr][0]
            else:
                value = key.read(raw, key.path)
        elif key.default is not MISSING:
            value = key.default
        elif key.owner.__dataclass_fields__[key.attr].default is not MISSING:
            continue    # the dataclass default
        else:
            absent = key.block if key.block not in doc else key.path
            raise ConfigurationError(f"config is missing required key {absent!r}")
        kwargs[key.owner][key.attr] = value

    try:
        scenario = Scenario(u0=InitialSpec(**kwargs[InitialSpec]),
                            controls=SolverControls(**kwargs[SolverControls]),
                            **kwargs[Scenario])
        scenario.initial_field()    # surfaces tabulated endpoint-slope violations
        for attr, values in grid.items():
            for value in values[1:]:
                replace(scenario, **{attr: value})
    except ConfigurationError as exc:
        raise _json_keyed(exc) from None
    return RunConfig(scenario=scenario, grid=grid, **kwargs[RunConfig])


def _to_json(value):
    if isinstance(value, CoefficientSpec):
        return spec_to_json(value)
    return list(value) if isinstance(value, tuple) else value


def config_to_json(config: RunConfig) -> dict:
    """Inverse of parse_config, with every default written out."""
    scn = config.scenario
    owners = {Scenario: scn, SolverControls: scn.controls, InitialSpec: scn.u0,
              RunConfig: config}
    doc = {}
    for key in _SCHEMA:
        if key.attr in config.grid:
            value = [_to_json(v) for v in config.grid[key.attr]]
        else:
            value = _to_json(getattr(owners[key.owner], key.attr))
        (doc.setdefault(key.block, {}) if key.block else doc)[key.name] = value
    return doc


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
    return 3 if outcome.status == STATUS_ABORTED else 0


def _cmd_classify(config: RunConfig) -> int:
    scn = config.scenario
    verdict = classify_regime(scn.p, scn.q, scn.c, scn.k)
    print(f"VERDICT: {verdict.regime} via {verdict.rule}")
    for cond in verdict.conditions:
        print(f"OUTCOME: {cond.id} {'holds' if cond.holds else 'fails'} "
              f"({cond.evidence})")
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
    # y(0) is u0 itself only for constant initial data
    if scn.u0.family != "constant":
        raise ConfigurationError(
            f"must be 'constant' in oracle mode, which takes a scalar y(0), "
            f"not {scn.u0.family!r}", "initial.family")
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
    rep = check_th0_criterion(scn.k, scn.q)
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
    if not 0 <= refine <= MAX_REFINE:
        raise ConfigurationError(
            f"must be an integer in [0, {MAX_REFINE}], not {refine}", "--refine")
    if config.is_sweep and command != "sweep":
        raise ConfigurationError(
            "config contains sweep lists; only the sweep command accepts them")
    if refine:
        try:
            scenario = replace(config.scenario,
                               controls=config.scenario.controls.refined(refine))
        except ConfigurationError as exc:
            raise _json_keyed(exc) from None
        config = replace(config, scenario=scenario)
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
