"""End-to-end command-line tests over temp configs and output dirs."""

import json
import math
import runpy
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memheat import cli, ode_oracle
from memheat.cli import _write_csv, config_to_json, dispatch, main, parse_config
from memheat.coeffs import CoefficientSpec, spec_to_json
from memheat.errors import ConfigurationError
from memheat.pde_core import SolverControls, run


def base_doc(**over):
    doc = {
        "domain": {"length": 1.0, "nodes": 51},
        "exponents": {"p": 2.0, "q": 2.0},
        "c": {"family": "constant", "amplitude": 1.0},
        "k": {"family": "constant", "amplitude": 0.0},
        "initial": {"family": "constant", "value": 1.0},
        "solver": {"t_max": 2.0},
        "output": {"dir": "out"},
    }
    for key, val in over.items():
        if isinstance(val, dict) and key in doc and isinstance(doc[key], dict):
            doc[key] = {**doc[key], **val}
        else:
            doc[key] = val
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_document_fills_defaults():
    doc = {
        "exponents": {"p": 2.0, "q": 2.0},
        "c": {"family": "constant", "amplitude": 1.0},
        "k": {"family": "constant", "amplitude": 0.0},
        "initial": {"family": "constant", "value": 1.0},
    }
    cfg = parse_config(json.dumps(doc))
    ctr = cfg.scenario.controls
    assert ctr.n_nodes == 201
    assert ctr.theta == 0.1
    assert ctr.blowup_threshold == 1e10
    assert ctr.t_max == 10.0
    assert cfg.scenario.length == 1.0
    assert cfg.out_dir == "out"
    assert not cfg.is_sweep


def test_unknown_keys_are_named():
    with pytest.raises(ConfigurationError, match="'mystery'"):
        parse_config(json.dumps(base_doc(mystery=1)))
    with pytest.raises(ConfigurationError, match="solver.budget"):
        parse_config(json.dumps(base_doc(solver={"budget": 5})))
    with pytest.raises(ConfigurationError, match="'half_life'"):
        parse_config(json.dumps(base_doc(
            c={"family": "constant", "amplitude": 1.0, "half_life": 2.0})))


def test_missing_and_invalid_values():
    doc = base_doc()
    del doc["initial"]
    with pytest.raises(ConfigurationError, match="'initial'"):
        parse_config(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="exponents.p must be > 0"):
        parse_config(json.dumps(base_doc(exponents={"p": -1, "q": 2.0})))
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigurationError, match="nodes"):
        parse_config(json.dumps(base_doc(domain={"nodes": 2})))


@pytest.mark.parametrize("block, bad, key", [
    ("c", {"family": "constant", "amplitude": "1"}, "c.amplitude"),
    ("c", {"family": "constant", "amplitude": True}, "c.amplitude"),
    ("k", {"family": "power", "gamma": False}, "k.gamma"),
    ("k", {"family": "power_log", "gamma": 2.0, "log_depth": 1,
           "log_power": "1"}, "k.log_power"),
    ("initial", {"family": "constant", "value": True}, "initial.value"),
    ("initial", {"family": "cos_bump", "value": "0.5"}, "initial.value"),
])
def test_bool_and_non_real_numbers_exit_2_naming_the_key(tmp_path, capsys,
                                                          block, bad, key):
    cfg = write_cfg(tmp_path, base_doc(**{block: bad}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a real number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, bad, message", [
    ("solver", {"theta": 2}, "solver.theta must lie in (0, 1]"),
    ("initial", {"family": "gauss"}, "initial.family must be one of"),
    ("c", {"family": "exp_decay", "lambda": -1.0}, "c.lambda must be finite"),
    # h^2 underflows to 0, and 1e-155 leaves dt_max / (theta h^2) no float
    ("domain", {"length": 1e-300}, "domain.length 1e-300 is too short"),
    ("domain", {"length": 1e-155}, "domain.length 1e-155 is too short"),
    # more snapshot times than the step budget can land on
    ("output", {"snapshot_every": 1e-300}, "output.snapshot_every must be >="),
    ("output", {"snapshot_every": 0.1},
     "output.snapshot_every must be >= t_max / max_steps = 0.2, not 0.1"),
    # dt_max / h^2 passes 2^50, where I - dt D has no Cholesky factor
    ("domain", {"length": 1e-7, "nodes": 201}, "domain.length 1e-07 is too short"),
    ("domain", {"length": 1e-8, "nodes": 201}, "domain.length 1e-08 is too short"),
])
def test_out_of_range_values_exit_2_naming_the_key(tmp_path, capsys,
                                                    block, bad, message):
    doc = base_doc(**{block: bad})
    doc["solver"]["max_steps"] = 10
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"CONFIG ERROR: {message}")
    assert not (tmp_path / "out").exists()


def test_refinement_past_the_length_bound_names_domain_length(tmp_path, capsys):
    # at length 1e-6 and 201 nodes dt_max / h^2 is 8e13, 3.2e14 after one
    # refinement and 1.28e15 > 2^50 after two
    cfg = write_cfg(tmp_path, base_doc(domain={"length": 1e-6, "nodes": 201},
                                       solver={"t_max": 0.01}))
    for level in (0, 1):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / f"out{level}"),
                     "--refine", str(level)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out2"),
                 "--refine", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("CONFIG ERROR: domain.length 1e-06 is too short")
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("command, level", [("oracle", 1100), ("run", 40),
                                            ("run", cli.MAX_REFINE + 1)])
def test_refine_beyond_its_bound_exits_2_naming_the_flag(tmp_path, capsys,
                                                         command, level):
    cfg = write_cfg(tmp_path, base_doc(k={"family": "constant", "amplitude": 1.0}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--refine", str(level)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"CONFIG ERROR: --refine must be an integer in "
                   f"[0, {cli.MAX_REFINE}], not {level}"]
    assert not (tmp_path / "out").exists()


def test_log_depth_beyond_tower_range_exits_2_naming_the_key(tmp_path, capsys):
    bad = {"family": "power_log", "gamma": 2.0, "log_depth": 4}
    cfg = write_cfg(tmp_path, base_doc(k=bad))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "k.log_depth must be an integer in [0, 3]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tabulated_entries_reject_bool():
    doc = base_doc(c={"family": "tabulated", "table": [[0.0, True], [1.0, 0.0]]})
    with pytest.raises(ConfigurationError, match="table entry must be a real number"):
        parse_config(json.dumps(doc))
    doc = base_doc(initial={"family": "tabulated", "value": [1.0, True, 1.0]})
    with pytest.raises(ConfigurationError, match="initial.value entry"):
        parse_config(json.dumps(doc))


def test_tabulated_initial_slope_violation_is_cited():
    vals = list(np.linspace(0.0, 1.0, 51))
    doc = base_doc(initial={"family": "tabulated", "value": vals})
    with pytest.raises(ConfigurationError, match="endpoint slope"):
        parse_config(json.dumps(doc))


def test_config_round_trip():
    doc = base_doc(
        exponents={"p": [1.0, 2.0], "q": 2.0},
        k=[{"family": "constant", "amplitude": 1.0},
           {"family": "power", "amplitude": 1.0, "gamma": 4.0}],
        c={"family": "power_log", "amplitude": 2.0, "gamma": 1.0,
           "log_depth": 1, "log_power": 0.5},
    )
    cfg = parse_config(json.dumps(doc))
    assert cfg.is_sweep
    doc2 = config_to_json(cfg)
    cfg2 = parse_config(json.dumps(doc2))
    assert config_to_json(cfg2) == doc2


_reals = st.floats(0.5, 4.0)
_coefficients = st.one_of(
    st.builds(CoefficientSpec.constant, _reals),
    st.builds(CoefficientSpec.power, _reals, _reals),
    st.builds(CoefficientSpec.exp_decay, _reals, _reals),
    st.builds(CoefficientSpec.power_log, _reals, _reals, st.integers(0, 3), _reals),
    st.builds(CoefficientSpec.tabulated, st.just([[0.0, 1.0], [2.0, 0.5]]), _reals),
).map(spec_to_json)


def _optional_keys(**strategies):
    """A block holding each key or not."""
    return st.fixed_dictionaries({}, optional=strategies)


def _axis(values):
    return values | st.lists(values, min_size=1, max_size=3)


@st.composite
def _documents(draw):
    doc = {
        "exponents": {"p": draw(_axis(_reals)), "q": draw(_axis(_reals))},
        "c": draw(_axis(_coefficients)),
        "k": draw(_axis(_coefficients)),
    }
    domain = draw(st.none() | _optional_keys(length=_reals, nodes=st.integers(3, 40)))
    if domain is not None:
        doc["domain"] = domain
    nodes = (domain or {}).get("nodes", 201)
    doc["initial"] = draw(st.one_of(
        st.builds(lambda f, v: {"family": f, "value": v},
                  st.sampled_from(["constant", "cos_bump"]), _reals),
        st.builds(lambda v: {"family": "tabulated", "value": [v] * nodes}, _reals)))
    blocks = {
        "solver": _optional_keys(
            t_max=st.floats(0.1, 100.0), blowup_threshold=st.floats(1e3, 1e12),
            theta=st.floats(0.01, 1.0), dt_max=st.floats(1e-4, 0.1),
            max_steps=st.integers(10_000, 10_000_000)),
        # a snapshot interval of at least 0.01 fits any t_max and max_steps drawn
        "output": _optional_keys(dir=st.text("abc/", min_size=1, max_size=5),
                                 snapshot_every=st.none() | st.floats(0.01, 10.0)),
    }
    doc.update(draw(st.fixed_dictionaries({}, optional=blocks)))
    return doc


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_written_config_parses_to_the_same_config(doc):
    cfg = parse_config(json.dumps(doc))
    assert parse_config(json.dumps(config_to_json(cfg))) == cfg
    axes = {**doc["exponents"], "c": doc["c"], "k": doc["k"]}
    assert set(cfg.grid) == {a for a, v in axes.items() if isinstance(v, list)}
    # exactly one JSON key reaches each solver control
    reached = Counter(key.attr for key in cli._SCHEMA if key.owner is SolverControls)
    assert reached == Counter(f.name for f in fields(SolverControls))


# ---------------------------------------------------------------------------
# run

def test_run_writes_artifacts_and_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(
        output={"dir": str(tmp_path / "out"), "snapshot_every": 0.25}))
    code = main(["run", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "OUTCOME: status BlowUp" in out
    assert "OUTCOME: T_cross" in out
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,sup_norm,mass_w,M_left,M_right,dt"
    assert len(trace) > 10
    snaps = sorted((tmp_path / "out").glob("snap_*.csv"))
    assert snaps and snaps[0].name == "snap_000000.csv"
    first = snaps[0].read_text().splitlines()
    assert first[0] == "x,u"
    assert len(first) == 52          # header + one row per node


def test_run_reports_step_count(tmp_path, capsys):
    doc = base_doc(solver={"t_max": 0.5})
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("OUTCOME: steps ")]
    assert len(lines) == 1
    expected = run(parse_config(json.dumps(doc)).scenario).steps
    assert int(lines[0].split()[-1]) == expected > 0


def test_run_is_deterministic(tmp_path):
    doc = base_doc()
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "snap_000000.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_run_step_budget_aborts_with_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(solver={"t_max": 2.0, "max_steps": 10}))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "OUTCOME: status Aborted" in capsys.readouterr().out


def _tail_doc(c):
    return base_doc(c=c, k={"family": "power", "amplitude": 1.0, "gamma": 3.0},
                    initial={"family": "constant", "value": 0.05})


def _power_log(gamma, depth, log_power=0.0):
    return {"family": "power_log", "amplitude": 1.0, "gamma": gamma,
            "log_depth": depth, "log_power": log_power}


# reaction tails int_t^inf c that converge slowly: as t^-1.03 / ln t, once
# valued nan; as t^-(1+5e-10) / ln t, once a ZeroDivisionError
SLOW_TAIL_DOC = _tail_doc(_power_log(1.03, 1))
EPS_TAIL_DOC = _tail_doc(_power_log(1.0 + 5e-10, 1))
# int_0^inf c = 1e300 / 2e-12 passes the float range
OVERFLOW_TAIL_DOC = _tail_doc({"family": "exp_decay", "amplitude": 1e300,
                               "lambda": 2e-12})


# c = 0, p = 40: the rate power sup^39 passes the float range at sup = 8e7,
# short of the 1e10 threshold
P40_DOC = base_doc(domain={"nodes": 21}, exponents={"p": 40.0, "q": 2.0},
                   c={"family": "constant", "amplitude": 0.0},
                   k={"family": "constant", "amplitude": 5.0},
                   solver={"t_max": 3.0})


def test_run_past_the_rate_power_range_blows_up(tmp_path, capsys):
    cfg = write_cfg(tmp_path, P40_DOC)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "OUTCOME: status BlowUp" in captured.out
    assert "OUTCOME: t_end 0.66313897907755281" in captured.out
    assert "OUTCOME: steps 20984" in captured.out


def test_refine_doubles_grid(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(solver={"t_max": 0.1}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--refine", "1"]) == 0
    snap = (tmp_path / "r" / "snap_000000.csv").read_text().splitlines()
    assert len(snap) == 102          # header + (51-1)*2+1 rows


# ---------------------------------------------------------------------------
# classify / verify

def test_classify_reports_regime(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc())
    assert main(["classify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: BlowUpAll via reaction-mass-blowup" in out
    assert "OUTCOME: reaction-integral holds" in out


def test_verify_barrier_passes(tmp_path, capsys):
    doc = base_doc(exponents={"p": 1.0, "q": 1.0},
                   k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 5.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: PASS (Th00 barrier)" in out
    assert "RESIDUAL: interior min" in out
    assert "RESIDUAL: boundary min" in out
    assert "RESIDUAL: initial min" in out


def test_verify_uncovered_exponents_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(exponents={"p": 2.0, "q": 0.5}))
    assert main(["verify", "--config", cfg]) == 2
    assert "no barrier construction" in capsys.readouterr().err


@pytest.mark.parametrize("doc, kind, t_cap", [
    # d e^{bt}: b = pi^2 + 2 and d = 1, so 2 e^{bT} passes DBL_MAX near 59.7
    (base_doc(domain={"nodes": 51}, exponents={"p": 0.5, "q": 0.5},
              k={"family": "constant", "amplitude": 1.0},
              solver={"t_max": 70.0}), "exponential", "59.7399"),
    # e^{C(t)} with C(t) = 20 t passes DBL_MAX at t = ln(DBL_MAX) / 20
    (base_doc(domain={"nodes": 21}, exponents={"p": 1.0, "q": 2.0},
              c={"family": "constant", "amplitude": 20.0},
              k={"family": "exp_decay", "amplitude": 1.0, "lambda": 50.0},
              solver={"t_max": 40.0}), "exponential-factor", "35.4891"),
])
def test_verify_barrier_past_float_range_exits_2_naming_the_horizon(
        tmp_path, capsys, doc, kind, t_cap):
    assert main(["verify", "--config", write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"CONFIG ERROR: the {kind} barrier")
    assert f"after t = {t_cap};" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_with_an_overflowing_reaction_tail_exits_2_naming_it(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OVERFLOW_TAIL_DOC)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "CONFIG ERROR: tail integral converges but its value is not finite "
        "(closed form: exponential decay rate -2e-12)"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc, reaction", [
    (SLOW_TAIL_DOC, "2.95912"),
    # E_1(5e-10) = -gamma_E - ln(5e-10) + O(5e-10)
    (EPS_TAIL_DOC, "20.8392"),
    # quad once read -1.47956e-11
    (_tail_doc(_power_log(1.4, 3, 2.0)), "0.000104521"),
])
def test_classify_values_slow_reaction_tails(tmp_path, capsys, doc, reaction):
    cfg = write_cfg(tmp_path, doc)
    assert main(["classify", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (f"OUTCOME: total-forcing holds (reaction part {reaction} + memory "
            "moment part 0.5)") in captured.out.splitlines()


def test_classify_values_an_overflowing_reaction_part_in_words(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OVERFLOW_TAIL_DOC)
    assert main(["classify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "VERDICT: BoundedGlobalSmallData via small-data-barrier"
    assert ("OUTCOME: total-forcing holds (reaction part past the float range "
            "+ memory moment part 0.5)") in lines


def _rate_doc(p, c, k):
    return base_doc(exponents={"p": p, "q": 2.0}, c=c, k=k)


_POWER = {"family": "power", "amplitude": 1.0}


@pytest.mark.parametrize("doc, verdict", [
    # int t e^{-1e-13 t} = 1e26 converges; the decay once read as no rate
    (_rate_doc(2.0, {**_POWER, "gamma": 2.0},
               {"family": "exp_decay", "amplitude": 1.0, "lambda": 1e-13}),
     "BoundedGlobalSmallData via small-data-barrier"),
    # every constant c > 0 makes the weight e^{(q-1)ct} win over k
    (_rate_doc(1.0, {"family": "constant", "amplitude": 1e-12}, {**_POWER, "gamma": 3.0}),
     "BlowUpAll via weighted-memory-blowup"),
    (_rate_doc(1.0, {"family": "constant", "amplitude": 1e-11}, {**_POWER, "gamma": 3.0}),
     "BlowUpAll via weighted-memory-blowup"),
])
def test_classify_judges_tiny_rates_by_their_sign(tmp_path, capsys, doc, verdict):
    assert main(["classify", "--config", write_cfg(tmp_path, doc)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"VERDICT: {verdict}"


def test_oracle_judges_a_tiny_decay_rate_by_its_sign(tmp_path, capsys):
    # int r^2 e^{-1e-13 r} dr = 2e39 converges, so the criterion is silent
    doc = base_doc(k={"family": "exp_decay", "amplitude": 1.0, "lambda": 1e-13})
    assert main(["oracle", "--config", write_cfg(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("OUTCOME: divergence Converges (closed form: exponential decay "
            "rate -1e-13)") in lines
    assert lines[-1] == "VERDICT: criterion does not apply"


def test_verify_on_a_slow_reaction_tail_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SLOW_TAIL_DOC)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "VERDICT: PASS (Th2 barrier)" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_barrier_whose_stencils_overflow_exits_2_naming_the_horizon(
        tmp_path, capsys):
    # the barrier values stay finite up to 59.7399, but its Laplacian, dU/dt
    # and boundary slope overflow before that: no residual can be checked
    doc = base_doc(exponents={"p": 0.5, "q": 0.5},
                   k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 59.7})
    assert main(["verify", "--config", write_cfg(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    head, _, tail = captured.err.partition("; ")
    assert head == ("CONFIG ERROR: the residuals of the Th00 barrier pass "
                    "the float range on [0, 59.7]")
    horizon = tail.split()[0]
    assert tail == f"{horizon} is the largest horizon on which they can be checked\n"
    # the named horizon checks, and passes
    doc["solver"]["t_max"] = float(horizon)
    assert main(["verify", "--config", write_cfg(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "VERDICT: PASS (Th00 barrier)" in out


@pytest.mark.parametrize("length", [3e-6, 1e-5])
def test_verify_at_a_short_length_settles_within_the_factor_bound(
        tmp_path, capsys, length):
    # at length 3e-6 the settle loop's dt of up to 100 passed dt / h^2 = 2^50,
    # where I - dt D has no Cholesky factor, and verify exited 1 with a
    # LinAlgError; capped there, it ends as length 1e-5 does
    doc = base_doc(domain={"length": length, "nodes": 51},
                   c={"family": "power", "amplitude": 1.0, "gamma": 2.0},
                   k={"family": "power", "amplitude": 1.0, "gamma": 3.0},
                   initial={"family": "constant", "value": 0.05},
                   solver={"t_max": 1.0})
    assert main(["verify", "--config", write_cfg(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "CONFIG ERROR: auxiliary bound Y did not stabilize\n")


# the certify benchmark's verify commands and its stored answers to them
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["verify_th2", "verify_th4", "verify_th00"])
def test_benchmark_verify_answers(tmp_path, capsys, name):
    # the residual minima and the verdict within the benchmark's tolerances,
    # 1e-5 relative plus 1e-12 absolute, so a moved answer fails here first
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    [op] = [o for o in workloads["certify"] if o["name"] == name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    want = reference["workloads"]["certify"]["answers"][name]
    got = {"exit": main([op["command"], "--config",
                         write_cfg(tmp_path, op["config"]), *op["args"]])}
    for line in capsys.readouterr().out.splitlines():
        tag, _, body = line.partition(": ")
        words = body.split()
        if tag == "VERDICT":
            got["verdict"] = words[0]
        elif tag == "RESIDUAL" and words[1:2] == ["min"]:
            got[f"residual.{words[0]}"] = float(words[2])
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            tol = 1e-5 * max(abs(got[key]), abs(value)) + 1e-12
            assert abs(got[key] - value) <= tol, (key, got[key], value)
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", [
    "classify_log_lane", "classify_powerlog_k", "classify_total_forcing",
    "classify_tabulated_c", "classify_closed_form", "oracle_q2_const",
    "oracle_q3_powerlog"])
def test_benchmark_analyze_answers(tmp_path, capsys, monkeypatch, name):
    # every condition outcome, verdict and R_star of the analyze workload,
    # fingerprinted and compared as the benchmark does, so a moved condition
    # fails here first
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    [op] = [o for o in workloads["analyze"] if o["name"] == name]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    answers = runpy.run_path(str(PERFBENCH / "answers.py"))
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    want = reference["workloads"]["analyze"]["answers"][name]
    code = main([op["command"], "--config", write_cfg(tmp_path, op["config"]),
                 *op["args"]])
    got = dict(answers["parse_report"](capsys.readouterr().out), exit=code)
    assert answers["mismatches"](got, want) == []


@pytest.mark.parametrize("name", ["oracle_q2_const", "oracle_q3_powerlog"])
def test_oracle_reports_the_work_of_both_passes(tmp_path, capsys, monkeypatch,
                                                name):
    # the nfev and steps line adds up the paths of the two solve_ivp calls,
    # one per tolerance pass, and the benchmark's fingerprint leaves it out
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    [op] = [o for o in workloads["analyze"] if o["name"] == name]
    paths, solve_ivp = [], ode_oracle.solve_ivp

    def seen(*args):
        paths.append(solve_ivp(*args))
        return paths[-1]
    monkeypatch.setattr(ode_oracle, "solve_ivp", seen)
    assert main([op["command"], "--config", write_cfg(tmp_path, op["config"]),
                 *op["args"]]) == 0
    out = capsys.readouterr().out
    assert len(paths) == 2
    nfev = sum(path.nfev for path in paths)
    steps = sum(len(path.r) - 1 for path in paths)
    assert f"OUTCOME: nfev {nfev} steps {steps}\n" in out
    monkeypatch.syspath_prepend(str(PERFBENCH))
    answers = runpy.run_path(str(PERFBENCH / "answers.py"))
    assert not {"nfev", "steps"} & answers["parse_report"](out).keys()


@pytest.mark.parametrize("workload,name", [
    ("march", "run_powerlog_k"), ("march", "run_linear"),
    ("march", "run_reaction_refine2"), ("march", "run_boundary_blowup"),
    ("certify", "transform_power"), ("certify", "transform_powerlog_c"),
    ("certify", "transform_blowup"), ("sweep", "sweep_grid")])
def test_benchmark_march_transform_and_sweep_answers(tmp_path, capsys, monkeypatch,
                                                     workload, name):
    # the run, route-agreement and per-cell sweep answers, fingerprinted and
    # compared as the benchmark does, so a moved answer fails here first;
    # the sweep's stalled cell matches its reference as Aborted
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    [op] = [o for o in workloads[workload] if o["name"] == name]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    answers = runpy.run_path(str(PERFBENCH / "answers.py"))
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    want = {key: fp for key, fp in reference["workloads"][workload]["answers"].items()
            if key.partition("/")[0] == name}
    out = tmp_path / "out"
    code = main([op["command"], "--config", write_cfg(tmp_path, op["config"]),
                 "--out", str(out), *op["args"]])
    if op["command"] == "sweep":
        got = {f"{name}/{key}": dict(fp, exit=code)
               for key, fp in answers["sweep_cells"](out / "sweep.csv")}
    else:
        got = {name: dict(answers["parse_report"](capsys.readouterr().out),
                          exit=code)}
    assert got.keys() == want.keys()
    for key, fp in want.items():
        assert answers["mismatches"](got[key], fp) == [], key


def test_verify_transform_equivalence(tmp_path, capsys):
    doc = base_doc(exponents={"p": 1.0, "q": 2.0},
                   c={"family": "power", "amplitude": 1.0, "gamma": 2.0},
                   k={"family": "power", "amplitude": 1.0, "gamma": 4.0},
                   initial={"family": "constant", "value": 0.05},
                   solver={"t_max": 1.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["verify", "--config", cfg, "--transform"]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: PASS (route agreement)" in out
    assert "RESIDUAL: discrepancy" in out


@pytest.mark.parametrize("amplitude, u0, nodes, solver, snap", [
    # e^{C(t)} passes the float range at the last snapshots (math.exp)
    (10.0, 1e-300, 11, {"t_max": 80.0, "dt_max": 0.05}, 1.0),
    # ... and on the mapped trace (np.exp)
    (80.0, 0.01, 51, {"t_max": 10.0}, None)], ids=["snapshots", "trace"])
def test_verify_transform_past_the_float_range(tmp_path, capsys, amplitude,
                                               u0, nodes, solver, snap):
    output = {"dir": str(tmp_path / "out")}
    if snap is not None:
        output["snapshot_every"] = snap
    doc = base_doc(domain={"nodes": nodes}, exponents={"p": 1.0, "q": 2.0},
                   c={"family": "constant", "amplitude": amplitude},
                   initial={"family": "constant", "value": u0},
                   solver=solver, output=output)
    assert main(["verify", "--config", write_cfg(tmp_path, doc), "--transform"]) == 0
    assert "VERDICT: PASS (route agreement)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep

def test_sweep_grid_rows_and_consistency(tmp_path, capsys):
    doc = base_doc(
        exponents={"p": [1.0, 2.0], "q": 2.0},
        k=[{"family": "constant", "amplitude": 0.0},
           {"family": "power", "amplitude": 1.0, "gamma": 4.0}],
        solver={"t_max": 1.0},
    )
    cfg = write_cfg(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("p,q,c_family,c_gamma,k_family,k_gamma,"
                        "regime_predicted,outcome,t_end,sup_norm_end")
    assert len(lines) == 5
    assert (tmp_path / "sw" / "cell_0000" / "trace.csv").exists()
    # k varies fastest: rows 0,1 have p=1; rows 2,3 have p=2
    assert lines[1].startswith("1,") and lines[3].startswith("2,")

    # rerunning the last cell as a single scenario reproduces its row
    single = base_doc(exponents={"p": 2.0, "q": 2.0},
                      k={"family": "power", "amplitude": 1.0, "gamma": 4.0},
                      solver={"t_max": 1.0})
    cfg_single = write_cfg(tmp_path, single, name="cell.json")
    assert main(["run", "--config", cfg_single,
                 "--out", str(tmp_path / "single")]) == 0
    out = capsys.readouterr().out
    row = lines[4].split(",")
    t_end = next(l.split()[-1] for l in out.splitlines()
                 if l.startswith("OUTCOME: t_end"))
    status = next(l.split()[-1] for l in out.splitlines()
                  if l.startswith("OUTCOME: status"))
    assert row[7] == status
    assert row[8] == t_end


def test_sweep_cell_config_reruns_the_cell_byte_for_byte(tmp_path, capsys):
    # the p = 2 cells blow up, so their dt leaves the lockstep block's
    doc = base_doc(
        exponents={"p": [1.0, 2.0], "q": 2.0},
        k=[{"family": "constant", "amplitude": 0.0},
           {"family": "power", "amplitude": 1.0, "gamma": 4.0}],
        solver={"t_max": 1.5},
        output={"dir": "out", "snapshot_every": 0.1},
    )
    cfg = write_cfg(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    out = capsys.readouterr().out
    assert "outcome=BlowUp" in out and "outcome=GlobalToHorizon" in out
    cells = sorted((tmp_path / "sw").glob("cell_*"))
    assert len(cells) == 4
    for cell in cells:
        cell_doc = json.loads((cell / "config.json").read_text())
        assert cell_doc["output"]["dir"] == f"out/{cell.name}"
        assert not isinstance(cell_doc["exponents"]["p"], list)
        rerun = tmp_path / "rerun" / cell.name
        assert main(["run", "--config", str(cell / "config.json"),
                     "--out", str(rerun)]) == 0
        csvs = sorted(p.name for p in cell.glob("*.csv"))
        assert "trace.csv" in csvs and len(csvs) > 2
        assert csvs == sorted(p.name for p in rerun.iterdir())
        for name in csvs:
            assert (cell / name).read_bytes() == (rerun / name).read_bytes(), name


def test_sweep_in_small_groups_writes_what_one_group_writes(tmp_path, capsys,
                                                            monkeypatch):
    # groups of 2 split the 5 cells 2 + 2 + 1; the last runs alone.  Groups
    # of 1 never take a block step, so every cell is a plain run
    doc = base_doc(
        exponents={"p": [1.0, 2.0, 3.0, 1.5, 0.5], "q": 2.0},
        solver={"t_max": 0.5},
        output={"dir": "out", "snapshot_every": 0.1},
    )
    cfg = write_cfg(tmp_path, doc)
    outs = {}
    for group_cells in (cli.SWEEP_GROUP_CELLS, 2, 1):
        monkeypatch.setattr(cli, "SWEEP_GROUP_CELLS", group_cells)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / str(group_cells))]) == 0
        files = sorted((tmp_path / str(group_cells)).rglob("*.*"))
        outs[group_cells] = (capsys.readouterr().out, [
            (p.relative_to(tmp_path / str(group_cells)), p.read_bytes())
            for p in files])
    assert outs[2] == outs[cli.SWEEP_GROUP_CELLS]
    assert outs[1] == outs[cli.SWEEP_GROUP_CELLS]
    assert len(outs[2][1]) > 5 * 3


def test_sweep_lists_rejected_outside_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(exponents={"p": [1.0, 2.0], "q": 2.0}))
    assert main(["run", "--config", cfg]) == 2
    assert "sweep lists" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle

def test_oracle_blowup_and_criterion(tmp_path, capsys):
    doc = base_doc(k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 10.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "OUTCOME: status BlowUp" in out
    assert "OUTCOME: R_star" in out
    assert "VERDICT: criterion applies" in out


def test_oracle_values_an_exponential_decay_in_closed_form(tmp_path, capsys):
    # int r^20 e^{-r/1000} dr = 20! 1000^21, about 2.4e81, which quad could
    # not resolve
    doc = base_doc(exponents={"p": 2.0, "q": 20.0},
                   k={"family": "exp_decay", "amplitude": 1.0, "lambda": 1e-3})
    assert main(["oracle", "--config", write_cfg(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert ("OUTCOME: divergence Converges (closed form: exponential decay "
            "rate -0.001)\n") in out
    assert "unresolved" not in out


def test_oracle_global_is_evidence_only(tmp_path, capsys):
    doc = base_doc(k={"family": "power", "amplitude": 0.01, "gamma": 4.0},
                   solver={"t_max": 50.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "OUTCOME: status GlobalUpTo" in out
    assert "evidence only" in out
    assert "VERDICT: criterion does not apply" in out


def test_oracle_solver_fault_is_an_aborted_run(tmp_path, capsys):
    # q = 200 from y(0) = 1: y' leaves the float range near y = 1e3, before
    # y reaches the threshold
    doc = base_doc(exponents={"p": 1.0, "q": 200.0},
                   k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 10.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("SOLVER FAULT: integration failed at r = ")


@pytest.mark.parametrize("q", [60.0, 200.0])
def test_oracle_overflow_is_no_crash(tmp_path, capsys, q):
    # at q = 60, y' is about 1e305 when y reaches the threshold
    doc = base_doc(exponents={"p": 1.0, "q": q},
                   k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 10.0})
    cfg = write_cfg(tmp_path, doc)
    code = main(["oracle", "--config", cfg])
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 3)
    assert len(err) <= 1
    if code == 3:
        assert err[0].startswith("SOLVER FAULT: integration failed at r = ")


def _oracle_r_star(tmp_path, capsys, threshold):
    doc = base_doc(k={"family": "constant", "amplitude": 1.0},
                   solver={"t_max": 10.0, "blowup_threshold": threshold})
    assert main(["oracle", "--config", write_cfg(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    return float(out.split("OUTCOME: R_star ")[1].split()[0])


def test_oracle_uses_the_blowup_threshold(tmp_path, capsys):
    low = _oracle_r_star(tmp_path, capsys, 1e5)
    default = _oracle_r_star(tmp_path, capsys, 1e10)
    assert low < default
    assert default == _oracle_r_star(tmp_path, capsys, 1e10)


def test_oracle_needs_scalar_initial(tmp_path, capsys):
    vals = [1.0] * 51
    doc = base_doc(initial={"family": "tabulated", "value": vals},
                   k={"family": "constant", "amplitude": 1.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 2
    assert "scalar" in capsys.readouterr().err


@pytest.mark.parametrize("initial", [
    {"family": "cos_bump", "value": 0.5},
    {"family": "tabulated", "value": [1.0] * 51},
], ids=lambda d: d["family"])
def test_oracle_refuses_non_constant_initial_by_its_key(tmp_path, capsys, initial):
    # y(0) is a scalar; a bump's peak or a node list is not u0 itself
    doc = base_doc(initial=initial, k={"family": "constant", "amplitude": 1.0},
                   output={"dir": str(tmp_path / "out")})
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("CONFIG ERROR: initial.family must be 'constant'")
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("over, key", [
    ({"initial": {"value": 0.0}}, "initial.value"),
    ({"exponents": {"q": 1.0}}, "exponents.q"),
    ({"exponents": {"q": 0.5}}, "exponents.q"),
], ids=["y0_zero", "q_one", "q_half"])
def test_oracle_refuses_y0_or_q_by_its_key(tmp_path, capsys, over, key):
    # y(0) = 0 stays 0 from rest, and the oracle's ODE needs q > 1
    doc = base_doc(k={"family": "constant", "amplitude": 1.0},
                   output={"dir": str(tmp_path / "out")}, **over)
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"CONFIG ERROR: {key} must be ")
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# ---------------------------------------------------------------------------
# plumbing

def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "CONFIG ERROR" in capsys.readouterr().err


def test_dispatch_rejects_unknown_command(tmp_path):
    cfg = parse_config(json.dumps(base_doc()))
    with pytest.raises(ConfigurationError):
        dispatch("explode", cfg)
    with pytest.raises(ConfigurationError):
        dispatch("run", cfg, refine=-1)


def test_snapshot_files_match_the_column_writer(tmp_path):
    scn = parse_config(json.dumps(base_doc(domain={"nodes": 5}))).scenario
    u = np.array([math.inf, -0.0, 5e-324, 1.0 / 3.0, 1.7976931348623157e308])
    outcome = run(scn)
    outcome.snapshots = [(0.0, u), (1.0, u[::-1].copy()), (2.0, np.zeros(5))]
    cli._write_run_artifacts(outcome, scn, tmp_path / "run")
    for i, (_, col) in enumerate(outcome.snapshots):
        _write_csv(tmp_path / "want.csv", "x,u", (scn.grid(), col))
        assert ((tmp_path / "run" / f"snap_{i:06d}.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


def test_csv_writer_matches_per_value_formatting(tmp_path):
    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e16, 123456789.0]
    a = np.array(specials)
    b = np.array(specials[::-1])
    _write_csv(tmp_path / "out.csv", "a,b", (a, b))
    expected = "a,b\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(a, b))
    assert (tmp_path / "out.csv").read_text() == expected
    _write_csv(tmp_path / "empty.csv", "a", (np.array([]),))
    assert (tmp_path / "empty.csv").read_text() == "a\n"


# ---------------------------------------------------------------------------
# every accepted config ends in a named outcome

_FUZZ_AMPLITUDE = st.floats(0.0, 10.0)
_FUZZ_RATE = st.floats(0.0, 5.0)
_FUZZ_COEFFICIENTS = st.one_of(
    st.builds(CoefficientSpec.constant, _FUZZ_AMPLITUDE),
    st.builds(CoefficientSpec.power, _FUZZ_AMPLITUDE, _FUZZ_RATE),
    st.builds(CoefficientSpec.exp_decay, _FUZZ_AMPLITUDE, _FUZZ_RATE),
    st.builds(CoefficientSpec.power_log, _FUZZ_AMPLITUDE, _FUZZ_RATE,
              st.integers(0, 3), _FUZZ_RATE),
    st.builds(CoefficientSpec.tabulated,
              st.lists(st.tuples(st.floats(0.01, 10.0), _FUZZ_AMPLITUDE),
                       min_size=1, max_size=4).map(
                  lambda rows: [[sum(dt for dt, _ in rows[:i + 1]), v]
                                for i, (_, v) in enumerate(rows)]),
              _FUZZ_AMPLITUDE),
).map(spec_to_json)

# one strategy per cli._SCHEMA key: a key added there fails the draw here
_FUZZ_KEYS = {
    "domain.length": st.floats(0.01, 50.0),
    "domain.nodes": st.integers(3, 21),
    # the exponents the regimes turn on, or any
    "exponents.p": st.sampled_from([0.5, 1.0, 2.0, 40.0]) | st.floats(0.1, 40.0),
    "exponents.q": st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.1, 20.0),
    "c": _FUZZ_COEFFICIENTS,
    "k": _FUZZ_COEFFICIENTS,
    "initial.family": st.sampled_from(["constant", "cos_bump", "tabulated"]),
    # a tabulated family takes the value at every node
    "initial.value": st.floats(0.0, 5.0),
    "solver.t_max": st.floats(0.01, 10.0),
    "solver.blowup_threshold": st.floats(1.0, 1e12),
    "solver.theta": st.floats(0.01, 1.0),
    "solver.dt_max": st.floats(1e-4, 0.1),
    "solver.max_steps": st.integers(1, 2000),
    "output.dir": st.just("out"),
    "output.snapshot_every": st.none() | st.floats(0.01, 10.0),
}


@st.composite
def _fuzz_documents(draw):
    doc = {}
    for key in cli._SCHEMA:
        (doc.setdefault(key.block, {}) if key.block else doc)[key.name] = (
            draw(_FUZZ_KEYS[key.path]))
    if doc["initial"]["family"] == "tabulated":
        doc["initial"]["value"] = [doc["initial"]["value"]] * doc["domain"]["nodes"]
    return doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_fuzz_documents())
@example(doc=P40_DOC)
@example(doc={**SLOW_TAIL_DOC, "domain": {"length": 1.0, "nodes": 21}})
@example(doc={**EPS_TAIL_DOC, "domain": {"length": 1.0, "nodes": 21}})
def test_every_accepted_config_ends_in_a_named_outcome(tmp_path, capsys, doc):
    # a nonzero exit either prints one error line on stderr, or reports on
    # stdout an aborted run (3) or a failed verification (4)
    cfg = write_cfg(tmp_path, doc)
    for command, *extra in (["run"], ["classify"], ["verify"],
                            ["verify", "--transform"], ["oracle"]):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     *extra])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code in (0, 2, 3, 4), (command, extra, code)
        if code == 0:
            assert err == []
        elif code == 2:
            assert len(err) == 1 and err[0].startswith("CONFIG ERROR: ")
        elif err:
            assert code == 3 and len(err) == 1
            assert err[0].startswith("SOLVER FAULT: ")
        elif code == 3:
            assert "OUTCOME: status Aborted" in captured.out.splitlines()
        else:
            assert any(line.startswith("VERDICT: FAIL")
                       for line in captured.out.splitlines())
