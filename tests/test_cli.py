"""End-to-end command-line tests over temp configs and output dirs."""

import json
import math

import numpy as np
import pytest

from memheat import cli
from memheat.cli import _write_csv, config_to_json, dispatch, main, parse_config
from memheat.errors import ConfigurationError
from memheat.pde_core import run


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
    # groups of 2 split the 5 cells 2 + 2 + 1; the last runs alone
    doc = base_doc(
        exponents={"p": [1.0, 2.0, 3.0, 1.5, 0.5], "q": 2.0},
        solver={"t_max": 0.5},
        output={"dir": "out", "snapshot_every": 0.1},
    )
    cfg = write_cfg(tmp_path, doc)
    outs = {}
    for group_cells in (cli.SWEEP_GROUP_CELLS, 2):
        monkeypatch.setattr(cli, "SWEEP_GROUP_CELLS", group_cells)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / str(group_cells))]) == 0
        files = sorted((tmp_path / str(group_cells)).rglob("*.*"))
        outs[group_cells] = (capsys.readouterr().out, [
            (p.relative_to(tmp_path / str(group_cells)), p.read_bytes())
            for p in files])
    assert outs[2] == outs[cli.SWEEP_GROUP_CELLS]
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
