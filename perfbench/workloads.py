"""The four benchmark workloads: memheat CLI commands on fixed configs.

Every config uses length 1, a constant initial value, blow-up threshold 1e10
and 201 nodes unless the entry says otherwise.  The configs come from the
acceptance scenario table (tests/test_acceptance.py::_comparison_table) and
demos/06_cli_tour.py.  The workload seed only permutes the order in which a
pass issues its commands (for sweep: the order of every grid axis), which
must not change any answer.
"""

from __future__ import annotations

import random


def const(a=1.0):
    return {"family": "constant", "amplitude": a}


def power(gamma, a=1.0):
    return {"family": "power", "amplitude": a, "gamma": gamma}


def power_log(gamma, depth=1, log_power=0.0, a=1.0):
    return {"family": "power_log", "amplitude": a, "gamma": gamma,
            "log_depth": depth, "log_power": log_power}


TABLE_C = {"family": "tabulated", "amplitude": 1.0,
           "table": [[0.0, 1.0], [5.0, 0.0]]}


def config(p, q, c, k, u0, t_max, threshold=1e10, nodes=201, snap=None,
           max_steps=None):
    solver = {"t_max": t_max, "blowup_threshold": threshold}
    if max_steps is not None:
        solver["max_steps"] = max_steps
    output = {"dir": "out"}
    if snap is not None:
        output["snapshot_every"] = snap
    return {"domain": {"length": 1.0, "nodes": nodes},
            "exponents": {"p": p, "q": q}, "c": c, "k": k,
            "initial": {"family": "constant", "value": u0},
            "solver": solver, "output": output}


def op(name, command, doc, *extra):
    return {"name": name, "command": command, "config": doc,
            "args": list(extra)}


WORKLOADS = {
    # pde_core stepping and scalar eval_coeff; no quadrature, no classifier
    "march": [
        op("run_powerlog_k", "run",
           config(2.0, 2.0, power(2.0), power_log(2.0, 1, 1.0), 0.1, 20.0)),
        op("run_linear", "run",
           config(1.0, 1.0, const(), const(), 1.0, 50.0, threshold=1e200,
                  snap=5.0)),
        op("run_reaction_refine2", "run",
           config(2.0, 2.0, const(), const(0.0), 1.0, 2.0), "--refine", "2"),
        op("run_boundary_blowup", "run",
           config(2.0, 2.0, const(0.0), const(), 1.0, 10.0)),
    ],
    # criteria, coeffs quadrature and ode_oracle; pde_core does nothing
    "analyze": [
        op("classify_log_lane", "classify",
           config(1.0, 2.0, power_log(1.0), power(3.0), 1.0, 10.0)),
        op("classify_powerlog_k", "classify",
           config(1.0, 2.0, power(1.0), power_log(3.0, 1, 1.0), 1.0, 10.0)),
        op("classify_total_forcing", "classify",
           config(2.0, 2.0, power(2.0), power(3.0), 1.0, 10.0)),
        op("classify_tabulated_c", "classify",
           config(2.0, 2.0, TABLE_C, power(3.0), 1.0, 10.0)),
        op("classify_closed_form", "classify",
           config(1.0, 2.0, power(0.5), power(4.0), 1.0, 10.0)),
        op("oracle_q2_const", "oracle",
           config(2.0, 2.0, const(), const(), 1.0, 20.0)),
        op("oracle_q3_powerlog", "oracle",
           config(2.0, 3.0, const(), power_log(2.0), 1.0, 50.0)),
    ],
    # barrier builders (off-ladder settle loop), transform, memory peak
    "certify": [
        op("verify_th2", "verify",
           config(2.0, 2.0, power(2.0), power(3.0), 0.05, 20.0, snap=5.0)),
        op("verify_th4", "verify",
           config(1.0, 2.0, power(2.0), power(4.0), 0.05, 2.0)),
        op("verify_th00", "verify",
           config(0.5, 0.5, const(), const(), 1.0, 5.0)),
        op("transform_power", "verify",
           config(1.0, 2.0, power(2.0), power(4.0), 0.05, 2.0), "--transform"),
        op("transform_powerlog_c", "verify",
           config(1.0, 2.0, power_log(1.0), power(4.0), 0.05, 2.0),
           "--transform"),
        op("transform_blowup", "verify",
           config(1.0, 2.0, const(), const(), 1.0, 10.0), "--transform"),
    ],
    # many short runs: per-run fixed costs, classifier per cell, artifacts
    "sweep": [
        op("sweep_grid", "sweep",
           config([1.0, 2.0], [2.0, 3.0], [power(2.0), const()],
                  [power(3.0), power_log(2.0), const()], 0.05, 5.0,
                  nodes=101, snap=0.5, max_steps=20000)),
    ],
}


def ordered_ops(workload: str, seed: int) -> list:
    """The workload's commands in the order the seed picks."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [dict(o, config=_permuted_axes(o["config"], rng))
           for o in WORKLOADS[workload]]
    rng.shuffle(ops)
    return ops


def _permuted_axes(doc: dict, rng: random.Random) -> dict:
    doc = dict(doc, exponents=dict(doc["exponents"]))
    for block, key in (("exponents", "p"), ("exponents", "q"),
                       (None, "c"), (None, "k")):
        holder = doc[block] if block else doc
        if isinstance(holder[key], list):
            holder[key] = rng.sample(holder[key], len(holder[key]))
    return doc


def cell_key(p, q, c_family, c_gamma, k_family, k_gamma) -> str:
    """Order-independent name of one sweep cell, from its sweep.csv row."""
    return (f"p={float(p):g},q={float(q):g},c={c_family}:{float(c_gamma):g},"
            f"k={k_family}:{float(k_gamma):g}")
