"""memheat benchmark: CLI workloads timed end to end, answers checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload march --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --write-reference

Each pass is a fresh single-threaded process (perfbench/worker.py) that
imports memheat from src/, so the process-global factor cache starts cold
and import cost is paid once per pass and reported as setup_s.  A run makes
passes until --seconds is used up (at least MIN_PASSES).  Pass times are
rescaled to a reference CPU speed measured by the worker's probe.  --trace 0
reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds traced
passes and reports its per-layer metrics.  Every answer is checked against
perfbench/reference.json.  Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

from answers import ABS_TOL, REL_TOL, is_failure, mismatches
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 4
LANES = 2
PASS_TIMEOUT_S = 170.0
# mean probe time (worker.speed_probe) in the fast CPU state of the 2-vCPU
# Intel Xeon virtual machine the benchmark was defined on; only scales figures
PROBE_REF_S = 80e-6
# counts that must repeat exactly between traced passes of one order; all
# but the factor count must also hold across orders (shared LRU cache)
DETERMINISTIC = ("pde_core.step.calls", "coeffs.quad.calls", "ode_oracle.nfev",
                 "cli.artifact_bytes", "pde_core.factor.calls")
ORDER_DEPENDENT = ("pde_core.factor.calls",)
CLI_COMMANDS = ("run", "classify", "verify", "oracle", "sweep")


class BenchError(Exception):
    pass


def run_pass(workload: str, order_seed: int, trace: bool, index: int,
             deadline: float, cpu: int) -> dict:
    pass_dir = WORK / f"pass{index:03d}"
    result_file = WORK / f"pass{index:03d}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # set-up reads cached bytecode
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(order_seed),
           str(pass_dir), str(result_file), "1" if trace else "0", str(cpu)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass {index} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}")
    result = json.loads(result_file.read_text())
    shutil.rmtree(pass_dir)
    result_file.unlink()
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Passes as (kind, result); kind is plain, A (traced, seed order) or B
    (traced, another order).

    Passes run in up to LANES lanes at once, each pinned to its own CPU: the
    host's CPU speed drifts on a scale of seconds, so many passes per run
    steady the median more than one lane of longer passes would.
    """
    schedule = ["plain", "A", "A", "B"] if trace else ["plain"] * MIN_PASSES
    repeat = ["plain", "A"] if trace else ["plain"]
    lanes = sorted(os.sched_getaffinity(0))[:LANES]
    free_cpus = queue.SimpleQueue()
    for cpu in lanes:
        free_cpus.put(cpu)
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    durations = {}

    def one(kind, index):
        cpu = free_cpus.get()
        try:
            start = time.monotonic()
            result = run_pass(workload, seed + (kind == "B"), kind != "plain",
                              index, deadline, cpu)
            durations[kind] = max(durations.get(kind, 0.0),
                                  time.monotonic() - start)
            return kind, result
        finally:
            free_cpus.put(cpu)

    passes = []
    with ThreadPoolExecutor(len(lanes)) as pool:
        pending = {pool.submit(one, kind, i) for i, kind in enumerate(schedule)}
        submitted = len(schedule)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                passes.append(future.result())
                kind = repeat[(submitted - len(schedule)) % len(repeat)]
                if time.monotonic() - t0 + durations.get(kind, 0.0) <= seconds:
                    pending.add(pool.submit(one, kind, submitted))
                    submitted += 1
    return passes


# ---------------------------------------------------------------------------
# checking

def check_answers(result: dict, ref: dict):
    """-> (attempted, failed, wrong answers, changed artifact count)."""
    got = result["answers"]
    wrong, failed = [], 0
    for key in sorted(set(ref["answers"]) | set(got)):
        fp, ref_fp = got.get(key), ref["answers"].get(key)
        bad = (["missing"] if fp is None else ["not in reference"]
               if ref_fp is None else mismatches(fp, ref_fp))
        if bad:
            wrong.append(f"{key}: {'; '.join(bad)}")
        if bad or is_failure(fp):
            failed += 1
    arts, ref_arts = result["artifacts"], ref["artifacts"]
    changed = sum(arts.get(k) != ref_arts.get(k) for k in set(arts) | set(ref_arts))
    return len(ref["answers"]), failed, wrong, changed


def layer_values(result: dict, names: list, changed: int) -> dict:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name."""
    spans, counts = dict(result["spans"]), result["counts"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    variants = [v for k, v in spans.items() if k.startswith("coeffs.eval_coeff.")]
    spans["coeffs.eval_coeff"] = {f: sum(v[f] for v in variants) for f in empty}
    lookups = counts["factor_lookups"]
    special = {
        "pde_core.factor_hit_ratio":
            counts["factor_hits"] / lookups if lookups else 0.0,
        "constructions.settle_steps": counts.get("constructions.settle_steps", 0),
        "ode_oracle.nfev": counts.get("ode_oracle.nfev", 0),
        "cli.self_s": sum(spans.get(f"cli.{c}", empty)["self_s"]
                          for c in CLI_COMMANDS),
        "cli.artifact_files": result["artifact_files"],
        "cli.artifact_bytes": result["artifact_bytes"],
        "cli.artifacts_changed": changed,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name != "trace_overhead_s":
            span, _, field = name.rpartition(".")
            values[name] = spans.get(span, empty)[field]
    return values


def at_reference_speed(result: dict, key: str) -> float:
    """A pass time rescaled from the speed the CPU probe measured during the
    pass to the reference speed (probe mean PROBE_REF_S)."""
    return result[key] * PROBE_REF_S / result["probe_mean_s"]


def tail(samples: list):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# ---------------------------------------------------------------------------
# one workload

def bench_workload(workload, seed, seconds, trace, spec, reference):
    ref = reference["workloads"].get(workload)
    if ref is None:
        raise BenchError(f"no reference answers for {workload}; "
                         "run with --write-reference first")
    passes = run_passes(workload, seed, seconds, trace)
    attempted = failed = 0
    wrong, changed = [], {}
    for i, (_, result) in enumerate(passes):
        a, f, w, c = check_answers(result, ref)
        attempted, failed = attempted + a, failed + f
        wrong += [f"pass {i}: {msg}" for msg in w]
        changed[i] = c

    plain = [r for kind, r in passes if kind == "plain"]
    wall = [r["wall_s"] for r in plain]
    wall_ref = [at_reference_speed(r, "wall_s") for r in plain]
    setup = [r["setup_s"] for r in plain]
    setup_ref = [at_reference_speed(r, "setup_s") for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    probe = [r["probe_mean_s"] * 1e6 for r in plain]
    print(f"workload {workload}  seed {seed}  passes {len(passes)} "
          f"({len(plain)} untraced)  operations attempted {attempted}")
    for name, values, what in (("wall_ref_s", wall_ref, "at reference speed"),
                               ("wall_s", wall, "as measured")):
        tl = tail(values)
        print(f"  {name:<12} median {statistics.median(values):.4f} s {what}"
              + (f", p{tl[0]:.0f} {tl[1]:.4f} s" if tl
                 else ", no tail percentile (fewer than 11 samples)")
              + f"  [{len(values)} samples: "
              + " ".join(f"{v:.3f}" for v in values) + "]")
    print(f"  setup_s      median {statistics.median(setup_ref):.4f} s at "
          f"reference speed, {statistics.median(setup):.4f} s as measured  "
          f"[{len(setup)} samples]")
    print(f"  peak_rss_mb  median {statistics.median(rss):.1f} MB  "
          f"[{len(rss)} samples]")
    print(f"  cpu probe    median {statistics.median(probe):.1f} us, reference "
          f"{PROBE_REF_S * 1e6:.0f} us, {plain[0]['probes']} probes per pass")
    print(f"  fail_share   {failed}/{attempted} = {failed / attempted:.4f}")
    ops = plain[0]["op_seconds"]
    print("  per-command median s: " + ", ".join(
        f"{name} {statistics.median(r['op_seconds'][name] for r in plain):.3f}"
        for name in sorted(ops)))
    print(f"  answers: {'all match' if not wrong else f'{len(wrong)} differ'} "
          f"(rel tol {REL_TOL:g}, abs tol {ABS_TOL:g}); artifacts changed "
          f"{changed[0]} of {len(ref['artifacts'])} (information only)")
    for msg in wrong[:20]:
        print(f"  WRONG {msg}")

    if not trace:
        metrics = {"wall_ref_s": statistics.median(wall_ref),
                   "setup_s": statistics.median(setup_ref),
                   "peak_rss_mb": statistics.median(rss)}
        entries = spec["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        traced = [(kind, layer_values(r, names, changed[i]))
                  for i, (kind, r) in enumerate(passes) if kind != "plain"]
        wrong += determinism_errors(traced)
        a_vals = [v for kind, v in traced if kind == "A"]
        metrics = {n: statistics.median(v[n] for v in a_vals)
                   for n in names if n != "trace_overhead_s"}
        a_wall = [at_reference_speed(r, "wall_s")
                  for kind, r in passes if kind == "A"]
        metrics["trace_overhead_s"] = (statistics.median(a_wall)
                                       - statistics.median(wall_ref))
        entries = spec["per_layer"]
        print(f"  per-layer medians over {len(a_vals)} traced passes "
              "(seed order):")
        for m in entries:
            print(f"    {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
        lookups = next(r["counts"]["factor_lookups"]
                       for kind, r in passes if kind == "A")
        print(f"  factor_hit_ratio base: {lookups} factor-cache lookups per pass")
        for msg in wrong:
            if msg.startswith("determinism"):
                print(f"  WRONG {msg}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in entries},
            "env": dict(plain[0]["env"], seed=seed)}


def determinism_errors(traced: list) -> list:
    a_vals = [v for kind, v in traced if kind == "A"]
    b_vals = [v for kind, v in traced if kind == "B"]
    errors = []
    for name in DETERMINISTIC:
        seen = {v[name] for v in a_vals}
        if len(seen) > 1:
            errors.append(f"determinism: {name} differs between traced "
                          f"passes of one order: {sorted(seen)}")
        if name not in ORDER_DEPENDENT:
            across = {v[name] for v in b_vals} - seen
            if across:
                errors.append(f"determinism: {name} depends on command order: "
                              f"{sorted(seen)} vs {sorted(across)}")
    return errors


# ---------------------------------------------------------------------------
# environment and reference

def source_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)),
                "unknown")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def write_reference(workloads: list, seed: int):
    reference = (json.loads(REFERENCE.read_text()) if REFERENCE.is_file()
                 else {"workloads": {}})
    for workload in workloads:
        result = run_pass(workload, seed, False, 0,
                          time.monotonic() + PASS_TIMEOUT_S,
                          min(os.sched_getaffinity(0)))
        reference["workloads"][workload] = {
            "answers": result["answers"], "artifacts": result["artifacts"]}
        print(f"{workload}: {len(result['answers'])} answers, "
              f"{len(result['artifacts'])} artifact hashes")
    reference["commit"] = source_commit()
    reference["src_sha256"] = source_digest()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's answers as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "memheat" / "cli.py").is_file():
        print(f"error: no memheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.write_reference:
            write_reference(workloads, args.seed)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(REFERENCE.read_text())
        results = [bench_workload(w, args.seed, args.seconds,
                                  bool(args.trace), spec, reference)
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env = dict(results[0].pop("env"), commit=source_commit(),
               src_sha256=source_digest(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))
    print("ENV " + json.dumps(env, sort_keys=True))
    for result in results:
        result.pop("env", None)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
