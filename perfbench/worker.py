"""One benchmark pass in a fresh process.

Usage: worker.py WORKLOAD ORDER_SEED WORK_DIR RESULT_FILE TRACE(0|1) CPU

Times set-up (importing memheat.cli and parsing the workload's configs) and
then one pass over the workload's commands through memheat.cli.main, each
command's stdout captured.  Answers, artifact hashes, timings, the peak RSS
and (when traced) the per-layer span table go to RESULT_FILE as JSON.

While the pass runs, a SIGALRM handler times a fixed probe kernel every
PROBE_INTERVAL_S of wall time.  The host this benchmark was defined on
switches each CPU between a fast and a 2x slower state for seconds at a
time; the mean probe time follows that state, so run.py can rescale pass
times to one reference speed.  The probe's own time is taken out of wall_s.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from answers import file_hashes, parse_report, sweep_cells
from workloads import ordered_ops

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PROBE_INTERVAL_S = 0.02


@contextlib.contextmanager
def speed_probe(samples: list):
    """Append the duration of a fixed kernel to samples, every interval."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 201)

    def probe(signum, frame):
        t = time.perf_counter()
        s = 0.0
        for i in range(1, 400):
            s += math.sqrt(i) * 0.5 / (1.0 + i)
        y = x
        for _ in range(20):
            y = np.power(y, 1.0) + 0.0
        samples.append(time.perf_counter() - t)

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def main(workload, order_seed, work, result_file, trace, cpu):
    os.sched_setaffinity(0, {cpu})
    work = Path(work)
    ops = ordered_ops(workload, int(order_seed))
    texts = [json.dumps(o["config"]) for o in ops]
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    for o, text in zip(ops, texts):
        (cfg_dir / f"{o['name']}.json").write_text(text)
    out = work / "out"

    t0 = time.perf_counter()
    from memheat import cli
    for text in texts:
        cli.parse_config(text)
    setup_s = time.perf_counter() - t0

    tracer = None
    run_command = cli.main
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        run_command = tracer.wrap("cli.main", cli.main)

    reports, probes = [], []
    with speed_probe(probes):
        t_pass = time.perf_counter()
        for o in ops:
            argv = [o["command"], "--config",
                    str(cfg_dir / f"{o['name']}.json"),
                    "--out", str(out / o["name"])] + o["args"]
            buf = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    code = run_command(argv)
                except Exception:   # a crashing command is a failed operation
                    traceback.print_exc()
                    code = "exception"
            reports.append((o, code, time.perf_counter() - t, buf.getvalue()))
        wall_s = time.perf_counter() - t_pass - sum(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answers, artifacts, op_seconds = {}, {}, {}
    for o, code, seconds, text in reports:
        name = o["name"]
        op_seconds[name] = seconds
        hashes = file_hashes(out / name) if (out / name).is_dir() else {}
        if o["command"] == "sweep":
            cells = sweep_cells(out / name / "sweep.csv") if code == 0 else []
            for key, fp in cells:
                answers[f"{name}/{key}"] = dict(fp, exit=code)
            hashes.pop("sweep.csv", None)   # row order follows the seed
            hashes = {_cell_path(p, cells): h for p, h in hashes.items()}
        else:
            answers[name] = dict(parse_report(text), exit=code)
        artifacts.update({f"{name}/{p}": h for p, h in hashes.items()})
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "probe_mean_s": sum(probes) / len(probes), "probes": len(probes),
        "op_seconds": op_seconds, "answers": answers, "artifacts": artifacts,
        "artifact_files": len(files),
        "artifact_bytes": sum(p.stat().st_size for p in files),
        "env": _environment(),
    }
    if tracer is not None:
        from memheat import pde_core
        info = pde_core._banded_factor.cache_info()
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts,
                                factor_hits=info.hits,
                                factor_lookups=info.hits + info.misses)
    Path(result_file).write_text(json.dumps(result))


def _cell_path(path: str, cells: list) -> str:
    """cell_NNNN/file -> <cell key>/file, so hashes do not depend on order."""
    head, _, rest = path.partition("/")
    return f"{cells[int(head[len('cell_'):])][0]}/{rest}"


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


if __name__ == "__main__":
    workload, order_seed, work, result_file, trace, cpu = sys.argv[1:]
    main(workload, order_seed, work, result_file, trace == "1", int(cpu))
