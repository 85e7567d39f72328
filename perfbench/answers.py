"""Answer fingerprints: what a command decided, read from its report.

Discrete fields must match the stored reference exactly: exit code, status,
reason, verdict and rule, PASS/FAIL and each condition outcome.  Float fields
(T_cross, T_fit, t_end, sup_norm_end, residual minimums, R_star, discrepancy)
match within REL_TOL relative plus ABS_TOL absolute.  Evidence strings,
notes and diagnostics printed to six digits are not part of an answer.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

from workloads import cell_key

REL_TOL = 1e-5      # residuals and the discrepancy are printed to 6 digits
ABS_TOL = 1e-12     # residual minimums of order 1e-15 are rounding noise

CONDITION_OUTCOMES = ("holds", "fails", "undecided")
_DISCRETE = ("status", "direct", "transformed", "divergence")
_FLOATS = ("t_end", "sup_norm_end", "R_star", "T_fit")
_EVIDENCE = re.compile(r" \(.*\)$")


def parse_report(text: str) -> dict:
    """Fingerprint of one command's stdout."""
    fp = {}
    for line in text.splitlines():
        tag, _, body = line.partition(": ")
        body = _EVIDENCE.sub("", body)
        words = body.split()
        if tag == "VERDICT":
            fp["verdict"] = body
        elif tag == "RESIDUAL" and words[0] == "discrepancy":
            fp["discrepancy"] = float(words[1])
        elif tag == "RESIDUAL" and words[1:2] == ["min"]:
            fp[f"residual.{words[0]}"] = float(words[2])
        elif tag != "OUTCOME" or len(words) < 2:
            continue
        elif words[1] in CONDITION_OUTCOMES:
            fp[f"condition.{words[0]}"] = words[1]
        elif words[0] in _DISCRETE:
            fp[words[0]] = words[1]
        elif words[0] == "reason":
            fp["reason"] = body[len("reason "):]
        elif words[0] == "alt-bounded":
            fp["alt"] = body
        elif words[0] in _FLOATS:
            fp[words[0]] = float(words[1])
        elif words[0] == "T_cross" and words[1] == "direct":
            fp["T_cross.direct"] = float(words[2])
            fp["T_cross.mapped"] = float(words[4])
        elif words[0] == "T_cross":
            fp["T_cross"] = float(words[1])
    return fp


def sweep_cells(sweep_csv: Path) -> list:
    """(cell key, fingerprint) per sweep.csv row, in row order."""
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(cell_key(r["p"], r["q"], r["c_family"], r["c_gamma"],
                      r["k_family"], r["k_gamma"]),
             {"verdict": r["regime_predicted"], "status": r["outcome"],
              "t_end": float(r["t_end"]),
              "sup_norm_end": float(r["sup_norm_end"])})
            for r in rows]


def is_failure(fp: dict) -> bool:
    return fp.get("exit") != 0 or fp.get("status") == "Aborted"


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def mismatches(fp: dict, ref: dict) -> list:
    """Fields where fp differs from the reference fingerprint."""
    bad = []
    for key in sorted(set(fp) | set(ref)):
        a, b = fp.get(key), ref.get(key)
        if isinstance(a, float) and isinstance(b, float):
            if not _close(a, b):
                bad.append(f"{key}: {a!r} != {b!r}")
        elif a != b:
            bad.append(f"{key}: {a!r} != {b!r}")
    return bad


def file_hashes(root: Path) -> dict:
    """relative path -> sha256 of every file under root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
