"""Plant small defects in pde_core, one at a time, and report which ones the
named tests catch.

Each mutant is one string edit of src/memheat/pde_core.py that must match
exactly once.  For each, src/, tests/ and pyproject.toml are copied to a
temporary directory, the edit is applied there, and pytest runs the named
test files in the copy with Hypothesis shrinking off, stopping at the first
failure.  A mutant is "caught" when a test fails and "missed" when every
test passes; any other pytest exit is reported as an error.

    python3 tools/mutants.py tests/test_invariants.py
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/memheat/pde_core.py")
COPIED = ("src", "tests")

# (name, what the defect does, old text, new text)
MUTANTS = [
    ("m1", "reaction c dt x 1.01",
     "c_dt = dt * c_t\n", "c_dt = dt * c_t * 1.01\n"),
    ("m2", "boundary flux x 0.98",
     "f = dt * (2.0 / h)\n", "f = 0.98 * dt * (2.0 / h)\n"),
    ("m3", "memory trapezoid -> left endpoint",
     "(_acc_term(w0, u.item(0), q)\n"
     "                                            + _acc_term(w1, u_new.item(0), q))\n"
     "        M_right = state.M_right + 0.5 * dt * (_acc_term(w0, u.item(-1), q)\n"
     "                                              + _acc_term(w1, u_new.item(-1), q))\n",
     "(_acc_term(w0, u.item(0), q)\n"
     "                                            + _acc_term(w0, u.item(0), q))\n"
     "        M_right = state.M_right + 0.5 * dt * (_acc_term(w0, u.item(-1), q)\n"
     "                                              + _acc_term(w0, u.item(-1), q))\n"),
    ("M4", "right slope reads M_left",
     "return k_t * M_left, k_t * M_right, 1.0\n",
     "return k_t * M_left, k_t * M_left, 1.0\n"),
    ("M5", "weighted accumulator e^C for e^(qC)",
     "exp_or_inf(self.q * C)", "exp_or_inf(C)"),
    ("M6", "_ladder rounds dt up",
     "k = math.ceil(math.log2(dt_max / dt))",
     "k = math.floor(math.log2(dt_max / dt))"),
    ("M7", "end-row flux factor 1/h for 2/h",
     "f = dt * (2.0 / h)\n", "f = dt * (1.0 / h)\n"),
    ("M8", "State.mass by the rectangle rule",
     "return float(np.trapezoid(self.u, dx=h))",
     "return float(np.sum(self.u) * h)"),
]

# pytest under a Hypothesis profile without the shrink phase: a failing
# example is reported as found
_PYTEST = ("import sys, pytest\n"
           "from hypothesis import Phase, settings\n"
           "settings.register_profile('mutants', phases=[Phase.explicit, "
           "Phase.reuse, Phase.generate])\n"
           "settings.load_profile('mutants')\n"
           "sys.exit(pytest.main(sys.argv[1:]))\n")


def mutate(text: str, old: str, new: str, name: str) -> str:
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{name}: the edit matches {count} times, not once")
    return text.replace(old, new)


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith("FAILED "):
            return line.split()[1]
    return ""


def run_mutant(name: str, old: str, new: str, tests: list[str]) -> str:
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".pytest_cache", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / TARGET
        path.write_text(mutate(path.read_text(), old, new, name))
        proc = subprocess.run(
            [sys.executable, "-c", _PYTEST, "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=copy, capture_output=True, text=True)
    if proc.returncode == 1:
        return f"caught  ({first_failure(proc.stdout)})"
    if proc.returncode == 0:
        return "missed"
    return f"error   (pytest exit {proc.returncode})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="+", help="test files to run")
    args = parser.parse_args(argv)
    source = (ROOT / TARGET).read_text()
    for name, _, old, new in MUTANTS:
        mutate(source, old, new, name)
    for name, what, old, new in MUTANTS:
        print(f"{name:3} {what:38} {run_mutant(name, old, new, args.tests)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
