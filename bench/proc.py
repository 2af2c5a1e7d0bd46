"""Running `stlmon` commands as fresh child processes, one at a time."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent  # the checkout the benchmark measures
SRC = ROOT / "src"
# The package is run from source, so the children find it through PYTHONPATH.
ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI = (sys.executable, "-c", "from stlmon.cli import main; main()")
TRACED = (sys.executable, str(BENCH / "traced.py"))
# A fixed child that starts the interpreter and imports numpy, as every
# stlmon command does, and runs no stlmon code: its wall time tells how
# fast the machine runs this kind of work at that moment.
REFERENCE = (sys.executable, "-c", "import numpy")


def spawn(argv: tuple[str, ...], stdout: Path) -> tuple[float, int, float]:
    """Run argv with stdout to a file (stderr beside it, suffix .err) and
    wait for it. Returns (wall seconds, exit code, peak RSS in MB), the
    RSS from the child's own rusage."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024.0


def run_cli(args: tuple[str, ...], stdout: Path) -> tuple[float, int, float]:
    """One `stlmon <args>` invocation through the CLI entry point."""
    return spawn(CLI + tuple(args), stdout)


def reference(scratch: Path) -> float:
    """Wall seconds of one run of the reference child."""
    wall, rc, _ = spawn(REFERENCE, scratch)
    if rc != 0:
        raise RuntimeError(f"the reference child exited {rc}")
    return wall
