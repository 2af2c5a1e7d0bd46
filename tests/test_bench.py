"""The benchmark harness still runs and attributes every layer.

`bench/traced.py` times each layer by replacing module attributes of
`stlmon`; an evaluator change that drops one of them would silently move
that layer's time into its caller. The smoke run exercises every workload
and check at tiny sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_is_correct_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(lines[-1])["correct"] is True
    assert not [line for line in lines if line.startswith("# FLAG layer ")]
