"""The benchmark's result line keeps the shape BENCHMARK.json declares.

One short oracle run per trace mode, through ``perfbench/run.py`` as the
benchmark runs it: the last stdout line must be JSON, the run must be
correct, and its metric names must be exactly the declared end-to-end
names (untraced) or per-layer names (traced).  A change that drops a
metric, say by removing what the tracer reads it from, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", "oracle",
            "--seed", "0",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
