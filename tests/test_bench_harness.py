"""The benchmark harness still runs against this tree.

``bench/child.py`` times layers by replacing names such as ``engine.pre``
in the modules that call them, so a change to a wrapped function's
signature can break the harness without failing any other test.  These
tests run the smoke cell of a workload as ``bench/run.py`` does, in a
fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace):
    argv = ["bench/run.py", "--workload", workload, "--smoke", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, *argv, "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_saturate_smoke_cell_is_correct(trace):
    result = _run("saturate", trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace:
        # the wrapped pre ran; this cell's 3 pops keep no predecessor
        assert result["metrics"]["pre.self_s"]["value"] > 0


def test_traced_pre_counts_what_it_emits():
    result = _run("witness", 1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["pre.emitted"]["value"] > 0
