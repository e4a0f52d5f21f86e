"""Byte-identity gate: ``check`` prints exactly the recorded stdout and
exits with the recorded code on the 20 corpus cells of the benchmark,
with ``--validate`` on the reachable cells.  A change meant to keep behaviour
must leave this file's golden record as it is; a change meant to alter
output re-records it on purpose with

    PYTHONPATH=src python3 tests/test_check_output.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from phasercheck import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "check_golden.json"

# (program, property, reachable)
CELLS = [
    ("sigwait_ok", "regerror", False),
    ("sigwait_ok", "cyclic-wait", False),
    ("selfwait", "regerror", False),
    ("drop_then_wait", "cyclic-wait", False),
    ("assert_ok", "assert", False),
    ("cross_deadlock", "regerror", False),
    ("assign_chain", "assert", False),
    ("phase_loop", "regerror", False),
    ("phase_loop", "cyclic-wait", False),
    ("chain_spawn", "regerror", False),
    ("chain_spawn", "cyclic-wait", False),
    ("producer_consumer_sw", "cyclic-wait", False),
    ("producer_consumer_sw", "regerror", False),
    ("cross_deadlock", "cyclic-wait", True),
    ("selfwait", "cyclic-wait", True),
    ("regerror_drop_signal", "regerror", True),
    ("drop_then_wait", "regerror", True),
    ("assert_fail", "assert", True),
    ("assign_ndet", "assert", True),
    ("producer_consumer_sw", "assert", True),
]


def run_cell(prog, prop, reachable) -> dict:
    argv = ["check", str(HERE.parent / "corpus" / f"{prog}.phz"), "--property", prop]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--validate"] * reachable)
    return {"exit": code, "stdout": out.getvalue()}


def _name(cell) -> str:
    return f"{cell[0]} {cell[1]}"


@pytest.mark.parametrize("cell", CELLS, ids=[_name(c) for c in CELLS])
def test_check_output_matches_the_golden_record(cell):
    golden = json.loads(GOLDEN.read_text())[_name(cell)]
    assert run_cell(*cell) == golden


if __name__ == "__main__":
    record = {_name(cell): run_cell(*cell) for cell in CELLS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cells in {GOLDEN.name}")
