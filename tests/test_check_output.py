"""Byte-identity gate: ``check`` prints exactly the recorded stdout and
exits with the recorded code on the 20 corpus cells of the benchmark.
``check`` replays every witness, so the reachable cells print the
replay's outcome too; the benchmark still passes the ``--validate``
flag there, which changes no byte.  The record is taken with
the default flags (plain reachability); unrestricted search
(``--k inf --b inf --budget 100000``) prints the same on every cell, and
control reachability (``--b inf``) on every cell whose targets are free
(all but the cyclic-wait ones).  A change meant to keep behaviour
must leave this file's golden record as it is; a change meant to alter
output re-records it on purpose with

    PYTHONPATH=src python3 tests/test_check_output.py
"""

import contextlib
import io
import json
import runpy
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


# each formulation as flags; the golden record is the plain run
FLAGS = {
    "plain": [],
    "unrestricted": ["--k", "inf", "--b", "inf", "--budget", "100000"],
    "control": ["--b", "inf"],
}


def run_cell(cell, mode="plain", extra=()) -> dict:
    prog, prop, _ = cell
    argv = ["check", str(HERE.parent / "corpus" / f"{prog}.phz"), "--property", prop]
    argv += FLAGS[mode]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + list(extra))
    return {"exit": code, "stdout": out.getvalue()}


def _name(cell) -> str:
    return f"{cell[0]} {cell[1]}"


def test_cells_are_the_benchmark_cells():
    # the golden record gates exactly the cells the benchmark runs
    verdicts = runpy.run_path(str(HERE.parent / "bench" / "expected.py"))["VERDICTS"]
    assert len(CELLS) == len(verdicts)
    assert {(p, q): ("unreachable", "reachable")[r] for p, q, r in CELLS} == verdicts


@pytest.mark.parametrize("cell", CELLS, ids=[_name(c) for c in CELLS])
def test_check_output_matches_the_golden_record(cell):
    golden = json.loads(GOLDEN.read_text())[_name(cell)]
    assert run_cell(cell) == golden


REACHABLE_CELLS = [c for c in CELLS if c[2]]


@pytest.mark.parametrize("cell", REACHABLE_CELLS, ids=[_name(c) for c in REACHABLE_CELLS])
def test_the_validate_flag_parses_and_changes_nothing(cell):
    golden = json.loads(GOLDEN.read_text())[_name(cell)]
    assert run_cell(cell, extra=["--validate"]) == golden


MODE_CELLS = [("unrestricted", c) for c in CELLS]
MODE_CELLS += [("control", c) for c in CELLS if c[1] != "cyclic-wait"]


@pytest.mark.parametrize("mode,cell", MODE_CELLS, ids=[f"{m} {_name(c)}" for m, c in MODE_CELLS])
def test_every_mode_matches_the_golden_record(mode, cell):
    golden = json.loads(GOLDEN.read_text())[_name(cell)]
    assert run_cell(cell, mode=mode) == golden


if __name__ == "__main__":
    record = {_name(cell): run_cell(cell) for cell in CELLS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cells in {GOLDEN.name}")
