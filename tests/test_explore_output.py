"""Byte-identity gate: ``explore`` prints exactly the recorded summary and
exits with the recorded code on each corpus program at default bounds, and
its ``--dump`` stdout and ``--graph`` file hash to the recorded sha256
digests (the dumps themselves are too large to keep).  A change meant to
keep behaviour must leave this file's golden record as it is; a change
meant to alter output re-records it on purpose with

    PYTHONPATH=src python3 tests/test_explore_output.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from phasercheck import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "explore_golden.json"
PROGRAMS = sorted(p.stem for p in (HERE.parent / "corpus").glob("*.phz"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _main(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_program(prog) -> dict:
    argv = ["explore", str(HERE.parent / "corpus" / f"{prog}.phz")]
    code, stdout = _main(argv)
    dump_code, dump = _main(argv + ["--dump"])
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "states.dot"
        graph_code, _ = _main(argv + ["--graph", str(graph)])
        graph_text = graph.read_text()
    assert code == dump_code == graph_code
    return {
        "exit": code,
        "stdout": stdout,
        "dump_sha256": _sha256(dump),
        "graph_sha256": _sha256(graph_text),
    }


def test_the_golden_record_covers_the_corpus():
    assert sorted(json.loads(GOLDEN.read_text())) == PROGRAMS


@pytest.mark.parametrize("prog", PROGRAMS)
def test_explore_output_matches_the_golden_record(prog):
    golden = json.loads(GOLDEN.read_text())[prog]
    assert run_program(prog) == golden


if __name__ == "__main__":
    record = {prog: run_program(prog) for prog in PROGRAMS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} programs in {GOLDEN.name}")
