"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import families  # noqa: E402
import run  # noqa: E402
from expected import CORPUS_EXPLORE, VERDICTS  # noqa: E402
from phasercheck.parser import parse  # noqa: E402
from phasercheck.targets import (  # noqa: E402
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

BUILDERS = {
    "assert": assertion_targets,
    "regerror": registration_error_targets,
    "cyclic-wait": cyclic_wait_targets,
}
SEEDS = range(40)


def test_same_seed_same_programs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    written = {c.name: Path(c.argv[1]).read_bytes() for c in run.explore_cells(5) if c.name not in CORPUS_EXPLORE}
    assert {g.name: g.source.encode() for g in families.draw(5)} == written
    assert len({tuple(g.source for g in families.draw(s)) for s in SEEDS}) > len(SEEDS) // 2


def test_generated_programs_parse():
    for seed in SEEDS:
        for g in families.draw(seed):
            parse(g.source)  # raises on any hard validation error
            assert g.expected <= {families.ASSERT, families.REGERR, families.CYCLE}


def test_pinned_table_covers_every_cell():
    programs = {prog for prog, _ in VERDICTS}
    for prog in programs:
        program = parse((ROOT / "corpus" / f"{prog}.phz").read_text())
        for prop, build in BUILDERS.items():
            has_targets = bool(build(program))
            assert ((prog, prop) in VERDICTS) == has_targets, (prog, prop)
    saturate = run.workload_cells("saturate", 0)
    witness = run.workload_cells("witness", 0)
    assert len(saturate) == 13 and len(witness) == 7
    assert {c.name for c in saturate + witness} == {f"{p} {q}" for p, q in VERDICTS}
    for cell in run.workload_cells("explore", 0):
        assert cell.errors is not None and cell.exhausted is not None
    for workload, name in run.SMOKE.items():
        assert name in {c.name for c in run.workload_cells(workload, 0)}


def test_seed_only_orders_check_cells():
    a, b = run.workload_cells("saturate", 1), run.workload_cells("saturate", 2)
    assert sorted(c.name for c in a) == sorted(c.name for c in b)


def test_judge_rejects_wrong_answers():
    cell = run.Cell("x regerror", [], verdict="unreachable")
    rec = {"stdout": "verdict reachable\n", "exit": 1, "pops": 3}
    assert run.judge(cell, rec)[0].startswith("verdict reachable")
    witness = run.Cell("x assert", [], verdict="reachable")
    rec = {"stdout": "verdict reachable\ntrace replay: FAILED: no\n", "exit": 1, "pops": 3}
    assert run.judge(witness, rec)[0] == "trace replay not ok"
    explore = run.Cell("g", [], errors=frozenset({families.CYCLE}), exhausted=True)
    rec = {"stdout": "configurations: 9\nexhausted: yes\n", "exit": 0, "pops": 0}
    assert run.judge(explore, rec)[0].startswith("errors none")


def test_slow_cell_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(run, "CELL_LIMIT_S", 0.3)
    cell = next(c for c in run.workload_cells("saturate", 0) if c.name == "chain_spawn regerror")
    row = run.run_cell(cell, "time", deadline=float("inf"))
    assert not row["ok"] and row["failure"].startswith("killed")


def declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", ["saturate", "witness", "explore"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "saturate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
