"""Time to verdict of phasercheck, end to end and layer by layer.

    python3 bench/run.py --workload saturate|witness|explore \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a phasercheck checkout.  Every cell (one program,
property and command) runs ``phasercheck.cli.main`` in a fresh
interpreter, one cell at a time, under a hard time limit; its output is
checked against the answers pinned in ``expected.py`` and
``families.py``.  One JSON row per cell is printed, then, as the last
line, the result: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import families
from expected import CORPUS_EXPLORE, VERDICTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

CELL_LIMIT_S = 120.0  # a cell still running then is killed and fails
RUN_LIMIT_S = 170.0  # no cell runs past this point of a run
SETUP_PROBES = 2  # set-up-only passes before the timed passes
GENERATED_BOUNDS = ["--max-steps", "300000", "--max-phase", "8"]
SMOKE = {"saturate": "sigwait_ok regerror", "witness": "selfwait cyclic-wait", "explore": "barrier_block"}

END_TO_END = {
    "wall_s": "s",
    "slowest_cell_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Cell:
    name: str
    argv: list
    verdict: str | None = None  # check cells
    errors: frozenset | None = None  # explore cells
    exhausted: bool | None = None


def check_cells(verdict: str) -> list:
    extra = ["--validate"] if verdict == "reachable" else []
    return [
        Cell(f"{prog} {prop}", ["check", f"corpus/{prog}.phz", "--property", prop] + extra, verdict=verdict)
        for (prog, prop), v in VERDICTS.items()
        if v == verdict
    ]


def explore_cells(seed: int) -> list:
    out_dir = WORK / f"explore-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for g in families.draw(seed):
        path = out_dir / f"{g.name}.phz"
        path.write_text(g.source)
        bounds = ["--max-tasks", str(g.max_tasks), "--max-phasers", str(g.max_phasers)] + GENERATED_BOUNDS
        argv = ["explore", str(path)] + bounds
        cells.append(Cell(g.name, argv, errors=g.expected, exhausted=True))
    for prog, (bounds, errors, exhausted) in CORPUS_EXPLORE.items():
        cells.append(Cell(prog, ["explore", f"corpus/{prog}.phz"] + bounds, errors=errors, exhausted=exhausted))
    return cells


def workload_cells(workload: str, seed: int) -> list:
    if workload == "saturate":
        cells = check_cells("unreachable")
    elif workload == "witness":
        cells = check_cells("reachable")
    else:
        cells = explore_cells(seed)
    random.Random(seed).shuffle(cells)
    return cells


# ---------------------------------------------------------------------------
# Running and judging one cell


def judge(cell: Cell, rec: dict) -> tuple:
    """(failure or None, verdict text, pops or configurations)."""
    lines = rec["stdout"].splitlines()
    if cell.verdict is not None:
        verdict = next((ln.split(" ", 1)[1] for ln in lines if ln.startswith("verdict ")), None)
        want_exit = 1 if cell.verdict == "reachable" else 0
        if verdict != cell.verdict:
            return f"verdict {verdict}, expected {cell.verdict}", verdict, rec["pops"]
        if rec["exit"] != want_exit:
            return f"exit code {rec['exit']}, expected {want_exit}", verdict, rec["pops"]
        if cell.verdict == "reachable" and "trace replay: ok" not in lines:
            return "trace replay not ok", verdict, rec["pops"]
        return None, verdict, rec["pops"]
    errors = frozenset(ln.split()[1] for ln in lines if ln.startswith("error: "))
    exhausted = "exhausted: yes" in lines
    configs = next((int(ln.split()[1]) for ln in lines if ln.startswith("configurations: ")), None)
    found = ",".join(sorted(errors)) or "none"
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}", found, configs
    if errors != cell.errors:
        return f"errors {found}, expected {','.join(sorted(cell.errors)) or 'none'}", found, configs
    if exhausted != cell.exhausted:
        return f"exhausted {exhausted}, expected {cell.exhausted}", found, configs
    return None, found, configs


def run_cell(cell: Cell, mode: str, deadline: float) -> dict:
    row = {"cell": cell.name, "mode": mode, "ok": False}
    limit = min(CELL_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        row["failure"] = "not started: run time limit reached"
        return row
    spec = json.dumps({"argv": cell.argv, "src": str(ROOT / "src"), "mode": mode})
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), spec],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        row["failure"] = f"killed at the {limit:.0f} s time limit"
        return row
    t_done = time.monotonic()
    row["wall_s"] = t_done - t_spawn
    row["exit"] = proc.returncode
    try:
        rec = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        row["failure"] = "no record: " + (err.strip().splitlines() or ["(no output)"])[-1]
        return row
    if "Traceback" in err:
        row["failure"] = "traceback: " + err.strip().splitlines()[-1]
        return row
    row["peak_rss_mb"] = rec["peak_rss_mb"]
    if rec["t_enter"] is None:
        row["failure"] = f"check/explore never entered (exit {rec['exit']})"
        return row
    row["setup_s"] = rec["t_enter"] - t_spawn
    row["start_s"] = rec["t_start"] - t_spawn
    row["import_s"] = rec["import_s"]
    row["exit_s"] = t_done - rec["t_end"]
    if mode == "setup":
        row["ok"] = rec["exit"] == 0
        return row
    failure, row["verdict"], row["pops" if cell.verdict else "configs"] = judge(cell, rec)
    if failure:
        row["failure"] = failure
    row["ok"] = failure is None
    for key in ("store_peak", "queue_peak", "layers"):
        if key in rec:
            row[key] = rec[key]
    return row


def run_pass(cells: list, mode: str, deadline: float) -> list:
    return [run_cell(c, mode, deadline) for c in cells]


def pass_sum(rows: list, key: str) -> float:
    return sum(r.get(key, 0.0) for r in rows)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(passes: list, setup_samples: list) -> dict:
    rows = [r for p in passes for r in p]
    values = {
        "wall_s": statistics.median(pass_sum(p, "wall_s") for p in passes),
        "slowest_cell_s": statistics.median(max(r.get("wall_s", 0.0) for r in p) for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in rows),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(untraced: list, traced: list) -> dict:
    by_layer = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])  # calls, s, self_s, n, m
    models_in_check = 0.0
    top_level = 0.0
    for r in traced:
        for layer, parent, *vals in r.get("layers", []):
            acc = by_layer[layer]
            for i, v in enumerate(vals):
                acc[i] += v
            if layer == "symbolic.models" and parent == "engine.check":
                models_in_check += vals[1]
            if parent is None:
                top_level += vals[1]

    def ratio(a, b):
        return a / b if b else 0.0

    entails, canon, pre = by_layer["symbolic.entails"], by_layer["symbolic.canonical"], by_layer["pre"]
    minimize, explore = by_layer["symbolic.minimize"], by_layer["concrete.explore"]
    traced_wall, untraced_wall = pass_sum(traced, "wall_s"), pass_sum(untraced, "wall_s")
    covered = top_level + sum(pass_sum(traced, k) for k in ("start_s", "import_s", "exit_s"))
    metrics = {
        "symbolic.entails.calls": (entails[0], "count"),
        "symbolic.entails.s": (entails[1], "s"),
        "symbolic.entails.true_ratio": (ratio(entails[3], entails[0]), "ratio"),
        "symbolic.canonical.calls": (canon[0], "count"),
        "symbolic.canonical.s": (canon[1], "s"),
        "pre.self_s": (pre[2], "s"),
        "pre.emitted": (pre[3], "count"),
        "symbolic.minimize.kept_ratio": (ratio(minimize[4], minimize[3]), "ratio"),
        "engine.survival_ratio": (ratio(minimize[4], pre[3]), "ratio"),
        "engine.self_s": (by_layer["engine.check"][2], "s"),
        "engine.store_peak": (max((r.get("store_peak", 0) for r in traced), default=0), "count"),
        "engine.queue_peak": (max((r.get("queue_peak", 0) for r in traced), default=0), "count"),
        "engine.pops": (sum(r.get("pops", 0) for r in traced), "count"),
        "symbolic.models.s": (models_in_check, "s"),
        "engine.validate_trace.s": (by_layer["engine.validate_trace"][1], "s"),
        "python.start.s": (pass_sum(traced, "start_s"), "s"),
        "phasercheck.import.s": (pass_sum(traced, "import_s"), "s"),
        "python.exit.s": (pass_sum(traced, "exit_s"), "s"),
        "parser.parse.s": (by_layer["parser.parse"][1], "s"),
        "targets.build.s": (by_layer["targets.build"][1], "s"),
        "targets.count": (by_layer["targets.build"][3], "count"),
        "control.suffixes.count": (by_layer["control.suffixes"][3], "count"),
        "control.suffixes.s": (by_layer["control.suffixes"][1], "s"),
        "concrete.explore.s": (explore[1], "s"),
        "concrete.explore.configs": (explore[3], "count"),
        "concrete.explore.configs_per_s": (ratio(explore[3], explore[1]), "1/s"),
        "concrete.successors.s": (by_layer["concrete.successors"][1], "s"),
        "concrete.canonical.s": (by_layer["concrete.canonical"][1], "s"),
        "concrete.cyclic_waits.s": (by_layer["concrete.cyclic_waits"][1], "s"),
        "trace.coverage": (ratio(covered, traced_wall), "ratio"),
        "trace.overhead": (ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("saturate", "witness", "explore"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short cell of the workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "phasercheck" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no phasercheck sources under {ROOT}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    cells = workload_cells(args.workload, args.seed)
    if args.smoke:
        cells = [c for c in cells if c.name == SMOKE[args.workload]]
    if args.trace:
        untraced = run_pass(cells, "time", deadline)
        traced = run_pass(cells, "trace", deadline)
        rows = untraced + traced
        metrics = per_layer(untraced, traced)
    else:
        # set-up is sampled several times, by set-up-only passes and by
        # every timed pass; timed passes repeat while the next one is
        # expected to end within --seconds
        probes = [run_pass(cells, "setup", deadline) for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            t_pass = time.monotonic()
            passes.append(run_pass(cells, "time", deadline))
            now = time.monotonic()
            if now - t0 + (now - t_pass) > args.seconds:
                break
        rows = [r for p in probes + passes for r in p]
        metrics = end_to_end(passes, [pass_sum(p, "setup_s") for p in probes + passes])
    failed = sum(not r["ok"] for r in rows)
    for r in rows:
        r.pop("layers", None)
        print(json.dumps({"workload": args.workload, **r}))
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
