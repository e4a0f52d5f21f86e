import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phasercheck
from phasercheck import targets
from phasercheck.cli import main
from phasercheck.targets import constraint_to_text, cyclic_wait_targets

from conftest import CORPUS, load
from test_parser import MODE_MISMATCH
from test_pre import SELF_NEGATE_SRC


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


def path(name):
    return str(CORPUS / f"{name}.phz")


# ---------------------------------------------------------------------------
# parse


def test_parse_ok(capsys):
    assert run("parse", path("producer_consumer")) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:") and "tasks" in out


def test_parse_missing_file(capsys):
    assert run("parse", "/nonexistent.phz") == 2
    assert "error:" in capsys.readouterr().err


def test_parse_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.phz"
    bad.write_text("main(){ signal(p) }")  # missing semicolon
    assert run("parse", str(bad)) == 2
    assert str(bad) in capsys.readouterr().err


def test_parse_reports_hard_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.phz"
    bad.write_text("main(){ asynch(Nope); }")
    assert run("parse", str(bad)) == 2
    out = capsys.readouterr().out
    assert "Nope" in out


# ---------------------------------------------------------------------------
# every command: nesting limit


def nested_ifs(levels):
    """A program nesting ``levels`` blocks: main's body and the if blocks in it."""
    return "bool b; main(){ b = true;\n" + "if(ndet()){\n" * (levels - 1) + "assert(b);" + "}" * levels


TOO_DEEP = {
    "blocks": nested_ifs(450),
    "parens": "bool b; main(){ b = true; assert(" + "(" * 400 + "b" + ")" * 400 + "); }",
    "nots": "bool b; main(){ b = true; assert(" + "!" * 2000 + "b); }",
}


@pytest.mark.parametrize("kind", sorted(TOO_DEEP))
@pytest.mark.parametrize("cmd", ["parse", "explore", "check"])
def test_too_deep_nesting_exits_2(tmp_path, capsys, cmd, kind):
    src = tmp_path / "deep.phz"
    src.write_text(TOO_DEEP[kind])
    assert run(cmd, str(src)) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"{re.escape(str(src))}: \d+:\d+: nesting deeper than 100 levels\n", err)


@pytest.mark.parametrize("cmd", ["parse", "explore", "check"])
def test_a_program_that_is_not_utf8_exits_2(tmp_path, capsys, cmd):
    # an input error, not a crash: for check, exit 1 would read "reachable"
    src = tmp_path / "latin1.phz"
    src.write_bytes(b"main(){ \xff exit; }")
    assert run(cmd, str(src)) == 2
    assert capsys.readouterr() == (
        "", f"{src}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"
    )


@pytest.mark.parametrize("cmd", ["parse", "explore", "check"])
def test_hundred_nesting_levels_are_accepted(tmp_path, capsys, cmd):
    src = tmp_path / "deep.phz"
    src.write_text(nested_ifs(100))
    assert run(cmd, str(src)) == 0


# ---------------------------------------------------------------------------
# explore


def test_explore_reports_errors(capsys):
    assert run("explore", path("selfwait")) == 0
    out = capsys.readouterr().out
    assert "configurations:" in out
    assert "exhausted: yes" in out
    assert "CyclicWait" in out


def test_explore_dump_and_graph(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert run("explore", path("sigwait_ok"), "--dump", "--graph", str(dot)) == 0
    out = capsys.readouterr().out
    assert "config {" in out
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_explore_graph_draws_one_edge_per_condition_value(tmp_path, capsys):
    # the condition has two ndet() occurrences and two values: one edge
    # each, where enumerating ndet bits drew the false edge three times
    prog = tmp_path / "p.phz"
    prog.write_text("bool a; main(){ if(ndet() && ndet()){ a = true; } }")
    dot = tmp_path / "g.dot"
    assert run("explore", str(prog), "--graph", str(dot)) == 0
    edges = [ln for ln in dot.read_text().splitlines() if "->" in ln]
    assert len(edges) == 3 and len(set(edges)) == 3
    assert sum("if(ndet() && ndet())" in e for e in edges) == 2


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_explore_unwritable_graph_exits_2_before_exploring(where, tmp_path, capsys):
    graph = tmp_path / "no" / "such" / "g.dot" if where == "missing-dir" else tmp_path
    assert run("explore", path("barrier_block"), "--graph", str(graph)) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing explored, nothing printed
    assert err.startswith("error: ") and str(graph) in err and len(err.splitlines()) == 1


def test_closed_stdout_exits_141_quietly():
    # the dump (about 690 kB) outgrows the pipe buffer, so the command is
    # still printing when the reader goes away
    src = str(Path(phasercheck.__file__).resolve().parent.parent)
    argv = ["explore", path("producer_consumer"), "--dump", "--max-tasks", "5"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "phasercheck.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().startswith(b"configurations: ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# ---------------------------------------------------------------------------
# every command: bounds


@pytest.mark.parametrize(
    "argv",
    [["explore", f"--max-{b}", "-1"] for b in ("steps", "tasks", "phasers", "phase")]
    + [["check", f"--{b}", "-1"] for b in ("k", "b", "budget", "slack")]
    + [["check", "--max-cycle", "0"], ["check", "--max-cycle", "-3"]]
    + [["check", "--k", "infinity"], ["check", "--b", "INF"], ["check", "--budget", "inf"]]
    # digits of other scripts; int() reads the first two as 1 and 10
    + [["check", "--k", "\u0661"], ["explore", "--max-steps", "\u0661\u0660"], ["check", "--slack", "\u00b2"]],
)
def test_out_of_range_bounds_exit_2(capsys, argv):
    # cross_deadlock's cyclic wait is reachable, yet --k -1 said unreachable
    prop = ["--property", "cyclic-wait"] if argv[0] == "check" else []
    assert run(argv[0], path("cross_deadlock"), *prop, *argv[1:]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: expected a " in err
    if argv[1] != "--max-cycle":
        assert f"expected a natural number, found {argv[2]!r}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check: built-in properties


def test_check_reachable_assertion(capsys):
    assert run("check", path("assert_fail"), "--property", "assert", "--validate") == 1
    out = capsys.readouterr().out
    assert "verdict reachable" in out
    assert "trace {" in out
    assert "trace replay: ok" in out


COMPOUND = """
bool a, b, c;
main(){
  a = ndet();
  b = a || ndet();
  c = !(a && b);
  if(b && !c){
    assert(!a || c);
  }
}
"""


def test_compound_conditions_agree_on_both_engines(tmp_path, capsys):
    src = tmp_path / "compound.phz"
    for text in (COMPOUND, SELF_NEGATE_SRC):
        src.write_text(text)
        assert run("explore", str(src)) == 0
        assert "error: AssertionViolation" in capsys.readouterr().out
        assert run("check", str(src), "--property", "assert", "--validate") == 1
        out = capsys.readouterr().out
        assert "verdict reachable" in out and "trace replay: ok" in out


NESTED_BARRIER = """
bool a;
main(){
  p = newPhaser();
  q = newPhaser();
  asynch(T, p, q);
  next(p){ next(q){ } a = true; }
}
T(p, q){
  next(p){ next(q){ } a = true; }
}
"""


@pytest.mark.parametrize("cmd", ["explore", "check"])
@pytest.mark.parametrize(
    "text, message",
    [
        (
            NESTED_BARRIER,
            "task main: barrier block inside a barrier body; "
            "task T: barrier block inside a barrier body",
        ),
        ("bool a; main(){ assert(zz); }", "task main: undeclared Boolean 'zz'"),
        (
            MODE_MISMATCH,
            "task main: asynch(W, ...) registers 'p' as SIG_WAIT, but W declares 'p' as SIG",
        ),
        ("T(){ exit; }", "no main task"),
        ("main(){ exit; } main(){ exit; }", "duplicate task name 'main'"),
        ("main(p){ exit; }", "main must have no parameters"),
        ("main(){ exit; } W(p, p){ exit; }", "task W: duplicate parameters"),
    ],
    ids=[
        "nested_barrier", "undeclared", "mode_mismatch",
        "no_main", "duplicate_main", "main_parameters", "duplicate_parameters",
    ],
)
def test_invalid_programs_exit_2_with_an_unlocated_message(cmd, text, message, tmp_path, capsys):
    src = tmp_path / "bad.phz"
    src.write_text(text)
    assert run(cmd, str(src)) == 2
    assert capsys.readouterr().err == f"{src}: {message}\n"
    assert run("parse", str(src)) == 2
    assert message.split("; ")[0] in capsys.readouterr().out.splitlines()


def test_check_unreachable_regerror(capsys):
    assert run("check", path("sigwait_ok"), "--property", "regerror") == 0
    assert "verdict unreachable" in capsys.readouterr().out


def test_check_without_targets_is_unreachable(capsys):
    assert run("check", path("sigwait_ok"), "--property", "assert") == 0
    captured = capsys.readouterr()
    assert captured.out == "verdict unreachable\nprocessed 0 constraints\n"
    assert captured.err == "note: no target constraints for this property\n"


# neither program has an assert, and the second has no wait either
NO_TARGETS = {
    "barrier": "main(){ p = newPhaser(); next(p){ } drop(p); }",
    "modes": "main(){ p = newPhaser(); asynch(W, p:SIG); drop(p); } W(p: SIG){ signal(p); drop(p); }",
}


@pytest.mark.parametrize(
    "name, prop, why",
    [
        ("barrier", "assert", "barrier block"),
        ("modes", "assert", "SIG_WAIT-only"),
        ("modes", "cyclic-wait", "SIG_WAIT-only"),
    ],
)
def test_check_refuses_an_undecidable_program_without_targets(name, prop, why, tmp_path, capsys):
    # check refuses what it cannot decide before it looks at the targets
    src = tmp_path / f"{name}.phz"
    src.write_text(NO_TARGETS[name])
    assert run("check", str(src), "--property", prop) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and why in captured.err


def test_check_decides_a_program_whose_signal_only_task_no_run_spawns(tmp_path, capsys):
    # W declares a SIG parameter, but nothing spawns W, so every
    # registration of every run is SIG_WAIT
    src = tmp_path / "unspawned.phz"
    src.write_text("main(){ p = newPhaser(); drop(p); } W(p: SIG){ drop(p); }")
    assert run("check", str(src), "--property", "regerror") == 0
    assert capsys.readouterr() == ("verdict unreachable\nprocessed 1 constraints\n", "")
    assert run("explore", str(src)) == 0
    assert capsys.readouterr().out == "configurations: 3\nexhausted: yes\n"
    # the corpus programs that spawn a task in SIG or WAIT mode stay refused
    for name in ("producer_consumer", "assert_race", "assert_sync"):
        assert run("check", path(name), "--property", "regerror") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "SIG_WAIT-only" in captured.err


def test_check_b_inf_without_budget_rejects_bounded_targets(capsys):
    # control reachability: with no b prune and no budget, only free
    # targets are sure to terminate
    code = run("check", path("selfwait"), "--property", "cyclic-wait", "--b", "inf")
    assert code == 2
    assert "free targets" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--k", "inf"], ["--b", "inf"], ["--k", "inf", "--b", "inf"]])
def test_check_accepts_inf_limits(capsys, flags):
    # regerror targets are free, so --b inf needs no budget
    assert run("check", path("sigwait_ok"), "--property", "regerror", *flags) == 0
    assert capsys.readouterr().out.startswith("verdict unreachable\n")


def test_check_mode_flag_is_gone(capsys):
    assert run("check", path("sigwait_ok"), "--mode", "plain") == 2
    assert "unrecognized arguments: --mode plain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,prop,k,width",
    [("regerror_drop_signal", "regerror", 0, 1), ("cross_deadlock", "cyclic-wait", 1, 2)],
)
def test_check_rejects_k_below_a_target(capsys, name, prop, k, width):
    # both cells are reachable, yet said "verdict unreachable" and exited 0
    assert run("check", path(name), "--property", prop, "--k", str(k)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a target tracks {width} phasers, more than k={k}\n"


SPAWNED_TWICE = """
bool a;
main(){
  asynch(W);
  asynch(W);
}
W(){
  q = newPhaser();
  asynch(X, q);
  signal(q);
  wait(q);
  assert(a);
  drop(q);
}
X(q){
  a = true;
  signal(q);
  drop(q);
}
"""


def test_default_k_counts_every_spawned_copy(tmp_path, capsys):
    # one creation site, but both copies of W may hold a phaser at once;
    # a default k of 1 pruned predecessors that --k 2 explores
    src = tmp_path / "twice.phz"
    src.write_text(SPAWNED_TWICE)
    outs = {}
    for k in ([], ["--k", "2"], ["--k", "1"]):
        assert run("check", str(src), "--property", "regerror", *k) == 0
        outs[tuple(k)] = capsys.readouterr().out
    assert outs[()] == outs[("--k", "2")]
    assert outs[()] != outs[("--k", "1")]


def test_unreachable_cyclic_wait_names_its_settings(capsys):
    # the cross deadlock needs slack 1, so slack 0 finds no cycle
    argv = ["check", path("cross_deadlock"), "--property", "cyclic-wait", "--slack", "0"]
    assert run(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "verdict unreachable\nprocessed 2 constraints\n"
    assert captured.err == (
        "note: cyclic-wait verdict holds for --slack 0 and --max-cycle 2; "
        "a larger value may find a cycle\n"
    )


def test_check_budget_exhaustion(capsys):
    code = run(
        "check", path("minsky_chain"), "--property", "regerror",
        "--k", "inf", "--b", "inf", "--budget", "5",
    )
    assert code == 3
    assert "budget exhausted" in capsys.readouterr().out


def test_check_budget_applies_to_the_default_run(capsys):
    # --budget bounds every run; the plain run ignored it and said
    # "verdict unreachable" after 17 pops
    argv = ["check", path("minsky_chain"), "--property", "regerror", "--budget", "1"]
    assert run(*argv) == 3
    assert capsys.readouterr().out == "verdict unknown (budget exhausted)\nprocessed 1 constraints\n"


def test_check_budget_stops_after_that_many_pops(capsys):
    argv = ["check", path("chain_spawn"), "--property", "regerror", "--budget", "3", "--progress"]
    assert run(*argv) == 3
    out, err = capsys.readouterr()
    assert out == "verdict unknown (budget exhausted)\nprocessed 3 constraints\n"
    events = [json.loads(line) for line in err.splitlines()]
    assert [e["processed"] for e in events[:-1]] == [1, 2, 3]
    assert events[-1] == {"event": "done", "verdict": "unknown", "processed": 3}


def test_check_rejects_mode_programs(capsys):
    assert run("check", path("producer_consumer"), "--property", "assert") == 2
    assert "SIG_WAIT-only" in capsys.readouterr().err


def test_check_rejects_barrier_blocks(capsys):
    assert run("check", path("barrier_block"), "--property", "assert") == 2
    assert "barrier" in capsys.readouterr().err


def test_check_decides_a_program_whose_barrier_no_run_reaches(tmp_path, capsys):
    src = tmp_path / "dead_barrier.phz"
    src.write_text("bool a; main(){ p = newPhaser(); drop(p); exit; next(p){ a = true; } }")
    assert run("check", str(src), "--property", "regerror") == 0
    captured = capsys.readouterr()
    assert captured.out == "verdict unreachable\nprocessed 1 constraints\n"
    assert captured.err == ""


def test_check_progress_stream_is_ndjson(tmp_path, capsys):
    # notes and errors are events too, so a line-by-line JSON reader reads
    # all of stderr; stdout does not change.  The event text is the plain
    # line without its "note: " or "error: " tag
    bad_program = tmp_path / "bad.phz"
    bad_program.write_text("main(){ signal(p) }")  # missing semicolon
    bad_target = tmp_path / "bad.txt"
    bad_target.write_text("not a constraint\n")
    missing = str(tmp_path / "missing.phz")
    for argv, code, last in [
        ([path("drop_then_wait"), "--property", "regerror"], 1, None),
        (
            [path("cross_deadlock"), "--property", "cyclic-wait", "--slack", "0"],
            0,
            "note: cyclic-wait verdict holds for --slack 0 and --max-cycle 2; "
            "a larger value may find a cycle",
        ),
        (
            [path("sigwait_ok"), "--property", "assert"],
            0,
            "note: no target constraints for this property",
        ),
        (
            [path("cross_deadlock"), "--property", "cyclic-wait", "--k", "1"],
            2,
            "error: a target tracks 2 phasers, more than k=1",
        ),
        ([missing], 2, f"error: [Errno 2] No such file or directory: '{missing}'"),
        ([str(bad_program)], 2, f"{bad_program}: 1:19: expected ';', found '}}'"),
        (
            [path("assert_fail"), "--property", "custom", "--target", str(bad_target)],
            2,
            f"{bad_target}: line 1: expected 'constraint {{' or 'partial-config {{', "
            "found 'not a constraint'",
        ),
    ]:
        argv = ["check", *argv]
        assert run(*argv) == code
        plain = capsys.readouterr()
        assert run(*argv, "--progress") == code
        captured = capsys.readouterr()
        assert captured.out == plain.out
        events = [json.loads(ln) for ln in captured.err.splitlines()]
        pops = [e for e in events if e["event"] == "pop"]
        ends = []
        if last is not None:
            kind = "note" if last.startswith("note: ") else "error"
            ends = [{"event": kind, "text": last.removeprefix(f"{kind}: ")}]
        if code != 2:  # a verdict ends the stream, after any note
            verdict = {0: "unreachable", 1: "reachable"}[code]
            ends.append({"event": "done", "verdict": verdict, "processed": len(pops)})
        assert events and events == pops + ends
        assert plain.err == ("" if last is None else f"{last}\n")


def test_check_input_errors_return_2_from_main(tmp_path, capsys):
    # a library caller of main gets every input error as a return code
    bad_program = tmp_path / "bad.phz"
    bad_program.write_text("main(){ signal(p) }")  # missing semicolon
    bad_target = tmp_path / "bad.txt"
    bad_target.write_text("not a constraint\n")
    for argv in [
        [str(tmp_path / "missing.phz")],
        [str(bad_program)],
        [path("assert_fail"), "--property", "custom", "--target", str(bad_target)],
        [path("assert_fail"), "--target", str(bad_target)],
        [path("barrier_block"), "--property", "assert"],
    ]:
        assert main(["check", *argv]) == 2, argv
        assert capsys.readouterr().err.count("\n") == 1, argv


# ---------------------------------------------------------------------------
# check: custom targets


def test_check_custom_requires_target(capsys):
    custom_only = "error: --target requires --property custom"
    for argv, message in [
        (["--property", "custom"], "error: --property custom requires --target FILE"),
        (["--target", "t.txt"], custom_only),
        (["--property", "regerror", "--target", "t.txt"], custom_only),
    ]:
        assert run("check", path("assert_fail"), *argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n"), argv


def test_check_custom_constraint_file(tmp_path, capsys):
    program = load("selfwait")
    [phi] = cyclic_wait_targets(program, max_cycle=1)
    target = tmp_path / "target.txt"
    target.write_text(constraint_to_text(phi, program))
    code = run(
        "check",
        path("selfwait"),
        "--property",
        "custom",
        "--target",
        str(target),
        "--validate",
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict reachable" in out and "trace replay: ok" in out


def test_check_custom_partial_config(tmp_path, capsys, monkeypatch):
    # the record's constraints are built once, while it is read
    built = []
    build = targets.partial_config_constraint
    counted = lambda *a: built.append(a) or build(*a)
    monkeypatch.setattr(targets, "partial_config_constraint", counted)
    target = tmp_path / "pc.txt"
    target.write_text(
        "partial-config {\n"
        "  tasks 1\n"
        "  phasers 1\n"
        "  phase t0 p0 var=p w=0 s=1\n"
        "}\n"
    )
    code = run(
        "check", path("sigwait_ok"), "--property", "custom", "--target", str(target)
    )
    assert code == 1
    assert "verdict reachable" in capsys.readouterr().out
    assert len(built) == 1


def test_check_custom_malformed_target(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("constraint {\n  tasks 1\n")
    code = run(
        "check", path("selfwait"), "--property", "custom", "--target", str(target)
    )
    assert code == 2
    assert str(target) in capsys.readouterr().err


@pytest.mark.parametrize("header", ["constraint", "partial-config"])
def test_check_target_at_a_sequence_no_task_reaches(tmp_path, capsys, header):
    # it has no model: check runs on no target, and the property's
    # "no target constraints" note does not apply; a note names the
    # record's opening line, so a typo does not read as a proof
    target = tmp_path / "target.txt"
    target.write_text(
        f'# one assert too many\n{header} {{\n  tasks 1\n  phasers 0\n'
        '  seq t0 "assert(a); assert(a); assert(a);"\n}\n'
    )
    argv = ["check", path("assert_fail"), "--property", "custom", "--target", str(target)]
    note = f"{target}: line 2: no task reaches a sequence this record pins, so it has no model"
    assert run(*argv) == 0
    assert capsys.readouterr() == (
        "verdict unreachable\nprocessed 0 constraints\n", f"note: {note}\n"
    )
    assert run(*argv, "--progress") == 0
    out, err = capsys.readouterr()
    assert out == "verdict unreachable\nprocessed 0 constraints\n"
    assert [json.loads(line) for line in err.splitlines()] == [
        {"event": "note", "text": note},
        {"event": "done", "verdict": "unreachable", "processed": 0},
    ]


MALFORMED_TARGETS = [
    "constraint {\n  tasks\n}",
    "constraint {\n  tasks 1\n  phasers 1\n  gap t0\n}",
    'constraint {\n  tasks 1\n  phasers 0\n  seq t0 "wait(p"\n}',
    "constraint {\n  tasks inf\n  phasers 0\n}",
    "constraint {\n  tasks 1\n  phasers 1\n  gap t3 p0 var=p nreg\n}",
    "partial-config {\n  tasks 1\n  phasers 1\n  phase t5 p0 var=p nreg\n}",
    "partial-config {\n  bv a=maybe\n  tasks 1\n  phasers 0\n}",
    "partial-config {\n  tasks 2\n  phasers 1\n  phase t0 p0 var=p w=2 s=2\n  phase t1 p0 var=p w=0 s=1\n}",
    # text after the sequence's closing brace
    'partial-config {\n  tasks 1\n  phasers 1\n  seq t0 "drop(p); } signal(p);"\n}',
    "constraint {\n  tasks 1\n  phasers 1\n  env p0 ew=1\n}",
    # a statement made twice
    "constraint {\n  tasks 1\n  phasers 0\n  tasks 1\n}",
    "partial-config {\n  tasks 1\n  phasers 0\n  phasers 0\n}",
    'constraint {\n  tasks 1\n  phasers 0\n  seq t0 *\n  seq t0 "assert(a);"\n}',
    "partial-config {\n  bv a=true\n  tasks 1\n  phasers 0\n  bv a=true\n}",
    "constraint {\n  tasks 1\n  phasers 1\n  gap t0 p0 var=p nreg\n  gap t0 p0 var=p nreg\n}",
    "constraint {\n  tasks 1\n  phasers 1\n  env p0 ew=0 es=0\n  env p0 ew=1 es=0\n}",
    "partial-config {\n  tasks 1\n  phasers 1\n  phase t0 p0 var=p free\n  phase t0 p0 var=p nreg\n}",
    # digits of other scripts
    "constraint {\n  tasks \u00b2\n  phasers 0\n}",
    "constraint {\n  tasks \u0661\n  phasers 0\n}",
    "constraint {\n  tasks 1\n  phasers 1\n  gap t0 p0 var=p lw=0 ls=0 uw=\u0661 us=1\n}",
]


@pytest.mark.parametrize("text", MALFORMED_TARGETS)
def test_check_malformed_target_names_the_line(tmp_path, capsys, text):
    target = tmp_path / "bad.txt"
    target.write_text(text)
    code = run(
        "check", path("assert_ok"), "--property", "custom", "--target", str(target)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{target}: line ")
    if not text.isascii():
        assert "expected a natural number" in err


def test_check_rejects_a_record_that_states_a_line_twice(tmp_path, capsys):
    # read with the later value of each line, this record would pin no
    # sequence and so would decide "unreachable" on no target at all
    target = tmp_path / "twice.txt"
    target.write_text(
        "constraint {\n  tasks 1\n  phasers 1\n  tasks 2\n  gap t0 p0 var=p nreg\n"
        "  gap t0 p0 var=p lw=0 ls=0 uw=inf us=inf\n}\n"
    )
    argv = ["check", path("sigwait_ok"), "--property", "custom", "--target", str(target)]
    assert run(*argv) == 2
    assert capsys.readouterr() == ("", f"{target}: line 4: 'tasks' repeats line 2\n")


@pytest.mark.parametrize(
    "comment",
    [
        "# written by hand, not as a partial-config record\n",
        "# one constraint { of the trace\n",
    ],
)
def test_check_reads_each_record_by_its_own_header(tmp_path, capsys, comment):
    # a leading comment may name either header or hold a brace; a file
    # may mix the two kinds.  A constraint from the trace and the
    # pattern of a task registered on p are both reachable
    program = load("selfwait")
    [phi] = cyclic_wait_targets(program, max_cycle=1)
    constraint = constraint_to_text(phi, program) + "\n"
    pc = "partial-config {\n  tasks 1\n  phasers 1\n  phase t0 p0 var=p w=0 s=0\n}\n"
    for records in ([constraint], [pc], [constraint, pc], [pc, pc]):
        target = tmp_path / "target.txt"
        target.write_text(comment + "".join(records))
        argv = ["check", path("selfwait"), "--property", "custom", "--target", str(target)]
        assert run(*argv, "--validate") == 1, records
        out, err = capsys.readouterr()
        assert "verdict reachable" in out and "trace replay: ok" in out
        assert err == ""


# ---------------------------------------------------------------------------
# check: fuzzed target files


_TAGS = ["bv", "seq", "gap", "env", "phase", "tasks", "phasers", "}", "#", "junk"]
_HEADS = [
    "t0 p0", "t1 p0", "t0 p1", "t5 p0", "t0", "p0", "p4", "x", "1", "inf",
    "t0 *", 't0 "assert(a);"', 't0 "a = true; assert(a);"', 't1 "wait(p);"',
    't0 "wait(p"', "a=true", "a=*", "a=maybe", "b=false",
]
_FIELDS = [
    "var=p", "var=*", "var=-", "nreg", "opt", "free", "inf", "=", '"',
    "lw=0 ls=0 uw=inf us=inf", "lw=0 ls=1 uw=1 us=1", "lw=2 ls=0 uw=1 us=0",
    "lw=inf", "us=inf", "ew=0 es=0", "ew=1 es=0", "es=inf",
    "w=0 s=1", "w=1 s=0", "w=-1",
]
_LINES = st.builds(
    lambda tag, head, fields: " ".join([tag, head] + fields),
    st.sampled_from(_TAGS),
    st.sampled_from(_HEADS),
    st.lists(st.sampled_from(_FIELDS), max_size=3),
)
_SHARED = ["bv a=true", "bv a=*", "seq t0 *", 'seq t0 "assert(a);"', 'seq t1 "a = true; assert(a);"']
_CELLS = {
    "constraint": [
        "gap t0 p0 var=p nreg", "gap t0 p0 var=* opt lw=0 ls=0 uw=inf us=inf",
        "gap t1 p0 var=p lw=0 ls=1 uw=1 us=1", "env p0 ew=1 es=0",
    ],
    "partial-config": ["phase t0 p0 var=p w=0 s=1", "phase t1 p0 var=* free", "phase t0 p0 var=- nreg"],
}


def _target_files(header):
    return st.builds(
        lambda tasks, phasers, body, noise, closed: "\n".join(
            [header + " {", tasks, phasers] + body + noise + (["}"] if closed else [])
        ),
        st.sampled_from(["tasks 1", "tasks 2"]),
        st.sampled_from(["phasers 0", "phasers 1"]),
        st.lists(st.sampled_from(_SHARED + _CELLS[header]), max_size=4),
        st.lists(_LINES, max_size=1),
        st.sampled_from([True, True, True, False]),
    )


# one or two records, of either kind
_TARGET_FILES = st.lists(
    st.one_of(_target_files("constraint"), _target_files("partial-config")), min_size=1, max_size=2
).map("\n".join)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_TARGET_FILES)
def test_check_fuzzed_target_files_exit_cleanly(tmp_path, capsys, text):
    target = tmp_path / "fuzz.txt"
    target.write_text(text)
    code = run(
        "check", path("assert_ok"), "--property", "custom", "--target", str(target),
        "--k", "inf", "--b", "inf", "--budget", "50",
    )
    assert code in (0, 1, 2, 3)
    capsys.readouterr()
