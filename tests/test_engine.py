import gc
import weakref

import pytest

from phasercheck.concrete import initial_config
from phasercheck.engine import (
    BudgetExhausted,
    ControlReachability,
    PlainReachability,
    Reachable,
    Trace,
    Unreachable,
    Unrestricted,
    check,
    static_phaser_bound,
    static_task_bound,
    validate_trace,
)
from phasercheck.parser import parse
from phasercheck.pre import AtomicUnsupported
from phasercheck.symbolic import models
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import load

BUILDERS = {
    "assert": assertion_targets,
    "regerr": registration_error_targets,
    "cyclic": cyclic_wait_targets,
}

PLAIN = PlainReachability(k=2, b=1)
CTRL = ControlReachability(k=2)

# (program, target kind, strategy, expected result: Reachable, or the
# Unreachable verdict with its pop count); the slow
# producer_consumer_sw cells are exercised by the acceptance suite
MATRIX = [
    ("assert_fail", "assert", PLAIN, Reachable),
    ("assert_fail", "assert", CTRL, Reachable),
    ("assert_ok", "assert", PLAIN, Unreachable(1)),
    ("assert_ok", "assert", CTRL, Unreachable(1)),
    ("assign_chain", "assert", PLAIN, Unreachable(2)),
    ("assign_ndet", "assert", PLAIN, Reachable),
    ("assign_ndet", "assert", CTRL, Reachable),
    ("chain_spawn", "regerr", PLAIN, Unreachable(640)),
    ("chain_spawn", "regerr", CTRL, Unreachable(640)),
    ("chain_spawn", "cyclic", PLAIN, Unreachable(80)),
    ("cross_deadlock", "regerr", PLAIN, Unreachable(59)),
    ("cross_deadlock", "cyclic", PLAIN, Reachable),
    ("drop_then_wait", "regerr", PLAIN, Reachable),
    ("drop_then_wait", "regerr", CTRL, Reachable),
    ("drop_then_wait", "cyclic", PLAIN, Unreachable(1)),
    ("minsky_chain", "assert", PLAIN, Unreachable(2)),
    ("minsky_chain", "regerr", PLAIN, Unreachable(57)),
    ("minsky_chain", "cyclic", PLAIN, Unreachable(1)),
    ("phase_loop", "regerr", PLAIN, Unreachable(5)),
    ("phase_loop", "cyclic", PLAIN, Unreachable(2)),
    ("regerror_drop_signal", "regerr", PLAIN, Reachable),
    ("regerror_drop_signal", "regerr", CTRL, Reachable),
    ("selfwait", "regerr", PLAIN, Unreachable(2)),
    ("selfwait", "cyclic", PLAIN, Reachable),
    ("sigwait_ok", "regerr", PLAIN, Unreachable(3)),
    ("sigwait_ok", "cyclic", PLAIN, Unreachable(1)),
]


@pytest.mark.parametrize(
    "name,kind,strategy,expected",
    MATRIX,
    ids=[f"{n}-{k}-{type(s).__name__}" for n, k, s, _ in MATRIX],
)
def test_corpus_verdicts(name, kind, strategy, expected):
    program = load(name)
    targets = BUILDERS[kind](program)
    assert targets, (name, kind)
    result = check(program, targets, strategy)
    if isinstance(expected, Unreachable):
        # the pops pin the search, not just its verdict
        assert result == expected, (name, kind, result)
        return
    assert isinstance(result, expected), (name, kind, result)
    trace = result.trace
    assert models(initial_config(program), trace.constraints[0])
    assert trace.constraints[-1] in targets
    assert len(trace.constraints) == len(trace.stmts) + 1
    report = validate_trace(program, trace)
    assert report.ok, (name, kind, report)


def test_replay_rejects_a_broken_witness():
    program = load("cross_deadlock")
    trace = check(program, cyclic_wait_targets(program), PLAIN).trace
    assert validate_trace(program, trace).ok
    # the first step fires the wrong statement
    wrong = Trace(trace.constraints, trace.stmts[1:2] + trace.stmts[1:])
    assert validate_trace(program, wrong).failed_stage == 1
    # the witness no longer starts at the initial configuration
    late = Trace(trace.constraints[1:], trace.stmts[1:])
    assert validate_trace(program, late).failed_stage == 0


def test_unrestricted_budget_exhaustion():
    program = load("minsky_chain")
    targets = registration_error_targets(program)
    result = check(program, targets, Unrestricted(budget=5))
    assert isinstance(result, BudgetExhausted)
    assert result.processed == 6  # gives up on the first over-budget pop


def test_unrestricted_finds_immediate_violation():
    program = load("assert_fail")
    result = check(program, assertion_targets(program), Unrestricted(budget=100))
    assert isinstance(result, Reachable)
    assert validate_trace(program, result.trace).ok


def test_static_task_bound():
    assert static_task_bound(load("sigwait_ok")) == 1
    assert static_task_bound(load("cross_deadlock")) == 2
    assert static_task_bound(load("chain_spawn")) == 3
    assert static_task_bound(load("producer_consumer_sw")) == 3
    assert static_task_bound(load("minsky_chain")) is None
    recursive = parse("main(){ asynch(Loop); } Loop(){ asynch(Loop); }")
    assert static_task_bound(recursive) is None


def test_static_phaser_bound():
    assert static_phaser_bound(load("sigwait_ok")) == 1
    assert static_phaser_bound(load("cross_deadlock")) == 2
    assert static_phaser_bound(load("chain_spawn")) == 2
    assert static_phaser_bound(load("minsky_chain")) == 1
    looped = parse("main(){ while(ndet()){ p = newPhaser(); drop(p); } }")
    assert static_phaser_bound(looped) is None


def test_mode_programs_are_rejected():
    program = load("producer_consumer")
    targets = assertion_targets(program)
    with pytest.raises(ValueError, match="SIG_WAIT-only"):
        check(program, targets, PLAIN)


def test_barrier_blocks_are_rejected():
    program = load("barrier_block")
    targets = assertion_targets(program)
    with pytest.raises(AtomicUnsupported):
        check(program, targets, PLAIN)


def test_control_mode_requires_free_targets():
    program = load("selfwait")
    targets = cyclic_wait_targets(program)
    with pytest.raises(ValueError, match="free targets"):
        check(program, targets, CTRL)


def test_plain_mode_requires_b_good_targets():
    program = load("cross_deadlock")
    targets = cyclic_wait_targets(program, max_cycle=2, slack=1)
    with pytest.raises(ValueError, match="0-good"):
        check(program, targets, PlainReachability(k=2, b=0))


@pytest.mark.parametrize(
    "name,build,strategy",
    [
        ("regerror_drop_signal", registration_error_targets, PlainReachability(k=0, b=1)),
        ("regerror_drop_signal", registration_error_targets, ControlReachability(k=0)),
        ("cross_deadlock", cyclic_wait_targets, PlainReachability(k=1, b=1)),
    ],
)
def test_targets_wider_than_k_are_rejected(name, build, strategy):
    # both properties are reachable; pruning every predecessor of the
    # wider targets used to answer Unreachable
    program = load(name)
    with pytest.raises(ValueError, match=f"more than k={strategy.k}$"):
        check(program, build(program), strategy)


def test_progress_callback_reports_pops():
    program = load("drop_then_wait")
    events = []
    check(program, registration_error_targets(program), PLAIN, progress=events.append)
    assert events and all(e["event"] == "pop" for e in events)
    assert [e["processed"] for e in events] == list(range(1, len(events) + 1))


# cross_deadlock with renamed phasers: a program no other test checks, so
# nothing an earlier test created can stand in for its constraints
HELD_OTHER = """
main(){
  held = newPhaser();
  other = newPhaser();
  asynch(Other, held, other);
  signal(held);
  wait(held);
  drop(held);
  drop(other);
}
Other(held, other){
  signal(other);
  wait(other);
  drop(other);
  drop(held);
}
"""


def test_check_keeps_no_constraint_alive():
    program = parse(HELD_OTHER)
    targets = registration_error_targets(program)
    refs = [weakref.ref(phi) for phi in targets]
    assert isinstance(check(program, targets, PLAIN), Unreachable)
    del targets
    gc.collect()
    assert [r for r in refs if r() is not None] == []
