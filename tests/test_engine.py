import gc
import weakref
from random import Random

import pytest

from phasercheck import engine
from phasercheck.concrete import Bounds, explore, initial_config
from phasercheck.engine import (
    BudgetExhausted,
    ControlReachability,
    PlainReachability,
    Reachable,
    Trace,
    Unreachable,
    Unrestricted,
    check,
    type_bound,
    validate_trace,
)
from phasercheck.parser import parse
from phasercheck.pre import AtomicUnsupported, pre
from phasercheck.symbolic import models
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import FINITE_PROGRAMS, load
from sandwich import constraint_pool

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
    ("chain_spawn", "regerr", PLAIN, Unreachable(51)),
    ("chain_spawn", "regerr", CTRL, Unreachable(51)),
    ("chain_spawn", "cyclic", PLAIN, Unreachable(38)),
    ("cross_deadlock", "regerr", PLAIN, Unreachable(38)),
    ("cross_deadlock", "cyclic", PLAIN, Reachable),
    ("drop_then_wait", "regerr", PLAIN, Reachable),
    ("drop_then_wait", "regerr", CTRL, Reachable),
    ("drop_then_wait", "cyclic", PLAIN, Unreachable(1)),
    ("minsky_chain", "assert", PLAIN, Unreachable(2)),
    ("minsky_chain", "regerr", PLAIN, Unreachable(17)),
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


def test_replay_fires_each_statement_once():
    # a trace step is one firing of its statement: with two signal(p)
    # steps collapsed into one, no single firing reaches the next constraint
    program = parse("main(){ p = newPhaser(); signal(p); signal(p); drop(p); signal(p); }")
    trace = check(program, registration_error_targets(program), PLAIN).trace
    assert [str(s) for s in trace.stmts] == [
        "p = newPhaser();", "signal(p);", "signal(p);", "drop(p);"
    ]
    assert validate_trace(program, trace).ok
    collapsed = Trace(
        trace.constraints[:2] + trace.constraints[3:], trace.stmts[:1] + trace.stmts[2:]
    )
    assert validate_trace(program, collapsed).failed_stage == 2


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
    assert load("sigwait_ok").static_bounds[0] == 1
    assert load("cross_deadlock").static_bounds[0] == 2
    assert load("chain_spawn").static_bounds[0] == 3
    assert load("producer_consumer_sw").static_bounds[0] == 3
    assert load("minsky_chain").static_bounds[0] is None
    recursive = parse("main(){ asynch(Loop); } Loop(){ asynch(Loop); }")
    assert recursive.static_bounds[0] is None
    assert recursive.instance_counts == {"main": 1, "Loop": None}


def test_static_phaser_bound():
    assert load("sigwait_ok").static_bounds[1] == 1
    assert load("cross_deadlock").static_bounds[1] == 2
    assert load("chain_spawn").static_bounds[1] == 2
    assert load("minsky_chain").static_bounds[1] == 1
    looped = parse("main(){ while(ndet()){ p = newPhaser(); drop(p); } }")
    assert looped.static_bounds[1] is None
    # the unbounded recursion creates no phaser, so main's one site bounds it
    recursive = parse("main(){ p = newPhaser(); asynch(Loop); } Loop(){ asynch(Loop); }")
    assert recursive.static_bounds == (None, 1)
    spawned_in_recursion = parse(
        "main(){ asynch(Loop); } Loop(){ p = newPhaser(); drop(p); asynch(Loop); }"
    )
    assert spawned_in_recursion.static_bounds == (None, None)


def _largest(program, bounds):
    res = explore(program, bounds)
    assert res.exhausted  # no bound cut a configuration short
    return len(res.configs), (
        max(c.n_tasks for c in res.configs),
        max(c.n_phasers for c in res.configs),
    )


@pytest.mark.parametrize("name", FINITE_PROGRAMS)
def test_static_bounds_are_reached_by_the_explorer(name):
    # exact, not just sound: some configuration has as many tasks and
    # phasers as the bounds allow, so an off-by-one either way fails
    program = load(name)
    bounds = Bounds(max_steps=20000, max_tasks=4, max_phasers=4, max_phase=8)
    assert _largest(program, bounds)[1] == program.static_bounds


# main spawns W twice, and every W spawns an X: one site per type, but
# five tasks and two phasers at once
SPAWNED_TWICE = """
main(){ asynch(W); asynch(W); }
W(){ q = newPhaser(); asynch(X, q); signal(q); wait(q); signal(q); wait(q); drop(q); }
X(q){ signal(q); wait(q); signal(q); drop(q); }
"""


def test_instance_counts_count_every_spawned_copy():
    program = parse(SPAWNED_TWICE)
    assert program.instance_counts == {"main": 1, "W": 2, "X": 2}
    assert program.static_bounds == (5, 2)
    assert _largest(program, Bounds(max_tasks=5)) == (268, (5, 2))


def test_spawned_twice_is_decided_and_agrees_with_the_explorer():
    # each type's code holds at most as many rows as the type has
    # instances; without that bound the cyclic-wait run found no verdict
    # within 100 s
    program = parse(SPAWNED_TWICE)
    res = explore(program, Bounds(max_tasks=5))
    assert res.exhausted and res.errors == []
    assert check(program, cyclic_wait_targets(program), PLAIN) == Unreachable(1022)
    assert check(program, registration_error_targets(program), PLAIN) == Unreachable(9)


C1_BOUNDS = Bounds(max_steps=20000, max_tasks=4, max_phasers=4, max_phase=8)


# programs whose exploration is exhausted, with the bounds that exhaust it
EXHAUSTED = {
    "SPAWNED_TWICE": Bounds(max_tasks=5),
    "chain_spawn": C1_BOUNDS,
    "producer_consumer_sw": C1_BOUNDS,
    "cross_deadlock": C1_BOUNDS,
}


@pytest.mark.parametrize("name", EXHAUSTED)
def test_type_bound_is_exact(name):
    # sound: no reached configuration models a predecessor the per-type
    # bound rejects.  Tight: for every type, a kept predecessor that one
    # more row on that type's own code would push over the bound is
    # modeled, so a count one too high or one too low fails
    program = parse(SPAWNED_TWICE) if name == "SPAWNED_TWICE" else load(name)
    res = explore(program, EXHAUSTED[name])
    assert res.exhausted
    fits_types = type_bound(program)
    own = program.owners
    rejected, tight = set(), {}  # tight: type -> predecessors at its bound
    for phi in constraint_pool(Random(7), program, 30):
        for _, psi in pre(phi, program):
            if not fits_types(psi.seqs):
                rejected.add(psi)
                continue
            for seq in psi.seqs:
                if seq is None or len(own[seq]) > 1:
                    continue
                if not fits_types(psi.seqs + (seq,)):
                    (owner,) = own[seq]
                    tight.setdefault(owner, set()).add(psi)
    task_bound = program.static_bounds[0]
    assert any(psi.n_tasks <= task_bound for psi in rejected)
    assert not [psi for psi in rejected if any(models(c, psi) for c in res.configs)]
    assert set(tight) == set(program.instance_counts)
    for psis in tight.values():
        assert any(models(c, psi) for psi in psis for c in res.configs)


def test_pre_builds_only_what_the_static_limits_admit(monkeypatch):
    # exact counters on the slowest bench cell: check pops 604 constraints
    # and pre hands its keep filter 3,997 predecessors.  Without the
    # limits, pre builds 32,744 on those pops: 21,724 over the task bound,
    # 5,195 more over the per-type bound and 1,828 more over the phaser
    # bound
    program = load("producer_consumer_sw")
    handed = []

    def counted(phi, program, keep, **limits):
        def seen(psi):
            handed.append(psi)
            return keep(psi)

        return pre(phi, program, keep=seen, **limits)

    monkeypatch.setattr(engine, "pre", counted)
    strategy = PlainReachability(k=None, b=1)  # the bench cell's default
    assert check(program, registration_error_targets(program), strategy) == Unreachable(604)
    assert len(handed) == 3997


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


# W creates its phaser in a loop, so the phaser bound is infinite and
# the inferred k falls back to the one creation site
LOOPED_CREATION = """
bool a;
main(){ asynch(W); asynch(W); }
W(){ while(ndet()){ q = newPhaser(); asynch(X, q); signal(q); wait(q); assert(a); drop(q); } }
X(q){ a = true; signal(q); drop(q); }
"""


@pytest.mark.parametrize("strategy", [PlainReachability, ControlReachability])
def test_k_none_falls_back_to_the_creation_sites(strategy):
    program = parse(LOOPED_CREATION)
    assert program.static_bounds == (None, None)
    targets = registration_error_targets(program)
    extra = {"b": 1} if strategy is PlainReachability else {}
    runs = {k: check(program, targets, strategy(k=k, **extra)) for k in (None, 1, 2)}
    assert runs[None] == runs[1] != runs[2]
