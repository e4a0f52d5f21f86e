import copy
import functools
import gc
import os
import runpy
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from phasercheck import engine
from phasercheck.concrete import (
    NREG,
    AssertionViolation,
    Bounds,
    CyclicWait,
    RegistrationError,
    explore,
    initial_config,
)
from phasercheck.engine import (
    BudgetExhausted,
    Reachable,
    StaticRules,
    Unreachable,
    check,
    validate_trace,
)
from phasercheck.parser import parse
from phasercheck.pre import pre
from phasercheck.symbolic import FREE_BOUNDS, INF, Constraint, Gap, canonical_constraint, models
from phasercheck.syntax import Asynch, NewPhaser
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import CORPUS, FINITE_PROGRAMS, load
from sandwich import constraint_pool

BUILDERS = {
    "assert": assertion_targets,
    "regerr": registration_error_targets,
    "cyclic": cyclic_wait_targets,
}

# the concrete error each kind's witness replays to
ERROR_OF = {"assert": AssertionViolation, "regerr": RegistrationError, "cyclic": CyclicWait}

# check's limits for plain and for control reachability
PLAIN = dict(k=2, b=1)
CTRL = dict(k=2, b=INF)


def _formulation(limits) -> str:
    return "PlainReachability" if limits["b"] == 1 else "ControlReachability"


# (program, target kind, limits, expected result: Reachable, or the
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
    ("chain_spawn", "regerr", PLAIN, Unreachable(23)),
    ("chain_spawn", "regerr", CTRL, Unreachable(23)),
    ("chain_spawn", "cyclic", PLAIN, Unreachable(8)),
    ("cross_deadlock", "regerr", PLAIN, Unreachable(29)),
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
    "name,kind,limits,expected",
    MATRIX,
    ids=[f"{n}-{k}-{_formulation(s)}" for n, k, s, _ in MATRIX],
)
def test_corpus_verdicts(name, kind, limits, expected):
    program = load(name)
    targets = BUILDERS[kind](program)
    assert targets, (name, kind)
    result = check(program, targets, **limits)
    if isinstance(expected, Unreachable):
        # the pops pin the search, not just its verdict
        assert result == expected, (name, kind, result)
        return
    assert isinstance(result, expected), (name, kind, result)
    assert models(initial_config(program), result.constraints[0])
    assert result.constraints[-1] in targets
    assert len(result.constraints) == len(result.stmts) + 1
    failure = validate_trace(program, result, ERROR_OF[kind])
    assert failure is None, (name, kind, failure)


def test_replay_rejects_a_broken_witness():
    program = load("cross_deadlock")
    trace = check(program, cyclic_wait_targets(program), **PLAIN)
    assert validate_trace(program, trace, CyclicWait) is None
    # the first step fires the wrong statement
    wrong = Reachable(trace.constraints, trace.stmts[1:2] + trace.stmts[1:])
    assert validate_trace(program, wrong)[0] == 1
    # the witness no longer starts at the initial configuration
    late = Reachable(trace.constraints[1:], trace.stmts[1:])
    assert validate_trace(program, late)[0] == 0


def test_replay_ends_at_the_property_error():
    # a registration-error witness replays, and reaches no failed assertion
    program = load("drop_then_wait")
    trace = check(program, registration_error_targets(program), **PLAIN)
    assert validate_trace(program, trace) is None
    assert validate_trace(program, trace, RegistrationError) is None
    end = len(trace.stmts)
    assert validate_trace(program, trace, AssertionViolation) == (
        end, f"no model of constraint {end} that the replay reaches raises AssertionViolation"
    )
    assert validate_trace(program, trace, CyclicWait)[0] == end


def test_replay_fires_each_statement_once():
    # a trace step is one firing of its statement: with two signal(p)
    # steps collapsed into one, no single firing reaches the next constraint
    program = parse("main(){ p = newPhaser(); signal(p); signal(p); drop(p); signal(p); }")
    trace = check(program, registration_error_targets(program), **PLAIN)
    assert [str(s) for s in trace.stmts] == [
        "p = newPhaser();", "signal(p);", "signal(p);", "drop(p);"
    ]
    assert validate_trace(program, trace, RegistrationError) is None
    collapsed = Reachable(
        trace.constraints[:2] + trace.constraints[3:], trace.stmts[:1] + trace.stmts[2:]
    )
    assert validate_trace(program, collapsed)[0] == 2


def test_unrestricted_budget_exhaustion():
    program = load("minsky_chain")
    targets = registration_error_targets(program)
    result = check(program, targets, k=INF, budget=5)
    assert isinstance(result, BudgetExhausted)
    assert result.processed == 5  # gives up after the budget's pops


def test_budget_that_covers_the_whole_run_keeps_the_verdict():
    # the default regerror run on minsky_chain ends after 17 pops
    program = load("minsky_chain")
    targets = registration_error_targets(program)
    assert check(program, targets, b=1, budget=17) == Unreachable(17)
    assert check(program, targets, b=1, budget=16) == BudgetExhausted(16)


def test_unrestricted_finds_immediate_violation():
    program = load("assert_fail")
    result = check(program, assertion_targets(program), k=INF, budget=100)
    assert isinstance(result, Reachable)
    assert validate_trace(program, result, AssertionViolation) is None


def _task_bound(program):
    # the most tasks any run has at once: the instances of every type
    counts = program.instance_counts.values()
    return None if None in counts else sum(counts)


def test_static_task_bound():
    assert _task_bound(load("sigwait_ok")) == 1
    assert _task_bound(load("cross_deadlock")) == 2
    assert _task_bound(load("chain_spawn")) == 3
    assert _task_bound(load("producer_consumer_sw")) == 3
    assert _task_bound(load("minsky_chain")) is None
    recursive = parse("main(){ asynch(Loop); } Loop(){ asynch(Loop); }")
    assert _task_bound(recursive) is None
    assert recursive.instance_counts == {"main": 1, "Loop": None}


def test_static_phaser_bound():
    assert load("sigwait_ok").phaser_bound == 1
    assert load("cross_deadlock").phaser_bound == 2
    assert load("chain_spawn").phaser_bound == 2
    assert load("minsky_chain").phaser_bound == 1
    looped = parse("main(){ while(ndet()){ p = newPhaser(); drop(p); } }")
    assert looped.phaser_bound is None
    # the unbounded recursion creates no phaser, so main's one site bounds it
    recursive = parse("main(){ p = newPhaser(); asynch(Loop); } Loop(){ asynch(Loop); }")
    assert (_task_bound(recursive), recursive.phaser_bound) == (None, 1)
    spawned_in_recursion = parse(
        "main(){ asynch(Loop); } Loop(){ p = newPhaser(); drop(p); asynch(Loop); }"
    )
    assert (_task_bound(spawned_in_recursion), spawned_in_recursion.phaser_bound) == (None, None)


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
    assert _largest(program, bounds)[1] == (_task_bound(program), program.phaser_bound)


# main spawns W twice, and every W spawns an X: one site per type, but
# five tasks and two phasers at once
SPAWNED_TWICE = """
main(){ asynch(W); asynch(W); }
W(){ q = newPhaser(); asynch(X, q); signal(q); wait(q); signal(q); wait(q); drop(q); }
X(q){ signal(q); wait(q); signal(q); drop(q); }
"""


# W has two instances, so main and both W fill the task bound of 3
TWO_W_SRC = "bool a; main(){ asynch(W); asynch(W); } W(){ a = true; }"


def test_instance_counts_count_every_spawned_copy():
    program = parse(SPAWNED_TWICE)
    assert program.instance_counts == {"main": 1, "W": 2, "X": 2}
    assert (_task_bound(program), program.phaser_bound) == (5, 2)
    assert _largest(program, Bounds(max_tasks=5)) == (268, (5, 2))


def test_spawned_twice_is_decided_and_agrees_with_the_explorer():
    # each type's code holds at most as many rows as the type has
    # instances; without that bound the cyclic-wait run found no verdict
    # within 100 s
    program = parse(SPAWNED_TWICE)
    res = explore(program, Bounds(max_tasks=5))
    assert res.exhausted and res.errors == []
    assert check(program, cyclic_wait_targets(program, 2, 1), **PLAIN) == Unreachable(544)
    assert check(program, registration_error_targets(program), **PLAIN) == Unreachable(9)


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
    fits_types = StaticRules(program, INF, INF).rows_fit
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
    assert any(psi.n_tasks <= _task_bound(program) for psi in rejected)
    assert not [psi for psi in rejected if any(models(c, psi) for c in res.configs)]
    assert set(tight) == set(program.instance_counts)
    for psis in tight.values():
        assert any(models(c, psi) for psi in psis for c in res.configs)


# W executes the barrier body and ends in exit, so main passes its
# barrier only by the skip: ``signal(p); wait(p); assert(a); drop(p);``
# lies after ``asynch(W, p)`` only through a barrier-skip edge
SKIPPED_AFTER_SPAWN = (
    "bool a; main(){ p = newPhaser(); asynch(W, p); next(p){ a = true; exit; } assert(a); "
    "drop(p); } W(p){ next(p){ a = true; exit; } drop(p); }"
)


def _spawn_order_programs() -> dict:
    """Every corpus program, the generated programs of two benchmark
    draws and the three programs above, each with the bounds it is
    explored under."""
    families = runpy.run_path(str(CORPUS.parent / "bench" / "families.py"))
    out = {path.stem: (load(path.stem), Bounds(max_tasks=5)) for path in sorted(CORPUS.glob("*.phz"))}
    for seed in (1, 2):
        for g in families["draw"](seed):
            bounds = Bounds(300000, g.max_tasks, g.max_phasers, max_phase=8)
            out[f"{g.name}@{seed}"] = (parse(g.source), bounds)
    out["SPAWNED_TWICE"] = (parse(SPAWNED_TWICE), Bounds(max_tasks=5))
    out["TWO_W_SRC"] = (parse(TWO_W_SRC), Bounds())
    out["SKIPPED_AFTER_SPAWN"] = (parse(SKIPPED_AFTER_SPAWN), Bounds())
    return out


SPAWN_ORDER_PROGRAMS = _spawn_order_programs()


@functools.cache
def _reached(name) -> list:
    program, bounds = SPAWN_ORDER_PROGRAMS[name]
    return explore(program, bounds).configs


def _as_constraint(c) -> Constraint:
    # a configuration read as a constraint over its own variables: each
    # cell names the variable the task holds the phaser by
    gaps = tuple(
        tuple(Gap(var, None if reg == NREG else FREE_BOUNDS) for var, reg in row)
        for row in c.phases
    )
    return Constraint(c.bv, c.seqs, gaps, ((0, 0),) * c.n_phasers)


def _rejected(name, rule, program=None, seqs=None) -> int:
    """How many configurations explored on program ``name`` fail the
    rule of that name in the static rules of ``program`` (default: the
    explored program itself).  A row rule reads a configuration's
    sequence ids, or each id tuple of ``seqs`` in their place, a cell
    rule the configuration read as a constraint."""
    rules = StaticRules(SPAWN_ORDER_PROGRAMS[name][0] if program is None else program, INF, INF)
    if rule in rules.row_rules:
        tuples = [c.seqs for c in _reached(name)] if seqs is None else seqs
        return sum(not rules.row_rules[rule](t) for t in tuples)
    return sum(not rules.cell_rules[rule](_as_constraint(c)) for c in _reached(name))


def test_the_static_rules_are_named():
    # a rule's name is how tests, counters and certificates refer to it;
    # every rule but b is exact
    rules = StaticRules(load("chain_spawn"), 2, 1)
    assert list(rules.row_rules) == ["hall", "spawn-order"]
    assert list(rules.cell_rules) == ["flow", "b"]
    # cap is min(k, phaser bound): chain_spawn creates 2 phasers,
    # sigwait_ok 1
    assert rules.cap == StaticRules(load("chain_spawn"), 3, 1).cap == 2
    assert StaticRules(load("sigwait_ok"), INF, 1).cap == 1


@pytest.mark.parametrize("name", SPAWN_ORDER_PROGRAMS)
def test_every_explored_configuration_passes_the_row_test(name):
    # the exact rules drop only constraints without reachable models:
    # every configuration explore reaches passes each of them (a bounded
    # exploration reaches only reachable ones).  These are the row rules
    rejected = {r: _rejected(name, r) for r in ("hall", "spawn-order")}
    assert not any(rejected.values()), rejected


@pytest.mark.parametrize("name", SPAWN_ORDER_PROGRAMS)
def test_every_explored_configuration_passes_the_column_test(name):
    # the one exact cell rule, flow, under the same gate
    assert _rejected(name, "flow") == 0


@pytest.mark.parametrize(
    "name",
    [name for name, (program, _) in SPAWN_ORDER_PROGRAMS.items() if _task_bound(program) is not None],
)
def test_hall_implies_the_task_bound(name):
    # the union of every row's owner types is one that hall tests, and
    # its instances number at most the task bound, so hall rejects every
    # tuple of more rows: sampled id tuples, * rows included, one and
    # two rows past the bound
    program = SPAWN_ORDER_PROGRAMS[name][0]
    bound = _task_bound(program)
    ids = [*range(len(program.suffixes)), None]
    rng = Random(name)
    over = [tuple(rng.choice(ids) for _ in range(n)) for n in (bound + 1, bound + 2) for _ in range(100)]
    assert _rejected(name, "hall", seqs=over) == len(over)


def _with(program, **tables):
    # a copy of the program whose cached tables are replaced
    mutant = copy.copy(program)
    mutant.__dict__.update(tables)
    return mutant


def _one_w_instance(program, _):
    return _with(program, instance_counts=dict(program.instance_counts, W=1))


def _post_ids_only(program, _):
    posts = {}
    for stmt, nexts in zip(program.heads, program.next_ids):
        if isinstance(stmt, Asynch):
            posts.setdefault(stmt.task, set()).update(nexts)
    return _with(program, spawn_order={w: frozenset(js) for w, js in posts.items()})


def _no_skip_edges(program, _):
    mutant = _with(program, skip_ids=(None,) * len(program.suffixes))
    mutant.__dict__.pop("spawn_order", None)  # rebuilt over head steps alone
    return mutant


def _one_instance_each(program, _):
    return _with(program, instance_counts=dict.fromkeys(program.instance_counts, 1))


def _sites_without(program, dropped):
    # the flow table rebuilt from the reachable sites that ``dropped``
    # does not match
    mutant = _with(program, sites=tuple(s for s in program.sites if not dropped(*s)))
    mutant.__dict__.pop("held_sites", None)
    return mutant


def _no_formal_flow(program, _):
    return _sites_without(program, lambda i, stmt, owners, looped: isinstance(stmt, Asynch))


def _only_main_seeds(program, _):
    return _sites_without(
        program,
        lambda i, stmt, owners, looped: isinstance(stmt, NewPhaser) and "main" not in owners,
    )


def _dash_read_as_a_name(program, monkeypatch):
    monkeypatch.setattr(engine, "NO_VAR", None)
    return program


# (rule, mutation, program whose exploration catches it)
MUTATIONS = [
    ("hall", _one_w_instance, "SPAWNED_TWICE"),
    ("spawn-order", _post_ids_only, "chain_spawn"),
    ("spawn-order", _no_skip_edges, "SKIPPED_AFTER_SPAWN"),
    ("spawn-order", _one_instance_each, "SPAWNED_TWICE"),
    ("flow", _no_formal_flow, "chain_spawn"),
    ("flow", _no_formal_flow, "producer_consumer_sw"),
    ("flow", _dash_read_as_a_name, "chain_spawn"),
    ("flow", _dash_read_as_a_name, "SPAWNED_TWICE"),
    ("flow", _only_main_seeds, "chain_spawn"),
]


@pytest.mark.parametrize(
    "rule,mutate,caught_on",
    MUTATIONS,
    ids=[f"{m.__name__.lstrip('_')}-{p}" for _, m, p in MUTATIONS],
)
def test_the_gate_catches_a_broken_rule(rule, mutate, caught_on, monkeypatch):
    # each mutation feeds a rule a wrong table, so the containment gate
    # above must reject some explored configuration.  hall: W counted
    # once though main spawns it twice.  spawn-order: the table without
    # its forward closure, the closure without barrier skips, and a row
    # of a type with two instances taken as proof that its type has
    # spawned nothing.  flow: spawn arguments that do not flow into the
    # callee's parameters, a task naming a phaser with no variable taken
    # to name it by the variable "-", and only main's creation sites
    # seeding the flow
    program = mutate(SPAWN_ORDER_PROGRAMS[caught_on][0], monkeypatch)
    assert _rejected(caught_on, rule, program) > 0


def test_explore_and_importing_the_cli_build_no_flow_table():
    # the flow table is built inside check only: explore never pays for
    # it, and importing the command line builds no program at all
    program = load("chain_spawn")
    assert explore(program, C1_BOUNDS).exhausted
    assert "held_sites" not in program.__dict__
    src = str(Path(engine.__file__).resolve().parent.parent)
    probe = (
        "import gc, phasercheck.cli; from phasercheck.control import Program; "
        "print(sum(isinstance(o, Program) for o in gc.get_objects()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    ).stdout
    assert out == "0\n"


def test_pre_builds_only_what_the_static_limits_admit(monkeypatch):
    # exact counters on the slowest bench cell: check pops 153
    # constraints.  Without the rules, pre builds 8,040 predecessors on
    # those pops: 2,803 fail tasks, 2,374 more hall, 1,396 more
    # spawn-order and 321 more the cap.  pre builds exactly the other
    # 1,146 and hands them to the cell rules, where flow drops 394 and
    # leaves 752 for b and then for keep's entailment test
    program = load("producer_consumer_sw")
    tables, handed, fit, full = [], [], [], []

    def counted(phi, program, rules, keep):
        tables.append(rules)
        counting = copy.copy(rules)

        def seen(psi):
            handed.append(canonical_constraint(psi))
            return rules.cells_fit(psi)

        counting.cells_fit = seen
        unlimited = [psi for _, psi in pre(phi, program)]
        full.extend(unlimited)
        fit.extend(
            psi for psi in unlimited if rules.rows_fit(psi.seqs) and psi.n_phasers <= rules.cap
        )
        return pre(phi, program, counting, keep)

    monkeypatch.setattr(engine, "pre", counted)
    # b=1 and no k: the bench cell's default
    assert check(program, registration_error_targets(program), b=1) == Unreachable(153)
    assert len({id(rules) for rules in tables}) == 1  # one table per run
    assert len(full) == 8040
    assert Counter(handed) == Counter(fit)
    assert len(handed) == 1146
    assert sum(map(tables[0].cell_rules["flow"], handed)) == 752


def test_mode_programs_are_rejected():
    program = load("producer_consumer")
    targets = assertion_targets(program)
    with pytest.raises(ValueError, match="SIG_WAIT-only"):
        check(program, targets, **PLAIN)


def test_barrier_blocks_are_rejected():
    program = load("barrier_block")
    targets = assertion_targets(program)
    with pytest.raises(ValueError, match="barrier block body"):
        check(program, targets, **PLAIN)


def test_control_mode_requires_free_targets():
    program = load("selfwait")
    targets = cyclic_wait_targets(program)
    with pytest.raises(ValueError, match="free targets"):
        check(program, targets, **CTRL)


def test_plain_mode_requires_b_good_targets():
    program = load("cross_deadlock")
    targets = cyclic_wait_targets(program, max_cycle=2, slack=1)
    with pytest.raises(ValueError, match="^the targets need b=1 or more$"):
        check(program, targets, k=2, b=0)


@pytest.mark.parametrize(
    "name,build,limits",
    [
        ("regerror_drop_signal", registration_error_targets, dict(k=0, b=1)),
        ("regerror_drop_signal", registration_error_targets, dict(k=0)),
        ("cross_deadlock", cyclic_wait_targets, dict(k=1, b=1)),
    ],
)
def test_targets_wider_than_k_are_rejected(name, build, limits):
    # both properties are reachable; pruning every predecessor of the
    # wider targets used to answer Unreachable
    program = load(name)
    with pytest.raises(ValueError, match=f"more than k={limits['k']}$"):
        check(program, build(program), **limits)


def test_progress_callback_reports_pops():
    program = load("drop_then_wait")
    events = []
    check(program, registration_error_targets(program), **PLAIN, progress=events.append)
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
    assert isinstance(check(program, targets, **PLAIN), Unreachable)
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


@pytest.mark.parametrize("b", [1, INF], ids=["PlainReachability", "ControlReachability"])
def test_k_none_falls_back_to_the_creation_sites(b):
    program = parse(LOOPED_CREATION)
    assert (_task_bound(program), program.phaser_bound) == (None, None)
    targets = registration_error_targets(program)
    runs = {k: check(program, targets, k=k, b=b) for k in (None, 1, 2)}
    assert runs[None] == runs[1] != runs[2]
