from collections import Counter

import pytest

from phasercheck import engine
from phasercheck.concrete import Bounds, explore
from phasercheck.engine import Unreachable, check
from phasercheck.parser import parse, parse_seq
from phasercheck.pre import pre, pre_stmt
from phasercheck.symbolic import INF, Constraint, Gap, canonical_constraint, is_free
from phasercheck.syntax import NewPhaser
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import FINITE_PROGRAMS, load
from oracles import constraint_valid, preserves_freeness_check
from test_engine import SPAWNED_TWICE, _with
from sandwich import (
    constraint_pool,
    explored_graph,
    one_step_cover_violations,
    one_step_usefulness_violations,
)

SMALL_PROGRAMS = [
    "sigwait_ok",
    "selfwait",
    "regerror_drop_signal",
    "drop_then_wait",
    "assert_fail",
    "assign_ndet",
    "phase_loop",
    "cross_deadlock",
    "chain_spawn",
]

# covers while-loop guards and exit, which the corpus reaches only in
# programs too large for the exhaustive edge check
LOOP_EXIT_SRC = """
main(){
  p = newPhaser();
  while(ndet()){
    signal(p);
    wait(p);
  }
  drop(p);
  exit;
}
"""


# rebinds a phaser variable, so pre must rename an unbound column back
REBIND_SRC = """
main(){
  p = newPhaser();
  asynch(T, p);
  p = newPhaser();
  signal(p);
  wait(p);
  drop(p);
}
T(p){
  signal(p);
  drop(p);
}
"""


# an assignment whose condition reads the variable it assigns
SELF_NEGATE_SRC = "bool a; main(){ a = !a; assert(!a); }"


# the assert(false) after exit is dead code: no run reaches it
DEAD_CODE_SRC = "bool a; main(){ a = ndet(); if(a){ exit; assert(false); } assert(!a); }"


def _programs():
    progs = [(name, load(name)) for name in SMALL_PROGRAMS]
    progs.append(("loop_exit", parse(LOOP_EXIT_SRC)))
    progs.append(("rebind", parse(REBIND_SRC)))
    return progs


@pytest.mark.parametrize("name,_", [(n, None) for n in SMALL_PROGRAMS])
def test_pre_outputs_are_canonical_and_valid(name, _, rng):
    # pre does not re-validate what its transformers build, so this is the
    # guard; it takes 30 random constraints per program to catch a wait
    # transformer that raises only the lower bound
    program = load(name)
    for phi in constraint_pool(rng, program, 30):
        for stmt, psi in pre(phi, program):
            assert constraint_valid(psi)
            assert canonical_constraint(psi) == psi


def test_pre_is_deterministic(rng):
    program = load("cross_deadlock")
    for phi in constraint_pool(rng, program, 4):
        first = pre(phi, program)
        again = pre(phi, program)
        assert [(str(s), p) for s, p in first] == [(str(s), p) for s, p in again]


@pytest.mark.parametrize("name,program", _programs())
def test_pre_covers_every_one_step_predecessor(name, program, rng):
    res = explored_graph(
        program, max_steps=300, max_tasks=4, max_phasers=3, max_phase=3
    )
    if not res.edges:
        # a program whose only step is an immediate error has no graph
        assert res.errors
        return
    checked = 0
    for phi in constraint_pool(rng, program, 8):
        violations, covered = one_step_cover_violations(program, phi, res)
        assert not violations, (name, violations[:3])
        checked += covered
    assert checked > 0, name


@pytest.mark.parametrize("name,program", _programs())
def test_pre_models_step_back_into_the_constraint(name, program, rng):
    checked = 0
    for phi in constraint_pool(rng, program, 8):
        violations, n = one_step_usefulness_violations(rng, program, phi)
        assert not violations, (name, violations[:2])
        checked += n
    assert checked > 0, name


@pytest.mark.parametrize("name,program", _programs())
def test_pre_preserves_freeness(name, program, rng):
    seen = 0
    for phi in constraint_pool(rng, program, 10):
        if not is_free(phi):
            continue
        seen += 1
        assert preserves_freeness_check(phi, program) == []
    assert seen > 0, name


def test_pre_rejects_barrier_blocks(rng):
    program = load("barrier_block")
    [phi] = constraint_pool(rng, program, 1)[-1:]
    with pytest.raises(TypeError, match="no backward transformer"):
        pre(phi, program)


def test_newphaser_has_no_predecessor_when_two_columns_pin_its_variable():
    # after p = newPhaser() the variable names exactly one phaser
    program = parse("main(){ p = newPhaser(); signal(p); }")
    cell = Gap("p", (0, 0, 0, 0))
    phi = Constraint((), (program.seq_ids[program.main.body[1:]],), ((cell, cell),), ((0, 0), (0, 0)))
    assert constraint_valid(phi)
    assert pre_stmt(phi, program, 0, NewPhaser("p"), None) == []


def test_suffixes_are_closed_under_head_successors():
    from phasercheck.control import head_successors

    # pre steps from each head to its next ids: those are the head's
    # successors, so every step of the program lands inside the tables
    for program in (load("chain_spawn"), parse(DEAD_CODE_SRC)):
        suffixes = program.suffixes
        for i, s in enumerate(suffixes):
            assert program.heads[i] == (s[0] if s else None)
            assert tuple(suffixes[j] for j in program.next_ids[i]) == head_successors(s)


def test_dead_code_after_exit_is_not_in_the_closure():
    program = parse(DEAD_CODE_SRC)
    dead = parse_seq("assert(false); assert(!a);")
    assert dead not in program.suffixes
    # pre steps back over every head, and none is the dead assert
    assert "assert(false);" not in map(str, program.heads)
    targets = assertion_targets(program)
    assert [phi.seqs for phi in targets] == [(program.seq_ids[parse_seq("assert(!a);")],)]
    # the live assert never fails: both engines agree
    res = explore(program, Bounds())
    assert res.exhausted and res.errors == []
    assert isinstance(check(program, targets, b=1), Unreachable)


# W has two instances, so main and both W fill the task bound of 3
TWO_W_SRC = "bool a; main(){ asynch(W); asynch(W); } W(){ a = true; }"


def test_spawn_limits_test_the_rows_left_after_a_tracked_child():
    # at the task bound an untracked spawner's row can come in only as
    # its child's tracked row goes, so the row test must drop the child
    program = parse(TWO_W_SRC)
    body = program.body_ids["W"]
    phi = Constraint((None,), (body, body, None), ((), (), ()), ())
    rows_fit = engine.type_bound(program)
    limited = pre(phi, program, rows_fit=rows_fit)
    assert limited == [(s, psi) for s, psi in pre(phi, program) if rows_fit(psi.seqs)]
    assert any(psi.n_tasks == 3 for _, psi in limited)


class _EnoughPops(Exception):
    pass


def test_keep_drops_exactly_what_it_rejects(monkeypatch):
    # check hands pre the row and width limits, and a keep filter that
    # drops the rest before pre canonicalizes them.  On the first
    # constraints it pops, that must give the unfiltered result minus the
    # pairs that fail the static limits, restated here (the task and
    # phaser bounds, the per-type bound, spawn order, k and the
    # phaser-flow column test), or the rest of keep (b and entailment by
    # the popped constraint).  Each skip must fire, and every predecessor
    # pre hands to keep must pass the row and width limits
    k = 2
    count = Counter()

    def both_ways(phi, program, keep, rows_fit, cap):
        task_bound, phaser_bound = program.static_bounds
        row_test = engine.type_bound(program)
        # with every id in every spawn-order table no row blocks a spawn
        # and only the per-type bound is left
        every_id = frozenset(range(len(program.suffixes)))
        no_order = dict.fromkeys(program.spawners, every_id)
        hall = engine.type_bound(_with(program, spawn_order=no_order))
        flow = engine.flow_bound(program)

        def reject(psi):
            # the first limit that psi fails: rows, then columns
            if task_bound is not None and psi.n_tasks > task_bound:
                return "rows"
            if not hall(psi.seqs):
                return "hall"
            if not row_test(psi.seqs):
                return "spawn"
            if psi.n_phasers > min(k, INF if phaser_bound is None else phaser_bound):
                return "columns"
            if not flow(psi):
                return "flow"
            return None

        handed = []

        def seen(psi):
            handed.append(psi)
            return keep(psi)

        filtered = pre(phi, program, keep=seen, rows_fit=rows_fit, cap=cap)
        full = pre(phi, program)
        expected = [(str(s), psi) for s, psi in full if reject(psi) is None and keep(psi)]
        assert [(str(s), psi) for s, psi in filtered] == expected
        assert [psi for psi in handed if reject(psi) not in (None, "flow")] == []
        count.update(reject(psi) for _, psi in full)
        count["full"] += len(full)
        count["kept"] += len(filtered)
        count["pops"] += 1
        if count["pops"] == 25:
            raise _EnoughPops
        return filtered

    monkeypatch.setattr(engine, "pre", both_ways)
    programs = [(name, load(name)) for name in FINITE_PROGRAMS]
    programs.append(("SPAWNED_TWICE", parse(SPAWNED_TWICE)))
    binding = {}
    for name, program in programs:
        if program.uses_modes():
            continue  # check takes SIG_WAIT-only programs
        before = count.copy()
        for build in (assertion_targets, registration_error_targets, cyclic_wait_targets):
            count["pops"] = 0
            try:
                check(program, build(program), k=k, b=1)
            except _EnoughPops:
                pass
        binding[name] = {
            r for r in ("rows", "hall", "spawn", "columns", "flow") if count[r] > before[r]
        }
    assert 0 < count["kept"] < count["full"]
    # where the bounds bind, each limit skips some predecessor
    every = {"rows", "hall", "spawn", "columns", "flow"}
    assert binding["cross_deadlock"] == binding["producer_consumer_sw"] == every
    assert binding["chain_spawn"] == every - {"rows"}
    # every variable of SPAWNED_TWICE holds the one site in W
    assert binding["SPAWNED_TWICE"] == every - {"rows", "flow"}
