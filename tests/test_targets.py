import pytest

from phasercheck.concrete import NREG, Configuration, Reg, initial_config, successors
from phasercheck.engine import Unreachable, check
from phasercheck.parser import parse, parse_seq
from phasercheck.symbolic import ANY, INF, OPT_FREE, Gap, entails, is_b_good, is_free, models
from phasercheck.syntax import Assert, Asynch, Drop, Signal, Wait
from phasercheck.targets import (
    RecordFormatError,
    assertion_targets,
    constraint_to_text,
    cyclic_wait_targets,
    read_targets,
    registration_error_targets,
)

from conftest import CORPUS, load, sample_model
from oracles import PartialConfiguration, includes, partial_config_to_text, point_cyclic_wait_targets
from sandwich import seq_pool_of


# ---------------------------------------------------------------------------
# Assertion targets


def test_assertion_targets_pin_falsifying_booleans():
    program = load("assert_fail")
    [phi] = assertion_targets(program)
    assert phi.bv == (False,)
    assert phi.n_tasks == 1 and phi.n_phasers == 0
    assert isinstance(program.heads[phi.seqs[0]], Assert)
    assert is_free(phi)


def test_assertion_targets_of_a_conjunction_pin_one_conjunct_each():
    # each falsifying valuation keeps only the variable that falsifies it
    targets = assertion_targets(parse("bool a, b; main(){ assert(a && b); }"))
    assert len(targets) == 2
    assert {phi.bv for phi in targets} == {(False, None), (None, False)}


def test_assertion_targets_exist_even_when_unreachable():
    # the target is a control location plus booleans; reachability is the
    # engine's question, not the target builder's
    program = load("assert_ok")
    targets = assertion_targets(program)
    assert targets
    for phi in targets:
        assert isinstance(program.heads[phi.seqs[0]], Assert)


def test_assertion_targets_empty_without_asserts():
    assert assertion_targets(load("sigwait_ok")) == []


# ---------------------------------------------------------------------------
# Registration-error targets


def test_regerror_targets_pin_unregistered_variable():
    program = load("regerror_drop_signal")
    targets = registration_error_targets(program)
    assert targets
    for phi in targets:
        head = program.heads[phi.seqs[0]]
        assert isinstance(head, (Signal, Wait, Drop, Asynch))
        assert phi.n_tasks == 1 and phi.n_phasers == 1
        g = phi.gaps[0][0]
        assert g.bounds is None and g.var != ANY
        assert is_free(phi)


def test_regerror_targets_cover_every_command_head():
    program = load("cross_deadlock")
    targets = registration_error_targets(program)
    heads = {type(program.heads[phi.seqs[0]]) for phi in targets}
    assert {Signal, Wait, Drop, Asynch} <= heads


# ---------------------------------------------------------------------------
# Cyclic-wait targets


def test_selfwait_cycle_target_shape():
    program = load("selfwait")
    targets = cyclic_wait_targets(program, max_cycle=1)
    assert targets
    for phi in targets:
        assert phi.n_tasks == 1 and phi.n_phasers == 1
        head = program.heads[phi.seqs[0]]
        assert isinstance(head, Wait)
        assert phi.gaps[0][0] == Gap(head.var, (0, 0, 0, 0))


def test_cycle_targets_grow_with_slack_and_cycle_length():
    program = load("cross_deadlock")
    one = cyclic_wait_targets(program, max_cycle=1)
    two_s0 = cyclic_wait_targets(program, max_cycle=2, slack=0)
    two_s1 = cyclic_wait_targets(program, max_cycle=2, slack=1)
    # with zero slack a two-cycle member's own signal sits at the level,
    # so every two-cycle degenerates into a self-wait already covered by
    # the one-cycle targets; slack 1 admits genuine two-task cycles
    covered = lambda phi: any(entails(psi, phi) for psi in one)
    assert all(map(covered, two_s0))
    assert not all(map(covered, two_s1))
    for phi in two_s1:
        assert is_b_good(phi, 1)
    # a genuinely blocked two-task cycle models one of the slack-1 targets
    seq_main = parse_seq("wait(p); drop(p); drop(q);")
    seq_other = parse_seq("wait(q); drop(q); drop(p);")
    c = Configuration(
        bv=(),
        seqs=(program.seq_ids[seq_main], program.seq_ids[seq_other]),
        phases=(
            (("p", Reg("SIG_WAIT", 0, 1)), ("q", Reg("SIG_WAIT", 0, 0))),
            (("p", Reg("SIG_WAIT", 0, 0)), ("q", Reg("SIG_WAIT", 0, 1))),
        ),
    )
    assert any(models(c, phi) for phi in two_s1)


# the SIG_WAIT-only, barrier-free corpus programs
CYCLE_PROGRAMS = [
    path.stem
    for path in sorted(CORPUS.glob("*.phz"))
    if not load(path.stem).uses_modes() and not load(path.stem).is_atomic()
]


@pytest.mark.parametrize("slack", [0, 1, 2])
@pytest.mark.parametrize("max_cycle", [1, 2, 3])
def test_cycle_targets_are_the_union_of_their_points(max_cycle, slack, rng):
    # one interval target per tuple of wait heads covers exactly the
    # point targets that pin each distance of that tuple: it entails each
    # of them, and each of its sampled models models one of them.  A
    # sample keeps the target's rows and columns in order, and a waiter's
    # wait value is its phaser's level, so the sample's distances name the
    # point it must model
    for name in CYCLE_PROGRAMS:
        program = load(name)
        points = {}
        for psi in point_cyclic_wait_targets(program, max_cycle, slack):
            points.setdefault(psi.seqs, []).append(psi)
        targets = cyclic_wait_targets(program, max_cycle, slack)
        n_waits = sum(isinstance(head, Wait) for head in program.heads)
        assert len(targets) == sum(n_waits**m for m in range(1, max_cycle + 1))
        assert [phi.seqs for phi in targets] == list(points)
        seq_pool = seq_pool_of(program)
        for phi in targets:
            assert all(entails(phi, psi) for psi in points[phi.seqs]), (name, phi)
            cells = [(t, p) for t, row in enumerate(phi.gaps) for p, g in enumerate(row) if not g.opt]
            by_distances = {tuple(psi.gaps[t][p].bounds[:2] for t, p in cells): psi for psi in points[phi.seqs]}
            for _ in range(10):
                c = sample_model(rng, phi, seq_pool)
                if c is None:
                    continue
                regs = {(t, p): c.phases[t][p][1] for t, p in cells}
                levels = [regs[p, p].wait for p in range(phi.n_phasers)]
                key = tuple((levels[p] - regs[t, p].wait, regs[t, p].sig - levels[p]) for t, p in cells)
                assert key in by_distances and models(c, by_distances[key]), (name, phi, c)


def test_no_cycle_targets_without_waits():
    assert cyclic_wait_targets(load("regerror_drop_signal")) == []


# ---------------------------------------------------------------------------
# Target files


# the program PC_TEXT is read against: it reaches ``wait(p); drop(p);``
PC_PROGRAM = parse("bool a; main(){ p = newPhaser(); wait(p); drop(p); }")
NO_BOOLS = parse("main(){ exit; }")

PC_TEXT = """
partial-config {
  bv a=true
  tasks 2
  phasers 1
  seq t0 "wait(p); drop(p);"
  seq t1 *
  phase t0 p0 var=p w=1 s=2
  phase t1 p0 var=* nreg
}
"""

# the pattern PC_TEXT states
PC = PartialConfiguration(
    bv=(True,),
    seqs=(parse_seq("wait(p); drop(p);"), None),
    phase=((("p", (1, 2)),), ((ANY, "nreg"),)),
)


def read(text, program):
    """The constraints of a target file, and the opening lines of the
    records it leaves out."""
    left_out = []
    return read_targets(text, program, left_out), left_out


def test_partial_config_text_round_trip():
    text = partial_config_to_text(PC, ("a",))
    assert read(text, PC_PROGRAM) == read(PC_TEXT, PC_PROGRAM)
    [phi], [] = read(PC_TEXT, PC_PROGRAM)
    assert phi.bv == (True,)
    assert phi.n_tasks == 2 and phi.n_phasers == 1
    assert phi.seqs[1] is None


def test_partial_config_parse_errors():
    with pytest.raises(RecordFormatError):
        read("config {\n}", NO_BOOLS)
    with pytest.raises(RecordFormatError):
        read("partial-config {\n  tasks 1\n", NO_BOOLS)
    with pytest.raises(RecordFormatError):
        read("partial-config {\n  tasks 1\n  phasers 1\n  phase t0 p0 var=p\n}", NO_BOOLS)
    with pytest.raises(RecordFormatError):
        read("partial-config {\n  phasers 1\n}", NO_BOOLS)
    for line in (
        "tasks",
        'seq t0 "wait(p"',
        'seq t0 "drop(p); } wait(p);"',
        "tasks inf",
        "phase t5 p0 var=p nreg",
        "phase t0 p1 var=p nreg",
        "phase t0 p0 var=p w=-1 s=0",
        "bv a=maybe",
        "gap t0 p0 var=p nreg",
    ):
        text = f"partial-config {{\n  tasks 1\n  phasers 1\n  {line}\n}}"
        with pytest.raises(RecordFormatError, match=r"^line 4: "):
            read(text, PC_PROGRAM)


def test_a_target_file_holds_records_of_both_kinds():
    # several partial-config records, and constraints between them, each
    # read by its own header; a comment before the first header names
    # the other kind and holds a brace without changing the reading
    [phi], [] = read(PC_TEXT, PC_PROGRAM)
    target = registration_error_targets(PC_PROGRAM)[0]
    constraint = constraint_to_text(target, PC_PROGRAM)
    text = "\n".join(["# partial-config { or constraint {", PC_TEXT, constraint, PC_TEXT])
    assert read(text, PC_PROGRAM) == ([phi, target, phi], [])
    # a record pinning a sequence no task reaches is left out, by its line
    unreached = PC_TEXT.replace("wait(p); drop(p);", "drop(p); drop(p);")
    opened = len(constraint.splitlines()) + 2
    assert read(constraint + "\n" + unreached, PC_PROGRAM) == ([target], [opened])


def test_a_statement_made_twice_names_both_lines():
    record = "{header} {{\n  bv a=true\n  tasks 2\n  phasers 1\n  {first}\n  {again}\n}}"
    for header, first, again, message in [
        ("constraint", "seq t0 *", "tasks 1", "line 6: 'tasks' repeats line 3"),
        ("constraint", "seq t0 *", "phasers 1", "line 6: 'phasers' repeats line 4"),
        ("partial-config", "seq t1 *", "seq t1 *", "line 6: 'seq t1' repeats line 5"),
        ("partial-config", "seq t0 *", "bv a=*", "line 6: 'bv a' repeats line 2"),
        ("constraint", "gap t0 p0 var=p nreg", "gap t0 p0 var=q nreg", "line 6: 'gap t0 p0' repeats line 5"),
        ("constraint", "env p0 ew=0 es=0", "env p0 ew=0 es=0", "line 6: 'env p0' repeats line 5"),
        ("partial-config", "phase t1 p0 free", "phase t1 p0 nreg", "line 6: 'phase t1 p0' repeats line 5"),
    ]:
        with pytest.raises(RecordFormatError) as e:
            read(record.format(header=header, first=first, again=again), PC_PROGRAM)
        assert str(e.value) == message


def test_a_wrong_header_names_both_kinds():
    both = "expected 'constraint {' or 'partial-config {'"
    for text, message in [
        ("# a comment\nconfig {\n}", f"line 2: {both}, found 'config {{'"),
        ("# no record\n", f"line 2: {both}"),
    ]:
        with pytest.raises(RecordFormatError) as e:
            read(text, NO_BOOLS)
        assert str(e.value) == message


def test_from_partial_config_models_match_inclusion():
    program = PC_PROGRAM
    [phi], [] = read(PC_TEXT, program)
    assert phi.gaps[0][0] == Gap("p", (0, 1, 0, 1))  # level 1 = max wait
    assert phi.gaps[1][0] == Gap(ANY, None)
    seqs = (program.seq_ids[parse_seq("wait(p); drop(p);")], program.seq_ids[()])
    c = Configuration(
        bv=(True,),
        seqs=seqs,
        phases=((("p", Reg("SIG_WAIT", 1, 2)),), (("q", NREG),)),
    )
    assert includes(c, PC, program.suffixes)
    assert models(c, phi)
    off_level = Configuration(
        bv=(True,),
        seqs=seqs,
        phases=((("p", Reg("SIG_WAIT", 0, 2)),), (("q", NREG),)),
    )
    assert not includes(off_level, PC, program.suffixes)
    assert not models(off_level, phi)


def test_from_partial_config_unconstrained_cells_stay_optional():
    [phi], [] = read("partial-config {\n  tasks 1\n  phasers 1\n}", NO_BOOLS)
    assert phi.gaps[0][0] == OPT_FREE


def test_from_partial_config_rejects_level_inconsistency():
    text = (
        "partial-config {\n  tasks 2\n  phasers 1\n"
        "  phase t0 p0 var=p w=2 s=2\n  phase t1 p0 var=p w=0 s=1\n}"
    )
    with pytest.raises(RecordFormatError, match="^line 1: partial configuration is not level"):
        read(text, NO_BOOLS)


# T waits on p once more than main before main drops p, so when main
# sits at its last drop(p); with (w, s) = (1, 2), T may sit at (2, 2)
PAST_THE_LEVEL = """
main(){ p = newPhaser(); q = newPhaser(); asynch(T, p, q); signal(p); signal(p); wait(p);
        signal(q); wait(q); drop(q); drop(p); }
T(p, q){ signal(p); signal(p); wait(p); wait(p); signal(q); wait(p); drop(q); drop(p); }
"""
PAST_THE_LEVEL_TEXT = 'partial-config {\n  tasks 1\n  phasers 1\n  seq t0 "drop(p);"\n  phase t0 p0 var=p w=1 s=2\n}'


def _including_past_the_level():
    # the reachable configurations that include the pattern, by a forward
    # search that keeps phase values as they are (explore's canonical
    # form shifts them)
    program = parse(PAST_THE_LEVEL)
    pc = PartialConfiguration(bv=(), seqs=(parse_seq("drop(p);"),), phase=((("p", (1, 2)),),))
    reached = [initial_config(program)]
    for c in reached:  # grows as the search meets new configurations
        reached += [
            out
            for *_, out in successors(c, program)
            if isinstance(out, Configuration) and out not in reached
        ]
    return program, [c for c in reached if includes(c, pc, program.suffixes)]


def test_a_pattern_is_included_where_an_unmentioned_task_waited_past_its_level():
    program, hits = _including_past_the_level()
    assert hits
    # T has waited on p twice, past the pattern's largest wait of 1
    assert all(any(reg and reg.wait == 2 for row in c.phases for _, reg in row) for c in hits)


@pytest.mark.xfail(strict=True, reason="partial_config_constraint pins p's level at the pattern's largest wait")
def test_a_partial_config_target_models_every_configuration_that_includes_it():
    program, hits = _including_past_the_level()
    [phi], [] = read(PAST_THE_LEVEL_TEXT, program)
    assert all(models(c, phi) for c in hits)
    assert not isinstance(check(program, [phi], k=INF, b=INF, budget=100000), Unreachable)
