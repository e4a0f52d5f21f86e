import pytest

from phasercheck.concrete import Configuration, PartialConfiguration, Reg
from phasercheck.parser import RecordFormatError, parse, parse_seq
from phasercheck.symbolic import ANY, OPT_FREE, Gap, entails, is_b_good, is_free, models
from phasercheck.syntax import Assert, Asynch, Drop, Signal, Wait
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    from_partial_config,
    parse_partial_config,
    registration_error_targets,
)

from conftest import load
from oracles import includes, partial_config_to_text


# ---------------------------------------------------------------------------
# Assertion targets


def test_assertion_targets_pin_falsifying_booleans():
    [phi] = assertion_targets(load("assert_fail"))
    assert phi.bv == (False,)
    assert phi.n_tasks == 1 and phi.n_phasers == 0
    assert isinstance(phi.seqs[0][0], Assert)
    assert is_free(phi)


def test_assertion_targets_of_a_conjunction_pin_one_conjunct_each():
    # each falsifying valuation keeps only the variable that falsifies it
    targets = assertion_targets(parse("bool a, b; main(){ assert(a && b); }"))
    assert len(targets) == 2
    assert {phi.bv for phi in targets} == {(False, None), (None, False)}


def test_assertion_targets_exist_even_when_unreachable():
    # the target is a control location plus booleans; reachability is the
    # engine's question, not the target builder's
    targets = assertion_targets(load("assert_ok"))
    assert targets
    for phi in targets:
        assert isinstance(phi.seqs[0][0], Assert)


def test_assertion_targets_empty_without_asserts():
    assert assertion_targets(load("sigwait_ok")) == []


# ---------------------------------------------------------------------------
# Registration-error targets


def test_regerror_targets_pin_unregistered_variable():
    targets = registration_error_targets(load("regerror_drop_signal"))
    assert targets
    for phi in targets:
        head = phi.seqs[0][0]
        assert isinstance(head, (Signal, Wait, Drop, Asynch))
        assert phi.n_tasks == 1 and phi.n_phasers == 1
        g = phi.gaps[0][0]
        assert g.bounds is None and g.var != ANY
        assert is_free(phi)


def test_regerror_targets_cover_every_command_head():
    targets = registration_error_targets(load("cross_deadlock"))
    heads = {type(phi.seqs[0][0]) for phi in targets}
    assert {Signal, Wait, Drop, Asynch} <= heads


# ---------------------------------------------------------------------------
# Cyclic-wait targets


def test_selfwait_cycle_target_shape():
    targets = cyclic_wait_targets(load("selfwait"), max_cycle=1)
    assert targets
    for phi in targets:
        assert phi.n_tasks == 1 and phi.n_phasers == 1
        assert isinstance(phi.seqs[0][0], Wait)
        assert phi.gaps[0][0] == Gap(phi.seqs[0][0].var, (0, 0, 0, 0))


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
        seqs=(seq_main, seq_other),
        phases=(
            (("p", Reg("SIG_WAIT", 0, 1)), ("q", Reg("SIG_WAIT", 0, 0))),
            (("p", Reg("SIG_WAIT", 0, 0)), ("q", Reg("SIG_WAIT", 0, 1))),
        ),
    )
    assert any(models(c, phi) for phi in two_s1)


def test_no_cycle_targets_without_waits():
    assert cyclic_wait_targets(load("regerror_drop_signal")) == []


# ---------------------------------------------------------------------------
# Partial configurations


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


def test_partial_config_text_round_trip():
    pc = parse_partial_config(PC_TEXT, ("a",))
    assert pc.bv == (True,)
    assert pc.n_tasks == 2 and pc.n_phasers == 1
    assert pc.seqs[1] is None
    assert pc.phase[0][0] == ("p", (1, 2))
    assert pc.phase[1][0] == (ANY, "nreg")
    text = partial_config_to_text(pc, ("a",))
    assert parse_partial_config(text, ("a",)) == pc


def test_partial_config_parse_errors():
    with pytest.raises(RecordFormatError):
        parse_partial_config("config {\n}", ())
    with pytest.raises(RecordFormatError):
        parse_partial_config("partial-config {\n  tasks 1\n", ())
    with pytest.raises(RecordFormatError):
        parse_partial_config(
            "partial-config {\n  tasks 1\n  phasers 1\n  phase t0 p0 var=p\n}", ()
        )
    with pytest.raises(RecordFormatError):
        parse_partial_config("partial-config {\n  phasers 1\n}", ())
    for line in (
        "tasks",
        'seq t0 "wait(p"',
        "tasks inf",
        "phase t5 p0 var=p nreg",
        "phase t0 p1 var=p nreg",
        "phase t0 p0 var=p w=-1 s=0",
        "bv a=maybe",
    ):
        text = f"partial-config {{\n  tasks 1\n  phasers 1\n  {line}\n}}"
        with pytest.raises(RecordFormatError, match=r"^line 4: "):
            parse_partial_config(text, ("a",))
    with pytest.raises(RecordFormatError, match="one record"):
        parse_partial_config(PC_TEXT + PC_TEXT, ("a",))


def test_from_partial_config_models_match_inclusion():
    pc = parse_partial_config(PC_TEXT, ("a",))
    [phi] = from_partial_config(pc)
    assert phi.gaps[0][0] == Gap("p", (0, 1, 0, 1))  # level 1 = max wait
    assert phi.gaps[1][0] == Gap(ANY, None)
    c = Configuration(
        bv=(True,),
        seqs=(parse_seq("wait(p); drop(p);"), ()),
        phases=((("p", Reg("SIG_WAIT", 1, 2)),), (("q", None),)),
    )
    assert includes(c, pc)
    assert models(c, phi)
    off_level = Configuration(
        bv=(True,),
        seqs=(parse_seq("wait(p); drop(p);"), ()),
        phases=((("p", Reg("SIG_WAIT", 0, 2)),), (("q", None),)),
    )
    assert not includes(off_level, pc)
    assert not models(off_level, phi)


def test_from_partial_config_unconstrained_cells_stay_optional():
    pc = PartialConfiguration(bv=(), seqs=(None,), phase=((None,),))
    [phi] = from_partial_config(pc)
    assert phi.gaps[0][0] == OPT_FREE


def test_from_partial_config_rejects_level_inconsistency():
    pc = PartialConfiguration(
        bv=(),
        seqs=(None, None),
        phase=((("p", (2, 2)),), (("p", (0, 1)),)),
    )
    with pytest.raises(ValueError, match="level-consistent"):
        from_partial_config(pc)
