"""The record contract of ``syntax.Node`` and of the records that write
their methods out (``Configuration``, ``Gap``, ``Constraint``): fields
by position or keyword with class defaults, equality and hashing by
class and fields, no assignment, and the ``Name(field=value, ...)``
form of ``repr``, which ``explore`` prints in its ``error:`` lines."""

import copy
import pickle

import pytest

from phasercheck.concrete import (
    AssertionViolation,
    Bounds,
    Configuration,
    CyclicWait,
    NREG,
    ExploreResult,
    Reg,
    RegistrationError,
    canonical,
    config_to_text,
    cyclic_waits,
    explore,
    successors,
)
from phasercheck.control import Program, TaskDef
from phasercheck.engine import BudgetExhausted, Reachable, Unreachable
from phasercheck.parser import Token, parse
from phasercheck.symbolic import FREE_BOUNDS, Constraint, Gap, models
from phasercheck.syntax import (
    ANY,
    And,
    Assert,
    Assign,
    Asynch,
    BoolLit,
    BoolVar,
    Drop,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Ndet,
    Node,
    Not,
    Or,
    Signal,
    Wait,
    While,
)

from conftest import CORPUS, load


def _records():
    """Two separately built equal instances of every record class whose
    fields all hash, so that no test passes on identity alone."""

    def build():
        body = (Signal("p"), Wait("p"))
        cond = And(Not(BoolVar("a")), Or(Ndet(), BoolLit(True)))
        gap = Gap(ANY, FREE_BOUNDS)
        return [
            Ndet(), BoolLit(False), BoolVar("a"), Not(BoolVar("a")),
            And(BoolVar("a"), Ndet()), Or(BoolVar("a"), Ndet()),
            NewPhaser("p"), Asynch("W", ("p",), ("SIG_WAIT",)), Drop("p"),
            Signal("p"), Wait("p"), NextBlock("p", body), Assign("a", cond),
            Assert(cond), While(cond, body), If(cond, body), Exit(),
            Token("name", "p", 1, 2), TaskDef("W", ("p",), ("SIG_WAIT",), body),
            parse((CORPUS / "sigwait_ok.phz").read_text()),
            AssertionViolation(1), RegistrationError(0, "signal", "p"), CyclicWait((0, 1)),
            Configuration((False,), (0, 3), ((("p", Reg("SIG_WAIT", 0, 0)),), (("p", NREG),))),
            gap, Constraint((None,), (0,), ((gap,),), ((0, 0),)),
            Reachable((), ()), Unreachable(3), BudgetExhausted(3),
            Bounds(max_tasks=5),
        ]

    return list(zip(build(), build()))


RECORDS = _records()


def _name(pair):
    return type(pair[0]).__name__


def test_every_record_class_is_covered():
    # ExploreResult holds lists, so it has its own test below
    classes = {type(a) for a, _ in RECORDS}
    assert len(classes) == len(RECORDS) == 30
    assert classes | {ExploreResult} == set(Node.__subclasses__())


@pytest.mark.parametrize("pair", RECORDS, ids=_name)
def test_equal_records_hash_equally(pair):
    a, b = pair
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_of_different_classes_with_equal_fields_are_unequal():
    pairs = [
        (Signal("p"), Wait("p")),
        (Drop("p"), NewPhaser("p")),
        (Ndet(), Exit()),
        (While(Ndet(), ()), If(Ndet(), ())),
        (AssertionViolation(3), Unreachable(3)),
        (Unreachable(3), BudgetExhausted(3)),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b
    assert len({Signal("p"), Wait("p")}) == 2
    # a record is not the tuple of its fields either
    assert Signal("p") != ("p",) and CyclicWait((0, 1)) != ((0, 1),)


def test_records_differing_in_one_field_are_unequal():
    gap = Gap(ANY, FREE_BOUNDS)
    assert Gap(ANY, FREE_BOUNDS, True) != gap and Gap("p", FREE_BOUNDS) != gap
    assert Configuration((), (0,), ((),), 0) != Configuration((), (0,), ((),))
    phi = Constraint((None,), (0,), ((gap,),), ((0, 0),))
    assert Constraint((True,), (0,), ((gap,),), ((0, 0),)) != phi
    assert Constraint((None,), (0,), ((gap,),), ((0, 1),)) != phi


@pytest.mark.parametrize("pair", RECORDS, ids=_name)
def test_records_refuse_assignment(pair):
    record = pair[0]
    field = type(record).field_names[0] if type(record).field_names else "extra"
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert pair[0] == pair[1]


@pytest.mark.parametrize("pair", RECORDS, ids=_name)
def test_records_copy_and_pickle(pair):
    record = pair[0]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == pair[1] and type(clone) is type(record)


# every command on a phaser its task is unregistered from, and a barrier
# that an unregistered task does not hold back
UNREGISTERED = """bool a;
main(){ p = newPhaser(); asynch(W, p); next(p){ a = true; } signal(p); wait(p); drop(p); drop(p); }
W(p){ drop(p); a = false; next(p){ a = true; } signal(p); wait(p); asynch(W, p); }
"""


@pytest.mark.parametrize("name", ["unregistered"] + sorted(p.stem for p in CORPUS.glob("*.phz")))
def test_a_copied_configuration_steps_as_the_original(name):
    # a copy holds a Reg of its own for each unregistered cell, so the
    # semantics must read "unregistered" by equality with NREG
    program = parse(UNREGISTERED) if name == "unregistered" else load(name)
    configs = explore(program, Bounds(max_steps=300, max_tasks=3)).configs

    def read(c, nreg_bounds) -> Constraint:
        # c's own cells as a constraint; an unregistered cell is read
        # with nreg_bounds, so None gives one that c models
        cell = lambda var, reg: Gap(var, nreg_bounds if reg == NREG else FREE_BOUNDS)
        gaps = tuple(tuple(cell(*e) for e in row) for row in c.phases)
        return Constraint(c.bv, c.seqs, gaps, ((0, 0),) * c.n_phasers)

    for c in configs:
        unregistered = sum(reg == NREG for row in c.phases for _, reg in row)
        for clone in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            cells = [reg for row in clone.phases for _, reg in row]
            assert sum(reg == NREG and reg is not NREG for reg in cells) == unregistered
            steps, clone_steps = successors(c, program), successors(clone, program)
            assert clone_steps == steps
            for (t, _, _, out), (_, _, _, clone_out) in zip(steps, clone_steps):
                if isinstance(out, Configuration):
                    assert canonical(clone_out, program, clone, t) == canonical(out, program, c, t)
            assert canonical(clone, program) == canonical(c, program) == c
            assert cyclic_waits(clone, program) == cyclic_waits(c, program)
            assert config_to_text(clone, program) == config_to_text(c, program)
            assert models(clone, read(c, None)) and models(c, read(c, None))
            registered = read(c, FREE_BOUNDS)
            assert models(clone, registered) == models(c, registered) == (unregistered == 0)


def test_a_record_with_list_fields_compares_but_does_not_hash():
    result = ExploreResult([], [], True, [])
    assert result == ExploreResult([], [], True, []) != ExploreResult([], [], False, [])
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(AttributeError):
        result.exhausted = False


def test_error_outcomes_print_as_before():
    assert repr(AssertionViolation(1)) == "AssertionViolation(task=1)"
    assert repr(RegistrationError(0, "signal", "p")) == "RegistrationError(task=0, command='signal', var='p')"
    assert repr(CyclicWait((0, 1))) == "CyclicWait(tasks=(0, 1))"
    assert str(CyclicWait((0, 1))) == repr(CyclicWait((0, 1)))


def test_repr_nests_fields_in_declaration_order():
    assert repr(NextBlock("p", (Exit(),))) == "NextBlock(var='p', body=(Exit(),))"
    assert repr(Gap("p", None)) == "Gap(var='p', bounds=None, opt=False)"
    assert repr(Configuration((True,), (2,), ((),))) == (
        "Configuration(bv=(True,), seqs=(2,), phases=((),), atomic=None)"
    )
    assert repr(Program(("a",), ())) == "Program(bool_vars=('a',), tasks=())"


def test_fields_by_position_or_keyword_with_defaults():
    assert Token(kind="name", text="p", line=1, col=2) == Token("name", "p", 1, col=2)
    assert Bounds(5).max_steps == 5 and Bounds(5).max_phase == Bounds().max_phase == 6
    assert Bounds.field_names == ("max_steps", "max_tasks", "max_phasers", "max_phase")
    assert Gap(ANY, None, opt=True).opt and not Gap(ANY, None).opt
    assert Configuration(bv=(), seqs=(0,), phases=((),)).atomic is None
    assert Bounds(max_steps=5).max_tasks == Bounds().max_tasks == 4
    assert Exit.field_names == () and Exit() == Exit()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Signal(),  # missing field
        lambda: Signal("p", "q"),  # one too many
        lambda: Signal("p", var="q"),  # given twice
        lambda: Signal(name="p"),  # not a field
        lambda: Gap(ANY),
        lambda: Constraint((), (), ()),
    ],
)
def test_wrong_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
