"""``explore`` against the slow path it stands for.  It canonicalizes a
successor from its canonical parent (``canonical``'s hint) and reuses
a twin task's successor; the reference explorer does neither.

The programs are the corpus and, written out, the shapes of the
generated programs in ``bench/families.py``.  A column that leaves its
place among its neighbours shows on the ring and chain shapes, and twin
tasks only where a type is spawned more than once.

The reference explorer calls the same full-sort ``canonical``, so a
change to the order of cells would pass it.  The shapes' explorations
are pinned for that, and the order of cells is checked against the
sort key that ``tests/oracles.py`` states."""

from hashlib import sha256

import pytest

from phasercheck.concrete import (
    AssertionViolation,
    Bounds,
    Configuration,
    CyclicWait,
    ExploreResult,
    apply_step,
    canonical,
    config_to_text,
    explore,
    successors,
)
from phasercheck.parser import parse, parse_seq

from conftest import CORPUS, load
from oracles import cell_key, reference_explore

RING_TASKS = """
Node(l, r){ signal(l); signal(r); wait(l); wait(r); drop(l); drop(r); }
NodeR(l, r){ signal(r); signal(l); wait(r); wait(l); drop(l); drop(r); }
"""
RING_MAIN = """main(){
  p0 = newPhaser(); p1 = newPhaser(); p2 = newPhaser(); p3 = newPhaser();
  asynch(%s, p0, p1); asynch(%s, p1, p2); asynch(%s, p2, p3); asynch(%s, p3, p0);
  drop(p0); drop(p1); drop(p2); drop(p3);
}"""

# every node waits on one phaser before it signals the other: a wait cycle
RING_CYCLE_TASKS = "Node(l, r){ signal(r); wait(r); signal(l); wait(l); drop(l); drop(r); }"


def _link(i: int, depth: int) -> str:
    spawn = f"if(ndet()){{ q = newPhaser(); asynch(Link{i + 1}, q); signal(q); wait(q); drop(q); }}"
    return f"Link{i}(p){{ {spawn if i < depth else ''} signal(p); drop(p); }}"


CHAIN_4 = "main(){ p = newPhaser(); asynch(Link1, p); signal(p); wait(p); drop(p); }" + "".join(
    _link(i, 4) for i in range(1, 5)
)

# two identical split producer/consumer pairs
PAIRS = """bool a;
main(){
  p = newPhaser(); c = newPhaser();
  asynch(ProdS, p:SIG, c:WAIT); asynch(ConsS, p:WAIT, c:SIG);
  asynch(ProdS, p:SIG, c:WAIT); asynch(ConsS, p:WAIT, c:SIG);
  drop(p); drop(c);
}
ProdS(p:SIG, c:WAIT){ signal(p); wait(c); assert(a); a = false; drop(p); drop(c); }
ConsS(p:WAIT, c:SIG){ wait(p); signal(c); a = true; drop(p); drop(c); }
"""

BARRIER = """bool a;
main(){ p = newPhaser(); asynch(Worker, p); asynch(Worker, p); asynch(Clearer, p);
  next(p){ a = true; } next(p); assert(a); drop(p); }
Worker(p){ next(p){ a = true; } next(p); assert(a); drop(p); }
Clearer(p){ next(p){ a = true; } a = false; next(p); assert(a); drop(p); }
"""

SHAPES = {
    "ring_rlrl": (RING_MAIN % ("NodeR", "Node", "NodeR", "Node") + RING_TASKS, Bounds(300000, 5, 4, 8)),
    "ring_rrrr": (RING_MAIN % (("NodeR",) * 4) + RING_TASKS, Bounds(300000, 5, 4, 8)),
    "ring_cycle": (RING_MAIN % (("Node",) * 4) + RING_CYCLE_TASKS, Bounds(300000, 5, 4, 8)),
    "chain_4": (CHAIN_4, Bounds(300000, 5, 4, 8)),
    "pairs": (PAIRS, Bounds(300000, 5, 2, 8)),
    "barrier": (BARRIER, Bounds(300000, 4, 1, 8)),
    # bounds that cut: a twin's step is cut like its twin's
    "ring_rlrl_steps_300": (RING_MAIN % ("NodeR", "Node", "NodeR", "Node") + RING_TASKS, Bounds(300, 5, 4, 8)),
    "chain_4_tasks_3": (CHAIN_4, Bounds(300000, 3, 4, 8)),
    "pairs_phase_0": (PAIRS, Bounds(300000, 5, 2, 0)),
    "pairs_steps_100": (PAIRS, Bounds(100, 5, 2, 8)),
}
CUT = {"ring_rlrl_steps_300", "chain_4_tasks_3", "pairs_phase_0", "pairs_steps_100"}

# per shape: configuration count, exhausted, errors and the sha256 of the
# config_to_text dump.  On chain_4, ties between columns decide the count
SHAPE_PINS = {
    "ring_rlrl": (1599, True, [], "ccb9f68956650ef1730130b9b5161d4eb8560cef70119be317243a8ccde9d163"),
    "ring_rrrr": (1433, True, [], "450783379cad5d55f11963a4c7df4d59c02d530cb6f182da99c7cf856c7cd25f"),
    "ring_cycle": (99, True, [
        (CyclicWait(tasks=(1, 4, 3, 2)), 66), (CyclicWait(tasks=(1, 4, 3, 2)), 81),
        (CyclicWait(tasks=(1, 4, 3, 2)), 92), (CyclicWait(tasks=(1, 4, 3, 2)), 97),
        (CyclicWait(tasks=(1, 4, 3, 2)), 98),
    ], "0e1489b2e0031a2be1911ba6ceabfdbc60ec21edf14a52eed1a846290159e522"),
    "chain_4": (612, True, [], "985fcc374fbaaefbf0aca542471da8ede52bec3a162e47ef685f822c04aaa9ef"),
    "pairs": (331, True, [
        (AssertionViolation(task=3), 41), (AssertionViolation(task=3), 49), (AssertionViolation(task=4), 49),
        (AssertionViolation(task=2), 84), (AssertionViolation(task=2), 99), (AssertionViolation(task=1), 102),
        (AssertionViolation(task=2), 107), (AssertionViolation(task=3), 116),
        (AssertionViolation(task=1), 121), (AssertionViolation(task=2), 127),
        (AssertionViolation(task=1), 130), (AssertionViolation(task=3), 135),
        (AssertionViolation(task=2), 143), (AssertionViolation(task=3), 149),
        (AssertionViolation(task=1), 152), (AssertionViolation(task=1), 155),
        (AssertionViolation(task=3), 162), (AssertionViolation(task=2), 165),
        (AssertionViolation(task=2), 176), (AssertionViolation(task=2), 179),
        (AssertionViolation(task=4), 187), (AssertionViolation(task=1), 191),
        (AssertionViolation(task=2), 193), (AssertionViolation(task=3), 211),
        (AssertionViolation(task=2), 214), (AssertionViolation(task=3), 216),
        (AssertionViolation(task=2), 229), (AssertionViolation(task=3), 247),
        (AssertionViolation(task=3), 249), (AssertionViolation(task=4), 276),
    ], "07becbf179af38f3ef3f550cc3239a461ff93cc764aaa0466001ad3b6136b122"),
    "barrier": (54, True, [
        (AssertionViolation(task=0), 50), (AssertionViolation(task=0), 51), (AssertionViolation(task=1), 51),
        (AssertionViolation(task=0), 52), (AssertionViolation(task=1), 52), (AssertionViolation(task=2), 52),
        (AssertionViolation(task=0), 53), (AssertionViolation(task=1), 53), (AssertionViolation(task=2), 53),
        (AssertionViolation(task=3), 53),
    ], "a2ec508746170966bae6a7ca38102d1adcf555339606155887262e130adc6764"),
    "ring_rlrl_steps_300": (380, False, [], "25cd3c4c6c6a93206596f03d3f3b2119f234b6bba72a9ec2de99a6ae9f58e09a"),
    "chain_4_tasks_3": (66, False, [], "6ca9b534f07295f10019fb4b7d3d27c51a2fb1e49209925ce5b2d00918e21585"),
    "pairs_phase_0": (9, False, [], "b773739a9bec04fcf43ee0f45ab86d0eb6dd9bba3916a1bd7cee2a7145cceee5"),
    "pairs_steps_100": (128, False, [
        (AssertionViolation(task=3), 41), (AssertionViolation(task=3), 49), (AssertionViolation(task=4), 49),
        (AssertionViolation(task=2), 84), (AssertionViolation(task=2), 99),
    ], "853e880e8b505db3e983d00946dce67bdc4bd8fdc789293ecfb75a7d37d66954"),
}
CORPUS_PROGRAMS = sorted(p.stem for p in CORPUS.glob("*.phz"))
CASES = CORPUS_PROGRAMS + [f"{name}_tasks_2" for name in CORPUS_PROGRAMS] + list(SHAPES)


def case(name):
    """The program and bounds of a case: a shape, or a corpus program at
    the default bounds or at two tasks."""
    if name in SHAPES:
        source, bounds = SHAPES[name]
        return parse(source), bounds
    if name.endswith("_tasks_2"):
        return load(name.removesuffix("_tasks_2")), Bounds(max_tasks=2)
    return load(name), Bounds()


@pytest.mark.parametrize("name", list(SHAPES))
def test_the_shapes_explore_as_pinned(name):
    program, bounds = case(name)
    result = explore(program, bounds)
    dump = "\n".join(config_to_text(c, program) for c in result.configs)
    got = (len(result.configs), result.exhausted, result.errors, sha256(dump.encode()).hexdigest())
    assert got == SHAPE_PINS[name]


@pytest.mark.parametrize("name", CORPUS_PROGRAMS + list(SHAPES))
def test_cells_rows_and_columns_sort_by_the_reference_key(name):
    for c in explore(*case(name)).configs:
        for column in zip(*c.phases):
            assert sorted(column) == sorted(column, key=cell_key)
        row_key = lambda row: [cell_key(e) for e in row]
        assert sorted(c.phases) == sorted(c.phases, key=row_key)


def test_the_cases_cut_and_exhaust():
    for name in SHAPES:
        assert explore(*case(name)).exhausted == (name not in CUT), name


@pytest.mark.parametrize("name", CASES)
def test_canonical_from_the_canonical_parent_is_the_full_sort(name):
    program, bounds = case(name)
    for c in explore(program, bounds).configs:
        for t, _, _, outcome in successors(c, program):
            if isinstance(outcome, Configuration):
                assert canonical(outcome, program, c, t) == canonical(outcome, program)


@pytest.mark.parametrize("name", CASES)
def test_explore_equals_the_reference_explorer(name):
    program, bounds = case(name)
    got = explore(program, bounds, record_graph=True)
    want = reference_explore(program, bounds)
    for field in ExploreResult.field_names:
        assert getattr(got, field) == getattr(want, field), field


def test_the_hint_keeps_equal_tasks_in_index_order():
    # task 1 owns an atomic section and steps to task 0's sequence and
    # row: the two tie, and the owner must stay second, as in the full sort
    p = parse("bool a; main(){ a = true; a = false; }")
    seq = lambda text: p.seq_ids[parse_seq(text)]
    parent = Configuration((False,), (seq("a = false;"), seq("a = true; a = false;")), ((), ()), atomic=1)
    assert canonical(parent, p) == parent
    c = apply_step(parent, p, 1, True)
    assert canonical(c, p, parent, 1) == canonical(c, p) == Configuration((True,), c.seqs, c.phases, atomic=1)
