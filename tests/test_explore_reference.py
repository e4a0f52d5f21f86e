"""``explore`` against the slow path it stands for.  It canonicalizes a
successor from its canonical parent (``canonical``'s hint) and reuses
a twin task's successor; the reference explorer does neither.

The programs are the corpus and, written out, the shapes of the
generated programs in ``bench/families.py``.  A column that leaves its
place among its neighbours shows on the ring and chain shapes, and twin
tasks only where a type is spawned more than once."""

import pytest

from phasercheck.concrete import (
    Bounds,
    Configuration,
    ExploreResult,
    apply_step,
    canonical,
    explore,
    successors,
)
from phasercheck.parser import parse, parse_seq

from conftest import CORPUS, load
from oracles import reference_explore

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
