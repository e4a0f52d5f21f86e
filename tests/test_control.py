import runpy

import pytest

from phasercheck.concrete import Bounds, explore
from phasercheck.control import barrier_skip, head_successors
from phasercheck.parser import parse, parse_seq
from phasercheck.syntax import SIG_WAIT, Asynch, NewPhaser, NextBlock, Signal, Wait, walk

from conftest import CORPUS, load

# main's barrier body ends in exit, so only a participant skipping the
# body reaches ``signal(p); wait(p); assert(a); drop(p);``.  Here the two
# bodies differ and the barrier never fires; with equal bodies it does
SKIP_AFTER_EXIT = (
    "bool a; main(){ p = newPhaser(); asynch(W, p); next(p){ a = true; exit; } assert(a); "
    "drop(p); } W(p){ next(p){ a = true; } drop(p); }"
)
SKIP_AFTER_EXIT_FIRES = (
    "bool a; main(){ p = newPhaser(); asynch(W, p); next(p){ a = true; exit; } assert(a); "
    "drop(p); } W(p){ next(p){ a = true; exit; } assert(a); drop(p); }"
)


def _table_programs():
    """Every corpus program, the generated programs of three benchmark
    draws and the two programs above."""
    families = runpy.run_path(str(CORPUS.parent / "bench" / "families.py"))
    out = {path.stem: load(path.stem) for path in sorted(CORPUS.glob("*.phz"))}
    for seed in (1, 2, 3):
        out.update((g.name, parse(g.source)) for g in families["draw"](seed))
    out["skip_after_exit"] = parse(SKIP_AFTER_EXIT)
    out["skip_after_exit_fires"] = parse(SKIP_AFTER_EXIT_FIRES)
    return out


TABLE_PROGRAMS = _table_programs()


def test_plain_statement_steps_to_tail():
    seq = parse_seq("signal(p); wait(p);")
    (step,) = head_successors(seq)
    assert step.branch is None
    assert step.next_seq == seq[1:]


def test_exit_clears_the_whole_sequence():
    seq = parse_seq("exit; signal(p);")
    (step,) = head_successors(seq)
    assert step.next_seq == ()


def test_while_unfolds_body_before_loop():
    seq = parse_seq("while(ndet()){ signal(p); } wait(p);")
    taken, skipped = head_successors(seq)
    assert taken.branch is True
    assert taken.next_seq == seq[0].body + seq
    assert skipped.branch is False
    assert skipped.next_seq == seq[1:]


def test_if_unfolds_body_before_tail():
    seq = parse_seq("if(ndet()){ signal(p); } wait(p);")
    taken, skipped = head_successors(seq)
    assert taken.next_seq == seq[0].body + seq[1:]
    assert skipped.next_seq == seq[1:]


def test_nextblock_enter_and_release():
    seq = (NextBlock("p", parse_seq("signal(q);")),) + parse_seq("drop(p);")
    (enter,) = head_successors(seq)
    assert enter.branch == "enter"
    assert enter.next_seq[0] == Signal("q")
    assert enter.next_seq[1] == NextBlock("p", ())
    empty = (NextBlock("p", ()),) + parse_seq("drop(p);")
    (release,) = head_successors(empty)
    assert release.branch == "release"
    assert release.next_seq == (Signal("p"), Wait("p")) + parse_seq("drop(p);")


def test_unrolled_suffixes_closed_under_steps():
    p = parse(
        "bool a; main(){ q = newPhaser(); while(ndet()){ signal(q); "
        "if(a){ wait(q); } } drop(q); }"
    )
    suff = p.suffixes
    for seq in suff:
        for step in head_successors(seq):
            assert step.next_seq in suff


def test_unrolled_suffixes_finite_for_nested_loops():
    p = parse(
        "main(){ q = newPhaser(); while(ndet()){ while(ndet()){ signal(q); } "
        "wait(q); } drop(q); }"
    )
    suff = p.suffixes
    assert 0 < len(suff) < 200


@pytest.mark.parametrize("name", sorted(TABLE_PROGRAMS))
def test_id_tables_agree_with_the_unfolding(name):
    p = TABLE_PROGRAMS[name]
    for i, seq in enumerate(p.suffixes):
        assert p.seq_ids[seq] == i
        assert p.heads[i] == (seq[0] if seq else None)
        nexts = [p.suffixes[j] for j in p.next_ids[i]]
        assert nexts == [step.next_seq for step in head_successors(seq)]
        if seq and isinstance(seq[0], NextBlock):
            # a participant that does not execute the body unfolds its
            # barrier as if the body were empty
            bare = (NextBlock(seq[0].var, ()),) + seq[1:]
            assert p.suffixes[p.skip_ids[i]] == head_successors(bare)[0].next_seq
        else:
            assert p.skip_ids[i] is None


@pytest.mark.parametrize("name", sorted(TABLE_PROGRAMS))
def test_text_ranks_order_sequences_by_their_text(name):
    p = TABLE_PROGRAMS[name]
    texts = [tuple(str(s) for s in seq) for seq in p.suffixes]
    ids = range(len(texts))
    assert sorted(ids, key=lambda i: (p.text_ranks[i], i)) == sorted(ids, key=lambda i: (texts[i], i))
    # equal text, equal rank, and the converse
    assert len(set(zip(texts, p.text_ranks))) == len(set(texts)) == len(set(p.text_ranks))


def test_the_walk_reaches_the_barrier_skip_after_an_exit():
    skip = barrier_skip(parse_seq("next(p){ a = true; exit; } assert(a); drop(p);"))
    assert skip == parse_seq("signal(p); wait(p); assert(a); drop(p);")
    # the counts are those of the explorer that unfolded the bare barrier
    # on the fly, before the tables existed, except that main's exit ends
    # its barrier body, so W steps on from the skip
    for src, configs, skipped in ((SKIP_AFTER_EXIT, 3, False), (SKIP_AFTER_EXIT_FIRES, 7, True)):
        p = parse(src)
        assert skip in p.seq_ids
        res = explore(p, Bounds(), record_graph=True)
        assert res.exhausted and len(res.configs) == configs
        assert any(p.seq_ids[skip] in c.seqs for c in res.configs) == skipped
    # W's last step is the signal at the head of the skip
    assert [(t, stmt) for _, t, stmt, _ in res.edges[-1:]] == [(1, "signal(p);")]


# X is spawned under a loop, and the asynch(Y) after the exit is dead code
SPAWN_SITES = (
    "bool a; main(){ asynch(W); while(ndet()){ asynch(X); } exit; asynch(Y); } "
    "W(){ a = true; } X(){ a = true; } Y(){ a = true; }"
)


def test_spawners_and_spawn_order_follow_the_reachable_asynch_sites():
    program = parse(SPAWN_SITES)
    assert program.spawners == {"W": (("main", False),), "X": (("main", True),)}
    assert program.instance_counts == {"main": 1, "W": 1, "X": None}
    body = program.main.body
    loop, inside = program.seq_ids[body[1:]], program.seq_ids[body[1].body + body[1:]]
    assert program.body_ids["main"] not in program.spawn_order["W"]
    assert {loop, inside} <= program.spawn_order["W"]
    # a task back at the loop head may or may not have spawned an X
    assert {loop, inside} <= program.spawn_order["X"]
    assert "Y" not in program.spawn_order


def _walked(program) -> tuple:
    """The site facts of the syntactic walk over the program text, dead
    code included: per task, each ``newPhaser`` and ``asynch`` statement
    with its loop flag; whether a barrier block occurs; the number of
    ``newPhaser`` statements; whether a registration is not SIG_WAIT;
    and the phaser bound, counting each statement once per instance."""
    walks = {t.name: list(walk(t.body)) for t in program.tasks}
    per_task = {
        name: sorted((str(s), looped) for s, looped in w if isinstance(s, (NewPhaser, Asynch)))
        for name, w in walks.items()
    }
    stmts = [s for w in walks.values() for s, _ in w]
    modes = [m for t in program.tasks for m in t.modes]
    modes += [m for s in stmts if isinstance(s, Asynch) for m in s.modes]
    counts = program.instance_counts
    created = [
        None if looped else counts[name]
        for name in counts
        for s, looped in walks[name]
        if isinstance(s, NewPhaser)
    ]
    return (
        per_task,
        any(isinstance(s, NextBlock) for s in stmts),
        sum(isinstance(s, NewPhaser) for s in stmts),
        any(m != SIG_WAIT for m in modes),
        None if None in created else sum(created),
    )


@pytest.mark.parametrize("name", sorted(TABLE_PROGRAMS))
def test_the_site_table_agrees_with_the_walk_without_dead_code(name):
    # none of these programs has code that no run reaches, so the
    # reachable sites give what the walk over the text gave
    p = TABLE_PROGRAMS[name]
    per_task = {
        t.name: sorted(
            (str(stmt), looped)
            for _, stmt, owners, looped in p.sites
            if isinstance(stmt, (NewPhaser, Asynch)) and t.name in owners
        )
        for t in p.tasks
    }
    facts = (per_task, p.is_atomic(), p.phaser_sites(), p.uses_modes(), p.static_bounds[1])
    assert facts == _walked(p)


def test_code_no_run_reaches_has_no_site():
    # after main's exit, and in a loop whose body ends in exit, the walk
    # saw a second phaser and a phaser per pass
    after_exit = parse("main(){ p = newPhaser(); drop(p); exit; q = newPhaser(); drop(q); }")
    assert after_exit.static_bounds == (1, 1)
    assert after_exit.phaser_sites() == 1
    assert _walked(after_exit)[2:] == (2, False, 2)
    exit_in_loop = parse("bool a; main(){ while(ndet()){ p = newPhaser(); drop(p); exit; } }")
    assert exit_in_loop.static_bounds == (1, 1)
    assert _walked(exit_in_loop)[4] is None
    dead_barrier = parse("bool a; main(){ p = newPhaser(); drop(p); exit; next(p){ a = true; } }")
    assert not dead_barrier.is_atomic()
    assert _walked(dead_barrier)[1]


# W receives main's first phaser as r and passes it on to X as s.  The
# table is flow-insensitive: p names two phasers in turn, so r and s may
# hold either of them, but never q's
HELD = (
    "main(){ p = newPhaser(); asynch(W, p); drop(p); q = newPhaser(); drop(q); "
    "p = newPhaser(); drop(p); } W(r){ asynch(X, r); drop(r); } X(s){ drop(s); }"
)


def test_held_sites_follow_creation_and_spawn_arguments():
    p = parse(HELD)
    first, second, third = (i for i, stmt, _, _ in p.sites if isinstance(stmt, NewPhaser))
    assert p.held_sites == {
        ("main", "p"): {first, third},
        ("main", "q"): {second},
        ("W", "r"): {first, third},
        ("X", "s"): {first, third},
    }
