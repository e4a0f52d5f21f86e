import runpy

import pytest

from phasercheck.concrete import Bounds, explore
from phasercheck.control import barrier_skip, head_successors
from phasercheck.parser import parse, parse_seq
from phasercheck.syntax import SIG_WAIT, Asynch, NewPhaser, NextBlock, Signal, Wait

from conftest import CORPUS, load
from oracles import walk

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


def _id(program, text):
    """The id of the reachable sequence ``text``."""
    return program.seq_ids[parse_seq(text)]


def _steps(program, text):
    """The ids ``next_ids`` and ``skip_ids`` give for ``text``."""
    i = _id(program, text)
    return program.next_ids[i], program.skip_ids[i]


def test_plain_statement_steps_to_tail():
    p = parse("main(){ p = newPhaser(); signal(p); wait(p); drop(p); }")
    assert _steps(p, "signal(p); wait(p); drop(p);") == ((_id(p, "wait(p); drop(p);"),), None)
    assert _steps(p, "drop(p);") == ((_id(p, ""),), None)
    assert _steps(p, "") == ((), None)


def test_exit_clears_the_whole_sequence():
    p = parse("main(){ p = newPhaser(); drop(p); exit; signal(p); }")
    assert _steps(p, "exit; signal(p);") == ((_id(p, ""),), None)
    assert parse_seq("signal(p);") not in p.seq_ids


def test_while_unfolds_body_before_loop():
    p = parse("main(){ p = newPhaser(); while(ndet()){ signal(p); } wait(p); }")
    loop = "while(ndet()){ signal(p); } wait(p);"
    # the taken branch first, then the exit from the loop
    taken, skipped = _id(p, "signal(p); " + loop), _id(p, "wait(p);")
    assert _steps(p, loop) == ((taken, skipped), None)
    assert p.next_ids[taken] == (_id(p, loop),)


def test_if_unfolds_body_before_tail():
    p = parse("main(){ p = newPhaser(); if(ndet()){ signal(p); } wait(p); }")
    taken, skipped = _id(p, "signal(p); wait(p);"), _id(p, "wait(p);")
    assert _steps(p, "if(ndet()){ signal(p); } wait(p);") == ((taken, skipped), None)
    # an empty body makes both branches one sequence, still two steps
    p = parse("main(){ p = newPhaser(); if(ndet()){ } wait(p); }")
    assert _steps(p, "if(ndet()){ } wait(p);") == ((_id(p, "wait(p);"),) * 2, None)


def test_nextblock_enter_and_release():
    p = parse(
        "main(){ p = newPhaser(); q = newPhaser(); next(p){ signal(q); } drop(p); drop(q); }"
    )
    released = _id(p, "signal(p); wait(p); drop(p); drop(q);")
    # the executor enters the body, which ends at the bare barrier; the
    # other participants skip to its release
    entered = _id(p, "signal(q); next(p){ } drop(p); drop(q);")
    assert _steps(p, "next(p){ signal(q); } drop(p); drop(q);") == ((entered,), released)
    assert p.next_ids[entered] == (_id(p, "next(p){ } drop(p); drop(q);"),)
    assert _steps(p, "next(p){ } drop(p); drop(q);") == ((released,), released)
    assert p.heads[released] == Signal("p") and p.heads[p.next_ids[released][0]] == Wait("p")


def test_unrolled_suffixes_closed_under_steps():
    p = parse(
        "bool a; main(){ q = newPhaser(); while(ndet()){ signal(q); "
        "if(a){ wait(q); } } drop(q); }"
    )
    ids = range(len(p.suffixes))
    # every step lands on an id, and the bodies reach every id
    reached, stack = set(p.body_ids.values()), list(p.body_ids.values())
    while stack:
        i = stack.pop()
        nexts = [j for j in (*p.next_ids[i], p.skip_ids[i]) if j is not None]
        assert set(nexts) <= set(ids)
        stack += [j for j in nexts if j not in reached]
        reached.update(nexts)
    assert reached == set(ids)
    for seq in p.suffixes:
        assert set(head_successors(seq)) <= set(p.seq_ids)


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
        assert nexts == list(head_successors(seq))
        if seq and isinstance(seq[0], NextBlock):
            # a participant that does not execute the body unfolds its
            # barrier as if the body were empty
            bare = (NextBlock(seq[0].var, ()),) + seq[1:]
            assert p.suffixes[p.skip_ids[i]] == head_successors(bare)[0]
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
    facts = (per_task, p.is_atomic(), p.phaser_sites(), p.uses_modes(), p.phaser_bound)
    assert facts == _walked(p)


def test_code_no_run_reaches_has_no_site():
    # after main's exit, and in a loop whose body ends in exit, the walk
    # saw a second phaser and a phaser per pass
    after_exit = parse("main(){ p = newPhaser(); drop(p); exit; q = newPhaser(); drop(q); }")
    assert sum(after_exit.instance_counts.values()) == after_exit.phaser_bound == 1
    assert after_exit.phaser_sites() == 1
    assert _walked(after_exit)[2:] == (2, False, 2)
    exit_in_loop = parse("bool a; main(){ while(ndet()){ p = newPhaser(); drop(p); exit; } }")
    assert sum(exit_in_loop.instance_counts.values()) == exit_in_loop.phaser_bound == 1
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
