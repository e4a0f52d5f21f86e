from phasercheck.control import head_successors
from phasercheck.parser import parse, parse_seq
from phasercheck.syntax import NextBlock, Signal, Wait


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
