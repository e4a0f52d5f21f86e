import re

import pytest

from phasercheck.cli import main
from phasercheck.parser import ParseError, parse, parse_seq
from phasercheck.syntax import (
    Assert,
    Assign,
    Asynch,
    Drop,
    NewPhaser,
    NextBlock,
    Signal,
    Wait,
    While,
    validate,
)


def test_minimal_program():
    p = parse("main(){ exit; }")
    assert [t.name for t in p.tasks] == ["main"]
    assert len(p.main.body) == 1


def test_bool_declarations_and_assign():
    p = parse("bool a, b; main(){ a = true; b = a && ndet(); assert(!b); }")
    assert p.bool_vars == ("a", "b")
    assert isinstance(p.main.body[0], Assign)
    assert isinstance(p.main.body[2], Assert)


def test_next_desugars_to_signal_wait():
    p = parse("main(){ p = newPhaser(); next(p); drop(p); }")
    assert [type(s) for s in p.main.body] == [NewPhaser, Signal, Wait, Drop]


def test_next_block_is_kept():
    p = parse("bool a; main(){ p = newPhaser(); next(p){ a = true; } drop(p); }")
    nb = p.main.body[1]
    assert isinstance(nb, NextBlock)
    assert isinstance(nb.body[0], Assign)
    assert p.is_atomic()


def test_modes_default_and_explicit():
    p = parse(
        "main(){ p = newPhaser(); asynch(T, p:SIG); drop(p); }"
        "T(p:SIG){ signal(p); drop(p); }"
    )
    a = p.main.body[1]
    assert isinstance(a, Asynch)
    assert a.modes == ("SIG",)
    assert p.task("T").modes == ("SIG",)


def test_while_and_if_bodies():
    p = parse("bool a; main(){ while(ndet()){ if(a){ a = false; } } }")
    w = p.main.body[0]
    assert isinstance(w, While)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse("main(){ signal(; }")
    assert e.value.line == 1
    assert e.value.col > 1


@pytest.mark.parametrize(
    "prefix, opener, middle, closer, suffix",
    [
        ("", "if(ndet()){", "", "}", ""),
        ("b = ", "(", "b", ")", ";"),
        ("b = ", "!", "b", "", ";"),
    ],
    ids=["blocks", "parens", "nots"],
)
def test_nesting_limit(prefix, opener, middle, closer, suffix):
    def program(n):
        return f"bool b; main(){{ {prefix}{opener * n}{middle}{closer * n}{suffix} }}"

    parse(program(99))  # with the task body: 100 levels
    with pytest.raises(ParseError, match="nesting deeper than 100 levels") as e:
        parse(program(100))
    # at the opener of level 101
    assert (e.value.line, e.value.col) == (1, len("bool b; main(){ " + prefix) + 100 * len(opener))


def test_undeclared_task_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse("main(){ p = newPhaser(); asynch(Nope, p); }")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="expected"):
        parse("main(){ p = newPhaser(); asynch(T, p); } T(a, b){ exit; }")


def test_unbound_phaser_variable_rejected():
    with pytest.raises(ParseError, match="before binding"):
        parse("main(){ signal(p); }")


def test_binding_in_conditional_does_not_escape():
    with pytest.raises(ParseError, match="before binding"):
        parse("main(){ if(ndet()){ p = newPhaser(); } signal(p); }")


def test_duplicate_asynch_args_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("main(){ p = newPhaser(); asynch(T, p, p); } T(a, b){ exit; }")


@pytest.mark.parametrize(
    "src, message",
    [
        ("main(){ b = true; exit; }", "undeclared Boolean 'b'"),
        ("main(){ assert(zz); }", "undeclared Boolean 'zz'"),
        ("bool a; main(){ while(a || q){ a = false; } }", "undeclared Boolean 'q'"),
        ("bool a, a; main(){ exit; }", "duplicate Boolean declaration 'a'"),
        ("bool p; main(){ p = newPhaser(); drop(p); }", "both a Boolean and a phaser"),
        (
            "bool p; main(){ q = newPhaser(); asynch(T, q); drop(q); } T(p){ drop(p); }",
            "task T: 'p' is both a Boolean and a phaser",
        ),
    ],
)
def test_boolean_misuse_rejected(src, message):
    with pytest.raises(ParseError, match=message):
        parse(src)


@pytest.mark.parametrize("inner", ["next(q){ }", "if(ndet()){ next(q){ a = true; } }"])
def test_barrier_block_inside_a_barrier_body_rejected(inner):
    src = f"bool a; main(){{ p = newPhaser(); q = newPhaser(); next(p){{ {inner} a = true; }} }}"
    with pytest.raises(ParseError, match="^task main: barrier block inside a barrier body$"):
        parse(src)


def test_phase_advance_inside_a_barrier_body_is_accepted():
    parse("bool a; main(){ p = newPhaser(); q = newPhaser(); next(p){ next(q); a = true; } }")


def test_atomic_program_is_info_not_error(tmp_path, capsys):
    src = tmp_path / "atomic.phz"
    src.write_text("main(){ p = newPhaser(); next(p){ } drop(p); }")
    assert validate(parse(src.read_text())) == []
    assert main(["parse", str(src)]) == 0
    assert capsys.readouterr().out == (
        "info: atomic program (next-with-body): exact symbolic engine unavailable\n"
        "ok: 1 tasks, 0 booleans, 1 phaser creation sites\n"
    )


# W declares p signal-only, but main registers it in the default mode
MODE_MISMATCH = (
    "main(){ p = newPhaser(); asynch(W, p); signal(p); drop(p); } W(p: SIG){ wait(p); drop(p); }"
)


def test_asynch_modes_must_match_the_declared_modes():
    message = "task main: asynch(W, ...) registers 'p' as SIG_WAIT, but W declares 'p' as SIG"
    assert validate(parse(MODE_MISMATCH, check=False)) == [message]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(MODE_MISMATCH)
    # a mode per argument, named in both directions
    with pytest.raises(ParseError, match=r"registers 'r' as WAIT, but W declares 's' as SIG_WAIT$"):
        parse("main(){ q = newPhaser(); r = newPhaser(); asynch(W, q, r:WAIT); } W(p, s){ }")
    parse("main(){ p = newPhaser(); asynch(W, p:sig); drop(p); } W(p: SIG){ drop(p); }")


def test_parse_seq_roundtrip():
    seq = parse_seq("signal(p); wait(p); drop(p);")
    assert [type(s) for s in seq] == [Signal, Wait, Drop]


def test_parse_seq_rejects_text_after_the_sequence():
    assert parse_seq("drop(p); ") == (Drop("p"),)
    for text, found in [
        ("drop(p); } signal(p);", "signal"),
        ("drop(p); }", "}"),
        ("} drop(p);", "drop"),
    ]:
        with pytest.raises(ParseError) as e:
            parse_seq(text)
        assert e.value.message == f"unexpected {found!r} after the sequence"


def test_statement_strings_reparse():
    from phasercheck.syntax import seq_to_str

    src = (
        "bool a; main(){ p = newPhaser(); while(!a || ndet()){ signal(p); "
        "a = ndet(); } wait(p); assert(a && a); drop(p); exit; }"
    )
    p = parse(src)
    assert parse_seq(seq_to_str(p.main.body)) == p.main.body
