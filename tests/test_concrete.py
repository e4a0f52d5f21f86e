import pytest

from phasercheck.concrete import (
    NREG,
    AssertionViolation,
    Bounds,
    Configuration,
    Reg,
    RegistrationError,
    apply_step,
    canonical,
    cyclic_waits,
    enabled_steps,
    explore,
    initial_config,
    successors,
)
from phasercheck.parser import parse, parse_seq
from phasercheck.syntax import And, BoolLit, BoolVar, Ndet, Not, Or, cond_outcomes

from conftest import explored, load
from oracles import (
    PartialConfiguration,
    cond_outcomes_by_bits,
    equivalent,
    includes,
    is_well_formed,
    shifted,
)


def run_to_end(prog, prefer=None):
    """Deterministically run a choice-free single-path program."""
    c = initial_config(prog)
    while True:
        steps = enabled_steps(c, prog)
        if not steps:
            return c
        t, head = steps[0]
        out = apply_step(c, prog, t, (prefer,) if prefer is not None else ())
        if not isinstance(out, Configuration):
            return out
        c = out


def test_initial_config():
    p = parse("bool a; main(){ exit; }")
    c = initial_config(p)
    assert c.bv == (False,)
    assert c.n_tasks == 1 and c.n_phasers == 0


def test_new_phaser_registers_creator_at_zero():
    p = parse("main(){ q = newPhaser(); exit; }")
    c = apply_step(initial_config(p), p, 0)
    assert c.phases[0][0] == ("q", Reg("SIG_WAIT", 0, 0))


def test_new_phaser_rebinds_variable():
    p = parse("main(){ q = newPhaser(); q = newPhaser(); exit; }")
    c = apply_step(apply_step(initial_config(p), p, 0), p, 0)
    # the old phaser keeps the registration but loses the name
    assert c.phases[0][0][0] == "-"
    assert c.phases[0][0][1] == Reg("SIG_WAIT", 0, 0)
    assert c.phases[0][1][0] == "q"


def test_signal_then_wait_passes():
    p = parse("main(){ q = newPhaser(); signal(q); wait(q); drop(q); }")
    c = run_to_end(p)
    assert isinstance(c, Configuration)
    assert p.suffixes[c.seqs[0]] == ()
    assert c.phases[0][0] == ("q", NREG)


def test_wait_blocks_on_own_signal():
    p = parse("main(){ q = newPhaser(); wait(q); }")
    c = apply_step(initial_config(p), p, 0)
    assert enabled_steps(c, p) == []
    assert cyclic_waits(c, p) == (0,)


def test_cyclic_waits_follows_every_out_edge():
    # t0 is blocked by t1 and t2 on a; t1 only by the finished t3 on b;
    # t2 by t0 on c.  The cycle t0 -> t2 -> t0 leaves through t0's
    # second out-edge.
    p = parse("main(){ exit; } A(a){ wait(a); } B(b){ wait(b); } C(c){ wait(c); }")
    na = ("-", NREG)
    c = Configuration(
        bv=(),
        seqs=tuple(p.seq_ids[parse_seq(s)] for s in ("wait(a);", "wait(b);", "wait(c);", "")),
        phases=(
            (("a", Reg("SIG_WAIT", 1, 2)), na, ("c", Reg("SIG_WAIT", 0, 1))),
            (("a", Reg("SIG_WAIT", 0, 1)), ("b", Reg("SIG_WAIT", 1, 2)), na),
            (("a", Reg("SIG_WAIT", 0, 1)), na, ("c", Reg("SIG_WAIT", 1, 2))),
            (na, ("b", Reg("SIG_WAIT", 0, 1)), na),
        ),
    )
    assert is_well_formed(c)
    assert cyclic_waits(c, p) == (0, 2)


def test_signal_on_dropped_phaser_is_registration_error():
    p = parse("main(){ q = newPhaser(); drop(q); signal(q); }")
    out = run_to_end(p)
    assert out == RegistrationError(0, "signal", "q")


def test_failed_assert_is_violation():
    p = parse("bool a; main(){ assert(a); }")
    out = apply_step(initial_config(p), p, 0, False)
    assert out == AssertionViolation(0)


def test_asynch_copies_phase_and_mode_projection():
    p = parse(
        "main(){ q = newPhaser(); signal(q); asynch(T, q:SIG); exit; }"
        "T(r:SIG){ signal(r); drop(r); }"
    )
    c = initial_config(p)
    for _ in range(3):
        c = apply_step(c, p, 0)
    assert c.n_tasks == 2
    assert c.phases[1][0] == ("r", Reg("SIG", None, 1))


def test_asynch_mode_escalation_is_registration_error():
    p = parse(
        "main(){ q = newPhaser(); asynch(T, q:SIG); asynch(U, q); exit; }"
        "T(r:SIG){ asynch(U, r); drop(r); }"
        "U(r){ drop(r); }"
    )
    c = apply_step(initial_config(p), p, 0)
    c = apply_step(c, p, 0)  # spawn T with SIG registration
    # T asking for the default SIG_WAIT mode exceeds its own SIG grant
    out = apply_step(c, p, 1)
    assert out == RegistrationError(1, "asynch", "r")


def test_wait_mode_holds_no_signal():
    p = parse(
        "main(){ q = newPhaser(); asynch(T, q:WAIT); signal(q); wait(q); exit; }"
        "T(r:WAIT){ wait(r); drop(r); }"
    )
    c = apply_step(initial_config(p), p, 0)
    c = apply_step(c, p, 0)
    assert c.phases[1][0][1] == Reg("WAIT", 0, None)
    # main's wait is not blocked by the WAIT-mode task
    c = apply_step(c, p, 0)  # signal
    assert (0, p.heads[c.seqs[0]]) in enabled_steps(c, p)


def test_exit_keeps_registrations():
    p = parse("main(){ q = newPhaser(); exit; }")
    c = apply_step(apply_step(initial_config(p), p, 0), p, 0)
    assert p.suffixes[c.seqs[0]] == ()
    assert c.phases[0][0][1] == Reg("SIG_WAIT", 0, 0)


def test_barrier_block_runs_body_atomically():
    p = load("barrier_block")
    res = explore(p, Bounds(max_steps=2000, max_tasks=2, max_phasers=1, max_phase=3))
    assert res.exhausted
    # the assertion after the barrier never fails: the barrier body
    # establishes a before any participant resumes
    assert not any(isinstance(e, AssertionViolation) for e, _ in res.errors)
    assert any(c.atomic is not None for c in res.configs)


def test_step_preserves_well_formedness():
    for name in ("cross_deadlock", "assert_race", "phase_loop"):
        res = explored(name, max_steps=3000, max_tasks=3, max_phasers=3, max_phase=3)
        assert all(is_well_formed(c) for c in res.configs)


def test_well_formedness_binds_a_variable_to_one_phaser():
    # newPhaser unbinds the variable's old phaser and spawn formals are
    # distinct, so no reachable task names two phasers with one variable
    reg = Reg("SIG_WAIT", 0, 1)
    seqs = (parse("main(){ p = newPhaser(); wait(p); }").seq_ids[parse_seq("wait(p);")],)
    assert is_well_formed(Configuration(bv=(), seqs=seqs, phases=((("p", reg), ("-", reg)),)))
    for other in (("p", reg), ("p", NREG)):
        twice = Configuration(bv=(), seqs=seqs, phases=((("p", reg), other),))
        assert not is_well_formed(twice)


def test_explore_finds_expected_errors():
    kinds = lambda name, **kw: {type(e).__name__ for e, _ in explored(name, **kw).errors}
    bounds = dict(max_steps=3000, max_tasks=3, max_phasers=3, max_phase=3)
    assert kinds("selfwait", **bounds) == {"CyclicWait"}
    assert kinds("cross_deadlock", **bounds) == {"CyclicWait"}
    assert kinds("regerror_drop_signal", **bounds) == {"RegistrationError"}
    assert kinds("assert_race", **bounds) == {"AssertionViolation"}
    assert kinds("assert_sync", **bounds) == set()
    assert kinds("sigwait_ok", **bounds) == set()


def test_explore_exhausts_finite_programs():
    for name in ("sigwait_ok", "assert_sync", "cross_deadlock", "phase_loop"):
        assert explored(name, max_steps=3000, max_tasks=3, max_phasers=3, max_phase=3).exhausted


def test_includes_matches_up_to_renaming():
    p = parse("main(){ q = newPhaser(); signal(q); exit; }")
    c = apply_step(apply_step(initial_config(p), p, 0), p, 0)
    pc = PartialConfiguration(
        bv=(),
        seqs=(None,),
        phase=((("*", (0, 1)),),),
    )
    assert includes(c, pc, p.suffixes)
    pc_wrong = PartialConfiguration(bv=(), seqs=(None,), phase=((("*", (1, 1)),),))
    assert not includes(c, pc_wrong, p.suffixes)
    pc_nreg = PartialConfiguration(bv=(), seqs=(None,), phase=((("*", "nreg"),),))
    assert not includes(c, pc_nreg, p.suffixes)


def test_equivalent_modulo_shift_and_renaming():
    p = parse("main(){ q = newPhaser(); signal(q); wait(q); drop(q); }")
    c = apply_step(apply_step(initial_config(p), p, 0), p, 0)
    assert equivalent(c, shifted(c, {0: 3}))
    assert not equivalent(c, apply_step(c, p, 0))


def test_canonical_is_equivalence_invariant():
    p = parse("main(){ q = newPhaser(); signal(q); wait(q); drop(q); }")
    c = apply_step(apply_step(initial_config(p), p, 0), p, 0)
    assert canonical(c, p) == canonical(shifted(c, {0: 2}), p)


def test_successors_cover_all_choices():
    p = parse("bool a; main(){ a = ndet(); assert(a); }")
    outs = successors(initial_config(p), p)
    values = {out.bv[0] for _, _, _, out in outs if isinstance(out, Configuration)}
    assert values == {False, True}


def _rand_cond(rng, ndets, depth=3):
    """A condition over a, b and true/false with at most ``ndets[0]``
    ndet() occurrences, which it uses up."""
    if depth == 0 or rng.random() < 0.3:
        if ndets[0] and rng.random() < 0.5:
            ndets[0] -= 1
            return Ndet()
        return rng.choice([BoolVar("a"), BoolVar("b"), BoolLit(True), BoolLit(False)])
    if rng.random() < 0.3:
        return Not(_rand_cond(rng, ndets, depth - 1))
    op = rng.choice([And, Or])
    return op(_rand_cond(rng, ndets, depth - 1), _rand_cond(rng, ndets, depth - 1))


def test_cond_outcomes_match_the_ndet_bit_enumeration(rng):
    seen = set()
    for _ in range(500):
        budget = rng.randint(0, 4)
        ndets = [budget]
        cond = _rand_cond(rng, ndets)
        seen.add(budget - ndets[0])
        for a in (False, True):
            for b in (False, True):
                env = {"a": a, "b": b}
                assert cond_outcomes(cond, env) == cond_outcomes_by_bits(cond, env), str(cond)
    assert seen == {0, 1, 2, 3, 4}


def test_a_condition_head_needs_its_value():
    p = parse("bool a; main(){ if(a){ exit; } }")
    with pytest.raises(TypeError):
        apply_step(initial_config(p), p, 0)


def steps_of(prog, n):
    """The configuration after ``n`` steps of main (task 0)."""
    c = initial_config(prog)
    for _ in range(n):
        c = apply_step(c, prog, 0)
    return c


@pytest.mark.parametrize(
    "src,error",
    [
        (
            "main(){ q = newPhaser(); asynch(T, q:WAIT); exit; } T(r:WAIT){ signal(r); drop(r); }",
            RegistrationError(1, "signal", "r"),
        ),
        (
            "main(){ q = newPhaser(); asynch(T, q:SIG); exit; } T(r:SIG){ wait(r); drop(r); }",
            RegistrationError(1, "wait", "r"),
        ),
        ("main(){ q = newPhaser(); drop(q); next(q){ } }", RegistrationError(0, "next", "q")),
    ],
    ids=["signal-in-wait-mode", "wait-in-sig-mode", "next-after-drop"],
)
def test_command_without_its_registration_is_an_error(src, error):
    # the command is enabled and steps to the error, not blocked
    assert run_to_end(parse(src)) == error


def test_empty_barrier_releases_every_participant():
    p = parse(
        "main(){ q = newPhaser(); asynch(U); asynch(T, q); next(q){ } drop(q); }"
        "T(r){ next(r){ } drop(r); } U(){ exit; }"
    )
    c = steps_of(p, 3)  # U is registered on nothing
    assert [t for t, _ in enabled_steps(c, p)] == [0, 1, 2]
    out = apply_step(c, p, 0)
    assert p.suffixes[out.seqs[0]] == parse_seq("signal(q); wait(q); drop(q);")
    assert p.suffixes[out.seqs[2]] == parse_seq("signal(r); wait(r); drop(r);")
    assert out.seqs[1] == c.seqs[1] and out.atomic is None


def test_barrier_fires_only_when_every_participant_is_at_it():
    main = "main(){ q = newPhaser(); asynch(T, q); next(q){ a = true; } drop(q); }"
    for task in (
        "T(r){ next(r){ a = false; } drop(r); }",  # a different body
        "T(r){ signal(r); next(r){ a = true; } drop(r); }",  # not at a barrier yet
    ):
        p = parse("bool a; " + main + task)
        c = steps_of(p, 2)
        assert (0, p.heads[c.seqs[0]]) not in enabled_steps(c, p)
    p = parse(
        "bool a; main(){ q = newPhaser(); s = newPhaser(); asynch(T, q, s); next(q){ a = true; } }"
        "T(r, u){ next(u){ a = true; } drop(r); drop(u); }"
    )
    c = steps_of(p, 3)  # T sits at a barrier of the other phaser
    assert enabled_steps(c, p) == []


def test_an_exit_in_a_barrier_body_ends_the_atomic_section():
    # main exits inside its barrier body; W, registered on nothing, must
    # step again and see a = true
    p = parse("bool a; main(){ p = newPhaser(); asynch(W); next(p){ a = true; exit; } } W(){ assert(!a); }")
    c = steps_of(p, 3)  # newPhaser, asynch, next: main holds the body
    assert c.atomic == 0
    c = apply_step(apply_step(c, p, 0, True), p, 0)  # a = true; exit;
    assert p.suffixes[c.seqs[0]] == () and c.atomic is None
    assert [t for t, _ in enabled_steps(c, p)] == [1]
    res = explore(p, Bounds())
    assert res.exhausted and len(res.configs) == 10
    assert res.errors == [(AssertionViolation(1), 8)]


def test_explore_is_not_exhausted_when_a_bound_cuts():
    assert not explored("chain_spawn", max_steps=3).exhausted
    assert not explored("chain_spawn", max_tasks=2).exhausted
    loop = parse("main(){ q = newPhaser(); while(true){ signal(q); } }")
    assert not explore(loop, Bounds(max_phase=3)).exhausted
