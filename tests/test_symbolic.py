import pytest

from phasercheck.concrete import NREG as CONCRETE_NREG
from phasercheck.concrete import Configuration, Reg
from phasercheck.parser import parse
from phasercheck.symbolic import (
    ANY,
    FREE_BOUNDS,
    INF,
    OPT_FREE,
    Constraint,
    Gap,
    canonical_constraint,
    entails,
    fits,
    gap_leq,
    is_b_good,
    is_free,
    models,
)
from phasercheck.targets import (
    RecordFormatError,
    assertion_targets,
    constraint_to_text,
    cyclic_wait_targets,
    read_targets,
    registration_error_targets,
)

from conftest import CORPUS, load, rand_constraint, sample_model, strengthen
from oracles import (
    decode,
    encode,
    encoding_entails,
    entails_by_permutations,
    gap_valid,
    minimize,
    point_cyclic_wait_targets,
)

NREG = Gap(ANY, None)
FREE = Gap(ANY, FREE_BOUNDS)

# the sequences ``signal(p); wait(p);``, ``wait(p);``, ``drop(q);`` and
# (); random constraints pin their ids, which index ``POOL``
POOL_PROGRAM = parse("bool a, b; main(){ signal(p); wait(p); } T(){ drop(q); }", check=False)
POOL = POOL_PROGRAM.suffixes
IDS = range(len(POOL))


# ---------------------------------------------------------------------------
# Gap order


def test_gap_valid_rejects_bad_bounds():
    assert gap_valid(NREG)
    assert gap_valid(FREE)
    assert gap_valid(OPT_FREE)
    assert not gap_valid(Gap(ANY, (2, 0, 1, 0)))  # lower above upper
    assert not gap_valid(Gap(ANY, (0, 0, INF, 3)))  # mixed finite/infinite uppers
    assert not gap_valid(Gap(ANY, None, True))  # optional cells carry bounds


def test_gap_leq_var_wildcard():
    assert gap_leq(Gap(ANY, FREE_BOUNDS), Gap("p", FREE_BOUNDS))
    assert not gap_leq(Gap("p", FREE_BOUNDS), Gap(ANY, FREE_BOUNDS))
    assert not gap_leq(Gap("p", FREE_BOUNDS), Gap("q", FREE_BOUNDS))


def test_gap_leq_bounds_widening():
    tight = Gap(ANY, (1, 1, 2, 2))
    loose = Gap(ANY, (0, 1, 3, 2))
    assert gap_leq(loose, tight)
    assert not gap_leq(tight, loose)
    assert gap_leq(FREE, tight)
    assert not gap_leq(tight, FREE)


def test_gap_leq_registration_status():
    assert gap_leq(NREG, NREG)
    assert not gap_leq(NREG, FREE)
    assert not gap_leq(FREE, NREG)
    # an optional cell covers both branches
    assert gap_leq(OPT_FREE, NREG)
    assert gap_leq(OPT_FREE, FREE)
    assert gap_leq(OPT_FREE, OPT_FREE)
    assert gap_leq(OPT_FREE, Gap(ANY, (1, 2, 3, 4)))
    # certain or unregistered cells never cover the optional union
    assert not gap_leq(FREE, OPT_FREE)
    assert not gap_leq(NREG, OPT_FREE)
    # optional bounds still need to widen the covered registered branch
    assert not gap_leq(Gap(ANY, (1, 0, 2, 2), True), FREE)


def test_classification():
    free = Constraint((), (None,), ((FREE, NREG),), ((0, 0), (0, 0)))
    assert is_free(free)
    bounded = Constraint((), (None,), ((Gap(ANY, (0, 0, 1, 1)),),), ((0, 0),))
    assert not is_free(bounded)
    assert is_b_good(bounded, 1)
    assert not is_b_good(bounded, 0)
    opt_bounded = Constraint(
        (), (None,), ((Gap(ANY, (0, 0, 2, 2), True),),), ((0, 0),)
    )
    assert not is_free(opt_bounded) and is_b_good(opt_bounded, 2)


# ---------------------------------------------------------------------------
# Membership


def _cfg(cells, seqs=None, bv=()):
    """A configuration whose sequence ids index ``POOL``; its tasks are
    done unless ``seqs`` names their ids."""
    done = (POOL.index(()),) * len(cells)
    return Configuration(bv=bv, seqs=done if seqs is None else seqs, phases=tuple(cells))


def test_models_interval_on_single_cell():
    c = _cfg([(("q", Reg("SIG_WAIT", 0, 1)),)])
    phi = Constraint((), (None,), ((Gap(ANY, (0, 1, 0, 1)),),), ((0, 0),))
    assert models(c, phi)  # level 0: l-w = 0, s-l = 1
    loose = Constraint((), (None,), ((Gap(ANY, (1, 0, 1, 0)),),), ((0, 0),))
    assert models(c, loose)  # level 1: l-w = 1, s-l = 0
    too_tight = Constraint((), (None,), ((Gap(ANY, (2, 0, 2, 0)),),), ((0, 0),))
    assert not models(c, too_tight)  # level 2 would put s below the level


def test_models_checks_variable_name_even_when_unregistered():
    c = _cfg([(("q", CONCRETE_NREG),)])
    pinned = Constraint((), (None,), ((Gap("q", None),),), ((0, 0),))
    other = Constraint((), (None,), ((Gap("r", None),),), ((0, 0),))
    assert models(c, pinned)
    assert not models(c, other)


def test_models_optional_cell_accepts_both_statuses():
    phi = Constraint((), (None,), ((OPT_FREE,),), ((0, 0),))
    assert models(_cfg([(("q", CONCRETE_NREG),)]), phi)
    assert models(_cfg([(("q", Reg("SIG_WAIT", 2, 5)),)]), phi)


def test_models_env_lower_bounds():
    # an untracked second task must satisfy the environment gap bounds;
    # pinned control sequences keep it from doubling up on the tracked row
    seq_a, seq_b = 0, 1
    phi = Constraint(
        (), (seq_a,), ((Gap(ANY, (0, 0, 0, 0)),),), ((1, 0),)
    )
    ok = _cfg(
        [(("q", Reg("SIG_WAIT", 2, 2)),), (("r", Reg("SIG_WAIT", 1, 2)),)],
        seqs=(seq_a, seq_b),
    )
    assert models(ok, phi)  # level 2; env wait 1 <= 2 - 1
    bad = _cfg(
        [(("q", Reg("SIG_WAIT", 2, 2)),), (("r", Reg("SIG_WAIT", 2, 2)),)],
        seqs=(seq_a, seq_b),
    )
    assert not models(bad, phi)  # env wait at the level violates ew = 1


def test_sampled_configs_model_their_constraint(rng):
    hits = 0
    for _ in range(400):
        phi = rand_constraint(rng, IDS)
        c = sample_model(rng, phi, IDS)
        if c is None:
            continue
        hits += 1
        assert models(c, phi)
    assert hits > 100


# ---------------------------------------------------------------------------
# Entailment


def _strengthen(rng, phi):
    return strengthen(rng, phi, IDS)


def test_entails_accepts_shape_preserving_strengthenings(rng):
    for _ in range(300):
        pa = rand_constraint(rng, IDS)
        pb = _strengthen(rng, pa)
        assert entails(pa, pb)


def test_entails_soundness_on_samples(rng):
    checked = 0
    for _ in range(1500):
        pa = rand_constraint(rng, IDS)
        pb = _strengthen(rng, pa) if rng.random() < 0.6 else rand_constraint(rng, IDS)
        if not entails(pa, pb):
            continue
        for _ in range(4):
            c = sample_model(rng, pb, IDS)
            if c is None:
                continue
            checked += 1
            assert models(c, pa), (pa, pb, c)
    assert checked > 200


def _with_cell(phi, t, p, g):
    row = phi.gaps[t][:p] + (g,) + phi.gaps[t][p + 1 :]
    return Constraint(phi.bv, phi.seqs, phi.gaps[:t] + (row,) + phi.gaps[t + 1 :], phi.egaps)


def _certain_cells(phi):
    return [
        (t, p)
        for t, row in enumerate(phi.gaps)
        for p, g in enumerate(row)
        if g.bounds is not None and not g.opt
    ]


def _raised(phi, d):
    # every bound of every registered cell raised by d: sums of lower
    # bounds then exceed what a summary field holds, so summaries clamp
    rows = tuple(
        tuple(g if g.bounds is None else Gap(g.var, tuple(x + d for x in g.bounds), g.opt) for g in row)
        for row in phi.gaps
    )
    return Constraint(phi.bv, phi.seqs, rows, phi.egaps)


def _pair(rng, kind):
    if kind == "no phasers":
        pa = rand_constraint(rng, IDS, bool_count=1, max_phasers=0)
        return pa, rand_constraint(rng, IDS, bool_count=1, max_phasers=rng.choice((0, 2)))
    if kind == "twin columns":
        # both columns of a fit only the first column of b, so only a map
        # sending both to it, which is not injective, would entail
        pa = rand_constraint(rng, IDS, bool_count=1, max_phasers=1)
        pb = _strengthen(rng, pa)
        if not pa.n_phasers:
            return pa, pb
        env = (max(1, pb.egaps[0][0]), max(1, pb.egaps[0][1]))
        twin = Constraint(pa.bv, pa.seqs, tuple(row * 2 for row in pa.gaps), (env, env))
        return twin, Constraint(pb.bv, pb.seqs, tuple(row + (NREG,) for row in pb.gaps), (env, (0, 0)))
    pa = rand_constraint(rng, IDS, bool_count=1, max_phasers=3)
    if kind in ("mixed", "large bounds") and rng.random() < 0.5:
        pb = rand_constraint(rng, IDS, bool_count=1, max_phasers=3)
    else:
        pb = _strengthen(rng, pa)
    if kind == "undominated" and pa.n_phasers:
        # one of a's environment bounds above those of every column of b
        top = max(max(e) for e in pb.egaps) + 1
        pa = Constraint(pa.bv, pa.seqs, pa.gaps, ((top, top),) + pa.egaps[1:])
    cells = _certain_cells(pb)
    if kind == "optional witness" and cells:
        # one certain cell of b made optional: b loses a certain cell that
        # a certain cell of a may have needed
        t, p = rng.choice(cells)
        g = pb.gaps[t][p]
        pb = _with_cell(pb, t, p, Gap(g.var, g.bounds, True))
    if kind == "lowered bound":
        # one lower bound of b dropped below a's, where both cells are certain
        certain_a = set(_certain_cells(pa))
        cells = [
            (t, p, i)
            for t, p in cells
            if (t, p) in certain_a
            for i in (0, 1)
            if pa.gaps[t][p].bounds[i]
        ]
        if cells:
            t, p, i = rng.choice(cells)
            g = pb.gaps[t][p]
            bounds = list(g.bounds)
            bounds[i] = pa.gaps[t][p].bounds[i] - 1
            pb = _with_cell(pb, t, p, Gap(g.var, tuple(bounds)))
    if kind == "large bounds":
        pa, pb = _raised(pa, 40), _raised(pb, 40)
    return pa, pb


KINDS = [
    "mixed",
    "undominated",
    "twin columns",
    "no phasers",
    "optional witness",
    "lowered bound",
    "large bounds",
]


# a pins a sequence that b does not: no row of b may witness a's row
UNPINNED = (Constraint((), (0,), ((),), ()), Constraint((), (1,), ((),), ()))


@pytest.mark.parametrize("kind", KINDS)
def test_entails_agrees_with_every_phaser_map(kind, rng):
    # pruning phaser maps gives the answer of trying every injective map
    assert entails(*UNPINNED) is entails_by_permutations(*UNPINNED) is False
    answers = []
    for _ in range(400):
        pa, pb = _pair(rng, kind)
        got = entails(pa, pb)
        assert got == entails_by_permutations(pa, pb), (pa, pb)
        if kind in ("undominated", "twin columns") and pa.n_phasers:
            assert not got
        answers.append(got)
    assert 0 < sum(answers) < len(answers)


@pytest.mark.parametrize("kind", KINDS)
def test_summaries_of_an_entailing_pair_fit(kind, rng):
    # the summaries entails and the store compare before any phaser map
    # are necessary: no pair the oracle accepts fails one of them
    accepted = 0
    for _ in range(400):
        pa, pb = _pair(rng, kind)
        if not entails_by_permutations(pa, pb):
            continue
        accepted += 1
        sa, sb = pa.summary, pb.summary
        assert fits(sa[0], sb[0]), (pa, pb)
        rows_b, cols_b = sb[1 : 1 + pb.n_tasks], sb[1 + pb.n_tasks :]
        for ra in sa[1 : 1 + pa.n_tasks]:
            assert any(fits(ra, rb) for rb in rows_b), (pa, pb)
        for ca in sa[1 + pa.n_tasks :]:
            assert any(fits(ca, cb) for cb in cols_b), (pa, pb)
    assert accepted > 20


def test_summary_counts_and_clamps():
    certain = Gap(ANY, (40, 2, 45, 3))
    phi = Constraint((), (None, None), ((certain, NREG), (OPT_FREE, certain)), ((0, 0), (0, 0)))
    total, row0, row1, col0, col1 = phi.summary
    # fields, high to low: lw sum, ls sum, finite, unregistered, certain
    assert row0 == (31 << 24) | (2 << 18) | (1 << 12) | (1 << 6) | 1
    assert row1 == col0 == (31 << 24) | (2 << 18) | (1 << 12) | 1
    assert col1 == row0 and total == ((31 << 24 | 4 << 18 | 2 << 12 | 1 << 6 | 2) << 12) | (2 << 6) | 2
    assert fits(row1, row0) and not fits(row0, row1)


def test_entails_absorbs_env_compatible_extra_rows(rng):
    for _ in range(100):
        pa = rand_constraint(rng, IDS, max_tasks=2)
        ew_es = pa.egaps
        extra = tuple(
            Gap(ANY, (ew, es, INF, INF)) for ew, es in ew_es
        )
        pb = Constraint(
            pa.bv, pa.seqs + (None,), pa.gaps + (extra,), pa.egaps
        )
        assert entails(pa, pb)


def test_entails_rejects_unabsorbable_extra_row():
    row = Gap(ANY, (1, 0, INF, INF))
    pa = Constraint((), (None,), ((row,),), ((1, 0),))
    # the extra row's wait sits at the level, violating both the tracked
    # row's lower bound and the environment bound ew = 1
    pb = Constraint(
        (), (None, None), ((row,), (Gap(ANY, (0, 0, 0, 0)),)), ((1, 0),)
    )
    assert not entails(pa, pb)


def test_minimize_yields_an_antichain(rng):
    cs = [rand_constraint(rng, IDS) for _ in range(120)]
    kept = minimize(cs)
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            if i != j:
                assert not entails(a, b)
    # coverage: every dropped constraint is entailed by a kept one
    for phi in cs:
        assert any(entails(psi, phi) for psi in kept)


# ---------------------------------------------------------------------------
# Encodings


def test_encode_decode_round_trip(rng):
    for _ in range(200):
        phi = rand_constraint(rng, IDS)
        assert decode(encode(phi)) == phi


def test_encoding_entails_implies_entails(rng):
    hits = 0
    for _ in range(2000):
        pa = rand_constraint(rng, IDS, max_tasks=2)
        pb = _strengthen(rng, pa) if rng.random() < 0.5 else rand_constraint(
            rng, IDS, max_tasks=2
        )
        if pa.n_phasers != pb.n_phasers:
            continue
        if encoding_entails(encode(pa), encode(pb)):
            hits += 1
            assert entails(pa, pb)
    assert hits > 100


# ---------------------------------------------------------------------------
# Canonical form and serialization

NO_BOOLS = parse("main(){ exit; }")
BOOL_A = parse("bool a; main(){ exit; }")


def test_canonical_constraint_preserves_meaning(rng):
    for _ in range(150):
        phi = rand_constraint(rng, IDS)
        canon = canonical_constraint(phi)
        assert entails(phi, canon) and entails(canon, phi)
        # idempotent: canonicalizing again gives an equal constraint
        assert canonical_constraint(canon) == canonical_constraint(phi)


def read_constraints(text, program) -> list:
    """The constraints of a target file whose records all pin sequences
    the program reaches."""
    left_out = []
    out = read_targets(text, program, left_out)
    assert left_out == []
    return out


def test_serialization_round_trip(rng):
    for _ in range(150):
        phi = rand_constraint(rng, IDS, bool_count=2)
        text = constraint_to_text(phi, POOL_PROGRAM)
        [back] = read_constraints(text, POOL_PROGRAM)
        assert back == phi
    # every target of every corpus program, and every point of its
    # cyclic-wait targets, through its own tables
    checked = 0
    for path in sorted(CORPUS.glob("*.phz")):
        program = load(path.stem)
        for targets in (
            assertion_targets(program),
            registration_error_targets(program),
            cyclic_wait_targets(program, 2, 1),
            point_cyclic_wait_targets(program, 2, 1),
        ):
            for phi in targets:
                [back] = read_constraints(constraint_to_text(phi, program), program)
                assert back == phi, (path.stem, phi)
                checked += 1
    assert checked > 500


def test_serialization_keeps_optional_marker():
    phi = Constraint((), (None,), ((OPT_FREE, NREG),), ((0, 0), (1, 2)))
    text = constraint_to_text(phi, NO_BOOLS)
    assert "opt" in text and "nreg" in text
    [back] = read_constraints(text, NO_BOOLS)
    assert back.gaps[0][0].opt
    assert back.gaps[0][1].bounds is None


def test_parse_constraints_rejects_malformed():
    with pytest.raises(RecordFormatError):
        read_constraints("constraint {\n  tasks 1\n}", NO_BOOLS)
    with pytest.raises(RecordFormatError):
        read_constraints("constraint {\n  tasks 1\n  phasers 0\n", NO_BOOLS)
    with pytest.raises(RecordFormatError):
        read_constraints(
            "constraint {\n  tasks 1\n  phasers 1\n  gap t0 p0 var=* lw=2 ls=0 uw=1 us=0\n}",
            NO_BOOLS,
        )
    # each line below, inside an otherwise valid one-task one-phaser record
    for line in (
        "tasks",
        "gap t0",
        'seq t0 "wait(p"',
        "tasks inf",
        "gap t3 p0 var=p nreg",
        "gap t0 p0 var=p",
        "env p0 ew=inf es=0",
        "bv a=maybe",
        # bad gap bounds, at the gap's own line
        "gap t0 p0 var=p lw=2 ls=0 uw=1 us=0",
        "gap t0 p0 var=p lw=0 ls=1 uw=1 us=0",
        "gap t0 p0 var=p lw=0 ls=0 uw=inf us=3",
        # a statement made twice
        "tasks 1",
        "bv a=true a=false",
    ):
        text = f"constraint {{\n  tasks 1\n  phasers 1\n  {line}\n}}"
        with pytest.raises(RecordFormatError, match=r"^line 4: "):
            read_constraints(text, BOOL_A)


def test_unspecified_cells_parse_as_optional_free():
    [phi] = read_constraints("constraint {\n  tasks 1\n  phasers 1\n}", NO_BOOLS)
    assert phi.gaps[0][0] == OPT_FREE
