"""End-to-end acceptance checks.

Each test exercises one advertised guarantee over the shipped corpus and
random samples, and prints a single PASS/FAIL summary line (bypassing
output capture so the lines appear in the run log).
"""

import random
import time

import pytest

from phasercheck.concrete import (
    AssertionViolation,
    Bounds,
    Configuration,
    CyclicWait,
    RegistrationError,
    canonical,
    explore,
    successors,
)
from phasercheck.engine import (
    BudgetExhausted,
    Reachable,
    Unreachable,
    check,
    validate_trace,
)
from phasercheck.pre import pre
from phasercheck.symbolic import INF, entails, models
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import (
    CORPUS,
    FINITE_PROGRAMS,
    INFINITE_PROGRAMS,
    load,
    rand_constraint,
    sample_model,
    strengthen,
)
from sandwich import (
    constraint_pool,
    explored_graph,
    one_step_cover_violations,
    one_step_usefulness_violations,
)
from oracles import (
    encode,
    encoding_entails,
    equivalent,
    preserves_freeness_check,
    shifted,
)

SEED = 20260823
USEFULNESS_SEEDS = (SEED, 1, 5)

# finite corpus programs the symbolic engine accepts (SIG_WAIT-only, no
# barrier blocks): the oracle-agreement set
ORACLE_PROGRAMS = [
    "sigwait_ok",
    "selfwait",
    "regerror_drop_signal",
    "drop_then_wait",
    "assert_fail",
    "assert_ok",
    "cross_deadlock",
    "assign_ndet",
    "assign_chain",
    "phase_loop",
    "producer_consumer_sw",
    "chain_spawn",
]

BUILDERS = {
    "assert": assertion_targets,
    "regerror": registration_error_targets,
    "cyclic": cyclic_wait_targets,
}

ERROR_OF = {
    "assert": AssertionViolation,
    "regerror": RegistrationError,
    "cyclic": CyclicWait,
}

# check's limits for plain, control and unrestricted reachability, as
# hashable (name, value) pairs
PLAIN = (("k", 2), ("b", 1))
CTRL = (("k", 2), ("b", INF))
UNRESTRICTED = (("k", INF), ("b", INF), ("budget", 800))


@pytest.fixture
def report(capsys):
    def _line(name, ok, detail):
        with capsys.disabled():
            print(
                f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                flush=True,
            )
        assert ok, f"{name}: {detail}"

    return _line


# verdicts shared between the oracle, termination, and trace criteria:
# (program, kind, limits) -> (result or "rejected", elapsed seconds)
_RUNS = {}


def _run(name, kind, limits):
    key = (name, kind, limits)
    if key not in _RUNS:
        program = load(name)
        targets = BUILDERS[kind](program)
        t0 = time.monotonic()
        if not targets:
            result = Unreachable(0)
        else:
            try:
                result = check(program, targets, **dict(limits))
            except ValueError:
                result = "rejected"
        _RUNS[key] = (result, time.monotonic() - t0)
    return _RUNS[key]


# ---------------------------------------------------------------------------
# 1. Oracle agreement: symbolic verdicts equal exhaustive-exploration
#    verdicts on every accepted finite corpus program


def test_c1_oracle_agreement(report):
    disagreements = []
    slow = []
    for name in ORACLE_PROGRAMS:
        program = load(name)
        res = explore(
            program,
            Bounds(max_steps=20000, max_tasks=4, max_phasers=4, max_phase=8),
        )
        assert res.exhausted, f"{name}: exploration hit a bound"
        for kind in ("assert", "regerror", "cyclic"):
            concrete = any(
                isinstance(err, ERROR_OF[kind]) for err, _ in res.errors
            )
            result, dt = _run(name, kind, PLAIN)
            if dt > 60:
                slow.append((name, kind, dt))
            symbolic = isinstance(result, Reachable)
            if result == "rejected" or symbolic != concrete:
                disagreements.append((name, kind, concrete, result))
    report(
        "oracle-agreement",
        not disagreements and not slow,
        f"{len(ORACLE_PROGRAMS)} programs x 3 properties, "
        f"{len(disagreements)} disagreements, {len(slow)} over 60s",
    )


# ---------------------------------------------------------------------------
# 2. Entailment soundness on sampled models


def test_c2_entailment_soundness(report):
    rng = random.Random(SEED)
    pool = range(4)  # sequence ids
    checked = 0
    bad = 0
    attempts = 0
    while checked < 10000 and attempts < 400000:
        attempts += 1
        pa = rand_constraint(rng, pool, max_tasks=2, max_phasers=2)
        pb = (
            strengthen(rng, pa, pool)
            if rng.random() < 0.7
            else rand_constraint(rng, pool, max_tasks=2, max_phasers=2)
        )
        if not entails(pa, pb):
            continue
        c = sample_model(rng, pb, pool, max_phase=4, extra_tasks=1)
        if c is None:
            continue
        checked += 1
        if not models(c, pa):
            bad += 1
    report(
        "entailment-soundness",
        checked >= 10000 and bad == 0,
        f"{checked} entailed (constraint, constraint, model) triples, "
        f"{bad} violations",
    )


# ---------------------------------------------------------------------------
# 3. Backward-transformer sandwich: exhaustive one-step cover over recorded
#    exploration graphs, sampled one-step usefulness, all statement kinds


SANDWICH_PROGRAMS = [
    "sigwait_ok",
    "selfwait",
    "regerror_drop_signal",
    "drop_then_wait",
    "assert_fail",
    "assign_ndet",
    "phase_loop",
    "cross_deadlock",
    "chain_spawn",
]

LOOP_EXIT_SRC = """
main(){
  p = newPhaser();
  while(ndet()){
    signal(p);
    wait(p);
  }
  drop(p);
  exit;
}
"""

REQUIRED_KINDS = {
    "NewPhaser",
    "Asynch",
    "Signal",
    "Wait",
    "Drop",
    "Assign",
    "Assert",
    "While",
    "If",
    "Exit",
}


def test_c3_pre_sandwich(report):
    from phasercheck.parser import parse

    programs = [(n, load(n)) for n in SANDWICH_PROGRAMS]
    programs.append(("loop_exit", parse(LOOP_EXIT_SRC)))
    cover_violations = []
    useful_violations = []
    kinds = set()
    n_constraints = 0
    edges_checked = 0
    models_checked = 0
    # the sampled usefulness half runs over more seeds than the
    # exhaustive cover half
    for seed in USEFULNESS_SEEDS:
        rng = random.Random(seed)
        for name, program in programs:
            pool = constraint_pool(rng, program, 95)
            if seed == SEED:
                res = explored_graph(
                    program, max_steps=400, max_tasks=4, max_phasers=3, max_phase=3
                )
                n_constraints += len(pool)
                for phi in pool:
                    if res.edges:
                        v, covered = one_step_cover_violations(program, phi, res)
                        cover_violations.extend((name,) + x for x in v)
                        edges_checked += covered
            for phi in pool[:30]:
                for stmt, _ in pre(phi, program):
                    kinds.add(type(stmt).__name__)
                v, n = one_step_usefulness_violations(rng, program, phi, samples=1)
                useful_violations.extend((name, seed) + tuple(map(str, x)) for x in v)
                models_checked += n
    missing = REQUIRED_KINDS - kinds
    ok = (
        n_constraints >= 1000
        and not cover_violations
        and not useful_violations
        and not missing
    )
    report(
        "pre-sandwich",
        ok,
        f"{n_constraints} constraints, {edges_checked} covered edges, "
        f"{models_checked} sampled models over seeds {USEFULNESS_SEEDS}, "
        f"{len(cover_violations)} cover "
        f"violations, {len(useful_violations)} usefulness violations, "
        f"missing kinds: {sorted(missing) or 'none'}",
    )


# ---------------------------------------------------------------------------
# 4. Termination over the whole corpus


def test_c4_termination(report):
    names = sorted(f.stem for f in CORPUS.glob("*.phz"))
    assert set(FINITE_PROGRAMS + INFINITE_PROGRAMS) <= set(names)
    over = []
    bad = []
    for name in names:
        for kind in ("assert", "regerror", "cyclic"):
            for limits in (PLAIN, CTRL):
                result, dt = _run(name, kind, limits)
                if dt > 300:
                    over.append((name, kind, limits, dt))
                if not (
                    result == "rejected"
                    or isinstance(result, (Reachable, Unreachable))
                ):
                    bad.append((name, kind, limits, result))
            result, dt = _run(name, kind, UNRESTRICTED)
            if dt > 300:
                over.append((name, kind, "unrestricted", dt))
            if not (
                result == "rejected"
                or isinstance(result, (Reachable, Unreachable, BudgetExhausted))
            ):
                bad.append((name, kind, "unrestricted", result))
    report(
        "termination",
        not over and not bad,
        f"{len(names)} programs x 3 properties x 3 strategies, "
        f"{len(over)} over the time limit, {len(bad)} bad outcomes",
    )


# ---------------------------------------------------------------------------
# 5. Backward steps from free constraints stay free


def test_c5_freeness_preservation(report):
    fired = []
    checked = 0
    for name in ORACLE_PROGRAMS:
        program = load(name)
        frontier = [
            phi
            for phi in assertion_targets(program)
            + registration_error_targets(program)
        ]
        for _ in range(2):
            nxt = []
            for phi in frontier[:40]:
                checked += 1
                viols = preserves_freeness_check(phi, program)
                if viols:
                    fired.append((name, phi, viols[:2]))
                    continue
                nxt.extend(psi for _, psi in pre(phi, program))
            frontier = nxt
    report(
        "freeness-preservation",
        checked > 0 and not fired,
        f"{checked} free constraints expanded, {len(fired)} violations",
    )


# ---------------------------------------------------------------------------
# 6. The packed encoding's entailment implies semantic entailment


def test_c6_encoding_soundness(report):
    rng = random.Random(SEED + 1)
    pool = range(3)  # sequence ids
    pairs = 0
    positives = 0
    bad = 0
    while pairs < 10000:
        pa = rand_constraint(rng, pool, max_tasks=2, max_phasers=2)
        pb = (
            strengthen(rng, pa, pool)
            if rng.random() < 0.5
            else rand_constraint(rng, pool, max_tasks=2, max_phasers=2)
        )
        if pa.n_phasers != pb.n_phasers:
            continue
        pairs += 1
        if encoding_entails(encode(pa), encode(pb)):
            positives += 1
            if not entails(pa, pb):
                bad += 1
    report(
        "encoding-soundness",
        pairs >= 10000 and positives > 500 and bad == 0,
        f"{pairs} pairs, {positives} encoding-entailed, {bad} violations",
    )


# ---------------------------------------------------------------------------
# 7. Per-phaser phase shifts preserve the step relation


def _step_signature(c, program):
    out = set()
    for t, stmt, choice, outcome in successors(c, program):
        if isinstance(outcome, Configuration):
            key = canonical(outcome, program)
        else:
            key = (type(outcome).__name__,) + tuple(
                getattr(outcome, name) for name in outcome.field_names
            )
        out.add((t, str(stmt), choice, key))
    return out


def test_c7_shift_equivalence(report):
    rng = random.Random(SEED + 2)
    sources = []
    for name in ["cross_deadlock", "producer_consumer_sw", "phase_loop", "chain_spawn"]:
        program = load(name)
        res = explore(
            program, Bounds(max_steps=2000, max_tasks=4, max_phasers=4, max_phase=6)
        )
        sources.extend((program, c) for c in res.configs if c.n_phasers)
    pairs = 0
    mismatches = 0
    while pairs < 1000:
        program, c = sources[rng.randrange(len(sources))]
        shifts = {p: rng.randint(0, 3) for p in range(c.n_phasers)}
        c2 = shifted(c, shifts)
        pairs += 1
        if not equivalent(c, c2):
            mismatches += 1
            continue
        if _step_signature(c, program) != _step_signature(c2, program):
            mismatches += 1
    report(
        "shift-equivalence",
        pairs >= 1000 and mismatches == 0,
        f"{pairs} shifted configuration pairs, {mismatches} step mismatches",
    )


# ---------------------------------------------------------------------------
# 8. Every reachability verdict carries a trace that replays concretely to
#    its property's error


def test_c8_trace_validity(report):
    assert _RUNS, "earlier criteria populate the run cache"
    n_traces = 0
    bad = []
    for (name, kind, limits), (result, _) in sorted(
        _RUNS.items(), key=lambda kv: str(kv[0])
    ):
        if not isinstance(result, Reachable):
            continue
        n_traces += 1
        failure = validate_trace(load(name), result, ERROR_OF[kind])
        if failure is not None:
            bad.append((name, kind, limits, failure))
    report(
        "trace-validity",
        n_traces > 0 and not bad,
        f"{n_traces} traces replayed, {len(bad)} failures",
    )
