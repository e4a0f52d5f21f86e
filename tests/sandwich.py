"""Shared machinery for exercising the backward-transformer sandwich.

For a constraint phi, the union of ``pre`` outputs must

* cover every one-step predecessor: whenever a recorded exploration edge
  lands in a model of phi, its source models some emitted predecessor for
  that statement (checked exhaustively over the recorded graph), and
* contain only useful constraints: a sampled model of an emitted
  predecessor can fire the emitting statement straight into a model of
  phi (checked on random samples, one step deep).
"""

from phasercheck.concrete import (
    Bounds,
    Configuration,
    apply_step,
    enabled_steps,
    explore,
    step_choices,
)
from phasercheck.pre import pre
from phasercheck.symbolic import models
from phasercheck.syntax import NO_VAR, Drop, NewPhaser, Signal, Wait
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import rand_constraint, sample_model
from oracles import minimize


def seq_pool_of(program):
    """The program's sequence ids in the text order of their sequences."""
    return sorted(range(len(program.suffixes)), key=program.text_ranks.__getitem__)


def phaser_vars_of(program):
    vars_ = set()
    for seq in program.suffixes:
        if seq and isinstance(seq[0], (Signal, Wait, Drop, NewPhaser)):
            vars_.add(seq[0].var)
    return sorted(vars_) or ["p"]


def constraint_pool(rng, program, n_random, max_tasks=2, max_phasers=2):
    """Target constraints of all three classes, each class reduced to an
    antichain so that redundant targets do not crowd out the rest, plus
    random constraints over the program's control suffixes and phaser
    variables."""
    pool = []
    for build in (assertion_targets, registration_error_targets, cyclic_wait_targets):
        pool.extend(minimize(build(program)))
    seq_pool = seq_pool_of(program)
    vars_ = phaser_vars_of(program) + [NO_VAR]  # unbound cells too
    for _ in range(n_random):
        pool.append(
            rand_constraint(
                rng,
                seq_pool,
                bool_count=len(program.bool_vars),
                max_tasks=max_tasks,
                max_phasers=max_phasers,
                vars=vars_,
            )
        )
    return pool


def _preds_by_stmt(phi, program):
    preds = {}
    for stmt, psi in pre(phi, program):
        preds.setdefault(str(stmt), []).append(psi)
    return preds


def one_step_cover_violations(program, phi, res):
    """Exhaustive lower half over a recorded exploration graph: every edge
    into a model of phi must start in a model of some emitted predecessor
    for the edge's statement.  Returns (violating edges, edges checked)."""
    preds = _preds_by_stmt(phi, program)
    post_cache = {}
    violations = []
    covered = 0
    for src, t, stmt_str, dst in res.edges:
        hit = post_cache.get(dst)
        if hit is None:
            hit = post_cache[dst] = models(res.configs[dst], phi)
        if not hit:
            continue
        covered += 1
        c_src = res.configs[src]
        if not any(models(c_src, psi) for psi in preds.get(stmt_str, ())):
            violations.append((src, t, stmt_str, dst))
    return violations, covered


def _one_step_reaches(program, c, stmt, phi):
    for t, head in enabled_steps(c, program):
        if head != stmt:
            continue
        for value in step_choices(c, program, head):
            out = apply_step(c, program, t, value)
            if isinstance(out, Configuration) and models(out, phi):
                return True
    return False


def one_step_usefulness_violations(rng, program, phi, samples=2):
    """Sampled upper half, one step deep: a model of an emitted
    predecessor must fire the statement into a model of phi.  Returns
    (violations, models checked)."""
    seq_pool = seq_pool_of(program)
    nb = len(program.bool_vars)
    violations = []
    checked = 0
    for stmt, psi in pre(phi, program):
        for _ in range(samples):
            c = sample_model(rng, psi, seq_pool, bool_count=nb)
            if c is None:
                continue
            checked += 1
            if not _one_step_reaches(program, c, stmt, phi):
                violations.append((str(stmt), psi, c))
    return violations, checked


def explored_graph(program, **kw):
    return explore(program, Bounds(**kw), record_graph=True)
