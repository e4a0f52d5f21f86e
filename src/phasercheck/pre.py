"""Backward predecessor transformers over symbolic constraints.

``pre`` computes, for a constraint and every possible executing task (each
tracked task plus one fresh environment task), the constraints describing
the configurations that reach a model of the input in one statement step.
The union is exact up to transitive statement steps: it contains all
one-step predecessors and every model of an output reaches a model of the
input.
Each transformer builds valid constraints from a valid one (shifted lower
bounds clamp at 0, uppers move with their lowers, and merged bounds that
cross drop the candidate), so ``pre`` does not re-validate its output.
Each rule is stated once: ``_columns`` picks the columns a phaser
command may act on, ``_pre_cond`` pins the Booleans that a guard, an
assert or an assignment reads, and ``_env_row`` is the row of an
untracked task, whether it executes the step or is spawned by it.
The control steps are the program's id tables: a head statement
(``Program.heads``) steps to each of its ``Program.next_ids``, a
condition's taken branch first.  Constraints name control sequences by
those ids, so ``pre`` unfolds, hashes and compares no sequence itself.
Given a run's static rules (``engine.StaticRules``), ``pre`` tests the
column cap and the row rules on each predecessor's control sequences
before it builds any of its cells, and the cell rules on each built
predecessor before it puts it into canonical form, so ``check`` never
sees a predecessor that a rule rejects.

A barrier step has no transformer: its atomic whole-body macro step
cannot be captured exactly by per-statement reversal, so ``check``
rejects programs with barrier bodies.
"""

from __future__ import annotations

import itertools

from .symbolic import (
    FREE_BOUNDS,
    INF,
    OPT_FREE,
    Constraint,
    Gap,
    canonical_constraint,
)
from .syntax import (
    ANY,
    NO_VAR,
    Assert,
    Assign,
    Asynch,
    Drop,
    Exit,
    NewPhaser,
    Signal,
    Wait,
    While,
    If,
    cond_outcomes,
    cond_vars,
)


# ---------------------------------------------------------------------------
# Small structural helpers


def _with_row(phi: Constraint, t: int, row: tuple) -> Constraint:
    gaps = phi.gaps[:t] + (row,) + phi.gaps[t + 1 :]
    return Constraint(phi.bv, phi.seqs, gaps, phi.egaps)


def _with_gap(phi: Constraint, t: int, p: int, g: Gap) -> Constraint:
    row = phi.gaps[t]
    return _with_row(phi, t, row[:p] + (g,) + row[p + 1 :])


def _columns(phi: Constraint, x: int, var: str):
    """The columns on which x's command on ``var`` may act, and whether it
    may act on a phaser the constraint does not track: the columns pinning
    the variable if there are any, and then no untracked phaser; otherwise
    every wildcard column."""
    row = phi.gaps[x]
    pinned = [p for p, g in enumerate(row) if g.var == var]
    if pinned:
        return pinned, False
    return [p for p, g in enumerate(row) if g.var == ANY], True


def _registered(phi: Constraint, x: int, var: str):
    """``_columns`` keeping the certain and optional registrations."""
    cols, untracked = _columns(phi, x, var)
    return [q for q in cols if phi.gaps[x][q].bounds is not None], untracked


def _materialize_column(phi: Constraint, x: int, var: str) -> Constraint:
    """Add a column for a phaser the constraint did not track: the
    executing task is registered freely, every other tracked task gets an
    optional free cell (registered or not, either way unconstrained) and
    the environment is unconstrained."""
    gaps = tuple(
        row + (Gap(var, FREE_BOUNDS) if t == x else OPT_FREE,) for t, row in enumerate(phi.gaps)
    )
    return Constraint(phi.bv, phi.seqs, gaps, phi.egaps + ((0, 0),))


def _env_row(phi: Constraint) -> tuple:
    """The row of a task the constraint does not track: per phaser
    unregistered or satisfying the environment lower bounds, which an
    optional cell expresses directly."""
    return tuple(Gap(ANY, (ew, es, INF, INF), True) for ew, es in phi.egaps)


def _with_seq(phi: Constraint, x: int, s: int) -> Constraint:
    seqs = phi.seqs[:x] + (s,) + phi.seqs[x + 1 :]
    return Constraint(phi.bv, seqs, phi.gaps, phi.egaps)


def _shift_level(phi: Constraint, q: int, d: int, x: int, gx: Gap):
    """The constraint with phaser ``q``'s level moved by ``d`` for every
    task but the executor ``x``, whose cell on ``q`` becomes ``gx``:
    ``l - w`` grows by ``d`` and ``s - l`` shrinks by ``d``.  Lower bounds
    clamp at 0, so the result stays valid.  An optional cell pushed below
    0 keeps only its unregistered branch; a certain registration that
    cannot shift makes the result None."""
    rows = []
    for t, row in enumerate(phi.gaps):
        g = gx if t == x else row[q]
        if t != x and g.bounds is not None:
            lw, ls, uw, us = g.bounds
            if uw + d >= 0 and us - d >= 0:
                g = Gap(g.var, (max(lw + d, 0), max(ls - d, 0), uw + d, us - d), g.opt)
            elif g.opt:
                g = Gap(g.var, None)
            else:
                return None
        rows.append(row[:q] + (g,) + row[q + 1 :])
    ew, es = phi.egaps[q]
    egaps = phi.egaps[:q] + ((max(ew + d, 0), max(es - d, 0)),) + phi.egaps[q + 1 :]
    return Constraint(phi.bv, phi.seqs, tuple(rows), egaps)


# ---------------------------------------------------------------------------
# Per-statement backward transformers.  Each takes the post-state
# constraint (with the executing row's control already matched) and
# returns pre-state constraints *without* touching the control sequence;
# the driver installs the pre control sequence afterwards.


def _pre_signal(phi: Constraint, x: int, st: Signal, room) -> list:
    out = []
    cols, untracked = _registered(phi, x, st.var)
    for q in cols:
        lw, ls, uw, us = phi.gaps[x][q].bounds
        # same level: the signal moved s from one below
        if us >= 1:
            out.append(_with_gap(phi, x, q, Gap(st.var, (lw, max(ls - 1, 0), uw, us - 1))))
        # shifted level: before the signal the level sat one lower
        if ls == 0 and uw >= 1:
            psi = _shift_level(phi, q, -1, x, Gap(st.var, (max(lw - 1, 0), ls, uw - 1, us)))
            if psi is not None:
                out.append(psi)
    if untracked and room > 0:
        out.append(_materialize_column(phi, x, st.var))
    return out


def _pre_wait(phi: Constraint, x: int, st: Wait, room) -> list:
    out = []
    cols, untracked = _registered(phi, x, st.var)
    for q in cols:
        lw, ls, uw, us = phi.gaps[x][q].bounds
        out.append(_with_gap(phi, x, q, Gap(st.var, (lw + 1, ls, uw + 1, us))))
    if untracked and room > 0:
        psi = _materialize_column(phi, x, st.var)
        out.append(_with_gap(psi, x, psi.n_phasers - 1, Gap(st.var, (1, 0, INF, INF))))
    return out


def _pre_drop(phi: Constraint, x: int, st: Drop, room) -> list:
    out = []
    cols, untracked = _columns(phi, x, st.var)
    for q in cols:
        g = phi.gaps[x][q]
        # the executor ends up unregistered: definite and optional cells
        # qualify, a certain registration does not
        if g.bounds is not None and not g.opt:
            continue
        out.append(_with_gap(phi, x, q, Gap(st.var, FREE_BOUNDS)))
        # level shifted up: the dropped task's wait sat above every level
        # admissible for the remaining registrations
        others = [r[q].bounds for t, r in enumerate(phi.gaps) if t != x and r[q].bounds is not None]
        delta_max = max(
            [phi.egaps[q][1]] + [b[1] for b in others] + [b[3] for b in others if b[3] != INF]
        )
        for delta in range(1, delta_max + 1):
            psi = _shift_level(phi, q, delta, x, Gap(st.var, FREE_BOUNDS))
            if psi is not None:
                out.append(psi)
    if untracked and room > 0:
        out.append(_materialize_column(phi, x, st.var))
    return out


def _rename_variants(phi: Constraint, x: int, var: str) -> list:
    """Backward renaming for a fresh-phaser step: a column showing the
    executing task unbound may have carried the rebound variable before."""
    out = [phi]
    for r in range(phi.n_phasers):
        g = phi.gaps[x][r]
        if g.var == NO_VAR:
            out.append(_with_gap(phi, x, r, Gap(var, g.bounds, g.opt)))
    return out


def _pre_newphaser(phi: Constraint, x: int, st: NewPhaser) -> list:
    out = []
    cols, untracked = _columns(phi, x, st.var)
    if len(cols) > 1 and not untracked:
        cols = []  # after the step the variable names a single phaser
    for q in cols:
        b = phi.gaps[x][q].bounds
        if b is None or b[:2] != (0, 0):
            continue  # fresh phaser starts with both distances pinned to 0
        if any(
            (row[q].bounds is not None and not row[q].opt) or row[q].var not in (NO_VAR, ANY)
            for t, row in enumerate(phi.gaps)
            if t != x
        ):
            # a fresh phaser has only its creator registered, and only the
            # creator's variable can name it
            continue
        dropped = Constraint(
            phi.bv,
            phi.seqs,
            tuple(row[:q] + row[q + 1 :] for row in phi.gaps),
            phi.egaps[:q] + phi.egaps[q + 1 :],
        )
        out.extend(_rename_variants(dropped, x, st.var))
    if untracked:
        out.extend(_rename_variants(phi, x, st.var))
    return out


def _merge_bounds(a, b):
    lw = max(a[0], b[0])
    ls = max(a[1], b[1])
    uw = min(a[2], b[2])
    us = min(a[3], b[3])
    if lw > uw or ls > us or (uw == INF) != (us == INF):
        return None
    return (lw, ls, uw, us)


def _pre_asynch(phi: Constraint, x: int, st: Asynch, program, room, spawn_ok) -> list:
    callee, body = program.task(st.task), program.body_ids[st.task]
    # the spawned task is a tracked row y, or last an environment task
    # (None)
    spawned = [y for y in range(phi.n_tasks) if y != x and phi.seqs[y] in (None, body)]
    spawned = [y for y in spawned + [None] if spawn_ok(y)]
    if not spawned:
        return []
    # per spawn argument, a tracked column or None for an untracked phaser
    per_arg = []
    for v in st.args:
        cols, untracked = _registered(phi, x, v)
        per_arg.append(cols + [None] * untracked)
    out = []
    for combo in itertools.product(*per_arg):
        tracked = [q for q in combo if q is not None]
        if len(set(tracked)) != len(tracked):
            continue  # distinct arguments use distinct columns
        if len(combo) - len(tracked) > room:
            continue  # more fresh columns than the cap leaves
        # untracked arguments occupy freshly appended columns in order
        base, arg_cols = phi, []
        for v, q in zip(st.args, combo):
            if q is None:
                base = _materialize_column(base, x, v)
                q = base.n_phasers - 1
            arg_cols.append(q)
        out.extend(_pre_asynch_on(base, x, st, callee, arg_cols, spawned))
    return out


def _pre_asynch_on(phi: Constraint, x: int, st: Asynch, callee, arg_cols, spawned) -> list:
    out = []
    # pin x's variable on each argument column
    pinned = list(phi.gaps[x])
    for v, q in zip(st.args, arg_cols):
        pinned[q] = Gap(v, pinned[q].bounds)
    # an environment child's row merges the environment lower bounds into
    # the parent's phase at spawn time
    for y in spawned:
        child = _env_row(phi) if y is None else phi.gaps[y]
        row = list(pinned)
        for p, gy in enumerate(child):
            if p in arg_cols:
                formal = callee.params[arg_cols.index(p)]
                if gy.bounds is None or gy.var not in (formal, ANY):
                    break
                merged = _merge_bounds(row[p].bounds, gy.bounds)
                if merged is None:
                    break
                row[p] = Gap(row[p].var, merged)
            # the spawned task holds no registration beyond the argument
            # phasers; optional cells take their unregistered branch
            elif (gy.bounds is not None and not gy.opt) or gy.var not in (NO_VAR, ANY):
                break
        else:
            psi = _with_row(phi, x, tuple(row))
            if y is None:
                out.append((psi, x))
            else:  # the spawned row did not exist before the step
                seqs, gaps = psi.seqs[:y] + psi.seqs[y + 1 :], psi.gaps[:y] + psi.gaps[y + 1 :]
                out.append((Constraint(phi.bv, seqs, gaps, phi.egaps), x - 1 if y < x else x))
    return out


def _pre_cond(phi: Constraint, program, cond, ok) -> list:
    """Pin the Booleans ``cond`` reads to each valuation that ``phi``
    admits and under which some value of ``cond`` passes ``ok``."""
    names = sorted(cond_vars(cond))
    idx = [program.bool_vars.index(name) for name in names]
    out = []
    for bits in itertools.product((False, True), repeat=len(names)):
        if any(phi.bv[i] not in (None, b) for i, b in zip(idx, bits)):
            continue
        if not any(map(ok, cond_outcomes(cond, dict(zip(names, bits))))):
            continue
        bv = list(phi.bv)
        for i, b in zip(idx, bits):
            bv[i] = b
        out.append(Constraint(tuple(bv), phi.seqs, phi.gaps, phi.egaps))
    return out


# ---------------------------------------------------------------------------
# Driver


def _env_materializations(phi: Constraint, post: int) -> list:
    """Extend the constraint with a row for a previously-untracked task.

    After the step the new task is either an environment task, or it
    coincides with a tracked row: the task-to-row map may send several
    concrete tasks to the same row, so the executor can share a compatible
    row's constraints.  Rows may repeat; ``check``'s store drops repeats."""
    rows = [_env_row(phi)] + [
        row for row, s in zip(phi.gaps, phi.seqs) if s in (None, post)
    ]
    return [Constraint(phi.bv, phi.seqs + (post,), phi.gaps + (r,), phi.egaps) for r in rows]


def _unlimited(_) -> bool:
    return True


def pre_stmt(
    phi: Constraint, program, x: int, stmt, taken, room=INF, spawn_ok=_unlimited
) -> list:
    """Backward transformer for one statement fired by tracked row ``x``
    (control sequences untouched); ``taken`` tells whether a condition
    head took its true branch.  Returns (constraint, executor row)
    pairs: spawning steps remove a row, shifting the executor's index.

    ``room`` is how many columns a predecessor may add for phasers the
    constraint does not track.  ``spawn_ok(y)`` tells whether an
    ``asynch`` may have spawned row ``y`` (None: an untracked task); the
    other spawned rows are never built."""
    if isinstance(stmt, Asynch):
        return _pre_asynch(phi, x, stmt, program, room, spawn_ok)
    if isinstance(stmt, Signal):
        results = _pre_signal(phi, x, stmt, room)
    elif isinstance(stmt, Wait):
        results = _pre_wait(phi, x, stmt, room)
    elif isinstance(stmt, Drop):
        results = _pre_drop(phi, x, stmt, room)
    elif isinstance(stmt, NewPhaser):
        results = _pre_newphaser(phi, x, stmt)
    elif isinstance(stmt, Assign):
        # the assigned Boolean is free before the step unless the condition
        # reads it, and the condition yields the value phi asks for
        i = program.bool_vars.index(stmt.var)
        want, bv = phi.bv[i], phi.bv[:i] + (None,) + phi.bv[i + 1 :]
        cleared = Constraint(bv, phi.seqs, phi.gaps, phi.egaps)
        results = _pre_cond(cleared, program, stmt.cond, lambda r: want in (None, r))
    elif isinstance(stmt, (Assert, While, If)):
        # a passing assert is a guard that takes its true branch
        want = True if isinstance(stmt, Assert) else taken
        results = _pre_cond(phi, program, stmt.cond, lambda r: r == want)
    elif isinstance(stmt, Exit):
        results = [phi]
    else:
        raise TypeError(f"no backward transformer for {stmt!r}")
    return [(psi, x) for psi in results]


def pre(phi: Constraint, program, rules=None, keep=None) -> list:
    """All (statement, predecessor constraint) pairs over every executing
    role: each tracked task plus a fresh environment task, taking each
    head step of the program's id tables in turn, in id order.  A pair may repeat;
    ``check``'s store drops repeats.

    ``rules`` is a run's ``engine.StaticRules`` (None: no limits).  A
    predecessor over more than ``rules.cap`` columns or failing
    ``rules.rows_fit`` on its tuple of sequence ids is skipped before any
    of its cells is built.  Its control sequences are known first: the
    executor moves to the step's pre sequence, the environment role adds
    a row, and an ``asynch`` removes the row of a tracked child.  Only a
    phaser the constraint does not track adds a column.  A built
    predecessor that fails ``rules.cells_fit``, or that ``keep`` (when
    given) rejects, is dropped before it is put into canonical form.
    ``keep`` must not depend on the order of rows and columns; then,
    when ``phi`` itself passes the cap and the row rules, the result is
    exactly the unlimited result without the pairs that fail a rule or
    ``keep``."""
    results = []
    if rules is None:
        room, rows_fit, cells_fit = INF, _unlimited, _unlimited
    else:
        room, rows_fit, cells_fit = rules.cap - phi.n_phasers, rules.rows_fit, rules.cells_fit

    def emit(stmt, psi):
        if cells_fit(psi) and (keep is None or keep(psi)):
            results.append((stmt, canonical_constraint(psi)))

    def leaving(seqs):
        # the row test of a predecessor with control ``seqs`` once the row
        # y that an asynch spawned leaves it (None: no row leaves)
        return lambda y: rows_fit(seqs if y is None else seqs[:y] + seqs[y + 1 :])

    for s_pre, (stmt, posts) in enumerate(zip(program.heads, program.next_ids)):
        spawns = isinstance(stmt, Asynch)
        # successor 0 of a condition is its taken branch
        for s_post, taken in zip(posts, (True, False)):
            # tracked roles
            for x in range(phi.n_tasks):
                if phi.seqs[x] not in (None, s_post):
                    continue
                fits = leaving(phi.seqs[:x] + (s_pre,) + phi.seqs[x + 1 :])
                if spawns or fits(None):
                    for psi, xr in pre_stmt(phi, program, x, stmt, taken, room, fits):
                        emit(stmt, _with_seq(psi, xr, s_pre))
            # environment role
            fits = leaving(phi.seqs + (s_pre,))
            if spawns or fits(None):
                for ext in _env_materializations(phi, s_post):
                    u = ext.n_tasks - 1
                    for psi, ur in pre_stmt(ext, program, u, stmt, taken, room, fits):
                        emit(stmt, _with_seq(psi, ur, s_pre))
    return results

