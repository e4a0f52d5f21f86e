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

Atomic barrier bodies are rejected: their whole-body macro step cannot be
captured exactly by per-statement reversal.
"""

from __future__ import annotations

import itertools

from .control import head_successors, unrolled_suffixes
from .symbolic import (
    ANY,
    FREE_BOUNDS,
    INF,
    NO_VAR,
    OPT_FREE,
    Constraint,
    Gap,
    canonical_constraint,
)
from .syntax import (
    Assert,
    Assign,
    Asynch,
    Drop,
    Exit,
    NewPhaser,
    NextBlock,
    Signal,
    Wait,
    While,
    If,
    cond_outcomes,
    cond_vars,
)


class AtomicUnsupported(Exception):
    """Raised when a barrier block statement is encountered: the atomic
    body step has no exact per-statement reversal."""


# ---------------------------------------------------------------------------
# Small structural helpers


def _with_row(phi: Constraint, t: int, row: tuple) -> Constraint:
    gaps = phi.gaps[:t] + (row,) + phi.gaps[t + 1 :]
    return Constraint(phi.bv, phi.seqs, gaps, phi.egaps)


def _with_gap(phi: Constraint, t: int, p: int, g: Gap) -> Constraint:
    row = phi.gaps[t]
    return _with_row(phi, t, row[:p] + (g,) + row[p + 1 :])


def _pinned_columns(phi: Constraint, x: int, var: str) -> list:
    return [
        p for p in range(phi.n_phasers) if phi.gaps[x][p].var == var
    ]


def _registered_columns(phi: Constraint, x: int, var: str) -> list:
    """Columns on which x's command on ``var`` may act: a column pinning
    the variable wins; otherwise any registered wildcard column."""
    pinned = _pinned_columns(phi, x, var)
    if pinned:
        return [p for p in pinned if phi.gaps[x][p].bounds is not None]
    return [
        p
        for p in range(phi.n_phasers)
        if phi.gaps[x][p].var == ANY and phi.gaps[x][p].bounds is not None
    ]


def _untracked_allowed(phi: Constraint, x: int, var: str) -> bool:
    return not _pinned_columns(phi, x, var)


def _materialize_column(phi: Constraint, x: int, var: str) -> Constraint:
    """Add a column for a phaser the constraint did not track: the
    executing task is registered freely, every other tracked task gets an
    optional free cell (registered or not, either way unconstrained) and
    the environment is unconstrained."""
    gaps = tuple(
        row + (Gap(var, FREE_BOUNDS) if t == x else OPT_FREE,) for t, row in enumerate(phi.gaps)
    )
    return Constraint(phi.bv, phi.seqs, gaps, phi.egaps + ((0, 0),))


def _seq_set(phi: Constraint, x: int, seq) -> Constraint:
    seqs = phi.seqs[:x] + (seq,) + phi.seqs[x + 1 :]
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


def _pre_signal(phi: Constraint, x: int, st: Signal) -> list:
    out = []
    for q in _registered_columns(phi, x, st.var):
        lw, ls, uw, us = phi.gaps[x][q].bounds
        # same level: the signal moved s from one below
        if us >= 1:
            out.append(_with_gap(phi, x, q, Gap(st.var, (lw, max(ls - 1, 0), uw, us - 1))))
        # shifted level: before the signal the level sat one lower
        if ls == 0 and uw >= 1:
            psi = _shift_level(phi, q, -1, x, Gap(st.var, (max(lw - 1, 0), ls, uw - 1, us)))
            if psi is not None:
                out.append(psi)
    if _untracked_allowed(phi, x, st.var):
        out.append(_materialize_column(phi, x, st.var))
    return out


def _pre_wait(phi: Constraint, x: int, st: Wait) -> list:
    out = []
    for q in _registered_columns(phi, x, st.var):
        lw, ls, uw, us = phi.gaps[x][q].bounds
        out.append(_with_gap(phi, x, q, Gap(st.var, (lw + 1, ls, uw + 1, us))))
    if _untracked_allowed(phi, x, st.var):
        psi = _materialize_column(phi, x, st.var)
        out.append(_with_gap(psi, x, psi.n_phasers - 1, Gap(st.var, (1, 0, INF, INF))))
    return out


def _pre_drop(phi: Constraint, x: int, st: Drop) -> list:
    out = []
    pinned = _pinned_columns(phi, x, st.var)
    for q in range(phi.n_phasers):
        g = phi.gaps[x][q]
        # the executor ends up unregistered: definite and optional cells
        # qualify, a certain registration does not
        if (g.bounds is not None and not g.opt) or g.var not in (st.var, ANY):
            continue
        if pinned and q not in pinned:
            continue
        out.append(_with_gap(phi, x, q, Gap(st.var, FREE_BOUNDS)))
        # level shifted up: the dropped task's wait sat above every level
        # admissible for the remaining registrations
        delta_max = 0
        for t in range(phi.n_tasks):
            gb = phi.gaps[t][q].bounds
            if t == x or gb is None:
                continue
            delta_max = max(delta_max, gb[1])
            if gb[3] != INF:
                delta_max = max(delta_max, gb[3])
        delta_max = max(delta_max, phi.egaps[q][1])
        for delta in range(1, delta_max + 1):
            psi = _shift_level(phi, q, delta, x, Gap(st.var, FREE_BOUNDS))
            if psi is not None:
                out.append(psi)
    if _untracked_allowed(phi, x, st.var):
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
    for q in range(phi.n_phasers):
        g = phi.gaps[x][q]
        if g.var not in (st.var, ANY) or g.bounds is None:
            continue
        lw, ls, uw, us = g.bounds
        if lw != 0 or ls != 0:
            continue  # fresh phaser starts with both distances pinned to 0
        if any(
            (phi.gaps[t][q].bounds is not None and not phi.gaps[t][q].opt)
            or phi.gaps[t][q].var not in (NO_VAR, ANY)
            for t in range(phi.n_tasks)
            if t != x
        ):
            # a fresh phaser has only its creator registered, and only the
            # creator's variable can name it
            continue
        if any(
            phi.gaps[x][r].var == st.var
            for r in range(phi.n_phasers)
            if r != q
        ):
            continue
        dropped = Constraint(
            phi.bv,
            phi.seqs,
            tuple(row[:q] + row[q + 1 :] for row in phi.gaps),
            phi.egaps[:q] + phi.egaps[q + 1 :],
        )
        out.extend(_rename_variants(dropped, x, st.var))
    if _untracked_allowed(phi, x, st.var):
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


def _pre_asynch(phi: Constraint, x: int, st: Asynch, program) -> list:
    callee = program.task(st.task)
    # per spawn argument, a tracked column or None for an untracked phaser
    per_arg = []
    for v in st.args:
        opts = _registered_columns(phi, x, v)
        if _untracked_allowed(phi, x, v):
            opts.append(None)
        per_arg.append(opts)
    out = []
    for combo in itertools.product(*per_arg):
        tracked = [q for q in combo if q is not None]
        if len(set(tracked)) != len(tracked):
            continue  # distinct arguments use distinct columns
        # untracked arguments occupy freshly appended columns in order
        base, arg_cols = phi, []
        for v, q in zip(st.args, combo):
            if q is None:
                base = _materialize_column(base, x, v)
                q = base.n_phasers - 1
            arg_cols.append(q)
        out.extend(_pre_asynch_on(base, x, st, callee, arg_cols))
    return out


def _pre_asynch_on(phi: Constraint, x: int, st: Asynch, callee, arg_cols) -> list:
    out = []
    # pin x's variable on each argument column
    pinned = list(phi.gaps[x])
    for v, q in zip(st.args, arg_cols):
        pinned[q] = Gap(v, pinned[q].bounds)

    # case 1: the spawned task is a tracked row y
    for y in range(phi.n_tasks):
        if y == x:
            continue
        if phi.seqs[y] is not None and phi.seqs[y] != callee.body:
            continue
        row = list(pinned)
        for p, gy in enumerate(phi.gaps[y]):
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
            gaps = phi.gaps[:x] + (tuple(row),) + phi.gaps[x + 1 :]
            seqs = phi.seqs[:y] + phi.seqs[y + 1 :]
            psi = Constraint(phi.bv, seqs, gaps[:y] + gaps[y + 1 :], phi.egaps)
            out.append((psi, x - 1 if y < x else x))

    # case 2: the spawned task is an environment task: the parent's phase
    # at spawn time must satisfy the environment lower bounds
    for p in arg_cols:
        merged = _merge_bounds(pinned[p].bounds, phi.egaps[p] + (INF, INF))
        if merged is None:
            return out
        pinned[p] = Gap(pinned[p].var, merged)
    out.append((_with_row(phi, x, tuple(pinned)), x))
    return out


def _valuations(names):
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _bv_compatible(phi: Constraint, program, val: dict, skip=()) -> bool:
    for name, b in val.items():
        if name in skip:
            continue
        i = program.bool_vars.index(name)
        if phi.bv[i] is not None and phi.bv[i] != b:
            return False
    return True


def _bv_pinned(phi: Constraint, program, val: dict, clear=()) -> tuple:
    bv = list(phi.bv)
    for name, b in val.items():
        bv[program.bool_vars.index(name)] = b
    for name in clear:
        bv[program.bool_vars.index(name)] = None
    return tuple(bv)


def _pre_branch(phi: Constraint, program, cond, want: bool) -> list:
    """Condition heads (while/if guards and passing asserts) pin the
    variables the condition reads to valuations that can take the
    required value."""
    out = []
    for val in _valuations(cond_vars(cond)):
        if want not in cond_outcomes(cond, val):
            continue
        if not _bv_compatible(phi, program, val):
            continue
        out.append(Constraint(_bv_pinned(phi, program, val), phi.seqs, phi.gaps, phi.egaps))
    return out


def _pre_assign(phi: Constraint, program, st: Assign) -> list:
    out = []
    bi = program.bool_vars.index(st.var)
    for val in _valuations(cond_vars(st.cond)):
        if not _bv_compatible(phi, program, val, skip=(st.var,)):
            continue
        results = {
            r
            for r in cond_outcomes(st.cond, val)
            if phi.bv[bi] is None or phi.bv[bi] == r
        }
        if not results:
            continue
        clear = () if st.var in val else (st.var,)
        bv = _bv_pinned(phi, program, val, clear=clear)
        out.append(Constraint(bv, phi.seqs, phi.gaps, phi.egaps))
    return out


# ---------------------------------------------------------------------------
# Driver


# the control sequences ``pre`` steps between, in ``seq_order_key`` order;
# ``check`` computes them once per run and passes them to every ``pre`` call
program_suffixes = unrolled_suffixes


def _env_materializations(phi: Constraint, post_seq) -> list:
    """Extend the constraint with a row for a previously-untracked task.

    After the step the new task is either an environment task (per tracked
    phaser unregistered or satisfying the environment lower bounds, which
    an optional cell expresses directly), or it coincides with a tracked
    row: the task-to-row map may send several concrete tasks to the same
    row, so the executor can share a compatible row's constraints."""
    row = tuple(
        Gap(ANY, (phi.egaps[p][0], phi.egaps[p][1], INF, INF), True)
        for p in range(phi.n_phasers)
    )
    rows = [row]
    for y in range(phi.n_tasks):
        if phi.seqs[y] is None or phi.seqs[y] == post_seq:
            rows.append(phi.gaps[y])
    out = []
    seen = set()
    for r in rows:
        if r in seen:
            continue
        seen.add(r)
        out.append(
            Constraint(
                bv=phi.bv,
                seqs=phi.seqs + (post_seq,),
                gaps=phi.gaps + (r,),
                egaps=phi.egaps,
            )
        )
    return out


def pre_stmt(phi: Constraint, program, x: int, stmt, branch) -> list:
    """Backward transformer for one statement fired by tracked row ``x``
    (control sequences untouched).  Returns (constraint, executor row)
    pairs: spawning steps remove a row, shifting the executor's index."""
    if isinstance(stmt, NextBlock):
        raise AtomicUnsupported(str(stmt))
    if isinstance(stmt, Asynch):
        return _pre_asynch(phi, x, stmt, program)
    if isinstance(stmt, Signal):
        results = _pre_signal(phi, x, stmt)
    elif isinstance(stmt, Wait):
        results = _pre_wait(phi, x, stmt)
    elif isinstance(stmt, Drop):
        results = _pre_drop(phi, x, stmt)
    elif isinstance(stmt, NewPhaser):
        results = _pre_newphaser(phi, x, stmt)
    elif isinstance(stmt, Assign):
        results = _pre_assign(phi, program, stmt)
    elif isinstance(stmt, Assert):
        results = _pre_branch(phi, program, stmt.cond, True)
    elif isinstance(stmt, (While, If)):
        results = _pre_branch(phi, program, stmt.cond, branch)
    elif isinstance(stmt, Exit):
        results = [phi]
    else:
        raise TypeError(f"no backward transformer for {stmt!r}")
    return [(psi, x) for psi in results]


def pre(phi: Constraint, program, suffixes, keep=None) -> list:
    """All (statement, predecessor constraint) pairs over every executing
    role: each tracked task plus a fresh environment task, stepping from
    each of the ordered ``suffixes`` (``program_suffixes(program)``) in
    turn.  A pair may repeat; ``check``'s store drops repeats.

    ``keep``, when given, drops every predecessor it rejects before that
    predecessor is put into canonical form.  It must not depend on the
    order of rows and columns; then the result is exactly the unfiltered
    result with the rejected pairs removed."""
    results = []

    def emit(stmt, psi):
        if keep is None or keep(psi):
            results.append((stmt, canonical_constraint(psi)))

    for s_pre in suffixes:
        if not s_pre:
            continue
        for hs in head_successors(s_pre):
            # tracked roles
            for x in range(phi.n_tasks):
                if phi.seqs[x] is not None and phi.seqs[x] != hs.next_seq:
                    continue
                for psi, xr in pre_stmt(phi, program, x, hs.stmt, hs.branch):
                    emit(hs.stmt, _seq_set(psi, xr, s_pre))
            # environment role
            for ext in _env_materializations(phi, hs.next_seq):
                u = ext.n_tasks - 1
                for psi, ur in pre_stmt(ext, program, u, hs.stmt, hs.branch):
                    emit(hs.stmt, _seq_set(psi, ur, s_pre))
    return results

