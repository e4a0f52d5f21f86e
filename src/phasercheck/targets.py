"""Target constraint builders for the supported bad-configuration classes,
plus the reader of target files.

* assertion violation: some task sits at an assertion head whose condition
  can evaluate to false under the pinned boolean variables.
* registration error: some task is about to command a phaser it is not
  registered to.  (Mode violations, such as signalling in wait-only mode,
  are not representable symbolically: registration modes exist only in the
  concrete semantics.)
* cyclic wait: a cycle of tasks, each blocked at a wait because the next
  task's signal sits exactly at the waiting task's wait value.  ``slack``
  bounds the enumerated distances between the cycle members' other phase
  values and the per-phaser level; real deadlocks with larger distances
  need a larger slack.

Each builder returns every target it enumerates, in the order of
``Program.suffixes``, redundant ones included: ``check``'s antichain store
reduces them.  Targets pin sequence ids, read off the program's ``heads``.
"""

from __future__ import annotations

import itertools

from .parser import RecordFormatError, natural, read_records, record_fields
from .symbolic import (
    ANY,
    CONSTRAINT_CELLS,
    FREE_BOUNDS,
    OPT_FREE,
    Constraint,
    Gap,
    constraint_from_record,
)
from .syntax import Assert, Asynch, Drop, Signal, Wait, cond_outcomes, cond_vars


def _minimal_falsifying(cond) -> list:
    """Minimal partial valuations under which the condition can be false."""
    names = sorted(cond_vars(cond))
    full = [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
        if False in cond_outcomes(cond, dict(zip(names, bits)))
    ]

    def always_falsifiable(partial: dict) -> bool:
        rest = [n for n in names if n not in partial]
        for bits in itertools.product((False, True), repeat=len(rest)):
            val = dict(partial, **dict(zip(rest, bits)))
            if False not in cond_outcomes(cond, val):
                return False
        return True

    out = []
    for val in full:
        partial = dict(val)
        for n in names:
            trial = {k: v for k, v in partial.items() if k != n}
            if always_falsifiable(trial):
                partial = trial
        if partial not in out:
            out.append(partial)
    return out


def _bv_from(partial: dict, bool_vars) -> tuple:
    return tuple(partial.get(name) for name in bool_vars)


def assertion_targets(program) -> list:
    out = []
    for i, head in enumerate(program.heads):
        if not isinstance(head, Assert):
            continue
        for partial in _minimal_falsifying(head.cond):
            out.append(
                Constraint(
                    bv=_bv_from(partial, program.bool_vars),
                    seqs=(i,),
                    gaps=((),),
                    egaps=(),
                )
            )
    return out


def registration_error_targets(program) -> list:
    out = []
    wild_bv = tuple(None for _ in program.bool_vars)
    for i, head in enumerate(program.heads):
        if isinstance(head, (Signal, Wait, Drop)):
            vars_used = (head.var,)
        elif isinstance(head, Asynch):
            vars_used = head.args
        else:
            continue
        for v in vars_used:
            out.append(
                Constraint(
                    bv=wild_bv,
                    seqs=(i,),
                    gaps=((Gap(v, None),),),
                    egaps=((0, 0),),
                )
            )
    return out


def cyclic_wait_targets(program, max_cycle: int = 2, slack: int = 1) -> list:
    """Wait cycles of lengths 1..max_cycle.  Task i waits on phaser i with
    its wait value at the level; task i+1 (mod the cycle length) holds a
    signal on phaser i at that same level, falsifying the guard."""
    heads = program.heads
    waits = [i for i, head in enumerate(heads) if isinstance(head, Wait)]
    wild_bv = tuple(None for _ in program.bool_vars)
    out = []
    for m in range(1, max_cycle + 1):
        for seqs in itertools.product(waits, repeat=m):
            if m == 1:
                dist_space = [()]
            else:
                # per cycle member: own signal distance d_i above the level
                # where it waits, own wait distance e_i below the level
                # where it blocks
                dist_space = itertools.product(
                    itertools.product(range(slack + 1), repeat=2), repeat=m
                )
            for dists in dist_space:
                rows = [[OPT_FREE] * m for _ in range(m)]
                for i in range(m):
                    v = heads[seqs[i]].var
                    if m == 1:
                        rows[0][0] = Gap(v, (0, 0, 0, 0))
                        continue
                    d, e = dists[i]
                    rows[i][i] = Gap(v, (0, d, 0, d))
                    rows[(i + 1) % m][i] = Gap(ANY, (e, 0, e, 0))
                phi = Constraint(
                    bv=wild_bv,
                    seqs=seqs,
                    gaps=tuple(tuple(r) for r in rows),
                    egaps=tuple((0, 0) for _ in range(m)),
                )
                out.append(phi)
    return out


# ---------------------------------------------------------------------------
# Target files


def _read_phase(words):
    """A ``phase`` cell: a Gap for ``nreg`` and ``free``, which need no
    level, else ``(var, w, s)``."""
    kv, flags = record_fields(words, ("var", "w", "s"), ("nreg", "free"))
    var = kv.pop("var", ANY)
    if "nreg" in flags:
        return Gap(var, None)
    if "free" in flags:
        return Gap(var, FREE_BOUNDS)
    if len(kv) != 2:
        raise ValueError("phase cell needs w= and s= (or nreg/free)")
    return var, natural(kv["w"]), natural(kv["s"])


_CELLS = {"constraint": CONSTRAINT_CELLS, "partial-config": {"phase": ("tp", _read_phase)}}


def partial_config_constraint(bv, seqs, n_phasers: int, cells) -> Constraint:
    """The constraint whose models are exactly the configurations that
    include a ``partial-config`` record's pattern, over the sequence ids
    ``seqs``.

    Concrete (w, s) cells pin gaps against the per-phaser level chosen as
    the maximum concrete wait; unstated cells become optional free gaps
    (registered or not, unconstrained).  Raises ValueError when the
    concrete cells are not level-consistent (no reachable configuration
    can include them).
    """
    rows = [
        [cells.get(("phase", t, p), OPT_FREE) for p in range(n_phasers)]
        for t in range(len(seqs))
    ]
    levels = [max((c[1] for c in col if isinstance(c, tuple)), default=0) for col in zip(*rows)]
    for t, row in enumerate(rows):
        for p, cell in enumerate(row):
            if isinstance(cell, tuple):
                var, w, s = cell
                l = levels[p]
                if s < l:
                    raise ValueError(
                        "partial configuration is not level-consistent: "
                        f"task {t} has signal {s} below wait level {l} on phaser {p}"
                    )
                row[p] = Gap(var, (l - w, s - l, l - w, s - l))
    return Constraint(
        bv=bv,
        seqs=seqs,
        gaps=tuple(map(tuple, rows)),
        egaps=((0, 0),) * n_phasers,
    )


def read_targets(text: str, program, left_out) -> list:
    """The constraints of a target file over ``program``: any number of
    ``constraint`` and ``partial-config`` records, each read by its own
    header.  A record that pins a sequence no task reaches has no model,
    so it is checked and then left out; its opening line is appended to
    the list ``left_out``.  Raises RecordFormatError naming the line."""
    out = []
    for header, opened, bv, seqs, n_phasers, cells in read_records(text, _CELLS, program.bool_vars):
        ids = program.intern(seqs)
        build = constraint_from_record if header == "constraint" else partial_config_constraint
        try:
            phi = build(bv, (None,) * len(seqs) if ids is None else ids, n_phasers, cells)
        except ValueError as e:
            raise RecordFormatError(f"line {opened}: {e}") from None
        if ids is None:
            left_out.append(opened)
        else:
            out.append(phi)
    return out
