"""Target constraint builders for the supported bad-configuration classes,
plus the partial-configuration reader.

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
reduces them.
"""

from __future__ import annotations

import itertools

from .concrete import PartialConfiguration
from .parser import RecordFormatError, natural, read_records, record_fields
from .symbolic import (
    ANY,
    FREE_BOUNDS,
    OPT_FREE,
    Constraint,
    Gap,
)
from .syntax import Assert, Asynch, Drop, Signal, Wait, cond_outcomes, cond_vars


def _minimal_falsifying(cond, bool_vars) -> list:
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
    for seq in program.suffixes:
        if not seq or not isinstance(seq[0], Assert):
            continue
        for partial in _minimal_falsifying(seq[0].cond, program.bool_vars):
            out.append(
                Constraint(
                    bv=_bv_from(partial, program.bool_vars),
                    seqs=(seq,),
                    gaps=((),),
                    egaps=(),
                )
            )
    return out


def registration_error_targets(program) -> list:
    out = []
    wild_bv = tuple(None for _ in program.bool_vars)
    for seq in program.suffixes:
        if not seq:
            continue
        head = seq[0]
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
                    seqs=(seq,),
                    gaps=((Gap(v, None),),),
                    egaps=((0, 0),),
                )
            )
    return out


def cyclic_wait_targets(program, max_cycle: int = 2, slack: int = 1) -> list:
    """Wait cycles of lengths 1..max_cycle.  Task i waits on phaser i with
    its wait value at the level; task i+1 (mod the cycle length) holds a
    signal on phaser i at that same level, falsifying the guard."""
    wait_suffixes = [s for s in program.suffixes if s and isinstance(s[0], Wait)]
    wild_bv = tuple(None for _ in program.bool_vars)
    out = []
    for m in range(1, max_cycle + 1):
        for seqs in itertools.product(wait_suffixes, repeat=m):
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
                    v = seqs[i][0].var
                    if m == 1:
                        rows[0][0] = Gap(v, (0, 0, 0, 0))
                        continue
                    d, e = dists[i]
                    rows[i][i] = Gap(v, (0, d, 0, d))
                    rows[(i + 1) % m][i] = Gap(ANY, (e, 0, e, 0))
                phi = Constraint(
                    bv=wild_bv,
                    seqs=tuple(seqs),
                    gaps=tuple(tuple(r) for r in rows),
                    egaps=tuple((0, 0) for _ in range(m)),
                )
                out.append(phi)
    return out


# ---------------------------------------------------------------------------
# Partial configurations


def _read_phase(words) -> tuple:
    kv, flags = record_fields(words, ("var", "w", "s"), ("nreg", "free"))
    var = kv.pop("var", ANY)
    if "nreg" in flags:
        return (var, "nreg")
    if "free" in flags:
        return (var, (ANY, ANY))
    if len(kv) != 2:
        raise ValueError("phase cell needs w= and s= (or nreg/free)")
    return (var, (natural(kv["w"]), natural(kv["s"])))


def parse_partial_config(text: str, bool_vars) -> PartialConfiguration:
    """Parse a file holding one level-consistent partial-config record."""
    [(opened, bv, seqs, n_phasers, cells), *extra] = read_records(
        text, "partial-config", bool_vars, {"phase": ("tp", _read_phase)}
    )
    if extra:
        raise RecordFormatError(f"line {extra[0][0]}: a partial-config file holds one record")
    pc = PartialConfiguration(
        bv=bv,
        seqs=seqs,
        phase=tuple(
            tuple(cells.get(("phase", t, p)) for p in range(n_phasers))
            for t in range(len(seqs))
        ),
    )
    try:
        from_partial_config(pc)
    except ValueError as e:
        raise RecordFormatError(f"line {opened}: {e}") from None
    return pc


def from_partial_config(pc: PartialConfiguration) -> list:
    """Constraints whose models are exactly the configurations including
    the partial configuration.

    Concrete (w, s) cells pin gaps against the per-phaser level chosen as
    the maximum concrete wait; undefined cells become optional free gaps
    (registered or not, unconstrained).  Raises ValueError when the
    concrete cells are not level-consistent (no reachable configuration
    can include them).
    """
    n_t, n_p = pc.n_tasks, pc.n_phasers
    levels = []
    for p in range(n_p):
        waits = [
            pc.phase[t][p][1][0]
            for t in range(n_t)
            if pc.phase[t][p] is not None
            and pc.phase[t][p][1] not in ("nreg", (ANY, ANY))
        ]
        levels.append(max(waits) if waits else 0)
    base = [[OPT_FREE] * n_p for _ in range(n_t)]
    for t in range(n_t):
        for p in range(n_p):
            cell = pc.phase[t][p]
            if cell is None:
                continue
            var, val = cell
            if val == "nreg":
                base[t][p] = Gap(var, None)
            elif val == (ANY, ANY):
                base[t][p] = Gap(var, FREE_BOUNDS)
            else:
                w, s = val
                l = levels[p]
                if s < l:
                    raise ValueError(
                        "partial configuration is not level-consistent: "
                        f"task {t} has signal {s} below wait level {l} on phaser {p}"
                    )
                base[t][p] = Gap(var, (l - w, s - l, l - w, s - l))
    return [
        Constraint(
            bv=pc.bv,
            seqs=pc.seqs,
            gaps=tuple(tuple(r) for r in base),
            egaps=tuple((0, 0) for _ in range(n_p)),
        )
    ]
