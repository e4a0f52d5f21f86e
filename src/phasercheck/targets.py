"""Target constraint builders for the supported bad-configuration classes,
plus the one owner of the target-record format: the reader of target
files, the writer of constraint records and their number words.

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
import re
import shlex

from .parser import ParseError, parse_seq
from .symbolic import ANY, FREE_BOUNDS, INF, OPT_FREE, Constraint, Gap
from .syntax import Assert, Asynch, Drop, Signal, Wait, cond_outcomes, cond_vars, seq_to_str


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
# Target files: records of constraints and partial configurations


class RecordFormatError(ValueError):
    """A malformed target file; the message starts with ``line N:``."""


_BV_VALUES = {"true": True, "false": False, "*": None}


def natural(word: str) -> int:
    if not word.isdigit():
        raise ValueError(f"expected a natural number, found {word!r}")
    return int(word)


def natural_or_inf(word: str):
    """A natural number, or ``INF`` for ``inf``: gap uppers, ``--k``, ``--b``."""
    return INF if word == "inf" else natural(word)


def _fields(words, keys, flags):
    """Split words into ``key=value`` pairs (keys from ``keys``) and bare
    flags (from ``flags``); any other word is an error."""
    kv, seen = {}, set()
    for w in words:
        k, eq, v = w.partition("=")
        if eq and k in keys:
            kv[k] = v
        elif not eq and w in flags:
            seen.add(w)
        else:
            raise ValueError(f"unexpected {w!r}")
    return kv, seen


def _read_seq(words):
    if len(words) != 1:
        raise ValueError('expected seq tI "statements" or *')
    return None if words[0] == "*" else parse_seq(words[0])


def _read_gap(words) -> Gap:
    kv, flags = _fields(words, ("var", "lw", "ls", "uw", "us"), ("nreg", "opt"))
    var = kv.pop("var", ANY)
    if "nreg" in flags:
        return Gap(var, None)
    if len(kv) != 4:
        raise ValueError("a gap needs lw=, ls=, uw= and us= (or nreg)")
    lw, ls = natural(kv["lw"]), natural(kv["ls"])
    uw, us = natural_or_inf(kv["uw"]), natural_or_inf(kv["us"])
    if (uw == INF) != (us == INF):
        raise ValueError("uw and us must be both finite or both inf")
    if lw > uw or ls > us:
        raise ValueError("a lower bound is above its upper bound")
    return Gap(var, (lw, ls, uw, us), "opt" in flags)


def _read_env(words) -> tuple:
    kv, _ = _fields(words, ("ew", "es"), ())
    if len(kv) != 2:
        raise ValueError("env needs ew= and es=")
    return natural(kv["ew"]), natural(kv["es"])


def _read_phase(words):
    """A ``phase`` cell: a Gap for ``nreg`` and ``free``, which need no
    level, else ``(var, w, s)``."""
    kv, flags = _fields(words, ("var", "w", "s"), ("nreg", "free"))
    var = kv.pop("var", ANY)
    if "nreg" in flags:
        return Gap(var, None)
    if "free" in flags:
        return Gap(var, FREE_BOUNDS)
    if len(kv) != 2:
        raise ValueError("phase cell needs w= and s= (or nreg/free)")
    return var, natural(kv["w"]), natural(kv["s"])


def constraint_from_record(bv, seqs, n_phasers: int, cells) -> Constraint:
    """The constraint a ``constraint`` record states over the sequence
    ids ``seqs``; unstated cells are optional free."""
    return Constraint(
        bv=bv,
        seqs=seqs,
        gaps=tuple(
            tuple(cells.get(("gap", t, p), OPT_FREE) for p in range(n_phasers))
            for t in range(len(seqs))
        ),
        egaps=tuple(cells.get(("env", p), (0, 0)) for p in range(n_phasers)),
    )


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
    ``constraint`` and ``partial-config`` records.  Blank lines and ``#``
    lines are skipped.  Each record's header line picks its cell lines
    and its builder; every record reads the shared lines
    ``bv name=true|false|*``, ``tasks N``, ``phasers N`` and
    ``seq tI "statements"|*``.  A cell tag maps to (index letters,
    reader): with letters ``"tp"`` the tag is followed by ``tI pJ``, with
    ``"p"`` by ``pJ``, and the reader turns the remaining words into the
    cell's value.

    A record that pins a sequence no task reaches has no model, so it is
    checked and then left out; its opening line is appended to the list
    ``left_out``.  Raises RecordFormatError naming the line."""
    formats = {
        "constraint {": ({"gap": ("tp", _read_gap), "env": ("p", _read_env)}, constraint_from_record),
        "partial-config {": ({"phase": ("tp", _read_phase)}, partial_config_constraint),
    }
    expected = " or ".join(map(repr, formats))
    records, body = [], None
    lines = text.splitlines()
    for n, ln in enumerate(map(str.strip, lines), 1):
        if not ln or ln.startswith("#"):
            continue
        if body is None:
            if ln not in formats:
                raise RecordFormatError(f"line {n}: expected {expected}, found {ln!r}")
            header, body, opened = ln, [], n
        elif ln == "}":
            cell_tags, build = formats[header]
            records.append((opened, build, *_read_record(opened, body, program.bool_vars, cell_tags)))
            body = None
        else:
            body.append((n, ln))
    if body is not None:
        raise RecordFormatError(f"line {opened}: unterminated {header.removesuffix(' {')} record")
    if not records:
        raise RecordFormatError(f"line {len(lines) + 1}: expected {expected}")
    out = []
    for opened, build, bv, seqs, n_phasers, cells in records:
        ids = program.intern(seqs)
        try:
            phi = build(bv, (None,) * len(seqs) if ids is None else ids, n_phasers, cells)
        except ValueError as e:
            raise RecordFormatError(f"line {opened}: {e}") from None
        if ids is None:
            left_out.append(opened)
        else:
            out.append(phi)
    return out


def _read_record(opened: int, body, bool_vars, cell_tags) -> tuple:
    """(bv, seqs, phaser count, cells) of one record's body lines, each
    ``(line, text)``.  Every statement is made once: a repeated ``tasks``
    or ``phasers`` line, ``seq tI``, cell key or ``bv`` name is an
    error."""
    tags = {"seq": ("t", _read_seq), **cell_tags}
    cells = {}  # ("tasks",), ("bv", name), (tag, I[, J]) -> value
    stated = {}  # the same keys -> the line that states them
    indices = []  # (line, letter, index), checked once the counts are known
    for n, ln in body:
        try:
            tag, *words = shlex.split(ln)
            if tag == "bv":
                values = []
                for w in words:
                    k, _, v = w.partition("=")
                    if k not in bool_vars or v not in _BV_VALUES:
                        raise ValueError(f"expected name=true|false|* for a declared name, found {w!r}")
                    values.append((("bv", k), f"bv {k}", _BV_VALUES[v]))
            elif tag in ("tasks", "phasers"):
                if len(words) != 1:
                    raise ValueError(f"expected '{tag} N'")
                count = natural(words[0])
                if tag == "tasks" and count == 0:
                    raise ValueError("a record has at least one task")
                values = [((tag,), tag, count)]
            elif tag in tags:
                letters, read = tags[tag]
                key = (tag,)
                # padded, so that a missing index reads as "" and fails
                for letter, w in zip(letters, words + [""] * len(letters)):
                    if re.fullmatch(letter + r"\d+", w) is None:
                        raise ValueError(f"expected {letter}N after {tag!r}, found {w!r}")
                    key += (int(w[1:]),)
                    indices.append((n, letter, key[-1]))
                label = " ".join([tag, *words[: len(letters)]])
                values = [(key, label, read(words[len(letters):]))]
            else:
                raise ValueError(f"unknown record line {ln!r}")
            for key, label, value in values:
                if key in stated:
                    raise ValueError(f"{label!r} repeats line {stated[key]}")
                stated[key], cells[key] = n, value
        except ParseError as e:
            raise RecordFormatError(f"line {n}: bad control sequence: {e.message}") from None
        except ValueError as e:
            raise RecordFormatError(f"line {n}: {e}") from None
    if ("tasks",) not in cells or ("phasers",) not in cells:
        raise RecordFormatError(f"line {opened}: missing 'tasks' or 'phasers' count")
    limits = {"t": cells[("tasks",)], "p": cells[("phasers",)]}
    for n, letter, i in indices:
        if i >= limits[letter]:
            raise RecordFormatError(
                f"line {n}: {letter}{i} is out of range (only {limits[letter]} declared)"
            )
    bv = tuple(cells.get(("bv", name)) for name in bool_vars)
    seqs = tuple(cells.get(("seq", t)) for t in range(limits["t"]))
    return bv, seqs, limits["p"], cells


def _num(x) -> str:
    return "inf" if x == INF else str(x)


def write_record(header: str, bool_vars, bv, seqs, n_phasers: int, cells) -> str:
    """One record in the form ``read_targets`` reads; ``cells`` are the
    format's own lines, without indentation."""
    values = {v: word for word, v in _BV_VALUES.items()}
    lines = [f"{header} {{"]
    lines += [f"bv {name}={values[v]}" for name, v in zip(bool_vars, bv)]
    lines += [f"tasks {len(seqs)}", f"phasers {n_phasers}"]
    lines += [
        f"seq t{t} " + ("*" if seq is None else f'"{seq_to_str(seq)}"')
        for t, seq in enumerate(seqs)
    ]
    return "\n  ".join(lines + list(cells)) + "\n}"


def constraint_to_text(phi: Constraint, program) -> str:
    """One constraint record; its sequence ids name ``program``'s
    sequences."""
    cells = []
    for t in range(phi.n_tasks):
        for p in range(phi.n_phasers):
            g = phi.gaps[t][p]
            if g.bounds is None:
                cells.append(f"gap t{t} p{p} var={g.var} nreg")
            else:
                lw, ls, uw, us = g.bounds
                opt = " opt" if g.opt else ""
                cells.append(
                    f"gap t{t} p{p} var={g.var}{opt} "
                    f"lw={_num(lw)} ls={_num(ls)} uw={_num(uw)} us={_num(us)}"
                )
    cells += [f"env p{p} ew={ew} es={es}" for p, (ew, es) in enumerate(phi.egaps)]
    seqs = tuple(None if s is None else program.suffixes[s] for s in phi.seqs)
    return write_record("constraint", program.bool_vars, phi.bv, seqs, phi.n_phasers, cells)
