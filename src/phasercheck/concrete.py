"""Concrete configurations, small-step semantics, and the bounded explorer.

Configurations are immutable; tasks and phasers are row/column indices,
and a task's control sequence is its id in the ``control.Program``
tables, which give each id's head, next and barrier-skip ids.  The cell
of an unregistered task holds ``NREG``, so every cell, row and column
sorts as it is.  Exploration deduplicates configurations up to renaming
through canonicalization.  A head with a condition branches once per
value the condition can take (``step_choices``), and ``apply_step``
fires it with that value.  ``explore`` canonicalizes each successor from
its canonical parent and the task that stepped (``canonical``'s hint),
which mostly splices that task into its parent's task order, and a task
with the same sequence and row as the one before it takes that task's
successor for each value instead of canonicalizing its own.  Per
configuration it finds the blocked waits and sorts the columns' cells
once for all successors, and per call it steps each local head (one
that reads and changes only its task's sequence, row and ``bv``) once
for each sequence, row and ``bv`` it meets.

Reconstruction notes (the figure-level rules are not part of the available
sources): exit only empties the control sequence and never deregisters; a
wait is blocked while any registered task holding a signal value has not
signalled past the waiter's wait value; barrier blocks run their body as an
atomic macro-section owned by one participant, which ends at the body's end
or at an ``exit`` inside it.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .control import Program
from .syntax import (
    NO_MODE,
    NO_VAR,
    SIG,
    SIG_WAIT,
    WAIT,
    Assert,
    Assign,
    Asynch,
    Drop,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Node,
    Signal,
    Stmt,
    Wait,
    While,
    cond_outcomes,
    seq_to_str,
)


class Reg(NamedTuple):
    """Registration of one task on one phaser.

    ``wait`` is None in SIG mode and ``sig`` is None in WAIT mode (a
    wait-only task holds no signal value so it never blocks other waiters).
    A mode fixes which values are None, and ``NREG`` holds neither in the
    mode that sorts last, so cells compare as they are.
    """

    mode: str
    wait: object  # int | None
    sig: object  # int | None


NREG = Reg(NO_MODE, None, None)  # the cell of an unregistered task; test it with ==


class Configuration(Node):
    """Every step builds one, and exploration hashes and keeps each, so
    the record methods are written out instead of inherited from
    ``Node``, and the fields are slots."""

    __slots__ = ("bv", "seqs", "phases", "atomic")
    bv: tuple  # one bool per program bool variable
    seqs: tuple  # one control-sequence id per task
    phases: tuple  # phases[t][p] -> (variable name or "-", Reg, NREG when unregistered)
    atomic: object  # task index owning an atomic barrier body, or None (default)

    def __init__(self, bv, seqs, phases, atomic=None):
        set_field = object.__setattr__
        set_field(self, "bv", bv)
        set_field(self, "seqs", seqs)
        set_field(self, "phases", phases)
        set_field(self, "atomic", atomic)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.seqs == other.seqs
            and self.phases == other.phases
            and self.bv == other.bv
            and self.atomic == other.atomic
        )

    def __hash__(self):
        return hash((self.bv, self.seqs, self.phases, self.atomic))

    def __reduce__(self):
        # copy and pickle through __init__: the slots refuse assignment
        return Configuration, (self.bv, self.seqs, self.phases, self.atomic)

    @property
    def n_tasks(self) -> int:
        return len(self.seqs)

    @property
    def n_phasers(self) -> int:
        return len(self.phases[0]) if self.phases else 0


# ---------------------------------------------------------------------------
# Error outcomes


class AssertionViolation(Node):
    task: int


class RegistrationError(Node):
    task: int
    command: str
    var: str


class CyclicWait(Node):
    tasks: tuple  # the waiting cycle, in order


# ---------------------------------------------------------------------------
# Construction and basic queries


def initial_config(p: Program) -> Configuration:
    return Configuration(
        bv=tuple(False for _ in p.bool_vars),
        seqs=(p.body_ids["main"],),
        phases=((),),
    )


def binding(c: Configuration, t: int, var: str):
    """Phaser index the task refers to with ``var``, or None."""
    for pi, (v, _) in enumerate(c.phases[t]):
        if v == var:
            return pi
    return None


# ---------------------------------------------------------------------------
# Step relation


def _blockers(c: Configuration, p: Program, t: int) -> list:
    """Tasks whose signal values hold back the wait at the head of task
    ``t``: those registered with a signal value not past t's wait value.
    Empty unless the head is a wait on a phaser t holds a wait value on."""
    head = p.heads[c.seqs[t]]
    pi = binding(c, t, head.var) if isinstance(head, Wait) else None
    reg = NREG if pi is None else c.phases[t][pi][1]
    if reg.wait is None:
        return []
    holds_back = lambda r: r.sig is not None and r.sig <= reg.wait
    return [u for u, row in enumerate(c.phases) if holds_back(row[pi][1])]


def _blocked(c: Configuration, p: Program) -> dict:
    """Each task whose wait is held back -> its ``_blockers``."""
    heads = p.heads
    return {t: by for t, seq in enumerate(c.seqs) if isinstance(heads[seq], Wait) and (by := _blockers(c, p, t))}


def _barrier_held(c: Configuration, p: Program, t: int) -> bool:
    """The head barrier of task ``t`` is on a phaser t is registered on, and
    some registered task does not sit at the same barrier block."""
    want = p.heads[c.seqs[t]]
    pi = binding(c, t, want.var)
    if pi is None or c.phases[t][pi][1] == NREG:
        return False
    for u, seq in enumerate(c.seqs):
        if c.phases[u][pi][1] == NREG:
            continue
        head = p.heads[seq]
        if not isinstance(head, NextBlock):
            return True
        if binding(c, u, head.var) != pi or head.body != want.body:
            return True
    return False


def enabled_steps(c: Configuration, p: Program, blocked=None) -> list:
    """(task, head statement) pairs that can fire.  Erroneous heads
    (commands on unregistered phasers, failing assertions) are enabled and
    step to an error outcome; a guarded wait or barrier that is not ready
    is simply absent.  ``blocked`` is ``_blocked(c, p)``, computed when
    not given."""
    if blocked is None:
        blocked = _blocked(c, p)
    out = []
    for t, seq in enumerate(c.seqs):
        head = p.heads[seq]
        if head is None or c.atomic not in (None, t) or t in blocked:
            continue
        if isinstance(head, NextBlock) and c.atomic != t and _barrier_held(c, p, t):
            continue
        out.append((t, head))
    return out


def step_choices(c: Configuration, p: Program, head: Stmt) -> list:
    """The values an enabled head can fire with: the sorted values of its
    condition under ``c.bv``, or ``[None]`` for a head without one."""
    if isinstance(head, (While, If, Assign, Assert)):
        return sorted(cond_outcomes(head.cond, dict(zip(p.bool_vars, c.bv))))
    return [None]


def apply_step(c: Configuration, p: Program, t: int, value=None):
    """Fire the head statement of task ``t``; returns the successor
    configuration or an error outcome.  Pre: (t, head) is enabled, and a
    head with a condition fires with one of its ``step_choices``.

    The data effect is stated here; the next control sequence of every
    head is ``p.next_ids``' (the first one, or the second for a condition
    whose value is false)."""
    head = p.heads[c.seqs[t]]
    seqs = list(c.seqs)
    phases = c.phases  # rows are tuples: a step rebuilds only those it changes
    bv = c.bv
    atomic = c.atomic
    taken = True

    if isinstance(head, NewPhaser):
        # the variable rebinds to the new phaser
        own = tuple((NO_VAR, reg) if v == head.var else (v, reg) for v, reg in phases[t])
        phases = tuple(row + ((NO_VAR, NREG),) for row in phases)
        phases = phases[:t] + (own + ((head.var, Reg(SIG_WAIT, 0, 0)),),) + phases[t + 1 :]

    elif isinstance(head, (Signal, Wait, Drop)):
        pi = binding(c, t, head.var)
        reg = NREG if pi is None else phases[t][pi][1]
        if isinstance(head, Signal) and reg.sig is not None:
            cell = (head.var, Reg(reg.mode, reg.wait, reg.sig + 1))
        elif isinstance(head, Wait) and reg.wait is not None:
            cell = (head.var, Reg(reg.mode, reg.wait + 1, reg.sig))
        elif isinstance(head, Drop) and reg != NREG:
            cell = (head.var, NREG)
        else:  # unregistered, or registered in a mode without the command
            return RegistrationError(t, type(head).__name__.lower(), head.var)
        row = phases[t][:pi] + (cell,) + phases[t][pi + 1 :]
        phases = phases[:t] + (row,) + phases[t + 1 :]

    elif isinstance(head, Asynch):
        callee = p.task(head.task)
        child_row = [(NO_VAR, NREG)] * c.n_phasers
        for v, mode, formal in zip(head.args, head.modes, callee.params):
            pi = binding(c, t, v)
            reg = NREG if pi is None else phases[t][pi][1]
            if mode != reg.mode and reg.mode != SIG_WAIT:  # NREG matches no mode
                return RegistrationError(t, "asynch", v)
            wait = None if mode == SIG else reg.wait
            sig = None if mode == WAIT else reg.sig
            child_row[pi] = (formal, Reg(mode, wait, sig))
        seqs.append(p.body_ids[head.task])
        phases += (tuple(child_row),)

    elif isinstance(head, (Assign, Assert, While, If)):
        if not isinstance(value, bool):
            raise TypeError(f"{head} fired without the value of its condition")
        if isinstance(head, Assign):
            i = p.bool_vars.index(head.var)
            bv = bv[:i] + (value,) + bv[i + 1 :]
        elif isinstance(head, Assert):
            if not value:
                return AssertionViolation(t)
        else:
            taken = value

    elif isinstance(head, NextBlock):
        if atomic == t and not head.body:
            atomic = None  # the executor leaves the barrier body
        else:
            pi = binding(c, t, head.var)
            if pi is None or phases[t][pi][1] == NREG:
                return RegistrationError(t, "next", head.var)
            # t executes the body; every other participant skips it
            for u in range(c.n_tasks):
                if u != t and phases[u][pi][1] != NREG:
                    seqs[u] = p.skip_ids[c.seqs[u]]
            if head.body:
                atomic = t

    elif isinstance(head, Exit):
        atomic = None  # an executor that exits its barrier body leaves it

    else:
        raise TypeError(f"cannot step {head!r}")

    seqs[t] = p.next_ids[c.seqs[t]][0 if taken else 1]
    return Configuration(bv, tuple(seqs), phases, atomic)


# heads whose step reads and changes only its task's sequence and row, and bv
LOCAL = (Assign, Assert, If, While, Signal, Wait, Drop)


def _local_steps(c: Configuration, p: Program, t: int, bounds) -> list:
    """The steps of task ``t``, at a local head, as (value, next sequence,
    next row or None when the row stays, next bv, the bound the step
    breaks or None), one per value; a step to an error is (value, None,
    None, None, None), since the error names ``t``."""
    out = []
    for value in step_choices(c, p, p.heads[c.seqs[t]]):
        d = apply_step(c, p, t, value)
        if isinstance(d, Configuration):
            row = None if d.phases is c.phases else d.phases[t]
            out.append((value, d.seqs[t], row, d.bv, bounds and _beyond(d, bounds, t)))
        else:
            out.append((value, None, None, None, None))
    return out


def successors(c: Configuration, p: Program, blocked=None, bounds=None, local=None) -> list:
    """All (task, stmt, value, outcome) tuples from enabled steps, one per
    value of the head's condition.

    ``explore`` passes ``c``'s ``_blocked`` map, its bounds, and its cache
    of ``_local_steps`` by (sequence, row, bv), which otherwise lives for
    this call.  With bounds, an outcome beyond them is the name of the
    bound it breaks."""
    if local is None:
        local = {}
    out = []
    for t, head in enabled_steps(c, p, blocked):
        if not isinstance(head, LOCAL):
            for value in step_choices(c, p, head):
                outcome = apply_step(c, p, t, value)
                if bounds is not None and isinstance(outcome, Configuration):
                    outcome = _beyond(outcome, bounds, t) or outcome
                out.append((t, head, value, outcome))
            continue
        key = (c.seqs[t], c.phases[t], c.bv)
        steps = local.get(key)
        if steps is None:
            steps = local[key] = _local_steps(c, p, t, bounds)
        for value, seq, row, bv, beyond in steps:
            if seq is None:
                outcome = apply_step(c, p, t, value)
            elif beyond is not None:
                outcome = beyond
            else:
                phases = c.phases if row is None else c.phases[:t] + (row,) + c.phases[t + 1 :]
                outcome = Configuration(bv, c.seqs[:t] + (seq,) + c.seqs[t + 1 :], phases, c.atomic)
            out.append((t, head, value, outcome))
    return out


# ---------------------------------------------------------------------------
# Canonicalization (dedup key for exploration)


def _shift(col: tuple) -> tuple:
    """A phaser column's cells less its least phase value (its wait value,
    or its signal value in SIG mode)."""
    k = min([r.sig if r.wait is None else r.wait for _, r in col if r != NREG], default=0)
    if k == 0:
        return col
    shift = lambda r: Reg(r.mode, None if r.wait is None else r.wait - k, None if r.sig is None else r.sig - k)
    return tuple([e if e[1] == NREG else (e[0], shift(e[1])) for e in col])


def _sorted_columns(cols: list, n_tasks: int) -> list:
    """The rows of the shifted columns ``cols``, with the columns sorted by
    their cell multisets (a tie keeps their order)."""
    cols.sort(key=sorted)
    return list(zip(*cols)) or [()] * n_tasks


def _shift_column(phases: tuple, q: int, columns: list):
    """Canonical rows after a step changed one cell of column ``q`` of
    canonical rows, and whether the columns kept their order.
    ``columns`` holds the sorted cells of each column before the step,
    which are those of every column but ``q`` after it.  Column ``q`` is
    shifted alone; when its cell multiset no longer sits between its
    neighbours', the columns are sorted again, and the others need no
    shift."""
    cells = [row[q] for row in phases]
    col = _shift(cells)
    mid = sorted(col)
    if (q and columns[q - 1] > mid) or (q + 1 < len(columns) and mid > columns[q + 1]):
        cols = list(zip(*phases))
        cols[q] = col
        return _sorted_columns(cols, len(phases)), False
    if col is cells:
        return phases, True
    return tuple([row if row[q] is e else row[:q] + (e,) + row[q + 1 :] for row, e in zip(phases, col)]), True


def canonical(c: Configuration, p: Program, parent=None, task=None, columns=None) -> Configuration:
    """Deterministically relabel tasks and phasers and subtract the
    per-phaser minimum phase (sound for reachability modulo equivalence).
    Phasers sort by the multiset of their cells (``NREG`` sorts after
    every registration on a variable).  Tasks sort by the text of their
    sequence (``p.text_ranks``), then by their row, then by index.

    ``explore`` passes a hint: ``parent`` is canonical, ``c`` is
    ``apply_step(parent, p, task, ·)`` and ``columns`` holds the sorted
    cells of each of ``parent``'s columns, which its successors share
    (sorted here when not given).
    An assign, assert, if or while then changed only ``task``'s sequence
    (and ``bv``), and a signal, wait or drop one cell of its row besides.
    That column is shifted alone and, while its cells still sit between
    its neighbours' in ``columns``, the columns keep their order; a shift
    keeps the order of the other rows, so outside an atomic section
    ``task`` is spliced into the others at its place.  Every other step
    sorts the columns, or the tasks, in full.  Both give the same
    configuration."""
    head = None if parent is None else p.heads[parent.seqs[task]]
    if isinstance(head, (Signal, Wait, Drop)):
        if columns is None:
            columns = [sorted(col) for col in zip(*parent.phases)]
        rows, in_place = _shift_column(c.phases, binding(c, task, head.var), columns)
    elif isinstance(head, (Assign, Assert, If, While)):
        rows, in_place = c.phases, True
    else:
        rows, in_place = _sorted_columns([_shift(col) for col in zip(*c.phases)], c.n_tasks), False
    ranks, seqs = p.text_ranks, c.seqs
    if in_place and c.atomic is None:
        seq, row = seqs[task], rows[task]
        key = (ranks[seq], row)
        seqs, rows = seqs[:task] + seqs[task + 1 :], rows[:task] + rows[task + 1 :]
        lo, hi = 0, len(seqs)
        while lo < hi:  # the others keep their order; a tie goes by index
            mid = (lo + hi) // 2
            other = (ranks[seqs[mid]], rows[mid])
            if other < key or other == key and mid < task:
                lo = mid + 1
            else:
                hi = mid
        return Configuration(c.bv, seqs[:lo] + (seq,) + seqs[lo:], rows[:lo] + (row,) + rows[lo:])
    order = [t for _, _, t in sorted(zip([ranks[s] for s in seqs], rows, range(c.n_tasks)))]
    atomic = None if c.atomic is None else order.index(c.atomic)
    return Configuration(c.bv, tuple([seqs[t] for t in order]), tuple([rows[t] for t in order]), atomic)


# ---------------------------------------------------------------------------
# Cyclic-wait detection


def cyclic_waits(c: Configuration, p: Program, blocked=None):
    """A cycle of tasks each blocked at a wait whose guard the next task in
    the cycle falsifies, or None.  ``blocked`` is ``_blocked(c, p)``,
    computed when not given."""
    blockers = _blocked(c, p) if blocked is None else blocked
    # depth-first search among blocked tasks; the first back edge closes a cycle
    done = set()

    def cycle_from(path):
        for u in blockers[path[-1]]:
            if u in path:
                return tuple(path[path.index(u):])
            if u in blockers and u not in done:
                found = cycle_from(path + [u])
                if found is not None:
                    return found
        done.add(path[-1])
        return None

    for start in blockers:
        found = None if start in done else cycle_from([start])
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Bounded forward exploration


class Bounds(Node):
    max_steps: int = 10000
    max_tasks: int = 4
    max_phasers: int = 4
    max_phase: int = 6


class ExploreResult(Node):
    configs: list
    errors: list  # (error outcome, config index the step fired from)
    exhausted: bool
    edges: list  # (src, task, stmt str, dst)
    cut: tuple = ()  # the Bounds fields that cut the frontier, in field order


def _beyond(c: Configuration, b: Bounds, t: int):
    """The name of the bound that task ``t``'s step into ``c``, from a
    configuration within the bounds, breaks, or None.  A step moves phase
    values only in ``t``'s row: an ``asynch`` child copies values of that
    row, and ``newPhaser`` adds a column at 0."""
    if c.n_tasks > b.max_tasks:
        return "max_tasks"
    if c.n_phasers > b.max_phasers:
        return "max_phasers"
    for _, reg in c.phases[t]:
        for v in (reg.wait, reg.sig):
            if v is not None and v > b.max_phase:
                return "max_phase"
    return None


def explore(p: Program, bounds: Bounds, record_graph: bool = False) -> ExploreResult:
    """Breadth-first closure of the step relation over all choices.

    ``cut`` names each bound that kept a successor out, and ``max_steps``
    when configurations were left unexpanded.  ``exhausted`` is True only
    when none did, so "no error found" is conclusive for the quotient
    modulo equivalence.

    What the successors of one configuration share is computed once for
    them: its blocker map serves ``successors`` and ``cyclic_waits``, and
    its columns' sorted cells serve ``canonical``'s hint.  The steps of a
    local head (``LOCAL``) read only their task's sequence, row and
    ``bv``, so each such triple is stepped once per call and its steps
    are kept (``_local_steps``).  A task with the same sequence and row
    as the one before it takes that task's successor for each value.
    """
    init = canonical(initial_config(p), p)
    index = {init: 0}
    configs = [init]
    errors = []
    edges = []
    queue = deque([0])
    expansions = 0
    cut = set()
    local = {}  # (sequence, row, bv) -> _local_steps
    while queue:
        if expansions >= bounds.max_steps:
            cut.add("max_steps")
            break
        ci = queue.popleft()
        c = configs[ci]
        expansions += 1
        blocked = _blocked(c, p)
        cycle = cyclic_waits(c, p, blocked)
        found = [] if cycle is None else [CyclicWait(cycle)]
        seqs, rows = c.seqs, c.phases
        columns = [sorted(col) for col in zip(*rows)]
        done = {}  # (task, value) -> successor index
        for t, stmt, value, outcome in successors(c, p, blocked, bounds, local):
            if outcome.__class__ is str:  # the bound the step breaks
                cut.add(outcome)
                continue
            if not isinstance(outcome, Configuration):
                if outcome not in found:
                    found.append(outcome)
                continue
            # a twin of the task before (same sequence and row; c is
            # canonical, so twins are adjacent) steps to the same canonical
            # successor.  In an atomic section only its owner steps, so no
            # task finds a twin's entry there
            if t and seqs[t - 1] == seqs[t] and rows[t - 1] == rows[t] and (t - 1, value) in done:
                j = done[t - 1, value]
            else:
                cc = canonical(outcome, p, c, t, columns)
                j = index.setdefault(cc, len(configs))  # one hash per successor
                if j == len(configs):
                    configs.append(cc)
                    queue.append(j)
            done[t, value] = j
            if record_graph:
                edges.append((ci, t, str(stmt), j))
        errors.extend((e, ci) for e in found)
    cut = tuple(name for name in Bounds.field_names if name in cut)
    return ExploreResult(configs, errors, not cut, edges, cut)


def config_to_text(c: Configuration, p: Program) -> str:
    """Canonical one-record structured text form (debug output)."""
    lines = ["config {"]
    for name, val in zip(p.bool_vars, c.bv):
        lines.append(f"  bv {name}={'true' if val else 'false'}")
    for t in range(c.n_tasks):
        seq = seq_to_str(p.suffixes[c.seqs[t]]) or "<done>"
        lines.append(f'  task t{t} seq "{seq}"')
    for t in range(c.n_tasks):
        for pi in range(c.n_phasers):
            var, reg = c.phases[t][pi]
            if reg == NREG and var == NO_VAR:
                continue
            if reg == NREG:
                lines.append(f"  phase t{t} p{pi} var={var} nreg")
            else:
                lines.append(
                    f"  phase t{t} p{pi} var={var} mode={reg.mode} "
                    f"w={reg.wait} s={reg.sig}"
                )
    lines.append("}")
    return "\n".join(lines)
