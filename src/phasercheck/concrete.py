"""Concrete configurations, small-step semantics, and the bounded explorer.

Configurations are immutable; tasks and phasers are row/column indices,
and a task's control sequence is its id in the ``control.Program``
tables, which give each id's head, next and barrier-skip ids.
Exploration deduplicates configurations up to renaming through
canonicalization.  A head with a condition branches once per value the
condition can take (``step_choices``), and ``apply_step`` fires it with
that value.  ``explore`` canonicalizes each successor from its canonical
parent and the task that stepped (``canonical``'s hint), and a task
with the same sequence and row as the one before it takes that task's
successor for each value instead of canonicalizing its own.

Reconstruction notes (the figure-level rules are not part of the available
sources): exit only empties the control sequence and never deregisters; a
wait is blocked while any registered task holding a signal value has not
signalled past the waiter's wait value; barrier blocks run their body as an
atomic macro-section owned by one participant, which ends at the body's end
or at an ``exit`` inside it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import NamedTuple

from .control import Program
from .syntax import (
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
    """

    mode: str
    wait: object  # int | None
    sig: object  # int | None


class Configuration(Node):
    """Every step builds one, and exploration hashes and keeps each, so
    the record methods are written out instead of inherited from
    ``Node``, and the fields are slots."""

    __slots__ = ("bv", "seqs", "phases", "atomic")
    bv: tuple  # one bool per program bool variable
    seqs: tuple  # one control-sequence id per task
    phases: tuple  # phases[t][p] -> (variable name or "-", Reg or None for nreg)
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
    reg = None if pi is None else c.phases[t][pi][1]
    if reg is None or reg.wait is None:
        return []
    holds_back = lambda r: r is not None and r.sig is not None and r.sig <= reg.wait
    return [u for u, row in enumerate(c.phases) if holds_back(row[pi][1])]


def _barrier_held(c: Configuration, p: Program, t: int) -> bool:
    """The head barrier of task ``t`` is on a phaser t is registered on, and
    some registered task does not sit at the same barrier block."""
    want = p.heads[c.seqs[t]]
    pi = binding(c, t, want.var)
    if pi is None or c.phases[t][pi][1] is None:
        return False
    for u, seq in enumerate(c.seqs):
        if c.phases[u][pi][1] is None:
            continue
        head = p.heads[seq]
        if not isinstance(head, NextBlock):
            return True
        if binding(c, u, head.var) != pi or head.body != want.body:
            return True
    return False


def enabled_steps(c: Configuration, p: Program) -> list:
    """(task, head statement) pairs that can fire.  Erroneous heads
    (commands on unregistered phasers, failing assertions) are enabled and
    step to an error outcome; a guarded wait or barrier that is not ready
    is simply absent."""
    out = []
    for t, seq in enumerate(c.seqs):
        head = p.heads[seq]
        if head is None or c.atomic not in (None, t):
            continue
        if isinstance(head, Wait) and _blockers(c, p, t):
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
        phases = tuple(row + ((NO_VAR, None),) for row in phases)
        phases = phases[:t] + (own + ((head.var, Reg(SIG_WAIT, 0, 0)),),) + phases[t + 1 :]

    elif isinstance(head, (Signal, Wait, Drop)):
        pi = binding(c, t, head.var)
        reg = None if pi is None else phases[t][pi][1]
        if isinstance(head, Signal) and reg is not None and reg.sig is not None:
            cell = (head.var, Reg(reg.mode, reg.wait, reg.sig + 1))
        elif isinstance(head, Wait) and reg is not None and reg.wait is not None:
            cell = (head.var, Reg(reg.mode, reg.wait + 1, reg.sig))
        elif isinstance(head, Drop) and reg is not None:
            cell = (head.var, None)
        else:  # unregistered, or registered in a mode without the command
            return RegistrationError(t, type(head).__name__.lower(), head.var)
        row = phases[t][:pi] + (cell,) + phases[t][pi + 1 :]
        phases = phases[:t] + (row,) + phases[t + 1 :]

    elif isinstance(head, Asynch):
        callee = p.task(head.task)
        child_row = [(NO_VAR, None)] * c.n_phasers
        for v, mode, formal in zip(head.args, head.modes, callee.params):
            pi = binding(c, t, v)
            reg = None if pi is None else phases[t][pi][1]
            if reg is None or (mode != reg.mode and reg.mode != SIG_WAIT):
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
            if pi is None or phases[t][pi][1] is None:
                return RegistrationError(t, "next", head.var)
            # t executes the body; every other participant skips it
            for u in range(c.n_tasks):
                if u != t and phases[u][pi][1] is not None:
                    seqs[u] = p.skip_ids[c.seqs[u]]
            if head.body:
                atomic = t

    elif isinstance(head, Exit):
        atomic = None  # an executor that exits its barrier body leaves it

    else:
        raise TypeError(f"cannot step {head!r}")

    seqs[t] = p.next_ids[c.seqs[t]][0 if taken else 1]
    return Configuration(bv, tuple(seqs), phases, atomic)


def successors(c: Configuration, p: Program) -> list:
    """All (task, stmt, value, outcome) tuples from enabled steps, one per
    value of the head's condition."""
    return [
        (t, head, value, apply_step(c, p, t, value))
        for t, head in enabled_steps(c, p)
        for value in step_choices(c, p, head)
    ]


# ---------------------------------------------------------------------------
# Canonicalization (dedup key for exploration)


# the sort key of an unregistered cell (var, None) is (var, _NREG): "nreg"
# sorts after every mode name, so after every registration on var
_NREG = ("nreg",)


def _shift(col: tuple) -> tuple:
    """A phaser column's cells less its least phase value (its wait value,
    or its signal value in SIG mode)."""
    k = min([r.sig if r.wait is None else r.wait for _, r in col if r is not None], default=0)
    if k == 0:
        return col
    shift = lambda r: Reg(r.mode, None if r.wait is None else r.wait - k, None if r.sig is None else r.sig - k)
    return tuple([e if e[1] is None else (e[0], shift(e[1])) for e in col])


def _sorted_columns(c: Configuration) -> tuple:
    """The rows, and the rows of cell keys, with every column shifted and
    the columns sorted by their key multisets (a tie keeps their order)."""
    cols = [_shift(col) for col in zip(*c.phases)]
    # a registered cell is its own key: a mode fixes which of its values
    # are None, so two registrations never compare None with an int
    keys = [[e if e[1] is not None else (e[0], _NREG) for e in col] for col in cols]
    order = sorted(range(len(cols)), key=lambda q: sorted(keys[q]))
    no_phasers = [()] * c.n_tasks
    rows = list(zip(*[cols[q] for q in order])) or no_phasers
    return rows, list(zip(*[keys[q] for q in order])) or no_phasers


def _shift_column(phases: tuple, q: int):
    """Canonical rows after a step changed one cell of column ``q``: the
    column shifted alone, or None when its key multiset no longer sits
    between its neighbours' and the columns would reorder."""
    cells = [row[q] for row in phases]
    col = _shift(cells)
    key = lambda col: sorted([e if e[1] is not None else (e[0], _NREG) for e in col])
    mid = key(col)
    if q and key([row[q - 1] for row in phases]) > mid:
        return None
    if q + 1 < len(phases[0]) and mid > key([row[q + 1] for row in phases]):
        return None
    if col is cells:
        return phases
    return tuple([row if row[q] is e else row[:q] + (e,) + row[q + 1 :] for row, e in zip(phases, col)])


def canonical(c: Configuration, p: Program, parent=None, task=None) -> Configuration:
    """Deterministically relabel tasks and phasers and subtract the
    per-phaser minimum phase (sound for reachability modulo equivalence).
    Phasers sort by the multiset of their cell keys.  Tasks sort by the
    text of their sequence (``p.text_ranks``), then by their cells in
    phaser order, then by index.

    ``explore`` passes a hint: ``parent`` is canonical and ``c`` is
    ``apply_step(parent, p, task, ·)``.  An assign, assert, if or while
    then changed only ``task``'s sequence, and a signal, wait or drop one
    cell of its row besides.  That column is shifted alone and, while its
    key still sits between its neighbours', the columns keep their order;
    a shift keeps the order of the other rows, so only ``task`` moves to
    its place.  Every other step, or a column out of place, takes the
    full sort.  Both give the same configuration."""
    head = None if parent is None else p.heads[parent.seqs[task]]
    if isinstance(head, (Signal, Wait, Drop)):
        rows = _shift_column(c.phases, binding(c, task, head.var))
    else:
        rows = c.phases if isinstance(head, (Assign, Assert, If, While)) else None
    ranks, seqs = p.text_ranks, c.seqs
    if rows is None:
        rows, key_rows = _sorted_columns(c)
        order = [t for _, _, t in sorted(zip([ranks[s] for s in seqs], key_rows, range(c.n_tasks)))]
    else:
        key = lambda t: (ranks[seqs[t]], [e if e[1] is not None else (e[0], _NREG) for e in rows[t]], t)
        order = [t for t in range(c.n_tasks) if t != task]
        order.insert(bisect_left(order, key(task), key=key), task)
    atomic = None if c.atomic is None else order.index(c.atomic)
    return Configuration(c.bv, tuple([seqs[t] for t in order]), tuple([rows[t] for t in order]), atomic)


# ---------------------------------------------------------------------------
# Cyclic-wait detection


def cyclic_waits(c: Configuration, p: Program):
    """A cycle of tasks each blocked at a wait whose guard the next task in
    the cycle falsifies, or None."""
    # blocked task -> the tasks whose signals block its wait
    blockers = {t: by for t in range(c.n_tasks) if (by := _blockers(c, p, t))}
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


def _within(c: Configuration, b: Bounds, t: int) -> bool:
    """Whether task ``t``'s step into ``c``, from a configuration within
    the bounds, stays within them.  A step moves phase values only in
    ``t``'s row: an ``asynch`` child copies values of that row, and
    ``newPhaser`` adds a column at 0."""
    if c.n_tasks > b.max_tasks or c.n_phasers > b.max_phasers:
        return False
    for _, reg in c.phases[t]:
        if reg is None:
            continue
        for v in (reg.wait, reg.sig):
            if v is not None and v > b.max_phase:
                return False
    return True


def explore(p: Program, bounds: Bounds, record_graph: bool = False) -> ExploreResult:
    """Breadth-first closure of the step relation over all choices.

    ``exhausted`` is True only when no frontier state was cut by a bound,
    so "no error found" is conclusive for the quotient modulo equivalence.
    """
    init = canonical(initial_config(p), p)
    index = {init: 0}
    configs = [init]
    errors = []
    edges = []
    queue = deque([0])
    expansions = 0
    exhausted = True
    while queue:
        if expansions >= bounds.max_steps:
            exhausted = False
            break
        ci = queue.popleft()
        c = configs[ci]
        expansions += 1
        cycle = cyclic_waits(c, p)
        found = [] if cycle is None else [CyclicWait(cycle)]
        seqs, rows = c.seqs, c.phases
        done = {}  # (task, value) -> successor index, or None for a cut
        for t, stmt, value, outcome in successors(c, p):
            if not isinstance(outcome, Configuration):
                if outcome not in found:
                    found.append(outcome)
                continue
            # a twin of the task before (same sequence and row; c is
            # canonical, so twins are adjacent) steps to the same canonical
            # successor, or is cut alike.  In an atomic section only its
            # owner steps, so no task finds a twin's entry there
            if t and seqs[t - 1] == seqs[t] and rows[t - 1] == rows[t] and (t - 1, value) in done:
                j = done[t - 1, value]
            elif not _within(outcome, bounds, t):
                j = None
            else:
                cc = canonical(outcome, p, c, t)
                j = index.setdefault(cc, len(configs))  # one hash per successor
                if j == len(configs):
                    configs.append(cc)
                    queue.append(j)
            done[t, value] = j
            if j is None:
                exhausted = False
                continue
            if record_graph:
                edges.append((ci, t, str(stmt), j))
        errors.extend((e, ci) for e in found)
    return ExploreResult(configs, errors, exhausted, edges)


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
            if reg is None and var == NO_VAR:
                continue
            if reg is None:
                lines.append(f"  phase t{t} p{pi} var={var} nreg")
            else:
                lines.append(
                    f"  phase t{t} p{pi} var={var} mode={reg.mode} "
                    f"w={reg.wait} s={reg.sig}"
                )
    lines.append("}")
    return "\n".join(lines)
