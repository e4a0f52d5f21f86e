"""Concrete configurations, small-step semantics, and the bounded explorer.

Configurations are immutable; tasks and phasers are row/column indices,
and exploration deduplicates configurations up to renaming through
canonicalization.  A head with a condition branches once per value the
condition can take (``step_choices``), and ``apply_step`` fires it with
that value.

Reconstruction notes (the figure-level rules are not part of the available
sources): exit only empties the control sequence and never deregisters; a
wait is blocked while any registered task holding a signal value has not
signalled past the waiter's wait value; barrier blocks run their body as an
atomic macro-section owned by one participant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .control import Program, head_successors
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
    Signal,
    Stmt,
    Wait,
    While,
    cond_outcomes,
)


@dataclass(frozen=True)
class Reg:
    """Registration of one task on one phaser.

    ``wait`` is None in SIG mode and ``sig`` is None in WAIT mode (a
    wait-only task holds no signal value so it never blocks other waiters).
    """

    mode: str
    wait: object  # int | None
    sig: object  # int | None


# One (task, phaser) cell: (variable name or "-", Reg or None for nreg).
Entry = tuple


@dataclass(frozen=True)
class Configuration:
    bv: tuple  # one bool per program bool variable
    seqs: tuple  # one ControlSeq per task
    phases: tuple  # phases[t][p] -> Entry
    atomic: object = None  # task index owning an atomic barrier body, or None

    @property
    def n_tasks(self) -> int:
        return len(self.seqs)

    @property
    def n_phasers(self) -> int:
        return len(self.phases[0]) if self.phases else 0


@dataclass(frozen=True)
class PartialConfiguration:
    """Wildcard-bearing pattern over configurations.

    bv entries and seqs may be None (= *); phase cells may be None
    (= unconstrained), or (var, val) with var in V + {"-", "*"} and val
    either "nreg" or a pair whose components are naturals or "*".
    """

    bv: tuple
    seqs: tuple
    phase: tuple  # phase[t][p] -> None | (var, val)

    @property
    def n_tasks(self) -> int:
        return len(self.seqs)

    @property
    def n_phasers(self) -> int:
        return len(self.phase[0]) if self.phase else 0


# ---------------------------------------------------------------------------
# Error outcomes


@dataclass(frozen=True)
class AssertionViolation:
    task: int


@dataclass(frozen=True)
class RegistrationError:
    task: int
    command: str
    var: str


@dataclass(frozen=True)
class CyclicWait:
    tasks: tuple  # the waiting cycle, in order


# ---------------------------------------------------------------------------
# Construction and basic queries


def initial_config(p: Program) -> Configuration:
    main = p.main
    return Configuration(
        bv=tuple(False for _ in p.bool_vars),
        seqs=(main.body,),
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


def _blockers(c: Configuration, t: int) -> list:
    """Tasks whose signal values hold back the wait at the head of task
    ``t``: those registered with a signal value not past t's wait value.
    Empty unless the head is a wait on a phaser t holds a wait value on."""
    seq = c.seqs[t]
    pi = binding(c, t, seq[0].var) if seq and isinstance(seq[0], Wait) else None
    reg = None if pi is None else c.phases[t][pi][1]
    if reg is None or reg.wait is None:
        return []
    holds_back = lambda r: r is not None and r.sig is not None and r.sig <= reg.wait
    return [u for u, row in enumerate(c.phases) if holds_back(row[pi][1])]


def _barrier_held(c: Configuration, t: int) -> bool:
    """The head barrier of task ``t`` is on a phaser t is registered on, and
    some registered task does not sit at the same barrier block."""
    want = c.seqs[t][0]
    pi = binding(c, t, want.var)
    if pi is None or c.phases[t][pi][1] is None:
        return False
    for u, seq in enumerate(c.seqs):
        if c.phases[u][pi][1] is None:
            continue
        if not seq or not isinstance(seq[0], NextBlock):
            return True
        if binding(c, u, seq[0].var) != pi or seq[0].body != want.body:
            return True
    return False


def enabled_steps(c: Configuration) -> list:
    """(task, head statement) pairs that can fire.  Erroneous heads
    (commands on unregistered phasers, failing assertions) are enabled and
    step to an error outcome; a guarded wait or barrier that is not ready
    is simply absent."""
    out = []
    for t, seq in enumerate(c.seqs):
        if not seq or c.atomic not in (None, t):
            continue
        head = seq[0]
        if isinstance(head, Wait) and _blockers(c, t):
            continue
        if isinstance(head, NextBlock) and c.atomic != t and _barrier_held(c, t):
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
    head is ``head_successors``' (the first one, or the second for a
    condition whose value is false)."""
    seq = c.seqs[t]
    head = seq[0]
    seqs = list(c.seqs)
    phases = [list(row) for row in c.phases]
    bv = list(c.bv)
    atomic = c.atomic
    taken = True

    if isinstance(head, NewPhaser):
        for row in phases:
            row.append((NO_VAR, None))
        for pi, (v, reg) in enumerate(phases[t][:-1]):
            if v == head.var:
                phases[t][pi] = (NO_VAR, reg)  # variable rebinds to the new phaser
        phases[t][-1] = (head.var, Reg(SIG_WAIT, 0, 0))

    elif isinstance(head, (Signal, Wait, Drop)):
        pi = binding(c, t, head.var)
        reg = None if pi is None else phases[t][pi][1]
        if isinstance(head, Signal) and reg is not None and reg.sig is not None:
            phases[t][pi] = (head.var, Reg(reg.mode, reg.wait, reg.sig + 1))
        elif isinstance(head, Wait) and reg is not None and reg.wait is not None:
            phases[t][pi] = (head.var, Reg(reg.mode, reg.wait + 1, reg.sig))
        elif isinstance(head, Drop) and reg is not None:
            phases[t][pi] = (head.var, None)
        else:  # unregistered, or registered in a mode without the command
            return RegistrationError(t, type(head).__name__.lower(), head.var)

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
        seqs.append(callee.body)
        phases.append(child_row)

    elif isinstance(head, (Assign, Assert, While, If)):
        if not isinstance(value, bool):
            raise TypeError(f"{head} fired without the value of its condition")
        if isinstance(head, Assign):
            bv[p.bool_vars.index(head.var)] = value
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
            # t executes the body; every other participant skips it and
            # unfolds its barrier as if the body were empty
            for u in range(c.n_tasks):
                if u != t and phases[u][pi][1] is not None:
                    bare = (NextBlock(c.seqs[u][0].var, ()),) + c.seqs[u][1:]
                    seqs[u] = head_successors(bare)[0].next_seq
            if head.body:
                atomic = t

    elif not isinstance(head, Exit):
        raise TypeError(f"cannot step {head!r}")

    seqs[t] = head_successors(seq)[0 if taken else 1].next_seq
    return Configuration(tuple(bv), tuple(seqs), tuple(tuple(r) for r in phases), atomic)


def successors(c: Configuration, p: Program) -> list:
    """All (task, stmt, value, outcome) tuples from enabled steps, one per
    value of the head's condition."""
    return [
        (t, head, value, apply_step(c, p, t, value))
        for t, head in enabled_steps(c)
        for value in step_choices(c, p, head)
    ]


# ---------------------------------------------------------------------------
# Canonicalization (dedup key for exploration)


def _entry_key(entry: Entry):
    var, reg = entry
    if reg is None:
        return (var, "nreg", -1, -1)
    return (
        var,
        reg.mode,
        -1 if reg.wait is None else reg.wait,
        -1 if reg.sig is None else reg.sig,
    )


def canonical(c: Configuration) -> Configuration:
    """Deterministically relabel tasks and phasers and subtract the
    per-phaser minimum phase (sound for reachability modulo equivalence)."""
    phases = [list(row) for row in c.phases]
    for p in range(c.n_phasers):
        regs = [row[p][1] for row in phases if row[p][1] is not None]
        k = min((r.wait if r.wait is not None else r.sig for r in regs), default=0)
        if k > 0:
            for row in phases:
                var, reg = row[p]
                if reg is not None:
                    wait = None if reg.wait is None else reg.wait - k
                    sig = None if reg.sig is None else reg.sig - k
                    row[p] = (var, Reg(reg.mode, wait, sig))
    # a phaser's key is a multiset over tasks, so one sort of each suffices
    phaser_order = sorted(
        range(c.n_phasers), key=lambda p: (sorted(_entry_key(row[p]) for row in phases), p)
    )
    task_order = sorted(
        range(c.n_tasks),
        key=lambda t: (
            tuple(str(s) for s in c.seqs[t]),
            tuple(_entry_key(phases[t][p]) for p in phaser_order),
            t,
        ),
    )
    atomic = None if c.atomic is None else task_order.index(c.atomic)
    return Configuration(
        c.bv,
        tuple(c.seqs[t] for t in task_order),
        tuple(tuple(phases[t][p] for p in phaser_order) for t in task_order),
        atomic,
    )


# ---------------------------------------------------------------------------
# Cyclic-wait detection


def cyclic_waits(c: Configuration, p: Program):
    """A cycle of tasks each blocked at a wait whose guard the next task in
    the cycle falsifies, or None."""
    # blocked task -> the tasks whose signals block its wait
    blockers = {t: by for t in range(c.n_tasks) if (by := _blockers(c, t))}
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


@dataclass
class Bounds:
    max_steps: int = 10000
    max_tasks: int = 4
    max_phasers: int = 4
    max_phase: int = 6


@dataclass
class ExploreResult:
    configs: list
    errors: list  # (error outcome, config index the step fired from)
    exhausted: bool
    edges: list = field(default_factory=list)  # (src, task, stmt str, dst)


def _within(c: Configuration, b: Bounds) -> bool:
    if c.n_tasks > b.max_tasks or c.n_phasers > b.max_phasers:
        return False
    for row in c.phases:
        for _, reg in row:
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
    init = canonical(initial_config(p))
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
        for t, stmt, _, outcome in successors(c, p):
            if not isinstance(outcome, Configuration):
                if outcome not in found:
                    found.append(outcome)
                continue
            if not _within(outcome, bounds):
                exhausted = False
                continue
            cc = canonical(outcome)
            if cc not in index:
                index[cc] = len(configs)
                configs.append(cc)
                queue.append(index[cc])
            if record_graph:
                edges.append((ci, t, str(stmt), index[cc]))
        errors.extend((e, ci) for e in found)
    return ExploreResult(configs, errors, exhausted, edges)


def config_to_text(c: Configuration, p: Program) -> str:
    """Canonical one-record structured text form (debug output)."""
    lines = ["config {"]
    for name, val in zip(p.bool_vars, c.bv):
        lines.append(f"  bv {name}={'true' if val else 'false'}")
    for t in range(c.n_tasks):
        seq = " ".join(str(s) for s in c.seqs[t]) or "<done>"
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
