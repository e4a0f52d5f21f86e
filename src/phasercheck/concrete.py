"""Concrete configurations, small-step semantics, and the bounded explorer.

Configurations are immutable; tasks and phasers are row/column indices,
and exploration deduplicates configurations up to renaming through
canonicalization.

Reconstruction notes (the figure-level rules are not part of the available
sources): exit only empties the control sequence and never deregisters; a
wait is blocked while any registered task holding a signal value has not
signalled past the waiter's wait value; barrier blocks run their body as an
atomic macro-section owned by one participant.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .control import head_successors
from .syntax import (
    ANY,
    NO_VAR,
    SIG,
    SIG_WAIT,
    WAIT,
    Assert,
    Assign,
    Asynch,
    ControlSeq,
    Drop,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Program,
    Signal,
    Stmt,
    Wait,
    While,
    count_ndets,
    eval_cond,
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


def bv_env(c: Configuration, p: Program) -> dict:
    return dict(zip(p.bool_vars, c.bv))


# ---------------------------------------------------------------------------
# Step relation


def _wait_blocked(c: Configuration, t: int, pi: int) -> bool:
    my_wait = c.phases[t][pi][1].wait
    for u in range(c.n_tasks):
        reg = c.phases[u][pi][1]
        if reg is not None and reg.sig is not None and reg.sig <= my_wait:
            return True
    return False


def _barrier_ready(c: Configuration, t: int, pi: int) -> bool:
    """All tasks registered on the phaser sit at the same barrier block."""
    want = c.seqs[t][0]
    assert isinstance(want, NextBlock)
    for u in range(c.n_tasks):
        reg = c.phases[u][pi][1]
        if reg is None:
            continue
        seq = c.seqs[u]
        if not seq or not isinstance(seq[0], NextBlock):
            return False
        if binding(c, u, seq[0].var) != pi:
            return False
        if seq[0].body != want.body:
            return False
    return True


def enabled_steps(c: Configuration, p: Program) -> list:
    """(task, head statement) pairs that can fire.  Erroneous heads
    (commands on unregistered phasers, failing assertions) are enabled and
    step to an error outcome; a guarded wait or barrier that is not ready
    is simply absent."""
    out = []
    for t in range(c.n_tasks):
        if c.atomic is not None and c.atomic != t:
            continue
        seq = c.seqs[t]
        if not seq:
            continue
        head = seq[0]
        if isinstance(head, Wait):
            pi = binding(c, t, head.var)
            if pi is None or c.phases[t][pi][1] is None:
                out.append((t, head))  # registration error outcome
            elif c.phases[t][pi][1].wait is None:
                out.append((t, head))  # wait in SIG mode
            elif not _wait_blocked(c, t, pi):
                out.append((t, head))
        elif isinstance(head, NextBlock):
            if c.atomic == t:
                out.append((t, head))
            else:
                pi = binding(c, t, head.var)
                if pi is None or c.phases[t][pi][1] is None:
                    out.append((t, head))
                elif _barrier_ready(c, t, pi):
                    out.append((t, head))
        else:
            out.append((t, head))
    return out


def step_choices(c: Configuration, p: Program, t: int, head: Stmt) -> list:
    """Choice values resolving the nondeterminism of one enabled head."""
    if isinstance(head, (While, If, Assign, Assert)):
        n = count_ndets(head.cond)
        return list(itertools.product((False, True), repeat=n))
    return [()]


def apply_step(c: Configuration, p: Program, t: int, choice: tuple = ()):
    """Fire the head statement of task ``t``; returns the successor
    configuration or an error outcome.  Pre: (t, head) is enabled."""
    seq = c.seqs[t]
    head, tail = seq[0], seq[1:]
    seqs = list(c.seqs)
    phases = [list(row) for row in c.phases]
    bv = list(c.bv)
    atomic = c.atomic

    def done(new_seq: ControlSeq) -> Configuration:
        seqs[t] = new_seq
        return Configuration(tuple(bv), tuple(seqs), tuple(tuple(r) for r in phases), atomic)

    if isinstance(head, Exit):
        return done(())

    if isinstance(head, NewPhaser):
        for row in phases:
            row.append((NO_VAR, None))
        for pi, (v, reg) in enumerate(phases[t][:-1]):
            if v == head.var:
                phases[t][pi] = (NO_VAR, reg)  # variable rebinds to the new phaser
        phases[t][-1] = (head.var, Reg(SIG_WAIT, 0, 0))
        return done(tail)

    if isinstance(head, (Signal, Wait, Drop)):
        cmd = type(head).__name__.lower()
        pi = binding(c, t, head.var)
        if pi is None or phases[t][pi][1] is None:
            return RegistrationError(t, cmd, head.var)
        reg = phases[t][pi][1]
        if isinstance(head, Signal):
            if reg.sig is None:
                return RegistrationError(t, cmd, head.var)
            phases[t][pi] = (head.var, Reg(reg.mode, reg.wait, reg.sig + 1))
        elif isinstance(head, Wait):
            if reg.wait is None:
                return RegistrationError(t, cmd, head.var)
            phases[t][pi] = (head.var, Reg(reg.mode, reg.wait + 1, reg.sig))
        else:
            phases[t][pi] = (head.var, None)
        return done(tail)

    if isinstance(head, Asynch):
        callee = p.task(head.task)
        child_row = [(NO_VAR, None) for _ in range(len(phases[0]) if phases else 0)]
        for v, mode, formal in zip(head.args, head.modes, callee.params):
            pi = binding(c, t, v)
            if pi is None or phases[t][pi][1] is None:
                return RegistrationError(t, "asynch", v)
            reg = phases[t][pi][1]
            if mode != reg.mode and reg.mode != SIG_WAIT:
                return RegistrationError(t, "asynch", v)
            wait = reg.wait if mode in (SIG_WAIT, WAIT) else None
            sig = reg.sig if mode in (SIG_WAIT, SIG) else None
            if (mode in (SIG_WAIT, WAIT) and wait is None) or (
                mode in (SIG_WAIT, SIG) and sig is None
            ):
                return RegistrationError(t, "asynch", v)
            child_row[pi] = (formal, Reg(mode, wait, sig))
        seqs.append(callee.body)
        phases.append(child_row)
        return done(tail)

    if isinstance(head, Assign):
        env = bv_env(c, p)
        val = eval_cond(head.cond, env, iter(choice))
        bv[p.bool_vars.index(head.var)] = val
        return done(tail)

    if isinstance(head, Assert):
        env = bv_env(c, p)
        if not eval_cond(head.cond, env, iter(choice)):
            return AssertionViolation(t)
        return done(tail)

    if isinstance(head, (While, If)):
        env = bv_env(c, p)
        branch = eval_cond(head.cond, env, iter(choice))
        for step in head_successors(seq):
            if step.branch == branch:
                return done(step.next_seq)
        raise AssertionError("unreachable")

    if isinstance(head, NextBlock):
        if atomic == t and not head.body:
            atomic = None
            return done((Signal(head.var), Wait(head.var)) + tail)
        pi = binding(c, t, head.var)
        if pi is None or phases[t][pi][1] is None:
            return RegistrationError(t, "next", head.var)
        # barrier entry with t as executor
        for u in range(c.n_tasks):
            if u == t:
                continue
            reg = phases[u][pi][1]
            if reg is None:
                continue
            nb = c.seqs[u][0]
            seqs[u] = (Signal(nb.var), Wait(nb.var)) + c.seqs[u][1:]
        if head.body:
            atomic = t
            return done(head.body + (NextBlock(head.var, ()),) + tail)
        return done((Signal(head.var), Wait(head.var)) + tail)

    raise TypeError(f"cannot step {head!r}")


def successors(c: Configuration, p: Program) -> list:
    """All (task, stmt, choice, outcome) tuples from enabled steps."""
    out = []
    for t, head in enabled_steps(c, p):
        for choice in step_choices(c, p, t, head):
            out.append((t, head, choice, apply_step(c, p, t, choice)))
    return out


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
        vals = []
        for t in range(c.n_tasks):
            reg = phases[t][p][1]
            if reg is not None:
                vals.append(reg.wait if reg.wait is not None else reg.sig)
        if vals and min(vals) > 0:
            k = min(vals)
            for t in range(c.n_tasks):
                var, reg = phases[t][p]
                if reg is not None:
                    phases[t][p] = (
                        var,
                        Reg(
                            reg.mode,
                            None if reg.wait is None else reg.wait - k,
                            None if reg.sig is None else reg.sig - k,
                        ),
                    )
    task_order = list(range(c.n_tasks))
    phaser_order = list(range(c.n_phasers))
    for _ in range(2):
        pkeys = {
            p: tuple(sorted(_entry_key(phases[t][p]) for t in range(c.n_tasks)))
            for p in phaser_order
        }
        phaser_order.sort(key=lambda p: (pkeys[p], p))
        tkeys = {
            t: (
                tuple(str(s) for s in c.seqs[t]),
                tuple(_entry_key(phases[t][p]) for p in phaser_order),
            )
            for t in task_order
        }
        task_order.sort(key=lambda t: (tkeys[t], t))
    new_rows = tuple(
        tuple(phases[t][p] for p in phaser_order) for t in task_order
    )
    atomic = c.atomic
    if atomic is not None:
        atomic = task_order.index(atomic)
    return Configuration(
        c.bv, tuple(c.seqs[t] for t in task_order), new_rows, atomic
    )


# ---------------------------------------------------------------------------
# Cyclic-wait detection


def cyclic_waits(c: Configuration, p: Program):
    """A cycle of tasks each blocked at a wait whose guard the next task in
    the cycle falsifies, or None."""
    blockers = {}  # blocked task -> the tasks whose signals block its wait
    for t in range(c.n_tasks):
        seq = c.seqs[t]
        pi = binding(c, t, seq[0].var) if seq and isinstance(seq[0], Wait) else None
        reg = None if pi is None else c.phases[t][pi][1]
        if reg is None or reg.wait is None:
            continue
        regs = [c.phases[u][pi][1] for u in range(c.n_tasks)]
        by = [u for u, r in enumerate(regs) if r is not None and r.sig is not None and r.sig <= reg.wait]
        if by:
            blockers[t] = by
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
    error_seen = set()
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
        if cycle is not None:
            key = ("cycle", ci)
            if key not in error_seen:
                error_seen.add(key)
                errors.append((CyclicWait(cycle), ci))
        for t, stmt, choice, outcome in successors(c, p):
            if isinstance(outcome, Configuration):
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
            else:
                key = (type(outcome).__name__, ci, t)
                if key not in error_seen:
                    error_seen.add(key)
                    errors.append((outcome, ci))
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
