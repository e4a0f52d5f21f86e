"""Control sequences and the programs that run them.

``head_successors`` unfolds the head of a control sequence.  A
``Program`` owns the static facts derived from its text, each computed
once per program: the unrolled suffix closure (``owners`` and
``suffixes``), the ``start_distances`` heuristic, and the bounds on
task instances and created phasers (``instance_counts`` and
``static_bounds``).

The closure of a task body starts from its suffixes and adds, until
fixpoint, the suffixes produced by unrolling loop heads, conditional heads
and barrier blocks.  A program's closure is the union over its bodies.  It
is finite for every program because every produced sequence is built from
the finitely many sub-statements of the program.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    SIG_WAIT,
    Asynch,
    ControlSeq,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Signal,
    Stmt,
    Wait,
    While,
    walk,
)


@dataclass(frozen=True)
class HeadStep:
    """One control-level step available at the head of a sequence.

    ``branch`` is None for plain statements, True/False for the two
    outcomes of a condition head, "enter" for a barrier block with a body
    (the executor's unfolding) and "release" for the empty barrier.
    """

    stmt: Stmt
    branch: object
    next_seq: ControlSeq


def head_successors(seq: ControlSeq) -> tuple:
    """Unfold the head of a non-empty control sequence."""
    if not seq:
        return ()
    head, tail = seq[0], seq[1:]
    if isinstance(head, While):
        return (
            HeadStep(head, True, head.body + seq),
            HeadStep(head, False, tail),
        )
    if isinstance(head, If):
        return (
            HeadStep(head, True, head.body + tail),
            HeadStep(head, False, tail),
        )
    if isinstance(head, NextBlock):
        if head.body:
            return (
                HeadStep(head, "enter", head.body + (NextBlock(head.var, ()),) + tail),
            )
        return (HeadStep(head, "release", (Signal(head.var), Wait(head.var)) + tail),)
    if isinstance(head, Exit):
        return (HeadStep(head, None, ()),)
    return (HeadStep(head, None, tail),)


def _suffixes(seq: ControlSeq):
    for i in range(len(seq) + 1):
        yield seq[i:]


def seq_order_key(seq: ControlSeq) -> tuple:
    """Deterministic ordering key for control sequences: the length, then
    the text of each statement.  The key is rebuilt for every row a sort
    compares, so it is one flat tuple: a nested one raised the peak
    memory of ``check``."""
    return (len(seq), *map(str, seq))


# ---------------------------------------------------------------------------
# Tasks and programs


@dataclass(frozen=True)
class TaskDef:
    name: str
    params: tuple  # phaser variable names
    modes: tuple  # declared registration mode per parameter
    body: ControlSeq


@dataclass(frozen=True)
class Program:
    bool_vars: tuple
    tasks: tuple  # TaskDef values; "main" is one of them

    def task(self, name: str) -> TaskDef:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def main(self) -> TaskDef:
        return self.task("main")

    def is_atomic(self) -> bool:
        return any(isinstance(s, NextBlock) for t in self.tasks for s, _ in walk(t.body))

    def phaser_sites(self) -> int:
        return sum(isinstance(s, NewPhaser) for t in self.tasks for s, _ in walk(t.body))

    def uses_modes(self) -> bool:
        """True when any registration deviates from full SIG_WAIT."""
        modes = [m for t in self.tasks for m in t.modes]
        for t in self.tasks:
            modes += [m for s, _ in walk(t.body) if isinstance(s, Asynch) for m in s.modes]
        return any(m != SIG_WAIT for m in modes)

    @cached_property
    def owners(self) -> dict:
        """Map each control sequence reachable at a task head to the
        frozenset of task types whose own body's suffix closure contains
        it: a task at the sequence runs the body of one of them."""
        own = {}
        for t in self.tasks:
            seen = set(_suffixes(t.body))
            work = list(seen)
            while work:
                seq = work.pop()
                for step in head_successors(seq):
                    for s in _suffixes(step.next_seq):
                        if s not in seen:
                            seen.add(s)
                            work.append(s)
            for s in seen:
                own[s] = own.get(s, frozenset()) | {t.name}
        return own

    @cached_property
    def suffixes(self) -> tuple:
        """The finite set of control sequences reachable at task heads
        (the union of the task bodies' closures), in ``seq_order_key``
        order."""
        return tuple(sorted(self.owners, key=seq_order_key))

    @cached_property
    def start_distances(self) -> dict:
        """Minimum number of forward control steps from some task-body
        start to each reachable control sequence (breadth-first over head
        steps).

        Used as a search heuristic: a constraint whose pinned sequences
        are all close to task starts needs little forward work to be
        realized."""
        dist = {t.body: 0 for t in self.tasks}
        queue = deque(dist)
        while queue:
            seq = queue.popleft()
            d = dist[seq] + 1
            for step in head_successors(seq):
                nxt = step.next_seq
                if nxt not in dist or dist[nxt] > d:
                    dist[nxt] = d
                    queue.append(nxt)
        return dist

    @cached_property
    def instance_counts(self) -> dict:
        """Upper bound on the instances of each task type that any run
        spawns, for every type ``main`` reaches: ``main`` counts 1, and a
        type is None (unbounded) when it is spawned under a loop, by
        recursion or by an unbounded type."""
        spawners = {"main": []}  # type -> (spawning type, looped) per asynch site
        reached = ["main"]
        for name in reached:  # grows as the walk meets new types
            for s, looped in walk(self.task(name).body):
                if isinstance(s, Asynch):
                    if s.task not in spawners:
                        spawners[s.task] = []
                        reached.append(s.task)
                    spawners[s.task].append((name, looped))
        counts = {}

        def count(name):
            if name not in counts:
                counts[name] = None  # what a spawn cycle through ``name`` reads
                ns = [None if looped else count(u) for u, looped in spawners[name]]
                counts[name] = None if None in ns else int(name == "main") + sum(ns)
            return counts[name]

        return {name: count(name) for name in reached}

    @cached_property
    def static_bounds(self) -> tuple:
        """(tasks, phasers): upper bounds on the tasks that exist at once
        and on the phasers any run creates (columns never disappear), each
        None when unbounded.  A creation site counts once per instance of
        its type, and is unbounded under a loop."""
        counts = self.instance_counts
        sites = [
            None if looped else counts[name]
            for name in counts
            for s, looped in walk(self.task(name).body)
            if isinstance(s, NewPhaser)
        ]
        return tuple(None if None in ns else sum(ns) for ns in (list(counts.values()), sites))
