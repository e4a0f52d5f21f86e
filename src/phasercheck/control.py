"""Control sequences and the programs that run them.

``head_successors`` unfolds the head of a control sequence.  A
``Program`` owns the static facts derived from its text, each computed
once per program.  One breadth-first walk of head steps from each task
body yields the control facts: the sequences tasks can reach (``owners``
and ``suffixes``), every head step out of them (``steps``) and the
``start_distances`` heuristic.  The bounds on task instances and created
phasers are ``instance_counts`` and ``static_bounds``.

The reached sequences are finite for every program because every one is
built from the finitely many sub-statements of the program.  They are
the suffixes of the bodies and of their unrolled loop, conditional and
barrier heads, except the statements after an ``exit``, which no run
reaches.
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
    def _walk(self) -> tuple:
        """One breadth-first walk of head steps from each task body:
        (the head steps out of each reached sequence, the task types
        reaching it, the fewest steps from some body to it)."""
        succ, owners, dist = {}, {}, {}
        for t in self.tasks:
            reached = {t.body: 0}
            queue = deque(reached)
            while queue:
                seq = queue.popleft()
                if seq not in succ:
                    succ[seq] = head_successors(seq)
                for step in succ[seq]:
                    if step.next_seq not in reached:
                        reached[step.next_seq] = reached[seq] + 1
                        queue.append(step.next_seq)
            for seq, d in reached.items():
                owners[seq] = owners.get(seq, frozenset()) | {t.name}
                dist[seq] = min(d, dist.get(seq, d))
        return succ, owners, dist

    @property
    def owners(self) -> dict:
        """Map each control sequence tasks can reach to the frozenset of
        task types whose body reaches it: a task at the sequence runs the
        body of one of them."""
        return self._walk[1]

    @cached_property
    def suffixes(self) -> tuple:
        """The control sequences tasks can reach, in ``seq_order_key``
        order."""
        return tuple(sorted(self.owners, key=seq_order_key))

    @cached_property
    def steps(self) -> tuple:
        """``(s_pre, HeadStep)`` for every head step out of a reachable
        sequence, in the order of ``suffixes``."""
        succ = self._walk[0]
        return tuple((seq, step) for seq in self.suffixes for step in succ[seq])

    @property
    def start_distances(self) -> dict:
        """Minimum number of forward control steps from some task-body
        start to each reachable control sequence.

        Used as a search heuristic: a constraint whose pinned sequences
        are all close to task starts needs little forward work to be
        realized."""
        return self._walk[2]

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
