"""Control sequences and the programs that run them.

``head_successors`` unfolds the head of a control sequence into the
sequences one step away.  A ``Program`` owns the static facts derived
from its text, each computed once per program.  One breadth-first walk
of head steps from each task body yields the control facts: the
sequences tasks can reach (``owners`` and ``suffixes``), the id tables
below and the ``start_distances`` heuristic.  The reachable
``newPhaser``, ``asynch`` and barrier heads are ``sites``; every static
fact about them reads that table, so code no run reaches counts nowhere.
The ``asynch`` sites give ``spawners``, and ``spawn_order`` holds the
ids a task can sit at once it has spawned a given type.
``held_sites`` is a flow-insensitive points-to table of phaser
variables: the ``newPhaser`` sites whose phaser each task type may name
with each variable.  The bounds on task instances and created phasers
are ``instance_counts``, read from ``spawners``, and ``phaser_bound``.

A reachable sequence's id is its index in ``suffixes``.  Per id, the
program keeps the head statement (``heads``), the ids of its
``head_successors`` (``next_ids``, a condition's taken branch first),
its ``barrier_skip`` id (``skip_ids``), its rank in statement-text order
(``text_ranks``), its ``owners`` and its ``start_distances``;
``body_ids`` names each task body's id.  These tables are the one step
relation: both engines read a step as a head and its next ids.
Concrete configurations and symbolic constraints carry ids, so after
parsing no layer unfolds, hashes or compares a sequence: the statement
tuples live only here, while the tables are built, and in the record
formats that print and read them (``intern`` maps read sequences to
ids).

The reached sequences are finite for every program because every one is
built from the finitely many sub-statements of the program.  They are
the suffixes of the bodies and of their unrolled loop, conditional and
barrier heads, except the statements after an ``exit``, which no run
reaches, plus the barrier skips.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .syntax import (
    SIG_WAIT,
    Asynch,
    ControlSeq,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Node,
    Signal,
    Wait,
    While,
)


def head_successors(seq: ControlSeq) -> tuple:
    """The sequences one step from the head of a non-empty control
    sequence, a condition's taken branch first.  A barrier block with a
    body unfolds it (the executor's step); the empty barrier releases to
    its ``barrier_skip``."""
    if not seq:
        return ()
    head, tail = seq[0], seq[1:]
    if isinstance(head, While):
        return (head.body + seq, tail)
    if isinstance(head, If):
        return (head.body + tail, tail)
    if isinstance(head, NextBlock):
        if head.body:
            return (head.body + (NextBlock(head.var, ()),) + tail,)
        return (barrier_skip(seq),)
    if isinstance(head, Exit):
        return ((),)
    return (tail,)


def barrier_skip(seq: ControlSeq):
    """Where a participant of the barrier block at the head of ``seq``
    goes when another task executes the body: the unfolding of the bare
    barrier, ``signal; wait; tail``.  None unless the head is a barrier."""
    if seq and isinstance(seq[0], NextBlock):
        return (Signal(seq[0].var), Wait(seq[0].var)) + seq[1:]
    return None


# ---------------------------------------------------------------------------
# Tasks and programs


class TaskDef(Node):
    name: str
    params: tuple  # phaser variable names
    modes: tuple  # declared registration mode per parameter
    body: ControlSeq


class Program(Node):
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
        """True when some reachable head is a barrier block."""
        return any(isinstance(stmt, NextBlock) for _, stmt, _, _ in self.sites)

    def phaser_sites(self) -> int:
        """The reachable ``newPhaser`` sites, once per owning type."""
        return sum(len(owners) for _, stmt, owners, _ in self.sites if isinstance(stmt, NewPhaser))

    def uses_modes(self) -> bool:
        """True when a reachable ``asynch`` registers in a mode other than
        full SIG_WAIT.  ``validate`` makes each ``asynch`` mode the
        callee's declared one, so a task no run spawns does not count."""
        asynchs = [stmt for _, stmt, _, _ in self.sites if isinstance(stmt, Asynch)]
        return any(m != SIG_WAIT for stmt in asynchs for m in stmt.modes)

    @cached_property
    def _walk(self) -> tuple:
        """One breadth-first walk of head steps from each task body:
        (the successors of each reached sequence, the task types
        reaching it, the fewest steps from some body to it).  A barrier
        skip counts as a step: a body ending in ``exit`` reaches the
        skip of its barrier only through another participant."""
        succ, owners, dist = {}, {}, {}
        for t in self.tasks:
            reached = {t.body: 0}
            queue = deque(reached)
            while queue:
                seq = queue.popleft()
                if seq not in succ:
                    succ[seq] = head_successors(seq)
                for nxt in (*succ[seq], barrier_skip(seq)):
                    if nxt is not None and nxt not in reached:
                        reached[nxt] = reached[seq] + 1
                        queue.append(nxt)
            for seq, d in reached.items():
                owners[seq] = owners.get(seq, frozenset()) | {t.name}
                dist[seq] = min(d, dist.get(seq, d))
        return succ, owners, dist

    @cached_property
    def suffixes(self) -> tuple:
        """The control sequences tasks can reach, ordered by length, then
        by the text of each statement."""
        return tuple(sorted(self._walk[1], key=lambda seq: (len(seq), *map(str, seq))))

    @cached_property
    def seq_ids(self) -> dict:
        """The id of each reachable sequence: its index in ``suffixes``."""
        return {seq: i for i, seq in enumerate(self.suffixes)}

    def intern(self, seqs):
        """The ids of a tuple of sequences (None, for ``*``, stays None),
        or None when one of them is a sequence no task reaches."""
        ids = self.seq_ids
        if any(s is not None and s not in ids for s in seqs):
            return None
        return tuple(None if s is None else ids[s] for s in seqs)

    @cached_property
    def body_ids(self) -> dict:
        """The id of each task's body, by task name."""
        return {t.name: self.seq_ids[t.body] for t in self.tasks}

    @cached_property
    def owners(self) -> tuple:
        """Per id, the frozenset of task types whose body reaches the
        sequence: a task at the sequence runs the body of one of them."""
        return tuple(map(self._walk[1].get, self.suffixes))

    @cached_property
    def start_distances(self) -> tuple:
        """Per id, the fewest forward control steps from some task-body
        start to the sequence.

        Used as a search heuristic: a constraint whose pinned sequences
        are all close to task starts needs little forward work to be
        realized."""
        return tuple(map(self._walk[2].get, self.suffixes))

    @cached_property
    def heads(self) -> tuple:
        """Per id, the head statement, or None for the empty sequence."""
        return tuple(seq[0] if seq else None for seq in self.suffixes)

    @cached_property
    def next_ids(self) -> tuple:
        """Per id, the ids of its ``head_successors``, in their order: for a
        condition head, the taken branch and then the other."""
        succ, ids = self._walk[0], self.seq_ids
        return tuple(tuple(ids[nxt] for nxt in succ[seq]) for seq in self.suffixes)

    @cached_property
    def skip_ids(self) -> tuple:
        """Per id, the id of its ``barrier_skip``, or None."""
        return tuple(map(self.seq_ids.get, map(barrier_skip, self.suffixes)))

    @cached_property
    def text_ranks(self) -> tuple:
        """Per id, the rank of ``tuple(str(s) for s in seq)`` among the
        reachable sequences; equal text gives equal rank."""
        texts = [tuple(map(str, seq)) for seq in self.suffixes]
        rank = {text: r for r, text in enumerate(sorted(set(texts)))}
        return tuple(map(rank.get, texts))

    def _closure(self, starts) -> frozenset:
        """The ids reachable from the ids ``starts`` (included) over head
        steps and barrier skips."""
        seen, stack = set(starts), list(starts)
        while stack:
            i = stack.pop()
            for j in (*self.next_ids[i], self.skip_ids[i]):
                if j is not None and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return frozenset(seen)

    @cached_property
    def sites(self) -> tuple:
        """``(id, stmt, owners, looped)`` for every reachable ``newPhaser``,
        ``asynch`` and barrier head, in id order, with the sequence's
        ``owners``.  A site is looped when its sequence can reach itself,
        so one task may pass it more than once.  Code after an ``exit`` has
        no site, and a loop whose body ends in ``exit`` does not make its
        sites looped."""
        return tuple(
            (i, stmt, self.owners[i], i in self._closure(self.next_ids[i]))
            for i, stmt in enumerate(self.heads)
            if isinstance(stmt, (NewPhaser, Asynch, NextBlock))
        )

    @cached_property
    def spawners(self) -> dict:
        """Per task type, one ``(spawning type, looped)`` pair per reachable
        ``asynch`` site for it, once for each of the site's owners."""
        spawns = {}
        for _, stmt, owners, looped in self.sites:
            if isinstance(stmt, Asynch):
                spawns.setdefault(stmt.task, []).extend((v, looped) for v in sorted(owners))
        return {w: tuple(pairs) for w, pairs in spawns.items()}

    @cached_property
    def spawn_order(self) -> dict:
        """Per task type ``W`` with a reachable ``asynch(W)`` site, the
        frozenset of ids a task can sit at once it has executed an
        ``asynch(W)``: the forward closure of the sites' post ids.  A task
        at any other id has never spawned a ``W``."""
        posts = {}
        for i, stmt, _, _ in self.sites:
            if isinstance(stmt, Asynch):
                posts.setdefault(stmt.task, []).extend(self.next_ids[i])
        return {w: self._closure(js) for w, js in posts.items()}

    @cached_property
    def held_sites(self) -> dict:
        """Per (task type, phaser variable), the frozenset of ids of the
        reachable ``newPhaser`` sites whose phaser a task of that type may
        name with that variable: the least fixpoint of two rules over
        ``sites``.  ``v = newPhaser()`` at id ``i`` in type ``T`` adds ``i``
        to ``(T, v)``, and ``asynch(W, ..., a_k, ...)`` in ``T`` adds the
        sites of ``(T, a_k)`` to ``(W, k-th parameter of W)``.  Pairs that
        hold no site are absent."""
        held, flows = {}, []
        for i, stmt, owners, _ in self.sites:
            for t in owners:
                if isinstance(stmt, NewPhaser):
                    held.setdefault((t, stmt.var), set()).add(i)
                elif isinstance(stmt, Asynch):
                    params = self.task(stmt.task).params
                    flows += [((t, a), (stmt.task, f)) for a, f in zip(stmt.args, params)]
        grew = True
        while grew:
            grew = False
            for src, dst in flows:
                new = held.get(src, set()) - held.get(dst, set())
                if new:
                    held.setdefault(dst, set()).update(new)
                    grew = True
        return {key: frozenset(ids) for key, ids in held.items()}

    @cached_property
    def instance_counts(self) -> dict:
        """Upper bound on the instances of each task type that any run
        spawns, for every type ``main`` reaches through ``spawners``:
        ``main`` counts 1, and a type is None (unbounded) when it is
        spawned at a looped site, by recursion or by an unbounded type."""
        spawners = self.spawners
        reached = ["main"]
        for name in reached:  # grows as the walk meets new types
            reached += [
                w
                for w, sites in spawners.items()
                if w not in reached and any(v == name for v, _ in sites)
            ]
        counts = {}

        def count(name):
            if name not in counts:
                counts[name] = None  # what a spawn cycle through ``name`` reads
                sites = [(v, looped) for v, looped in spawners.get(name, ()) if v in reached]
                ns = [None if looped else count(v) for v, looped in sites]
                counts[name] = None if None in ns else int(name == "main") + sum(ns)
            return counts[name]

        return {name: count(name) for name in reached}

    @cached_property
    def phaser_bound(self):
        """Upper bound on the phasers any run creates (columns never
        disappear), None when unbounded.  A reachable ``newPhaser`` site
        counts once per instance of each owning type, and is unbounded
        when looped."""
        counts = self.instance_counts
        ns = [
            None if looped else counts[name]
            for _, stmt, owners, looped in self.sites
            if isinstance(stmt, NewPhaser)
            for name in owners
            if name in counts
        ]
        return None if None in ns else sum(ns)
