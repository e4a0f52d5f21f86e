"""Control sequences: unrolled suffix closure and head-level unfolding.

The closure of a task body starts from its suffixes and adds, until
fixpoint, the suffixes produced by unrolling loop heads, conditional heads
and barrier blocks.  A program's closure is the union over its bodies.  It
is finite for every program because every produced sequence is built from
the finitely many sub-statements of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    ControlSeq,
    Exit,
    If,
    NextBlock,
    Program,
    Signal,
    Stmt,
    Wait,
    While,
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


def owners(p: Program) -> dict:
    """Map each control sequence reachable at a task head to the frozenset
    of task types whose own body's suffix closure contains it: a task at
    the sequence runs the body of one of them."""
    own = {}
    for t in p.tasks:
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


def unrolled_suffixes(p: Program) -> tuple:
    """The finite set of control sequences reachable at task heads (the
    union of the task bodies' closures), in ``seq_order_key`` order."""
    return tuple(sorted(owners(p), key=seq_order_key))


def start_distances(p: Program) -> dict:
    """Minimum number of forward control steps from some task-body start
    to each reachable control sequence (breadth-first over head steps).

    Used as a search heuristic: a constraint whose pinned sequences are
    all close to task starts needs little forward work to be realized."""
    from collections import deque

    dist = {t.body: 0 for t in p.tasks}
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


_ORDER_KEYS: dict = {}


def seq_order_key(seq: ControlSeq) -> tuple:
    """Deterministic ordering key for control sequences."""
    key = _ORDER_KEYS.get(seq)
    if key is None:
        key = _ORDER_KEYS[seq] = (len(seq), tuple(str(s) for s in seq))
    return key
