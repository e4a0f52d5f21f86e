"""Generated programs for the ``explore`` workload.

Each family builds a ``.phz`` program from a size and a few structural
choices.  Every program is finite and is explored to exhaustion under
the task and phaser bounds it carries.  The error kinds it can reach
follow from its construction and travel with the source, so the
benchmark never asks the code under test what the right answer is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ASSERT = "AssertionViolation"
REGERR = "RegistrationError"
CYCLE = "CyclicWait"


@dataclass(frozen=True)
class Generated:
    name: str
    source: str
    expected: frozenset  # error kinds explore must report, and no others
    max_tasks: int
    max_phasers: int


def _program(bools, tasks) -> str:
    lines = [f"bool {', '.join(bools)};"] if bools else []
    for head, body in tasks:
        lines.append(head + "{")
        lines.extend("  " + s for s in body)
        lines.append("}")
    return "\n".join(lines) + "\n"


def pairs(modes, cons_first) -> Generated:
    """Producer/consumer pairs sharing phasers p and c, one pair per entry
    of ``modes``.  A "sw" pair registers SIG_WAIT on both phasers and adds
    the courtesy signals that mode needs; a "split" pair registers the
    producer SIG on p and WAIT on c, and the consumer the other way round.
    Every consumer signals c before it sets a, so a producer's assert(a)
    can run first: the assertion race of producer_consumer_sw.  Waits on
    p only wait for signals issued before any wait, so no wait cycle
    exists."""
    spawn = {
        "sw": ("asynch(Prod, p, c);", "asynch(Cons, p, c);"),
        "split": ("asynch(ProdS, p:SIG, c:WAIT);", "asynch(ConsS, p:WAIT, c:SIG);"),
    }
    main = ["p = newPhaser();", "c = newPhaser();"]
    for mode, flip in zip(modes, cons_first):
        prod, cons = spawn[mode]
        main += [cons, prod] if flip else [prod, cons]
    tail = ["drop(p);", "drop(c);"]
    tasks = [("main()", main + tail)]
    if "sw" in modes:
        tasks.append(("Prod(p, c)", ["signal(p);", "signal(c);", "wait(c);", "assert(a);", "a = false;"] + tail))
        tasks.append(("Cons(p, c)", ["signal(p);", "wait(p);", "signal(c);", "a = true;"] + tail))
    if "split" in modes:
        tasks.append(("ProdS(p:SIG, c:WAIT)", ["signal(p);", "wait(c);", "assert(a);", "a = false;"] + tail))
        tasks.append(("ConsS(p:WAIT, c:SIG)", ["wait(p);", "signal(c);", "a = true;"] + tail))
    name = "pairs_" + "_".join(m + ("c" if f else "p") for m, f in zip(modes, cons_first))
    return Generated(name, _program(["a"], tasks), frozenset({ASSERT}), 1 + 2 * len(modes), 2)


def chain(depth: int, planted_at=None) -> Generated:
    """A spawn chain ``depth`` links deep, as in the corpus chain_spawn:
    each link may create a private phaser and a child link, then
    synchronizes with it before releasing its parent.  Waits only point
    down the chain, so no wait cycle exists.  With ``planted_at`` that
    link signals its parent phaser once more after dropping it: a
    registration error."""
    tasks = [("main()", ["p = newPhaser();", "asynch(Link1, p);", "signal(p);", "wait(p);", "drop(p);"])]
    for i in range(1, depth + 1):
        body = []
        if i < depth:
            body = [
                "if(ndet()){",
                "  q = newPhaser();",
                f"  asynch(Link{i + 1}, q);",
                "  signal(q);",
                "  wait(q);",
                "  drop(q);",
                "}",
            ]
        body += ["signal(p);", "drop(p);"]
        if i == planted_at:
            body.append("signal(p);")
        tasks.append((f"Link{i}(p)", body))
    name = f"chain_{depth}" + (f"_regerror{planted_at}" if planted_at else "")
    expected = frozenset({REGERR} if planted_at else ())
    return Generated(name, _program([], tasks), expected, depth + 1, depth)


def ring(flips, cycle: bool) -> Generated:
    """As many nodes as ``flips`` on a ring of as many phasers: node i is
    registered on phasers i and i+1.  Without ``cycle`` a node signals
    both phasers before waiting on either (in the order its flip picks),
    so the ring completes.  With ``cycle`` every node waits on one phaser
    before signalling the other, all in the direction of the first flip;
    each node then waits for a neighbour's signal, a wait cycle through
    every node."""
    size = len(flips)
    main = [f"p{i} = newPhaser();" for i in range(size)]
    if cycle:
        kinds = ["Node"] * size
        first, second = ("r", "l") if flips[0] else ("l", "r")
        bodies = {"Node": [f"signal({first});", f"wait({first});", f"signal({second});", f"wait({second});"]}
    else:
        kinds = ["NodeR" if f else "Node" for f in flips]
        bodies = {
            "Node": ["signal(l);", "signal(r);", "wait(l);", "wait(r);"],
            "NodeR": ["signal(r);", "signal(l);", "wait(r);", "wait(l);"],
        }
    main += [f"asynch({k}, p{i}, p{(i + 1) % size});" for i, k in enumerate(kinds)]
    main += [f"drop(p{i});" for i in range(size)]
    tasks = [("main()", main)]
    tasks += [(f"{k}(l, r)", bodies[k] + ["drop(l);", "drop(r);"]) for k in sorted(set(kinds))]
    tag = "".join("r" if f else "l" for f in flips)
    name = f"ring_{tag}" + ("_cycle" if cycle else "")
    return Generated(name, _program([], tasks), frozenset({CYCLE} if cycle else ()), size + 1, size)


def barrier(workers: int, rounds: int, planted: bool) -> Generated:
    """``workers`` tasks and main meet at a barrier block that sets a,
    run ``rounds`` more ``next`` phases and assert a, which holds.  The
    planted variant makes one worker clear a right after the barrier, so
    an assertion can fail."""
    def sync(clear):
        body = ["next(p){", "  a = true;", "}"] + (["a = false;"] if clear else [])
        return body + ["next(p);"] * rounds + ["assert(a);", "drop(p);"]

    spawns = ["asynch(Worker, p);"] * (workers - planted) + ["asynch(Clearer, p);"] * planted
    tasks = [("main()", ["p = newPhaser();"] + spawns + sync(False)), ("Worker(p)", sync(False))]
    if planted:
        tasks.append(("Clearer(p)", sync(True)))
    name = f"barrier_{workers}x{rounds}" + ("_assert" if planted else "")
    return Generated(name, _program(["a"], tasks), frozenset({ASSERT} if planted else ()), workers + 1, 1)


def draw(seed: int) -> list:
    """The generated programs of one ``explore`` run.  Each family keeps
    a fixed size class where its state space is large, so the work of a
    run does not depend on the seed; the seed draws the structure (mode
    placement, spawn and command order, where an error is planted) and
    the sizes of the families that stay small."""
    rng = random.Random(seed)
    modes = ["sw", "split", "split"]
    rng.shuffle(modes)
    bits = lambda n: tuple(rng.random() < 0.5 for _ in range(n))
    return [
        pairs(tuple(modes), bits(3)),
        chain(5),
        chain(4, planted_at=rng.randint(1, 4)),
        ring(bits(4), cycle=False),
        ring(bits(rng.randint(3, 5)), cycle=True),
        barrier(rng.randint(3, 5), rng.randint(1, 3), planted=rng.random() < 0.5),
    ]
