"""Backward reachability engine.

``check`` saturates the predecessor relation from a set of target
constraints into one antichain store, the only place where entailment
prunes (a stored constraint whose models cover a candidate makes the
candidate redundant; a candidate covering stored constraints evicts
them).  Targets and predecessors reach the store unreduced: the target
builders return every target, and ``pre`` may repeat a predecessor.
Strategies make the run terminate:

* control reachability: targets must be free (no finite upper bounds)
  and over at most ``k`` phasers; constraints over more are dropped.
  Sound and complete for deciding reachability of control targets that
  never need more than ``k`` simultaneously tracked phasers.
* plain reachability: targets must be ``b``-good (every gap free or with
  uppers at most ``b``) and over at most ``k`` phasers; drops constraints
  over more than ``k`` phasers or that are not ``b``-good.
* unrestricted: no pruning, but gives up after a budget of processed
  constraints with a distinct inconclusive verdict.

Every strategy also drops constraints over more tasks or phasers than
any run has (``static_bounds``).  ``k=None`` leaves ``k`` to ``check``:
the widest target or the larger phaser bound, so ``k`` never prunes a
program with a finite bound; else the number of ``newPhaser`` sites.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .concrete import Configuration, initial_config, successors
from .control import start_distances
from .pre import AtomicUnsupported, pre, program_suffixes
from .symbolic import (
    Constraint,
    constraint_order_key,
    entails,
    fits,
    is_b_good,
    is_free,
    models,
    seq_set,
    summary,
)
from .syntax import Asynch, NewPhaser, walk


@dataclass(frozen=True)
class ControlReachability:
    k: int | None  # None: inferred by ``check``


@dataclass(frozen=True)
class PlainReachability:
    k: int | None  # None: inferred by ``check``
    b: int


@dataclass(frozen=True)
class Unrestricted:
    budget: int = 100000


@dataclass(frozen=True)
class Trace:
    """Forward witness: constraints[0] is modeled by the initial
    configuration, constraints[-1] is a target, and stmts[i] steps from
    models of constraints[i] into models of constraints[i+1]."""

    constraints: tuple
    stmts: tuple


@dataclass(frozen=True)
class Reachable:
    trace: Trace


@dataclass(frozen=True)
class Unreachable:
    processed: int


@dataclass(frozen=True)
class BudgetExhausted:
    processed: int


def instance_counts(program) -> dict:
    """Upper bound on the instances of each task type that any run
    spawns, for every type ``main`` reaches: ``main`` counts 1, and a type
    is None (unbounded) when it is spawned under a loop, by recursion or
    by an unbounded type."""
    spawners = {"main": []}  # type -> (spawning type, looped) per asynch site
    reached = ["main"]
    for name in reached:  # grows as the walk meets new types
        for s, looped in walk(program.task(name).body):
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


def static_bounds(program) -> tuple:
    """(tasks, phasers): upper bounds on the tasks that exist at once and
    on the phasers any run creates (columns never disappear), each None
    when unbounded.  A creation site counts once per instance of its
    type, and is unbounded under a loop."""
    counts = instance_counts(program)
    sites = [
        None if looped else counts[name]
        for name in counts
        for s, looped in walk(program.task(name).body)
        if isinstance(s, NewPhaser)
    ]
    return tuple(None if None in ns else sum(ns) for ns in (list(counts.values()), sites))


def _keep(strategy, phi: Constraint) -> bool:
    if isinstance(strategy, ControlReachability):
        return phi.n_phasers <= strategy.k
    if isinstance(strategy, PlainReachability):
        return phi.n_phasers <= strategy.k and is_b_good(phi, strategy.b)
    return True


def check(program, targets, strategy, progress=None):
    """Decide whether any target constraint has a reachable model.

    Returns Reachable (with a trace), Unreachable, or BudgetExhausted
    (unrestricted strategy only).  Raises AtomicUnsupported for programs
    with barrier-body statements and ValueError when the targets do not
    satisfy the strategy's requirements.
    """
    if program.is_atomic():
        raise AtomicUnsupported("program contains a barrier block body")
    if program.uses_modes():
        raise ValueError(
            "symbolic checking requires SIG_WAIT-only registrations; "
            "rewrite SIG/WAIT modes or use the concrete explorer"
        )
    if isinstance(strategy, ControlReachability) and not all(map(is_free, targets)):
        raise ValueError("control reachability requires free targets")
    if isinstance(strategy, PlainReachability) and not all(is_b_good(t, strategy.b) for t in targets):
        raise ValueError(f"plain reachability requires {strategy.b}-good targets")
    task_bound, phaser_bound = static_bounds(program)
    if not isinstance(strategy, Unrestricted):
        wide = max((phi.n_phasers for phi in targets), default=0)
        if strategy.k is None:
            bound = program.phaser_sites() if phaser_bound is None else phaser_bound
            strategy = replace(strategy, k=max(wide, bound))
        elif wide > strategy.k:
            # k would prune every predecessor of the wider targets unexplored
            raise ValueError(f"a target tracks {wide} phasers, more than k={strategy.k}")
    suffixes = program_suffixes(program)
    init = initial_config(program)
    start_dist = start_distances(program)

    def within_static(phi: Constraint) -> bool:
        # constraints needing more concurrent tasks or created phasers
        # than any run of the program can have are unsatisfiable
        if task_bound is not None and phi.n_tasks > task_bound:
            return False
        return phaser_bound is None or phi.n_phasers <= phaser_bound

    def forward_work(phi: Constraint) -> int:
        # total forward control steps still separating the constraint's
        # pinned sequences from task starts; 0 iff every pinned sequence
        # is a task body, which is where the initial configuration lives
        return sum(
            start_dist.get(s, 10**6) for s in phi.seqs if s is not None
        )
    budget = strategy.budget if isinstance(strategy, Unrestricted) else None

    # best-first toward the initial configuration: constraints whose
    # pinned sequences need the least forward work are popped first, with
    # smaller, more general constraints breaking ties
    working = []  # heap of (priority, constraint); entries may be stale
    queued = set()  # constraints currently scheduled
    counter = 0
    n_visited = 0

    # the kept antichain, bucketed by the set of pinned control sequences:
    # a covering constraint can only live in a bucket whose sequence set is
    # a subset of the candidate's, so most buckets are skipped wholesale.
    # Items are (constraint, total summary); a covering constraint's total
    # fits the covered one's, so one int test skips most entailment calls.
    buckets: dict = {}

    def covered(phi) -> bool:
        sset = seq_set(phi)
        total = summary(phi)[0]
        for key, items in buckets.items():
            if not key <= sset:
                continue
            for psi, pt in items:
                if fits(pt, total) and entails(psi, phi):
                    return True
        return False

    # exactly the constraints that ever entered the store, evicted ones
    # included, mapped to the (statement, successor) each was derived
    # from, or None for a target.  A covered candidate is never pushed,
    # popped or on a trace, so it is not recorded.  The store only ever
    # gets weaker (evictions replace items by covering ones), so a repeat
    # is still covered, and a parent chain, fixed on entry, is the trace.
    parents = {}

    def insert(phi, parent):
        nonlocal counter, n_visited
        if phi in parents or covered(phi):
            return
        parents[phi] = parent
        sset = seq_set(phi)
        total = summary(phi)[0]
        for key, items in buckets.items():
            if not sset <= key:
                continue
            evicted = {psi for psi, pt in items if fits(total, pt) and entails(phi, psi)}
            if evicted:
                queued.difference_update(evicted)
                n_visited -= len(evicted)
                items[:] = [it for it in items if it[0] not in evicted]
        buckets.setdefault(sset, []).append((phi, total))
        n_visited += 1
        queued.add(phi)
        counter += 1
        heapq.heappush(working, ((forward_work(phi), phi.n_tasks, phi.n_phasers, counter), phi))

    def trace_from(phi) -> Trace:
        constraints, stmts = [phi], []
        while parents[phi] is not None:
            stmt, phi = parents[phi]
            stmts.append(stmt)
            constraints.append(phi)
        return Trace(tuple(constraints), tuple(stmts))

    for phi in sorted(targets, key=constraint_order_key):
        if not within_static(phi):
            continue
        insert(phi, None)
    processed = 0
    while working:
        _, phi = heapq.heappop(working)
        if phi not in queued:
            continue  # evicted while scheduled
        queued.discard(phi)
        processed += 1
        if progress is not None:
            progress(
                {
                    "event": "pop",
                    "processed": processed,
                    "working": len(queued),
                    "visited": n_visited,
                    "dimension": phi.n_phasers,
                }
            )
        if budget is not None and processed > budget:
            return BudgetExhausted(processed)
        if models(init, phi):
            return Reachable(trace_from(phi))
        # predecessors are filtered before pre canonicalizes them, cheapest
        # test first: the static task and phaser bounds, then the strategy's
        # k/b pruning, then entailment by the popped constraint itself,
        # which covers most environment-role predecessors.  Each test is
        # invariant under renaming rows and columns, so the survivors are
        # those that filtering the canonical predecessors would keep.
        preds = sorted(
            pre(
                phi,
                program,
                suffixes,
                keep=lambda psi: within_static(psi)
                and _keep(strategy, psi)
                and not entails(phi, psi),
            ),
            key=lambda sp: (str(sp[0]), constraint_order_key(sp[1])),
        )
        for stmt, psi in preds:
            insert(psi, (stmt, phi))
    return Unreachable(processed)


# ---------------------------------------------------------------------------
# Trace replay


@dataclass
class TraceReport:
    ok: bool
    failed_stage: int = -1
    message: str = ""


def validate_trace(program, trace: Trace) -> TraceReport:
    """Replay a trace concretely: starting from the initial configuration,
    each trace statement must be fireable (up to four times in a row) so
    that some resulting configuration models the next trace constraint."""
    init = initial_config(program)
    if not models(init, trace.constraints[0]):
        return TraceReport(False, 0, "initial configuration does not model the first constraint")
    frontier = [init]
    for i, stmt in enumerate(trace.stmts):
        target = trace.constraints[i + 1]
        reached = []
        seen = set()
        layer = list(frontier)
        for _ in range(4):
            nxt = []
            for c in layer:
                for _, head, _, out in successors(c, program):
                    if head != stmt or not isinstance(out, Configuration) or out in seen:
                        continue
                    seen.add(out)
                    nxt.append(out)
                    if models(out, target):
                        reached.append(out)
            if reached:
                break
            layer = nxt
            if not layer:
                break
        if not reached:
            return TraceReport(
                False,
                i + 1,
                f"could not fire {stmt} into a model of constraint {i + 1}",
            )
        frontier = reached
    return TraceReport(True)
