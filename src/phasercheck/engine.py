"""Backward reachability engine.

``check`` saturates the predecessor relation from a set of target
constraints into one antichain store (a stored constraint whose models
cover a candidate makes the candidate redundant; a candidate covering
stored constraints evicts them).  The store is where entailment prunes,
with one exception: ``check``'s ``keep`` filter drops the predecessors
that the popped constraint itself entails before they are built in
canonical form; in plain mode it also drops those that are not
``b``-good.  Otherwise targets and predecessors reach the store
unreduced: the target builders return every target, and ``pre`` may
repeat a predecessor.
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
any run has (``Program.static_bounds``), and constraints with more rows
on some task types' code than those types have instances
(``type_bound``): in ``main(){ asynch(W); asynch(W); }`` where each
``W`` spawns one ``X``, at most 1 row on ``main``'s code, 2 on ``W``'s
and 2 on ``X``'s.  The per-type bound holds when the total is unbounded
too, for ``main`` and every type with a finite instance count.  These
static limits, with ``k``, filter the targets; ``check`` hands them to
``pre``, which never builds a predecessor that fails them.
``k=None`` leaves ``k`` to ``check``: the widest target or the larger
phaser bound, so ``k`` never prunes a program with a finite bound; else
the number of ``newPhaser`` sites.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .concrete import Configuration, initial_config, successors
from .pre import AtomicUnsupported, pre
from .symbolic import (
    INF,
    Constraint,
    constraint_order_key,
    entails,
    fits,
    is_b_good,
    is_free,
    models,
)


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


def type_bound(program):
    """The per-type row bound: a predicate on a constraint's tuple of
    control sequences (one per row, None for ``*``) that is False only
    when no constraint with those rows has models.  A model maps distinct
    tasks to distinct tracked rows, and a task at a control sequence is
    an instance of one of the sequence's owners (``Program.owners``; a
    ``*`` row may be an instance of any type).  By Hall's condition such
    a map exists only if, for every union ``U`` of the rows' owner sets,
    the rows whose owners lie within ``U`` number at most the instances
    runs spawn of ``U``'s types (``Program.instance_counts``; 0 for a
    type ``main`` never reaches).  That implies the total task bound of
    ``Program.static_bounds``, which is tested first because it rejects
    most tuples more cheaply.  Memoized on the sorted owner sets of the
    rows."""
    counts = program.instance_counts
    own = program.owners
    every = frozenset(t.name for t in program.tasks)
    task_bound = program.static_bounds[0]
    memo = {}

    def instances(types):
        ns = [counts.get(t, 0) for t in types]
        return None if None in ns else sum(ns)

    def hall(key) -> bool:
        unions = {frozenset()}
        for o in set(key):
            unions |= {u | o for u in unions}
        for u in unions:
            n = instances(u)
            if n is not None and sum(o <= u for o in key) > n:
                return False
        return True

    def fits_types(seqs) -> bool:
        if task_bound is not None and len(seqs) > task_bound:
            return False
        # a sequence no body reaches has no owner, so no task can be there
        sets = (every if s is None else own.get(s, frozenset()) for s in seqs)
        key = tuple(sorted(sets, key=sorted))
        if key not in memo:
            memo[key] = hall(key)
        return memo[key]

    return fits_types


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
    phaser_bound = program.static_bounds[1]
    cap = INF if phaser_bound is None else phaser_bound
    if not isinstance(strategy, Unrestricted):
        wide = max((phi.n_phasers for phi in targets), default=0)
        if strategy.k is None:
            bound = program.phaser_sites() if phaser_bound is None else phaser_bound
            strategy = replace(strategy, k=max(wide, bound))
        elif wide > strategy.k:
            # k would prune every predecessor of the wider targets unexplored
            raise ValueError(f"a target tracks {wide} phasers, more than k={strategy.k}")
        cap = min(cap, strategy.k)
    b = strategy.b if isinstance(strategy, PlainReachability) else None
    init = initial_config(program)
    start_dist = program.start_distances

    # the static limits: constraints with more rows on some task types'
    # code than those types have instances, or with more columns than
    # any run creates phasers or than k allows, are unsatisfiable or
    # pruned.  They filter the targets below, and ``pre`` never builds a
    # predecessor that fails them
    rows_fit = type_bound(program)

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
        sset = phi.seq_set
        total = phi.summary[0]
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
        sset = phi.seq_set
        total = phi.summary[0]
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
        if rows_fit(phi.seqs) and phi.n_phasers <= cap:
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
        # pre builds only predecessors within the static limits; the rest
        # are filtered before pre canonicalizes them, cheapest test first:
        # plain mode's b pruning, then entailment by the popped constraint
        # itself, which covers most environment-role predecessors.  Each
        # test is invariant under renaming rows and columns, so the
        # survivors are those that filtering the canonical predecessors
        # would keep.
        preds = sorted(
            pre(
                phi,
                program,
                keep=lambda psi: (b is None or is_b_good(psi, b)) and not entails(phi, psi),
                rows_fit=rows_fit,
                cap=cap,
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
    each trace statement must fire once so that some resulting
    configuration models the next trace constraint."""
    init = initial_config(program)
    if not models(init, trace.constraints[0]):
        return TraceReport(False, 0, "initial configuration does not model the first constraint")
    frontier = {init}
    for i, stmt in enumerate(trace.stmts):
        target = trace.constraints[i + 1]
        reached = {
            out
            for c in frontier
            for _, head, _, out in successors(c, program)
            if head == stmt and isinstance(out, Configuration) and models(out, target)
        }
        if not reached:
            return TraceReport(
                False,
                i + 1,
                f"could not fire {stmt} into a model of constraint {i + 1}",
            )
        frontier = reached
    return TraceReport(True)
