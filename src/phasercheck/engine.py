"""Backward reachability engine.

``check`` saturates the predecessor relation from a set of target
constraints into one antichain store (a stored constraint whose models
cover a candidate makes the candidate redundant; a candidate covering
stored constraints evicts them).  The store is where entailment prunes,
with one exception: ``check``'s ``keep`` filter drops, before they are
built in canonical form, the predecessors that the popped constraint
itself entails, those that are not ``b``-good and those that fail the
static column test.  Otherwise targets and predecessors reach the store
unreduced: the target builders return every target, and ``pre`` may
repeat a predecessor.

The formulations of the verification problem are this one loop under
three limits, ``check``'s parameters:

* ``k``, the column cap: constraints over more than ``k`` phasers are
  dropped, and a wider target is an error (``symbolic.INF``: no cap
  beyond the static phaser bound).
* ``b``, the gap prune: predecessors that are not ``b``-good (every gap
  free or with uppers at most ``b``) are dropped, and targets must be
  ``b``-good.  ``b`` never prunes a free constraint; ``b=INF`` (the
  default) prunes nothing.
* ``budget``: after that many pops, when a constraint is still
  scheduled, ``check`` gives up with a distinct inconclusive verdict.

A finite ``k`` with a finite ``b`` (plain reachability) terminates,
and so does a finite ``k`` on free targets, which ``pre`` keeps free,
so that ``b`` never prunes them (control reachability).  Both decide
targets that never need more than ``k`` simultaneously tracked phasers.
Any other run (``k=INF``, or ``b=INF`` on targets that are not free)
is sure to stop only under a ``budget``; ``check`` rejects the second
without one.

Every run also drops constraints over more tasks or phasers than
any run has (``Program.static_bounds``), and constraints with more rows
on some task types' code than those types have instances
(``type_bound``): in ``main(){ asynch(W); asynch(W); }`` where each
``W`` spawns one ``X``, at most 1 row on ``main``'s code, 2 on ``W``'s
and 2 on ``X``'s.  The per-type bound holds when the total is unbounded
too, for ``main`` and every type with a finite instance count.  The same
row test drops constraints whose rows break spawn order: a task of type
``W`` exists only once some task has executed an ``asynch(W)``.  In
``main(){ asynch(W); x = true; asynch(X); }``, a row of ``main`` at
``x = true; asynch(X);`` has spawned a ``W`` but no ``X``, and ``main``
is the only spawner of ``X``, so no row may sit at ``X``'s code with
it.  This is exact: ``main`` runs once, tasks never leave a
configuration, and no step after ``asynch(X)`` leads back to
``x = true; asynch(X);``.  ``type_bound`` states the rule in full.
A column test (``flow_bound``) drops constraints that ask tasks to name
one phaser with variables that no run lets name the same phaser.
``Program.held_sites`` gives the ``newPhaser`` sites each variable of
each task type may hold, and the rows that name a variable in one
column must share a site.  In ``main(){ p = newPhaser(); q =
newPhaser(); asynch(W, q); ... } W(q){ ... }``, ``main``'s ``p`` holds
only the first site and ``W``'s ``q`` only the second, so no column may
have both.  This is exact: a phaser comes from exactly one site, and a
task's variable names only phasers of the sites its type and variable
hold.
These static limits, with ``k``, filter the targets.  ``check`` hands
the row test and the column cap to ``pre``, which never builds a
predecessor that fails them; the column test is the first test of
``check``'s ``keep``, which ``pre`` applies before it puts a
predecessor into canonical form.
``k=None`` leaves ``k`` to ``check``: the widest target or the larger
phaser bound, so ``k`` never prunes a program with a finite bound; else
the number of ``newPhaser`` sites.
"""

from __future__ import annotations

import heapq

from .concrete import Configuration, initial_config, successors
from .pre import pre
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
from .syntax import ANY, NO_VAR, Node


class Reachable(Node):
    """Forward witness: constraints[0] is modeled by the initial
    configuration, constraints[-1] is a target, and stmts[i] steps from
    models of constraints[i] into models of constraints[i+1]."""

    constraints: tuple
    stmts: tuple


class Unreachable(Node):
    processed: int


class BudgetExhausted(Node):
    processed: int


def _unspawned_at(program) -> dict:
    """Per task type ``W`` other than ``main`` and per type ``V`` with a
    reachable ``asynch(W)`` site (``Program.spawners``), the ids at which
    a row shows that no ``V`` instance has spawned a ``W`` yet: ids that
    only ``V`` reaches, outside ``W``'s ``Program.spawn_order`` table,
    when runs spawn ``V`` at most once, so the row is its one instance."""
    counts = program.instance_counts
    once = [
        (s, v)
        for s, (v, *others) in enumerate(program.owners)
        if not others and counts.get(v) == 1
    ]
    out = {}
    for t in program.tasks:
        if t.name != "main":
            after = program.spawn_order.get(t.name, ())
            out[t.name] = {
                v: frozenset(s for s, u in once if u == v and s not in after)
                for v, _ in program.spawners.get(t.name, ())
            }
    return out


def type_bound(program):
    """The static row test: a predicate on a constraint's tuple of
    sequence ids (one per row, None for ``*``) that is False only when
    no constraint with those rows has models.  It applies two rules.

    *Per-type (Hall) bound.*  A model maps distinct tasks to distinct
    tracked rows, and a task at a control sequence is an instance of one
    of the sequence's owners (``Program.owners``; a ``*`` row may be an
    instance of any type).  By Hall's condition such a map exists only
    if, for every union ``U`` of the rows' owner sets, the rows whose
    owners lie within ``U`` number at most the instances runs spawn of
    ``U``'s types (``Program.instance_counts``; 0 for a type ``main``
    never reaches).  That implies the total task bound of
    ``Program.static_bounds``, which is tested first because it rejects
    most tuples more cheaply.  Memoized on the sorted owner sets of the
    rows.

    *Spawn order.*  A type ``W`` other than ``main`` is dead, given the
    pinned rows, when each of its spawners ``V`` (``Program.spawners``)
    is dead too, or has one instance at most and a row at an id that
    only ``V`` reaches, outside ``W``'s ``Program.spawn_order`` table;
    dead types are the least fixpoint of that rule.  A tuple with a row
    whose owners are all dead fails.  In ``bool x; main(){ asynch(W);
    x = true; asynch(X); } W(){ x = false; } X(){ assert(x); }``, a row
    of ``main`` at ``x = true; asynch(X);`` makes ``X`` dead, so no row
    at ``X``'s body may join it, while rows of ``W`` may.  The rule is
    exact: tasks never leave a configuration and ``spawn_order`` is
    closed under forward steps, so the one ``V`` instance sitting
    outside it has never run ``asynch(W)``; a dead spawner has no
    instance, so it has never run one either; and a type no task has
    spawned has no instance.  Memoized on the set of pinned ids."""
    counts = program.instance_counts
    own = program.owners
    every = frozenset(t.name for t in program.tasks)
    task_bound = program.static_bounds[0]
    unspawned = _unspawned_at(program)
    hall_memo, order_memo = {}, {}

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

    def in_spawn_order(pinned) -> bool:
        dead, grew = set(), True
        while grew:
            grew = False
            for w, blockers in unspawned.items():
                if w not in dead and all(
                    v in dead or not pinned.isdisjoint(at) for v, at in blockers.items()
                ):
                    dead.add(w)
                    grew = True
        return not any(own[s] <= dead for s in pinned)

    def fits_types(seqs) -> bool:
        if task_bound is not None and len(seqs) > task_bound:
            return False
        sets = (every if s is None else own[s] for s in seqs)
        key = tuple(sorted(sets, key=sorted))
        if key not in hall_memo:
            hall_memo[key] = hall(key)
        if not hall_memo[key]:
            return False
        pinned = frozenset(seqs).difference((None,))
        if pinned not in order_memo:
            order_memo[pinned] = in_spawn_order(pinned)
        return order_memo[pinned]

    return fits_types


def flow_bound(program):
    """The static column test: a predicate on a constraint that is False
    only when the constraint has no model.

    In a column, take every row whose cell names a variable (not ``*``
    or ``-``), and the ``newPhaser`` sites that the variable may hold in
    the row's owner types (``Program.held_sites``; a ``*`` row may be
    any type).  The constraint fails when, in some column, these site
    sets have no common element.  In ``main(){ p = newPhaser();
    asynch(W, p); q = newPhaser(); drop(q); ... } W(r){ ... }``, ``main``'s
    ``q`` and ``W``'s ``r`` cannot share a column, while ``main``'s ``p``
    and ``W``'s ``r`` can.  The rule is exact: a model maps each row to
    a task of one of its owners whose variable names the column's
    phaser, a task's variable holds only phasers of the sites
    ``held_sites`` gives it, and a phaser comes from exactly one site.
    Memoized on (sequence id, variable)."""
    held = program.held_sites
    own = program.owners
    every = frozenset(t.name for t in program.tasks)
    memo = {}

    def sites(s, var) -> frozenset:
        if (s, var) not in memo:
            types = every if s is None else own[s]
            memo[s, var] = frozenset().union(*(held.get((t, var), ()) for t in types))
        return memo[s, var]

    def fits_columns(phi) -> bool:
        for q in range(phi.n_phasers):
            common = None
            for s, row in zip(phi.seqs, phi.gaps):
                var = row[q].var
                if var != ANY and var != NO_VAR:
                    common = sites(s, var) if common is None else common & sites(s, var)
                    if not common:
                        return False
        return True

    return fits_columns


def check(program, targets, k=None, b=INF, budget=None, progress=None):
    """Decide whether any target constraint has a reachable model, under
    the limits ``k``, ``b`` and ``budget`` (see the module docstring).

    Returns Reachable, Unreachable, or BudgetExhausted (with a
    ``budget`` only).  Raises ValueError for a program it cannot decide
    (a reachable barrier block, SIG/WAIT modes) and when the targets do
    not satisfy the limits.
    """
    if program.is_atomic():
        raise ValueError("program contains a barrier block body")
    if program.uses_modes():
        raise ValueError(
            "symbolic checking requires SIG_WAIT-only registrations; "
            "rewrite SIG/WAIT modes or use the concrete explorer"
        )
    if not all(is_b_good(t, b) for t in targets):
        raise ValueError(f"plain reachability requires {b}-good targets")
    if b == INF and budget is None and not all(map(is_free, targets)):
        raise ValueError("a run with b=inf and no budget needs free targets")
    phaser_bound = program.static_bounds[1]
    wide = max((phi.n_phasers for phi in targets), default=0)
    if k is None:
        k = max(wide, program.phaser_sites() if phaser_bound is None else phaser_bound)
    elif wide > k:
        # k would prune every predecessor of the wider targets unexplored
        raise ValueError(f"a target tracks {wide} phasers, more than k={k}")
    cap = k if phaser_bound is None else min(k, phaser_bound)
    init = initial_config(program)
    start_dist = program.start_distances

    # the static limits: constraints with more rows on some task types'
    # code than those types have instances, with a column that no task
    # could hold, or with more columns than any run creates phasers or
    # than k allows, are unsatisfiable or pruned.  They filter the
    # targets below, and ``pre`` drops every predecessor that fails them
    # before it is put into canonical form
    rows_fit = type_bound(program)
    cols_fit = flow_bound(program)

    def forward_work(phi: Constraint) -> int:
        # total forward control steps still separating the constraint's
        # pinned sequences from task starts; 0 iff every pinned sequence
        # is a task body, which is where the initial configuration lives
        return sum(start_dist[s] for s in phi.seqs if s is not None)

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
    # gets weaker (evictions swap items for covering ones), so a repeat
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

    def trace_from(phi) -> Reachable:
        constraints, stmts = [phi], []
        while parents[phi] is not None:
            stmt, phi = parents[phi]
            stmts.append(stmt)
            constraints.append(phi)
        return Reachable(tuple(constraints), tuple(stmts))

    for phi in sorted(targets, key=constraint_order_key):
        if rows_fit(phi.seqs) and cols_fit(phi) and phi.n_phasers <= cap:
            insert(phi, None)
    processed = 0
    while working:
        _, phi = heapq.heappop(working)
        if phi not in queued:
            continue  # evicted while scheduled
        if processed == budget:
            return BudgetExhausted(processed)
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
        if models(init, phi):
            return trace_from(phi)
        # pre builds only predecessors within the row and width limits;
        # the rest are filtered before pre canonicalizes them, cheapest
        # test first: the column test, the b prune, then entailment by
        # the popped constraint itself, which covers most
        # environment-role predecessors.  Each test is invariant under
        # renaming rows and columns, so the survivors are those that
        # filtering the canonical predecessors would keep.
        preds = sorted(
            pre(
                phi,
                program,
                keep=lambda psi: cols_fit(psi) and is_b_good(psi, b) and not entails(phi, psi),
                rows_fit=rows_fit,
                cap=cap,
            ),
            key=lambda sp: (str(sp[0]), constraint_order_key(sp[1])),
        )
        for stmt, psi in preds:
            insert(psi, (stmt, phi))
    return Unreachable(processed)


# ---------------------------------------------------------------------------
# Witness replay


class TraceReport(Node):
    ok: bool
    failed_stage: int = -1
    message: str = ""


def validate_trace(program, trace: Reachable) -> TraceReport:
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
