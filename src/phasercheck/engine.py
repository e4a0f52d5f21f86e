"""Backward reachability engine.

``check`` saturates the predecessor relation from a set of target
constraints into one antichain store (a stored constraint whose models
cover a candidate makes the candidate redundant; a candidate covering
stored constraints evicts them).  The store is where entailment prunes,
with one exception: ``check``'s ``keep`` filter drops, before they are
built in canonical form, the predecessors that the popped constraint
itself entails.  Otherwise targets and predecessors that pass the
static rules below reach the store unreduced: the target builders
return every target, and ``pre`` may repeat a predecessor.

The formulations of the verification problem are this one loop under
three limits, ``check``'s parameters:

* ``k``, the column cap: constraints over more than ``k`` phasers are
  dropped, and a wider target is an error (``symbolic.INF``: no cap
  beyond the static phaser bound).
* ``b``, the gap prune: predecessors that are not ``b``-good (every gap
  free or with uppers at most ``b``) are dropped, and targets must be
  ``b``-good.  ``b`` never prunes a free constraint; ``b=INF`` prunes
  nothing.  ``Unreachable.b_pruned`` counts the predecessors it
  dropped, so a verdict can say when it rests on them.
* ``budget``: after that many pops, when a constraint is still
  scheduled, ``check`` gives up with a distinct inconclusive verdict.

A finite ``k`` with a finite ``b`` (plain reachability) terminates,
and so does a finite ``k`` on free targets, which ``pre`` keeps free,
so that ``b`` never prunes them (control reachability).  Both decide
targets that never need more than ``k`` simultaneously tracked phasers.
Any other run (``k=INF``, or ``b=INF`` on targets that are not free)
is sure to stop only under a ``budget``; ``check`` rejects the second
without one.
``k=None`` leaves ``k`` to ``check``: the widest target or the larger
phaser bound, so ``k`` never prunes a program with a finite bound; else
the number of ``newPhaser`` sites.  ``b=None`` likewise leaves ``b`` to
``check``: ``least_b(targets)``, the least ``b`` under which every
target is ``b``-good.

Every limit but the budget is one table, ``StaticRules(program, k, b)``,
which ``check`` builds once per call.  It filters the targets, and
``pre`` applies it to each predecessor in two stages: the rows stage
before it builds any cell, the cells stage before canonical form.  A
rule is exact when it fails only constraints without models, and a
prune otherwise.  Each rule's name (stage; what it reads; kind):

* ``cap`` (rows; the column count; prune by ``k``): at most ``min(k,
  Program.phaser_bound)`` columns.
* ``hall`` (rows; the rows' owner types, ``Program.owners``, against
  ``Program.instance_counts``; exact): no more rows on some types' code
  than those types have instances (``_hall``).
* ``spawn-order`` (rows; the pinned ids, against ``Program.spawners``
  and ``Program.spawn_order``; exact): no row of a type that no task
  has spawned yet (``_spawn_order``).
* ``flow`` (cells; the variables of each column, against
  ``Program.held_sites``; exact): the rows of a column name variables
  that may hold a common phaser (``_flow``).
* ``b`` (cells; the gap bounds; prune by ``b``): ``b``-good.
"""

from __future__ import annotations

import heapq

from .concrete import Configuration, CyclicWait, cyclic_waits, initial_config, successors
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
    configuration, constraints[-1] is a target, and stmts[i] is the step
    that ``pre`` took backward from constraints[i+1] to constraints[i].
    ``pre`` is exact only when each tracked row captures one task, so a
    run need not follow the witness: ``validate_trace`` replays it, and
    only a witness that replays certifies the verdict."""

    constraints: tuple
    stmts: tuple


class Unreachable(Node):
    """No target is reachable under ``check``'s limits.  ``b_pruned``
    counts the predecessors that the ``b`` rule dropped: when it is not
    0, the verdict holds relative to ``b`` only."""

    processed: int
    b_pruned: int = 0


class BudgetExhausted(Node):
    processed: int


class StaticRules:
    """The static rules of one run, by name (see the module docstring):
    ``row_rules`` test a tuple of sequence ids (one per row, None for
    ``*``), ``cell_rules`` a built constraint, and ``cap`` bounds the
    columns.  ``rows_fit`` and ``cells_fit`` are each stage's rules in
    table order, composed once.  Each rule keeps its own memo, which
    lives as long as the table; ``b_pruned`` counts what ``b``
    rejects."""

    def __init__(self, program, k, b):
        phaser_bound = program.phaser_bound
        self.cap = k if phaser_bound is None else min(k, phaser_bound)
        self.b_pruned = 0

        def b_good(phi) -> bool:
            if is_b_good(phi, b):
                return True
            self.b_pruned += 1
            return False

        self.row_rules = {"hall": _hall(program), "spawn-order": _spawn_order(program)}
        self.cell_rules = {"flow": _flow(program), "b": b_good}
        hall, order = self.row_rules.values()
        flow, good = self.cell_rules.values()
        self.rows_fit = lambda seqs: hall(seqs) and order(seqs)
        self.cells_fit = lambda phi: flow(phi) and good(phi)


def _hall(program):
    """The ``hall`` rule.  A model maps distinct tasks to distinct
    tracked rows, and a task at a control sequence is an instance of one
    of the sequence's owners (``Program.owners``; a ``*`` row may be an
    instance of any type).  By Hall's condition such a map exists only
    if, for every union ``U`` of the rows' owner sets, the rows whose
    owners lie within ``U`` number at most the instances runs spawn of
    ``U``'s types (``Program.instance_counts``; 0 for a type ``main``
    never reaches).  In ``main(){ asynch(W); asynch(W); }`` where each
    ``W`` spawns one ``X``, that is at most 1 row on ``main``'s code, 2
    on ``W``'s and 2 on ``X``'s, and 5 in all: the union of every row's
    owners bounds the row count by the total instance count whenever
    that is finite.  The bound holds for ``main`` and every type with a
    finite count when the total is unbounded too.  Memoized
    on the sorted owner sets of the rows."""
    counts = program.instance_counts
    own = program.owners
    every = frozenset(t.name for t in program.tasks)
    memo = {}

    def instances(types):
        ns = [counts.get(t, 0) for t in types]
        return None if None in ns else sum(ns)

    def holds(key) -> bool:
        unions = {frozenset()}
        for o in set(key):
            unions |= {u | o for u in unions}
        for u in unions:
            n = instances(u)
            if n is not None and sum(o <= u for o in key) > n:
                return False
        return True

    def hall(seqs) -> bool:
        key = tuple(sorted((every if s is None else own[s] for s in seqs), key=sorted))
        if key not in memo:
            memo[key] = holds(key)
        return memo[key]

    return hall


def _spawn_order(program):
    """The ``spawn-order`` rule.  A type ``W`` other than ``main`` is
    dead, given the pinned rows, when each of its spawners ``V``
    (``Program.spawners``) is dead too, or has one instance at most and
    a row at an id that only ``V`` reaches, outside ``W``'s
    ``Program.spawn_order`` table; dead types are the least fixpoint of
    that rule.  A tuple with a row whose owners are all dead fails.  In
    ``bool x; main(){ asynch(W); x = true; asynch(X); } W(){ x = false; }
    X(){ assert(x); }``, a row of ``main`` at ``x = true; asynch(X);``
    makes ``X`` dead, so no row at ``X``'s body may join it, while rows
    of ``W`` may.  The rule is exact: tasks never leave a configuration
    and ``spawn_order`` is closed under forward steps, so the one ``V``
    instance sitting outside it has never run ``asynch(W)``; a dead
    spawner has no instance, so it has never run one either; and a type
    no task has spawned has no instance.  Memoized on the set of pinned
    ids."""
    counts = program.instance_counts
    own = program.owners
    # per type W other than main and per spawner V, the ids at which a
    # row of V's one instance shows that it has not spawned a W yet
    once = [(s, v) for s, (v, *others) in enumerate(own) if not others and counts.get(v) == 1]
    unspawned = {}
    for t in program.tasks:
        if t.name != "main":
            after = program.spawn_order.get(t.name, ())
            unspawned[t.name] = {
                v: frozenset(s for s, u in once if u == v and s not in after)
                for v, _ in program.spawners.get(t.name, ())
            }
    memo = {}

    def holds(pinned) -> bool:
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

    def in_spawn_order(seqs) -> bool:
        pinned = frozenset(seqs).difference((None,))
        if pinned not in memo:
            memo[pinned] = holds(pinned)
        return memo[pinned]

    return in_spawn_order


def _flow(program):
    """The ``flow`` rule.  In a column, take every row whose cell names
    a variable (not ``*`` or ``-``), and the ``newPhaser`` sites that
    the variable may hold in the row's owner types
    (``Program.held_sites``; a ``*`` row may be any type).  The
    constraint fails when, in some column, these site sets have no
    common element.  In ``main(){ p = newPhaser(); asynch(W, p); q =
    newPhaser(); drop(q); ... } W(r){ ... }``, ``main``'s ``q`` and
    ``W``'s ``r`` cannot share a column, while ``main``'s ``p`` and
    ``W``'s ``r`` can.  The rule is exact: a model maps each row to a
    task of one of its owners whose variable names the column's phaser,
    a task's variable holds only phasers of the sites ``held_sites``
    gives it, and a phaser comes from exactly one site.  Memoized on
    (sequence id, variable)."""
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


def least_b(targets):
    """The least ``b`` at least 1 under which every target is
    ``b``-good: the largest upper of a gap that is not free, or 1."""
    gaps = (g for phi in targets for row in phi.gaps for g in row)
    return max((u for g in gaps if not g.is_free() for u in g.bounds[2:]), default=1) or 1


def check(program, targets, k=None, b=None, budget=None, progress=None):
    """Decide whether any target constraint has a reachable model, under
    the limits ``k``, ``b`` and ``budget`` (see the module docstring);
    ``k=None`` and ``b=None`` are what the targets need.

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
    need = least_b(targets)
    if b is None:
        b = need
    elif b < need:
        raise ValueError(f"the targets need b={need} or more")
    if b == INF and budget is None and not all(map(is_free, targets)):
        raise ValueError("a run with b=inf and no budget needs free targets")
    phaser_bound = program.phaser_bound
    wide = max((phi.n_phasers for phi in targets), default=0)
    if k is None:
        k = max(wide, program.phaser_sites() if phaser_bound is None else phaser_bound)
    elif wide > k:
        # k would prune every predecessor of the wider targets unexplored
        raise ValueError(f"a target tracks {wide} phasers, more than k={k}")
    rules = StaticRules(program, k, b)
    init = initial_config(program)
    start_dist = program.start_distances

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
        if phi.n_phasers <= rules.cap and rules.rows_fit(phi.seqs) and rules.cells_fit(phi):
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
        # pre applies the static rules; keep then drops, before pre
        # canonicalizes them, the predecessors that the popped constraint
        # itself entails, which covers most environment-role ones.  Each
        # test is invariant under renaming rows and columns, so the
        # survivors are those that filtering the canonical predecessors
        # would keep.
        preds = sorted(
            pre(phi, program, rules, keep=lambda psi: not entails(phi, psi)),
            key=lambda sp: (str(sp[0]), constraint_order_key(sp[1])),
        )
        for stmt, psi in preds:
            insert(psi, (stmt, phi))
    return Unreachable(processed, rules.b_pruned)


# ---------------------------------------------------------------------------
# Witness replay


def validate_trace(program, trace: Reachable, error=None):
    """Replay a witness concretely.  From the initial configuration, each
    trace statement must fire once into a model of the next trace
    constraint.  With ``error``, an error outcome class of ``concrete``,
    some configuration that the replay ends in must then raise it, as the
    detectors that ``explore`` reports from see it: ``cyclic_waits`` for
    ``CyclicWait``, an outcome of ``successors`` for the others.  Returns
    None when the witness replays, else ``(step, message)``: the trace
    step where the replay fails, and why."""
    init = initial_config(program)
    if not models(init, trace.constraints[0]):
        return 0, "initial configuration does not model the first constraint"
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
            return i + 1, f"could not fire {stmt} into a model of constraint {i + 1}"
        frontier = reached
    if error is None:
        return None
    if error is CyclicWait:
        ends = (cyclic_waits(c, program) is not None for c in frontier)
    else:
        ends = (isinstance(out, error) for c in frontier for *_, out in successors(c, program))
    if any(ends):
        return None
    end = len(trace.stmts)
    return end, f"no model of constraint {end} that the replay reaches raises {error.__name__}"
