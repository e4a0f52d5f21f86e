"""Symbolic constraints over phaser configurations.

A constraint describes an upward-closed-modulo-shift family of
configurations.  Per tracked task and tracked phaser it stores a *gap*:
either "not registered" or interval bounds on the distance between the
task's wait/signal values and a per-phaser existential level ``l``:

    lw <= l - w <= uw        ls <= s - l <= us

Upper bounds are either both finite or both infinite; a gap with infinite
uppers is *free*.  Tasks of a configuration not captured by the tracked
rows are environment tasks: per tracked phaser, ``egap = (ew, es)`` gives
lower bounds ``ew <= l - w`` and ``es <= s - l`` that every registered
environment task must satisfy.

A tracked task's control location is the id of its sequence in the
program's tables (``control.Program.suffixes``), or None for ``*``, as
in a concrete configuration: membership, entailment and canonical forms
compare and sort ints.  Only the target-record format (``targets``)
prints and reads the statements, through the program.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .syntax import ANY, NO_MODE, Node

INF = float("inf")

FREE_BOUNDS = (0, 0, INF, INF)


class Gap(Node):
    """One (task, phaser) cell: variable name pattern plus either None
    (not registered) or interval bounds (lw, ls, uw, us).

    With ``opt`` set the cell is *optionally registered*: it denotes the
    union of "not registered" and "registered within bounds".  Optional
    cells arise when a backward step starts tracking a phaser the
    constraint knew nothing about: keeping the two registration outcomes
    in one cell avoids splitting the constraint per tracked task.

    ``pre`` builds cells and the store compares them on every step, so
    the record methods are written out instead of inherited, and the
    fields are slots."""

    __slots__ = ("var", "bounds", "opt")
    var: str
    bounds: object  # None | (lw, ls, uw, us)
    opt: bool  # default False

    def __init__(self, var, bounds, opt=False):
        set_field = object.__setattr__
        set_field(self, "var", var)
        set_field(self, "bounds", bounds)
        set_field(self, "opt", opt)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bounds == other.bounds and self.var == other.var and self.opt == other.opt

    def __hash__(self):
        return hash((self.var, self.bounds, self.opt))

    def __reduce__(self):
        # copy and pickle through __init__: the slots refuse assignment
        return Gap, (self.var, self.bounds, self.opt)

    def is_free(self) -> bool:
        return self.bounds is None or (
            self.bounds[2] == INF and self.bounds[3] == INF
        )

    def is_bounded(self, b) -> bool:
        return self.bounds is None or (
            self.bounds[2] <= b and self.bounds[3] <= b
        )


OPT_FREE = Gap(ANY, FREE_BOUNDS, True)


class Constraint(Node):
    """``pre`` builds constraints and the store hashes and compares them
    on every step, so the record methods are written out instead of
    inherited from ``Node``; the hash is computed once."""

    bv: tuple  # bool | None (= *) per program bool variable
    seqs: tuple  # sequence id | None (= *) per tracked task
    gaps: tuple  # gaps[task][phaser] -> Gap
    egaps: tuple  # (ew, es) per tracked phaser

    def __init__(self, bv, seqs, gaps, egaps):
        self.__dict__.update(bv=bv, seqs=seqs, gaps=gaps, egaps=egaps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.seqs == other.seqs
            and self.gaps == other.gaps
            and self.egaps == other.egaps
            and self.bv == other.bv
        )

    @property
    def n_tasks(self) -> int:
        return len(self.seqs)

    @property
    def n_phasers(self) -> int:
        return len(self.egaps)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing a constraint walks every cell of every row; engine
        # stores hash the same instances over and over
        return hash((self.bv, self.seqs, self.gaps, self.egaps))

    @cached_property
    def seq_set(self) -> frozenset:
        """The set of sequence ids the constraint pins."""
        return frozenset(s for s in self.seqs if s is not None)

    @cached_property
    def summary(self) -> tuple:
        """Count summaries (see ``fits``): the total, then one per row,
        then one per column.  Each counts certain cells, unregistered
        cells and certain cells with finite uppers, and sums ``lw`` and
        ``ls`` over certain cells; the total also carries ``n_tasks`` and
        ``n_phasers``."""
        rows, cols, total = [], [0] * self.n_phasers, 0
        for row in self.gaps:
            r = 0
            for j, g in enumerate(row):
                c = _cell_summary(g)
                r = _clamped_sum(r, c)
                cols[j] = _clamped_sum(cols[j], c)
            rows.append(r)
            total = _clamped_sum(total, r)
        shape = (min(self.n_tasks, _CLAMP) << _FIELD) | min(self.n_phasers, _CLAMP)
        return ((total << 2 * _FIELD) | shape, *rows, *cols)


def is_free(phi: Constraint) -> bool:
    return all(g.is_free() for row in phi.gaps for g in row)


def is_b_good(phi: Constraint, b) -> bool:
    return all(g.is_free() or g.is_bounded(b) for row in phi.gaps for g in row)


# ---------------------------------------------------------------------------
# Membership: configuration models constraint


def models(c, phi: Constraint) -> bool:
    """Whether the concrete configuration satisfies the constraint."""
    for pb, cb in zip(phi.bv, c.bv):
        if pb is not None and pb != cb:
            return False
    n_tc, n_pc = c.n_tasks, c.n_phasers
    n_tp, n_pp = phi.n_tasks, phi.n_phasers
    if n_tc < n_tp or n_pc < n_pp:
        return False
    # candidate concrete tasks per tracked task (control-sequence match)
    options = []
    for t in range(n_tc):
        opts = [-1]  # environment role
        for j in range(n_tp):
            if phi.seqs[j] is None or phi.seqs[j] == c.seqs[t]:
                opts.append(j)
        options.append(opts)
    for pi_sel in itertools.permutations(range(n_pc), n_pp):
        for assign in itertools.product(*options):
            if set(a for a in assign if a >= 0) != set(range(n_tp)):
                continue  # surjectivity onto tracked tasks
            if _levels_ok(c, phi, pi_sel, assign):
                return True
    return False


def _levels_ok(c, phi: Constraint, pi_sel, assign) -> bool:
    for j in range(phi.n_phasers):
        p = pi_sel[j]
        lo, hi = 0, INF
        ew, es = phi.egaps[j]
        for t in range(c.n_tasks):
            var_c, reg = c.phases[t][p]
            a = assign[t]
            if a >= 0:
                g = phi.gaps[a][j]
                if g.var != ANY and g.var != var_c:
                    return False
                if reg.mode == NO_MODE:
                    if g.bounds is not None and not g.opt:
                        return False
                    continue
                if g.bounds is None:
                    return False
                lw, ls, uw, us = g.bounds
                if reg.wait is not None:
                    lo = max(lo, reg.wait + lw)
                    hi = min(hi, reg.wait + uw)
                if reg.sig is not None:
                    lo = max(lo, reg.sig - us)
                    hi = min(hi, reg.sig - ls)
            else:  # an unregistered cell holds neither value
                if reg.wait is not None:
                    lo = max(lo, reg.wait + ew)
                if reg.sig is not None:
                    hi = min(hi, reg.sig - es)
        if lo > hi:
            return False
    return True


# ---------------------------------------------------------------------------
# Entailment: entails(a, b) implies every model of b is a model of a


def gap_leq(ga: Gap, gb: Gap) -> bool:
    """Gap order: a is the weaker (wildcard-bearing) side."""
    if ga.var != gb.var and ga.var != ANY:
        return False
    if ga.bounds is None:
        # definitely-unregistered only covers definitely-unregistered
        return gb.bounds is None
    if ga.opt:
        # optional cell covers unregistered outright; registered models
        # must fit its bounds
        if gb.bounds is None:
            return True
    elif gb.bounds is None or gb.opt:
        # a certain registration never covers b's unregistered models
        return False
    lw_a, ls_a, uw_a, us_a = ga.bounds
    lw_b, ls_b, uw_b, us_b = gb.bounds
    return lw_a <= lw_b and ls_a <= ls_b and uw_b <= uw_a and us_b <= us_a


# A count summary packs non-negative fields into one int, one field per
# _FIELD bits: a value clamped at _CLAMP under a guard bit.  Comparing
# every field at once is one subtraction, because a field of ``b | _GUARDS``
# keeps its guard bit after subtracting the same field of ``a`` exactly
# when a's field is at most b's; clamping is monotone, so a fit of the
# unclamped fields survives it.
_FIELD = 6
_CLAMP = (1 << (_FIELD - 1)) - 1
_GUARDS = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(7))


def fits(a: int, b: int) -> bool:
    """Every field of summary ``a`` is at most the same field of ``b``."""
    return ((b | _GUARDS) - a) & _GUARDS == _GUARDS


def _clamped_sum(a: int, b: int) -> int:
    # fields of at most _CLAMP add up without spilling into the next one;
    # a sum above _CLAMP sets its guard bit and is clamped back
    v = a + b
    over = v & _GUARDS
    return (v | (over - (over >> (_FIELD - 1)))) & ~_GUARDS if over else v


def _cell_summary(g: Gap) -> int:
    # fields, high to low: lw and ls of a certain cell, whether it is
    # certain with finite uppers, unregistered, certain.  This is what a
    # cell of the entailing side asks of the cell it is mapped to.  Fields
    # that are mostly 0 come first, so most packed rows and columns are
    # small ints that the interpreter shares.
    b = g.bounds
    if b is None:
        return 1 << _FIELD
    if g.opt:
        return 0
    lw, ls, uw, _ = b
    return (
        (min(lw, _CLAMP) << 4 * _FIELD)
        + (min(ls, _CLAMP) << 3 * _FIELD)
        + ((uw != INF) << 2 * _FIELD)
        + 1
    )


def entails(pa: Constraint, pb: Constraint) -> bool:
    """True implies the models of ``pb`` are included in those of ``pa``.

    ``gap_leq`` puts every certain or unregistered cell of ``pa`` over a
    cell of the same kind in ``pb`` whose bounds are at least as strong.
    The witness rows are distinct and the phaser map is injective, so a
    map the matcher accepts sends each row and each column of ``pa`` to
    one whose ``summary`` it fits, and the totals fit too: the summaries
    reject pairs and maps that the matcher would reject anyway."""
    if pa is pb or pa == pb:
        return True
    for a, b in zip(pa.bv, pb.bv):
        if a is not None and a != b:
            return False
    sum_a, sum_b = pa.summary, pb.summary
    if not fits(sum_a[0], sum_b[0]):
        return False  # b has fewer rows, columns or cells of some kind
    g = _GUARDS  # the comprehensions below inline ``fits``
    n_ta, n_pa = pa.n_tasks, pa.n_phasers
    n_tb = pb.n_tasks
    rows_a, cols_a = sum_a[1 : 1 + n_ta], sum_a[1 + n_ta :]
    rows_b, cols_b = sum_b[1 : 1 + n_tb], sum_b[1 + n_tb :]
    # a column of a can only map to a column of b whose environment
    # bounds are at least as strong and whose summary it fits
    targets = []
    for (ew_a, es_a), ca in zip(pa.egaps, cols_a):
        cols = [
            jb
            for jb, ((ew_b, es_b), cb) in enumerate(zip(pb.egaps, cols_b))
            if ew_a <= ew_b and es_a <= es_b and ((cb | g) - ca) & g == g
        ]
        if not cols:
            return False
        targets.append(cols)
    # whether row tb of b can stand for row ta of a, as far as control and
    # the row summaries tell, does not depend on the map
    seq_ok = [
        [((rb | g) - ra) & g == g and (sa is None or sa == sb) for sa, ra in zip(pa.seqs, rows_a)]
        for sb, rb in zip(pb.seqs, rows_b)
    ]
    if not all(map(any, zip(*seq_ok))):
        return False  # some row of a has no candidate witness in b
    for pi_sel in itertools.product(*targets):
        if len(set(pi_sel)) < n_pa:
            continue  # the phaser map must be injective
        # cell compatibility is independent per task pair, so the task
        # correspondence reduces to a small matching problem: pick one
        # distinct witness row of b per row of a (surjectivity), while
        # every other row of b must be coverable by some row of a or by
        # the environment bounds.
        compat = []
        for tb, b_row in enumerate(pb.gaps):
            gb_row = [b_row[jb] for jb in pi_sel]
            row = [
                ok and all(map(gap_leq, pa.gaps[ta], gb_row))
                for ta, ok in enumerate(seq_ok[tb])
            ]
            if not any(row) and any(
                gb.bounds is not None and (ew_a > gb.bounds[0] or es_a > gb.bounds[1])
                for (ew_a, es_a), gb in zip(pa.egaps, gb_row)
            ):
                break  # this row of b has no place under this map
            compat.append(row)
        else:
            if _surjection_exists(compat, n_ta):
                return True
    return False


def _surjection_exists(compat, n_ta, ta=0, used=0) -> bool:
    """Whether a-rows ``ta`` onward match distinct compatible b-rows
    (``compat[tb][ta]``) outside the bitmask ``used``.  Unmatched b-rows
    must be absorbable on their own, which ``entails`` checks first."""
    if ta == n_ta:
        return True
    for tb, row in enumerate(compat):
        bit = 1 << tb
        if row[ta] and not used & bit and _surjection_exists(compat, n_ta, ta + 1, used | bit):
            return True
    return False


# ---------------------------------------------------------------------------
# Deterministic ordering and canonical form


def _gap_key(g: Gap):
    if g.bounds is None:
        return (0, g.var, ())
    return (2 if g.opt else 1, g.var, g.bounds)


def constraint_order_key(phi: Constraint):
    return (
        phi.n_tasks,
        phi.n_phasers,
        tuple(-1 if b is None else int(b) for b in phi.bv),
        tuple(-1 if s is None else s for s in phi.seqs),
        tuple(tuple(_gap_key(g) for g in row) for row in phi.gaps),
        phi.egaps,
    )


def canonical_constraint(phi: Constraint) -> Constraint:
    """Sort tracked tasks and phasers into a deterministic order (sound:
    membership and entailment are invariant under row/column renaming)."""
    porder = sorted(
        range(phi.n_phasers),
        key=lambda p: (
            tuple(sorted(_gap_key(row[p]) for row in phi.gaps)),
            phi.egaps[p],
            p,
        ),
    )
    torder = sorted(
        range(phi.n_tasks),
        key=lambda t: (
            -1 if phi.seqs[t] is None else phi.seqs[t],
            tuple(_gap_key(phi.gaps[t][p]) for p in porder),
            t,
        ),
    )
    return Constraint(
        phi.bv,
        tuple(phi.seqs[t] for t in torder),
        tuple(tuple(phi.gaps[t][p] for p in porder) for t in torder),
        tuple(phi.egaps[p] for p in porder),
    )
