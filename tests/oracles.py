"""Reference implementations that the tests compare the checker against;
the checker itself never runs them."""

import itertools
from collections import deque
from dataclasses import dataclass

from phasercheck.concrete import (
    Configuration,
    CyclicWait,
    ExploreResult,
    Reg,
    _within,
    canonical,
    cyclic_waits,
    initial_config,
    successors,
)
from phasercheck.pre import pre
from phasercheck.symbolic import (
    INF,
    OPT_FREE,
    Constraint,
    Gap,
    entails,
    gap_leq,
    is_free,
)
from phasercheck.syntax import ANY, NO_VAR, And, BoolLit, BoolVar, If, Ndet, NextBlock, Not, Or, Wait, While
from phasercheck.targets import write_record


def gap_valid(g: Gap) -> bool:
    """Whether a cell is well formed: an unregistered cell is certain,
    lowers are natural, uppers are both finite or both infinite, and no
    lower is above its upper."""
    if g.bounds is None:
        return not g.opt
    lw, ls, uw, us = g.bounds
    if lw < 0 or ls < 0:
        return False
    if (uw == INF) != (us == INF):
        return False
    return lw <= uw and ls <= us


def constraint_valid(phi: Constraint) -> bool:
    """Whether a constraint is well formed: at least one row, every row
    one valid cell per column, and natural environment bounds."""
    if phi.n_tasks == 0:
        return False
    if len(phi.gaps) != phi.n_tasks:
        return False
    for row in phi.gaps:
        if len(row) != phi.n_phasers:
            return False
        if not all(gap_valid(g) for g in row):
            return False
    return all(ew >= 0 and es >= 0 for ew, es in phi.egaps)


@dataclass(frozen=True)
class PartialConfiguration:
    """Wildcard-bearing pattern over configurations, as a partial-config
    record states it: seqs hold control sequences.

    bv entries and seqs may be None (= *); phase cells may be None
    (= unconstrained), or (var, val) with var in V + {"-", "*"} and val
    either "nreg" or a pair whose components are naturals or "*".
    """

    bv: tuple
    seqs: tuple
    phase: tuple  # phase[t][p] -> None | (var, val)

    @property
    def n_tasks(self) -> int:
        return len(self.seqs)

    @property
    def n_phasers(self) -> int:
        return len(self.phase[0]) if self.phase else 0


def is_well_formed(c: Configuration) -> bool:
    """Per-registration w <= s, per-phaser level consistency (every wait
    value at most every signal value) and at most one phaser per variable
    of a task, which the forward semantics preserves (``newPhaser``
    unbinds the variable's old phaser, spawn formals are distinct) and
    the gap representation assumes."""
    for row in c.phases:
        names = [var for var, _ in row if var != NO_VAR]
        if len(names) != len(set(names)):
            return False
    for pi in range(c.n_phasers):
        waits, sigs = [], []
        for t in range(c.n_tasks):
            _, reg = c.phases[t][pi]
            if reg is None:
                continue
            if reg.wait is not None and reg.sig is not None and reg.wait > reg.sig:
                return False
            if reg.wait is not None:
                waits.append(reg.wait)
            if reg.sig is not None:
                sigs.append(reg.sig)
        if waits and sigs and max(waits) > min(sigs):
            return False
    return True


def _val_matches(pv, reg) -> bool:
    if pv == "nreg":
        return reg is None
    if reg is None:
        return False
    w, s = pv
    if w != ANY and reg.wait != w:
        return False
    if s != ANY and reg.sig != s:
        return False
    return True


def includes(c: Configuration, pc: PartialConfiguration, seqs: tuple) -> bool:
    """Whether ``c`` includes the partial configuration (injective task and
    phaser renamings with wildcard matching); ``c``'s sequence ids index
    ``seqs``."""
    for pb, cb in zip(pc.bv, c.bv):
        if pb is not None and pb != cb:
            return False
    ctasks = range(c.n_tasks)
    cphasers = range(c.n_phasers)
    for tau in itertools.permutations(ctasks, pc.n_tasks):
        ok = True
        for tp, tc in enumerate(tau):
            if pc.seqs[tp] is not None and pc.seqs[tp] != seqs[c.seqs[tc]]:
                ok = False
                break
        if not ok:
            continue
        for pi_map in itertools.permutations(cphasers, pc.n_phasers):
            good = True
            for tp, tc in enumerate(tau):
                for pp, pcx in enumerate(pi_map):
                    cell = pc.phase[tp][pp]
                    if cell is None:
                        continue
                    var, val = cell
                    cvar, creg = c.phases[tc][pcx]
                    if var != ANY and var != cvar:
                        good = False
                        break
                    if not _val_matches(val, creg):
                        good = False
                        break
                if not good:
                    break
            if good:
                return True
    return False


def equivalent(c1: Configuration, c2: Configuration) -> bool:
    """Equality up to renaming of ids and a uniform per-phaser phase shift."""
    if c1.bv != c2.bv:
        return False
    if c1.n_tasks != c2.n_tasks or c1.n_phasers != c2.n_phasers:
        return False
    for tau in itertools.permutations(range(c2.n_tasks)):
        if any(c1.seqs[t] != c2.seqs[tau[t]] for t in range(c1.n_tasks)):
            continue
        for pi in itertools.permutations(range(c2.n_phasers)):
            if _shift_match(c1, c2, tau, pi):
                return True
    return False


def _shift_match(c1, c2, tau, pi) -> bool:
    for p1 in range(c1.n_phasers):
        p2 = pi[p1]
        shift = None
        for t1 in range(c1.n_tasks):
            v1, r1 = c1.phases[t1][p1]
            v2, r2 = c2.phases[tau[t1]][p2]
            if v1 != v2:
                return False
            if (r1 is None) != (r2 is None):
                return False
            if r1 is None:
                continue
            if r1.mode != r2.mode:
                return False
            for a, b in ((r1.wait, r2.wait), (r1.sig, r2.sig)):
                if (a is None) != (b is None):
                    return False
                if a is None:
                    continue
                if shift is None:
                    shift = b - a
                elif b - a != shift:
                    return False
    return True


def shifted(c: Configuration, shifts: dict) -> Configuration:
    """Add ``shifts[p]`` to every phase value on phaser ``p`` (test helper
    for the equivalence lemma)."""
    rows = []
    for t in range(c.n_tasks):
        row = []
        for p in range(c.n_phasers):
            var, reg = c.phases[t][p]
            k = shifts.get(p, 0)
            if reg is None or k == 0:
                row.append((var, reg))
            else:
                row.append(
                    (
                        var,
                        Reg(
                            reg.mode,
                            None if reg.wait is None else reg.wait + k,
                            None if reg.sig is None else reg.sig + k,
                        ),
                    )
                )
        rows.append(tuple(row))
    return Configuration(c.bv, c.seqs, tuple(rows), c.atomic)


def encode(phi: Constraint) -> tuple:
    """(bv, per-task (seq, gap row), per-phaser egap) in declaration order."""
    acc = tuple(
        (phi.seqs[t], tuple(phi.gaps[t])) for t in range(phi.n_tasks)
    )
    return (phi.bv, acc, phi.egaps)


def encoding_entails(ea: tuple, eb: tuple) -> bool:
    """Pointwise entailment between encodings of the same dimension; a
    sufficient condition for ``entails`` on the encoded constraints."""
    bv_a, acc_a, env_a = ea
    bv_b, acc_b, env_b = eb
    if len(env_a) != len(env_b):
        return False
    for a, b in zip(bv_a, bv_b):
        if a is not None and a != b:
            return False
    for (ew_a, es_a), (ew_b, es_b) in zip(env_a, env_b):
        if ew_a > ew_b or es_a > es_b:
            return False
    if len(acc_b) < len(acc_a):
        return False

    def cell_leq(ca, cb) -> bool:
        seq_a, row_a = ca
        seq_b, row_b = cb
        if seq_a is not None and seq_a != seq_b:
            return False
        return all(gap_leq(ga, gb) for ga, gb in zip(row_a, row_b))

    # surjection from b's task indices onto a's with pointwise cell order
    for h in itertools.product(range(len(acc_a)), repeat=len(acc_b)):
        if set(h) != set(range(len(acc_a))):
            continue
        if all(cell_leq(acc_a[h[i]], acc_b[i]) for i in range(len(acc_b))):
            return True
    return False


def entails_by_permutations(pa: Constraint, pb: Constraint) -> bool:
    """``symbolic.entails`` as it was before it pruned phaser maps: every
    injective map of a's columns into b's is built and then tested, and
    every injective choice of witness rows of b is enumerated, so no part
    of the matcher under test is shared."""
    if pa is pb or pa == pb:
        return True
    for a, b in zip(pa.bv, pb.bv):
        if a is not None and a != b:
            return False
    n_ta, n_pa = pa.n_tasks, pa.n_phasers
    n_tb, n_pb = pb.n_tasks, pb.n_phasers
    if n_tb < n_ta or n_pb < n_pa:
        return False
    # necessary: every concrete control sequence pinned on the a side
    # must appear among b's pinned sequences
    if not pa.seq_set <= pb.seq_set:
        return False
    for pi_sel in itertools.permutations(range(n_pb), n_pa):
        if any(
            pa.egaps[ja][0] > pb.egaps[pi_sel[ja]][0]
            or pa.egaps[ja][1] > pb.egaps[pi_sel[ja]][1]
            for ja in range(n_pa)
        ):
            continue
        # cell compatibility is independent per task pair, so the task
        # correspondence reduces to a small matching problem: pick one
        # distinct witness row of b per row of a (surjectivity), while
        # every other row of b must be coverable by some row of a or by
        # the environment bounds.
        compat = []
        env_ok = []
        for tb in range(n_tb):
            row = []
            for ta in range(n_ta):
                ok = pa.seqs[ta] is None or pa.seqs[ta] == pb.seqs[tb]
                if ok:
                    for ja in range(n_pa):
                        if not gap_leq(pa.gaps[ta][ja], pb.gaps[tb][pi_sel[ja]]):
                            ok = False
                            break
                row.append(ok)
            compat.append(row)
            ok = True
            for ja in range(n_pa):
                gb = pb.gaps[tb][pi_sel[ja]]
                if gb.bounds is None:
                    continue
                ew_a, es_a = pa.egaps[ja]
                if ew_a > gb.bounds[0] or es_a > gb.bounds[1]:
                    ok = False
                    break
            env_ok.append(ok)
        if any(not env_ok[tb] and not any(compat[tb]) for tb in range(n_tb)):
            continue
        # a distinct witness row of b for every row of a, by enumeration
        if any(
            all(compat[tb][ta] for ta, tb in enumerate(sel))
            for sel in itertools.permutations(range(n_tb), n_ta)
        ):
            return True
    return False


def decode(e: tuple) -> Constraint:
    bv, acc, env = e
    return Constraint(
        bv,
        tuple(seq for seq, _ in acc),
        tuple(row for _, row in acc),
        env,
    )


def preserves_freeness_check(phi: Constraint, program) -> list:
    """For a free constraint, return the non-free predecessor constraints
    produced by ``pre`` (expected empty: backward steps keep freeness)."""
    assert is_free(phi)
    preds = pre(phi, program)
    return [(stmt, psi) for stmt, psi in preds if not is_free(psi)]


def minimize(constraints) -> list:
    """First-wins antichain reduction: drop each constraint whose models a
    kept one covers, and the kept ones that a new constraint covers."""
    kept = []
    for phi in constraints:
        if any(entails(psi, phi) for psi in kept):
            continue
        kept = [psi for psi in kept if not entails(phi, psi)]
        kept.append(phi)
    return kept


def point_cyclic_wait_targets(program, max_cycle: int, slack: int) -> list:
    """Cyclic-wait targets with every distance pinned: per tuple of wait
    heads, one constraint per integer choice of each cycle member's own
    signal distance ``d`` above the level of the phaser it waits on and
    its wait distance ``e`` below the level of the phaser it blocks, both
    in ``[0, slack]``; a self-wait pins both to 0.  Their union is the
    target set ``targets.cyclic_wait_targets`` states as intervals."""
    heads = program.heads
    waits = [i for i, head in enumerate(heads) if isinstance(head, Wait)]
    wild_bv = tuple(None for _ in program.bool_vars)
    out = []
    for m in range(1, max_cycle + 1):
        for seqs in itertools.product(waits, repeat=m):
            if m == 1:
                dist_space = [()]
            else:
                dist_space = itertools.product(
                    itertools.product(range(slack + 1), repeat=2), repeat=m
                )
            for dists in dist_space:
                rows = [[OPT_FREE] * m for _ in range(m)]
                for i in range(m):
                    v = heads[seqs[i]].var
                    if m == 1:
                        rows[0][0] = Gap(v, (0, 0, 0, 0))
                        continue
                    d, e = dists[i]
                    rows[i][i] = Gap(v, (0, d, 0, d))
                    rows[(i + 1) % m][i] = Gap(ANY, (e, 0, e, 0))
                out.append(
                    Constraint(
                        bv=wild_bv,
                        seqs=seqs,
                        gaps=tuple(tuple(r) for r in rows),
                        egaps=tuple((0, 0) for _ in range(m)),
                    )
                )
    return out


def partial_config_to_text(pc: PartialConfiguration, bool_vars) -> str:
    cells = []
    for t in range(pc.n_tasks):
        for p in range(pc.n_phasers):
            cell = pc.phase[t][p]
            if cell is None:
                continue
            var, val = cell
            if val == "nreg":
                cells.append(f"phase t{t} p{p} var={var} nreg")
            elif val == (ANY, ANY):
                cells.append(f"phase t{t} p{p} var={var} free")
            else:
                cells.append(f"phase t{t} p{p} var={var} w={val[0]} s={val[1]}")
    return write_record("partial-config", bool_vars, pc.bv, pc.seqs, pc.n_phasers, cells)


def _count_ndets(c) -> int:
    if isinstance(c, Ndet):
        return 1
    if isinstance(c, Not):
        return _count_ndets(c.operand)
    if isinstance(c, (And, Or)):
        return _count_ndets(c.left) + _count_ndets(c.right)
    return 0


def _eval_cond(c, env, ndets) -> bool:
    """The value under a variable valuation; ndet() occurrences consume
    values from the iterator ``ndets`` left to right, without
    short-circuiting."""
    if isinstance(c, Ndet):
        return next(ndets)
    if isinstance(c, BoolLit):
        return c.value
    if isinstance(c, BoolVar):
        return env[c.name]
    if isinstance(c, Not):
        return not _eval_cond(c.operand, env, ndets)
    left = _eval_cond(c.left, env, ndets)
    right = _eval_cond(c.right, env, ndets)
    return (left and right) if isinstance(c, And) else (left or right)


def cond_outcomes_by_bits(c, env) -> frozenset:
    """Reference for ``syntax.cond_outcomes``: evaluate the condition under
    each of the 2^n vectors of values for its n ndet() occurrences."""
    return frozenset(
        _eval_cond(c, env, iter(bits))
        for bits in itertools.product((False, True), repeat=_count_ndets(c))
    )


def walk(seq, looped: bool = False):
    """Every statement of ``seq`` as ``(stmt, looped)``, descending into
    While, If and NextBlock bodies; ``looped`` is True under a While.
    The syntactic reference for ``Program.sites``, which reads only the
    code some run reaches."""
    for s in seq:
        yield s, looped
        if isinstance(s, (While, If, NextBlock)):
            yield from walk(s.body, looped or isinstance(s, While))


def reference_explore(program, bounds) -> ExploreResult:
    """Reference for ``concrete.explore(..., record_graph=True)``: the
    same breadth-first loop with the full ``canonical`` sort on every
    successor, and no successor reused from a twin task."""
    init = canonical(initial_config(program), program)
    index = {init: 0}
    configs = [init]
    errors = []
    edges = []
    queue = deque([0])
    expansions = 0
    exhausted = True
    while queue:
        if expansions >= bounds.max_steps:
            exhausted = False
            break
        ci = queue.popleft()
        c = configs[ci]
        expansions += 1
        cycle = cyclic_waits(c, program)
        found = [] if cycle is None else [CyclicWait(cycle)]
        for t, stmt, _, outcome in successors(c, program):
            if not isinstance(outcome, Configuration):
                if outcome not in found:
                    found.append(outcome)
                continue
            if not _within(outcome, bounds, t):
                exhausted = False
                continue
            cc = canonical(outcome, program)
            j = index.setdefault(cc, len(configs))
            if j == len(configs):
                configs.append(cc)
                queue.append(j)
            edges.append((ci, t, str(stmt), j))
        errors.extend((e, ci) for e in found)
    return ExploreResult(configs, errors, exhausted, edges)
