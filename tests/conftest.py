import random
from pathlib import Path

import pytest

from phasercheck.concrete import NREG, Bounds, Configuration, Reg, explore
from phasercheck.parser import parse
from phasercheck.symbolic import ANY, INF, Constraint, Gap
from phasercheck.syntax import NO_VAR

from oracles import is_well_formed

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FINITE_PROGRAMS = [
    "sigwait_ok",
    "selfwait",
    "regerror_drop_signal",
    "drop_then_wait",
    "assert_fail",
    "assert_ok",
    "assert_sync",
    "assert_race",
    "cross_deadlock",
    "assign_ndet",
    "assign_chain",
    "phase_loop",
    "producer_consumer_sw",
    "chain_spawn",
]

INFINITE_PROGRAMS = ["minsky_chain", "producer_consumer"]


def load(name):
    return parse((CORPUS / f"{name}.phz").read_text())


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in FINITE_PROGRAMS + INFINITE_PROGRAMS}


_EXPLORED = {}


def explored(name, **kw):
    """Cached bounded exploration of a corpus program."""
    key = (name, tuple(sorted(kw.items())))
    if key not in _EXPLORED:
        _EXPLORED[key] = explore(load(name), Bounds(**kw))
    return _EXPLORED[key]


# ---------------------------------------------------------------------------
# Random generators (all take an explicit rng for reproducibility)


def rand_bounds(rng, max_low=2, max_up=3):
    lw = rng.randint(0, max_low)
    ls = rng.randint(0, max_low)
    if rng.random() < 0.5:
        return (lw, ls, INF, INF)
    return (lw, ls, rng.randint(lw, max_up), rng.randint(ls, max_up))


def rand_gap(rng, vars=("p", "q")):
    var = rng.choice(list(vars) + [ANY, ANY])
    if rng.random() < 0.25:
        return Gap(var, None)
    return Gap(var, rand_bounds(rng), rng.random() < 0.2)


def rand_constraint(
    rng, seq_pool, bool_count=0, max_tasks=3, max_phasers=2, vars=("p", "q")
):
    """A random valid constraint whose rows pin sequence ids drawn from
    ``seq_pool``, or ``*``."""
    n_t = rng.randint(1, max_tasks)
    n_p = rng.randint(0, max_phasers)
    bv = tuple(rng.choice([None, False, True]) for _ in range(bool_count))
    seqs = tuple(
        rng.choice(seq_pool) if rng.random() < 0.8 else None for _ in range(n_t)
    )
    gaps = tuple(
        tuple(rand_gap(rng, vars) for _ in range(n_p)) for _ in range(n_t)
    )
    egaps = tuple(
        (rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n_p)
    )
    return Constraint(bv, seqs, gaps, egaps)


def sample_model(rng, phi, seq_pool, bool_count=0, max_phase=4, extra_tasks=1):
    """Try to build a concrete configuration modeling the constraint by
    instantiating levels and phases; returns None when a random draw
    fails the bounds.  A ``*`` row and an environment task take a
    sequence id from ``seq_pool``."""
    n_p = phi.n_phasers
    levels = [rng.randint(0, 2) for _ in range(n_p)]
    rows = []
    seqs = []
    for t in range(phi.n_tasks):
        seqs.append(phi.seqs[t] if phi.seqs[t] is not None else rng.choice(seq_pool))
        row = []
        for p in range(n_p):
            g = phi.gaps[t][p]
            if g.bounds is None or (g.opt and rng.random() < 0.5):
                row.append((g.var if g.var != ANY else NO_VAR, NREG))
                continue
            lw, ls, uw, us = g.bounds
            l = levels[p]
            w_hi = l - lw
            w_lo = max(0, l - (uw if uw != INF else l))
            if w_lo > w_hi:
                return None
            w = rng.randint(w_lo, w_hi)
            s_lo = l + ls
            s_hi = l + (us if us != INF else ls + 2)
            if s_hi > max_phase + l:
                s_hi = min(s_hi, l + max_phase)
            if s_lo > s_hi:
                return None
            s = rng.randint(s_lo, s_hi)
            var = g.var if g.var != ANY else f"v{p}"
            row.append((var, Reg("SIG_WAIT", w, s)))
        rows.append(tuple(row))
    # optional environment tasks obeying the environment lower bounds
    for _ in range(rng.randint(0, extra_tasks)):
        seqs.append(rng.choice(seq_pool))
        row = []
        for p in range(n_p):
            if rng.random() < 0.5:
                row.append((NO_VAR, NREG))
                continue
            ew, es = phi.egaps[p]
            l = levels[p]
            w_hi = l - ew
            if w_hi < 0:
                row.append((NO_VAR, NREG))
                continue
            w = rng.randint(0, w_hi)
            s = l + es + rng.randint(0, 2)
            row.append((f"e{p}", Reg("SIG_WAIT", w, s)))
        rows.append(tuple(row))
    bv = tuple(
        phi.bv[i] if i < len(phi.bv) and phi.bv[i] is not None else rng.random() < 0.5
        for i in range(bool_count)
    )
    c = Configuration(bv=bv, seqs=tuple(seqs), phases=tuple(rows))
    if not is_well_formed(c):
        return None
    return c


def strengthen(rng, phi, seq_pool, vars=("p", "q")):
    """Random strengthening with the same shape: every model of the result
    is a model of phi by construction."""
    bv = tuple(
        (rng.random() < 0.5) if b is None and rng.random() < 0.5 else b
        for b in phi.bv
    )
    seqs = tuple(
        rng.choice(seq_pool) if s is None and rng.random() < 0.5 else s
        for s in phi.seqs
    )
    gaps = []
    for row in phi.gaps:
        cells = []
        for g in row:
            if g.bounds is None:
                cells.append(g)
                continue
            if g.opt and rng.random() < 0.3:
                # resolve the optional cell to one branch
                cells.append(
                    Gap(g.var, None) if rng.random() < 0.5 else Gap(g.var, g.bounds)
                )
                continue
            lw, ls, uw, us = g.bounds
            if uw != INF and rng.random() < 0.5:
                lw = rng.randint(lw, uw)
                ls = rng.randint(ls, us)
            if uw == INF and rng.random() < 0.3:
                uw = lw + rng.randint(0, 2)
                us = ls + rng.randint(0, 2)
            var = g.var if g.var != ANY else rng.choice(list(vars) + [ANY])
            cells.append(Gap(var, (lw, ls, uw, us), g.opt))
        gaps.append(tuple(cells))
    egaps = tuple(
        (ew + rng.randint(0, 1), es + rng.randint(0, 1)) for ew, es in phi.egaps
    )
    return Constraint(bv, seqs, tuple(gaps), egaps)


@pytest.fixture
def rng():
    return random.Random(20260823)
