"""Pinned answers for every cell the benchmark runs.

The check verdicts come from exhaustive concrete exploration of each
corpus program (bounds of acceptance criterion c1: 20000 steps, 4 tasks,
4 phasers, phase 8; every program's exploration is exhausted there).  A
property is reachable exactly when exploration reports its error kind.
They are written down here once and never recomputed by the code under
test.
"""

# (program, property) -> verdict; check runs in its default plain mode
VERDICTS = {
    # saturate: unreachable, so the backward engine exhausts its antichain
    ("sigwait_ok", "regerror"): "unreachable",
    ("sigwait_ok", "cyclic-wait"): "unreachable",
    ("selfwait", "regerror"): "unreachable",
    ("drop_then_wait", "cyclic-wait"): "unreachable",
    ("assert_ok", "assert"): "unreachable",
    ("cross_deadlock", "regerror"): "unreachable",
    ("assign_chain", "assert"): "unreachable",
    ("phase_loop", "regerror"): "unreachable",
    ("phase_loop", "cyclic-wait"): "unreachable",
    ("chain_spawn", "regerror"): "unreachable",
    ("chain_spawn", "cyclic-wait"): "unreachable",
    ("producer_consumer_sw", "regerror"): "unreachable",
    ("producer_consumer_sw", "cyclic-wait"): "unreachable",
    # witness: reachable, so the engine stops at a model of the initial
    # configuration and the trace is replayed with --validate
    ("producer_consumer_sw", "assert"): "reachable",
    ("cross_deadlock", "cyclic-wait"): "reachable",
    ("selfwait", "cyclic-wait"): "reachable",
    ("regerror_drop_signal", "regerror"): "reachable",
    ("drop_then_wait", "regerror"): "reachable",
    ("assert_fail", "assert"): "reachable",
    ("assign_ndet", "assert"): "reachable",
}

# concrete-only corpus programs run by the explore workload: explore
# arguments, the error kinds it must report, and whether the bounds
# cover the whole state space.  producer_consumer spawns pairs in an
# unbounded loop, so the task bound always cuts it; two producers
# released by one consumer signal fail its assertion, which needs five
# tasks.  barrier_block is finite and error-free.
CORPUS_EXPLORE = {
    "producer_consumer": (
        ["--max-steps", "100000", "--max-tasks", "7", "--max-phasers", "2", "--max-phase", "6"],
        frozenset({"AssertionViolation"}),
        False,
    ),
    "barrier_block": (
        ["--max-steps", "100000", "--max-tasks", "4", "--max-phasers", "4", "--max-phase", "6"],
        frozenset(),
        True,
    ),
}
