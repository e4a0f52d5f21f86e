"""Set-identity gate for ``pre``: on every SIG_WAIT-only, barrier-free
corpus program and on three small programs that reach rarely taken
transformer branches, the predecessors ``pre`` emits have exactly the
recorded sha256 digest.  The inputs are ``constraint_pool(Random(7),
program, 30)`` plus the first 30 constraints ``check`` pops for each
target kind.  ``pre`` may repeat a pair, so the digest is taken over the
sorted set of ``(str(stmt), repr(psi))``.  A change meant to keep the
predecessor relation must leave the golden record as it is; a change
meant to alter it re-records it on purpose with

    PYTHONPATH=src python3 tests/test_pre_output.py
"""

import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from phasercheck import engine
from phasercheck.engine import PlainReachability, check
from phasercheck.parser import parse
from phasercheck.pre import pre
from phasercheck.targets import (
    assertion_targets,
    cyclic_wait_targets,
    registration_error_targets,
)

from conftest import CORPUS, load
from sandwich import constraint_pool
from test_pre import LOOP_EXIT_SRC, REBIND_SRC, SELF_NEGATE_SRC

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "pre_golden.json"
POPS = 30

EXTRA = {"loop_exit": LOOP_EXIT_SRC, "rebind": REBIND_SRC, "self_negate": SELF_NEGATE_SRC}


def _names() -> list:
    names = []
    for path in sorted(CORPUS.glob("*.phz")):
        program = load(path.stem)
        if not program.uses_modes() and not program.is_atomic():
            names.append(path.stem)
    return names + list(EXTRA)


class _EnoughPops(Exception):
    pass


def popped(program) -> list:
    """The first ``POPS`` constraints ``check`` pops for each target kind."""
    runs = []

    def recording(phi, *args, **kw):
        runs[-1].append(phi)
        if len(runs[-1]) == POPS:
            raise _EnoughPops
        return pre(phi, *args, **kw)

    saved = engine.pre
    engine.pre = recording
    try:
        for build in (assertion_targets, registration_error_targets, cyclic_wait_targets):
            runs.append([])
            try:
                check(program, build(program), PlainReachability(k=2, b=1))
            except _EnoughPops:
                pass
    finally:
        engine.pre = saved
    return [phi for run in runs for phi in run]


def digest(name) -> dict:
    program = parse(EXTRA[name]) if name in EXTRA else load(name)
    pairs = set()
    for phi in constraint_pool(Random(7), program, 30) + popped(program):
        pairs.update((str(s), repr(psi)) for s, psi in pre(phi, program))
    text = "\n".join(f"{s}\t{psi}" for s, psi in sorted(pairs))
    return {"pairs": len(pairs), "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("name", _names())
def test_pre_output_matches_the_golden_record(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    record = {name: digest(name) for name in _names()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} programs in {GOLDEN.name}")
