"""AST for the phaser language: statements and conditions, and ``validate``
for programs (``control.Program`` holds the tasks).

All nodes are frozen dataclasses so control sequences (tuples of statements)
are hashable and safe to share.  ``next(v)`` never appears here: the parser
desugars it into ``signal(v); wait(v)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

SIG_WAIT = "SIG_WAIT"
SIG = "SIG"
WAIT = "WAIT"
MODES = (SIG_WAIT, SIG, WAIT)

# phaser-variable patterns of configuration and constraint cells
ANY = "*"  # any variable name
NO_VAR = "-"  # the task names the phaser with no variable


# ---------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class Ndet:
    def __str__(self) -> str:
        return "ndet()"


@dataclass(frozen=True)
class BoolLit:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class BoolVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not:
    operand: "Cond"

    def __str__(self) -> str:
        return f"!{_atom(self.operand)}"


@dataclass(frozen=True)
class And:
    left: "Cond"
    right: "Cond"

    def __str__(self) -> str:
        return f"{_atom(self.left)} && {_atom(self.right)}"


@dataclass(frozen=True)
class Or:
    left: "Cond"
    right: "Cond"

    def __str__(self) -> str:
        return f"{_atom(self.left)} || {_atom(self.right)}"


Cond = Union[Ndet, BoolLit, BoolVar, Not, And, Or]


def _atom(c: Cond) -> str:
    if isinstance(c, (And, Or)):
        return f"({c})"
    return str(c)


def cond_vars(c: Cond) -> frozenset:
    """Boolean variables read by a condition."""
    if isinstance(c, BoolVar):
        return frozenset((c.name,))
    if isinstance(c, Not):
        return cond_vars(c.operand)
    if isinstance(c, (And, Or)):
        return cond_vars(c.left) | cond_vars(c.right)
    return frozenset()


def cond_outcomes(c: Cond, env) -> frozenset:
    """All values the condition can take under ``env``.  Each ndet()
    occurrence is an independent choice and the operands of an operator
    share none, so an operator combines its operands' values pairwise."""
    if isinstance(c, Ndet):
        return frozenset((False, True))
    if isinstance(c, BoolLit):
        return frozenset((c.value,))
    if isinstance(c, BoolVar):
        return frozenset((env[c.name],))
    if isinstance(c, Not):
        return frozenset(not v for v in cond_outcomes(c.operand, env))
    if isinstance(c, (And, Or)):
        left, right = cond_outcomes(c.left, env), cond_outcomes(c.right, env)
        if isinstance(c, And):
            return frozenset(a and b for a in left for b in right)
        return frozenset(a or b for a in left for b in right)
    raise TypeError(f"not a condition: {c!r}")


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class NewPhaser:
    var: str

    def __str__(self) -> str:
        return f"{self.var} = newPhaser();"


@dataclass(frozen=True)
class Asynch:
    task: str
    args: tuple  # phaser variable names of the spawner
    modes: tuple  # registration mode per argument

    def __str__(self) -> str:
        parts = []
        for v, m in zip(self.args, self.modes):
            parts.append(v if m == SIG_WAIT else f"{v}:{m}")
        return f"asynch({self.task}" + "".join(", " + p for p in parts) + ");"


@dataclass(frozen=True)
class Drop:
    var: str

    def __str__(self) -> str:
        return f"drop({self.var});"


@dataclass(frozen=True)
class Signal:
    var: str

    def __str__(self) -> str:
        return f"signal({self.var});"


@dataclass(frozen=True)
class Wait:
    var: str

    def __str__(self) -> str:
        return f"wait({self.var});"


@dataclass(frozen=True)
class NextBlock:
    var: str
    body: tuple

    def __str__(self) -> str:
        return f"next({self.var}){{ {seq_to_str(self.body)} }}"


@dataclass(frozen=True)
class Assign:
    var: str
    cond: Cond

    def __str__(self) -> str:
        return f"{self.var} = {self.cond};"


@dataclass(frozen=True)
class Assert:
    cond: Cond

    def __str__(self) -> str:
        return f"assert({self.cond});"


@dataclass(frozen=True)
class While:
    cond: Cond
    body: tuple

    def __str__(self) -> str:
        return f"while({self.cond}){{ {seq_to_str(self.body)} }}"


@dataclass(frozen=True)
class If:
    cond: Cond
    body: tuple

    def __str__(self) -> str:
        return f"if({self.cond}){{ {seq_to_str(self.body)} }}"


@dataclass(frozen=True)
class Exit:
    def __str__(self) -> str:
        return "exit;"


Stmt = Union[
    NewPhaser, Asynch, Drop, Signal, Wait, NextBlock, Assign, Assert, While, If, Exit
]

# A control sequence is a tuple of statements; () is a finished task.
ControlSeq = tuple

# Statements and conditions are shared widely and used as dictionary keys;
# memoize their hash and text per instance so deep nodes pay the recursive
# cost only once.


def _install_caches(*classes) -> None:
    for cls in classes:
        field_hash = cls.__hash__
        to_str = cls.__str__

        def cached_hash(self, _inner=field_hash):
            h = self.__dict__.get("_hash")
            if h is None:
                h = _inner(self)
                object.__setattr__(self, "_hash", h)
            return h

        def cached_str(self, _inner=to_str):
            s = self.__dict__.get("_str")
            if s is None:
                s = _inner(self)
                object.__setattr__(self, "_str", s)
            return s

        cls.__hash__ = cached_hash
        cls.__str__ = cached_str


_install_caches(
    Ndet, BoolLit, BoolVar, Not, And, Or,
    NewPhaser, Asynch, Drop, Signal, Wait, NextBlock,
    Assign, Assert, While, If, Exit,
)


def seq_to_str(seq: ControlSeq) -> str:
    return " ".join(str(s) for s in seq)


def walk(seq: ControlSeq, looped: bool = False) -> Iterator:
    """Every statement of ``seq`` as ``(stmt, looped)``, descending into
    While, If and NextBlock bodies; ``looped`` is True under a While."""
    for s in seq:
        yield s, looped
        if isinstance(s, (While, If, NextBlock)):
            yield from walk(s.body, looped or isinstance(s, While))


# ---------------------------------------------------------------------------
# Validation


def _stmt_phaser_uses(stmt: Stmt):
    """(variables read as phaser refs, variables bound) for one statement."""
    if isinstance(stmt, NewPhaser):
        return (), (stmt.var,)
    if isinstance(stmt, Asynch):
        return tuple(stmt.args), ()
    if isinstance(stmt, (Drop, Signal, Wait)):
        return (stmt.var,), ()
    if isinstance(stmt, NextBlock):
        return (stmt.var,), ()
    return (), ()


def _check_scopes(seq: ControlSeq, bound: frozenset, out: list, where: str) -> frozenset:
    for stmt in seq:
        uses, binds = _stmt_phaser_uses(stmt)
        for v in uses:
            if v not in bound:
                out.append(f"{where}: phaser variable '{v}' used before binding")
        if isinstance(stmt, (While, If, NextBlock)):
            # bindings inside a body do not flow out
            _check_scopes(stmt.body, bound, out, where)
        bound = bound | frozenset(binds)
    return bound


def validate(p) -> list:
    """Diagnostics for the invariants of a ``control.Program``; empty list
    means well formed."""
    out = []
    names = [t.name for t in p.tasks]
    for n in names:
        if names.count(n) > 1:
            out.append(f"duplicate task name '{n}'")
            break
    if "main" not in names:
        out.append("no main task")
    elif p.main.params:
        out.append("main must have no parameters")
    bools = set(p.bool_vars)
    for v in sorted(v for v in bools if p.bool_vars.count(v) > 1):
        out.append(f"duplicate Boolean declaration '{v}'")
    by_name = {t.name: t for t in p.tasks}
    for t in p.tasks:
        where = f"task {t.name}"
        if len(set(t.params)) != len(t.params):
            out.append(f"{where}: duplicate parameters")
        phasers = set(t.params)
        for stmt, _ in walk(t.body):
            uses, binds = _stmt_phaser_uses(stmt)
            phasers.update(uses, binds)
            if isinstance(stmt, NextBlock) and any(
                isinstance(s, NextBlock) for s, _ in walk(stmt.body)
            ):
                # the executor would take the inner block for the end of the body
                out.append(f"{where}: barrier block inside a barrier body")
            if isinstance(stmt, (Assign, Assert, While, If)):
                used = set(cond_vars(stmt.cond))
                if isinstance(stmt, Assign):
                    used.add(stmt.var)
                out.extend(f"{where}: undeclared Boolean '{v}'" for v in sorted(used - bools))
            if isinstance(stmt, Asynch):
                callee = by_name.get(stmt.task)
                if callee is None:
                    out.append(f"{where}: asynch of undeclared task '{stmt.task}'")
                elif len(callee.params) != len(stmt.args):
                    out.append(
                        f"{where}: asynch({stmt.task}, ...) passes "
                        f"{len(stmt.args)} phasers, expected {len(callee.params)}"
                    )
                if len(set(stmt.args)) != len(stmt.args):
                    out.append(f"{where}: duplicate phaser arguments in asynch")
        for v in sorted(phasers & bools):
            out.append(f"{where}: '{v}' is both a Boolean and a phaser variable")
        _check_scopes(t.body, frozenset(t.params), out, where)
    if p.is_atomic():
        out.append(
            "info: atomic program (next-with-body): "
            "exact symbolic engine unavailable"
        )
    return out
