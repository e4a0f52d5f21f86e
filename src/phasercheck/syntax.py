"""AST for the phaser language: statements and conditions, and ``validate``
for programs (``control.Program`` holds the tasks).

All nodes are immutable ``Node`` records, so control sequences (tuples
of statements) are hashable and safe to share; ``control.Program``
hashes them only while it builds its tables, and every later layer
names a sequence by its id.  ``next(v)`` never appears here: the parser
desugars it into ``signal(v); wait(v)``.

``Node`` is the base of every record class of the package.  It reads a
class's fields off its annotations and generates no code, so importing
the package costs no ``dataclasses`` (and no ``inspect``).  The records
that every search step builds (``concrete.Configuration``,
``symbolic.Gap`` and ``symbolic.Constraint``) write their methods out.

``validate`` is the one syntactic pass over the program text: it checks
each task in one recursive walk of its body (scopes, Booleans, the
callee, arity and registration modes of each ``asynch``, and barrier
nesting) and returns only errors.  Every other static fact is read off
the reachable control sequences in ``control.Program``.
"""

from __future__ import annotations

from typing import Union

SIG_WAIT = "SIG_WAIT"
SIG = "SIG"
WAIT = "WAIT"
MODES = (SIG_WAIT, SIG, WAIT)
NO_MODE = "nreg"  # the mode of an unregistered configuration cell: it sorts after every mode

# phaser-variable patterns of configuration and constraint cells
ANY = "*"  # any variable name
NO_VAR = "-"  # the task names the phaser with no variable


# ---------------------------------------------------------------------------
# Records


class Node:
    """An immutable record whose fields are its class's annotations, in
    order; a class attribute of a field's name is that field's default.
    Records of one class with equal fields are equal and hash alike,
    records of different classes are unequal, and ``repr`` prints
    ``Name(field=value, ...)``."""

    __slots__ = ()  # a subclass without ``__slots__`` keeps a ``__dict__``

    def __init_subclass__(cls):
        cls.field_names = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.field_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                values[name] = getattr(cls, name)
        self.__dict__.update(values)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.field_names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # control sequences nest statements, and ``control.Program``
        # hashes every sequence it reaches: each node hashes its fields once
        memo = self.__dict__
        if "_hash" not in memo:
            memo["_hash"] = hash(self._values())
        return memo["_hash"]

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.field_names)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Conditions


class Ndet(Node):
    def __str__(self) -> str:
        return "ndet()"


class BoolLit(Node):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


class BoolVar(Node):
    name: str

    def __str__(self) -> str:
        return self.name


class Not(Node):
    operand: "Cond"

    def __str__(self) -> str:
        return f"!{_atom(self.operand)}"


class And(Node):
    left: "Cond"
    right: "Cond"

    def __str__(self) -> str:
        return f"{_atom(self.left)} && {_atom(self.right)}"


class Or(Node):
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


class NewPhaser(Node):
    var: str

    def __str__(self) -> str:
        return f"{self.var} = newPhaser();"


class Asynch(Node):
    task: str
    args: tuple  # phaser variable names of the spawner
    modes: tuple  # registration mode per argument

    def __str__(self) -> str:
        parts = []
        for v, m in zip(self.args, self.modes):
            parts.append(v if m == SIG_WAIT else f"{v}:{m}")
        return f"asynch({self.task}" + "".join(", " + p for p in parts) + ");"


class Drop(Node):
    var: str

    def __str__(self) -> str:
        return f"drop({self.var});"


class Signal(Node):
    var: str

    def __str__(self) -> str:
        return f"signal({self.var});"


class Wait(Node):
    var: str

    def __str__(self) -> str:
        return f"wait({self.var});"


class NextBlock(Node):
    var: str
    body: tuple

    def __str__(self) -> str:
        return f"next({self.var}){{ {seq_to_str(self.body)} }}"


class Assign(Node):
    var: str
    cond: Cond

    def __str__(self) -> str:
        return f"{self.var} = {self.cond};"


class Assert(Node):
    cond: Cond

    def __str__(self) -> str:
        return f"assert({self.cond});"


class While(Node):
    cond: Cond
    body: tuple

    def __str__(self) -> str:
        return f"while({self.cond}){{ {seq_to_str(self.body)} }}"


class If(Node):
    cond: Cond
    body: tuple

    def __str__(self) -> str:
        return f"if({self.cond}){{ {seq_to_str(self.body)} }}"


class Exit(Node):
    def __str__(self) -> str:
        return "exit;"


Stmt = Union[
    NewPhaser, Asynch, Drop, Signal, Wait, NextBlock, Assign, Assert, While, If, Exit
]

# A control sequence is a tuple of statements; () is a finished task.
ControlSeq = tuple


def seq_to_str(seq: ControlSeq) -> str:
    return " ".join(str(s) for s in seq)


# ---------------------------------------------------------------------------
# Validation


def _task_errors(t, tasks: dict, bools: set) -> list:
    """The errors of task ``t`` from one recursive pass over its body,
    each prefixed ``task NAME: ``: per statement, nested barrier blocks,
    undeclared Booleans and ``asynch`` callees, arities and modes; then
    names used both as Booleans and as phaser variables; then phaser
    variables used before binding."""
    errors, unbound, phasers = [], [], set(t.params)
    if len(set(t.params)) != len(t.params):
        errors.append("duplicate parameters")

    def visit(seq: ControlSeq, bound: frozenset) -> bool:
        """Check ``seq``, where ``bound`` holds the phaser variables bound
        at its start; True when it holds a barrier block."""
        barrier = False
        for stmt in seq:
            mark = len(errors)
            if isinstance(stmt, NewPhaser):
                phasers.add(stmt.var)
                bound = bound | {stmt.var}
            uses = stmt.args if isinstance(stmt, Asynch) else ()
            if isinstance(stmt, (Drop, Signal, Wait, NextBlock)):
                uses = (stmt.var,)
            phasers.update(uses)
            unbound.extend(f"phaser variable '{v}' used before binding" for v in uses if v not in bound)
            if isinstance(stmt, (Assign, Assert, While, If)):
                used = set(cond_vars(stmt.cond))
                if isinstance(stmt, Assign):
                    used.add(stmt.var)
                errors.extend(f"undeclared Boolean '{v}'" for v in sorted(used - bools))
            if isinstance(stmt, Asynch):
                errors.extend(_asynch_errors(stmt, tasks.get(stmt.task)))
            if isinstance(stmt, (While, If, NextBlock)):
                # bindings inside a body do not flow out
                inner = visit(stmt.body, bound)
                if isinstance(stmt, NextBlock) and inner:
                    # the executor would take the inner block for the end
                    # of the body; the error comes before the body's own
                    errors.insert(mark, "barrier block inside a barrier body")
                barrier = barrier or inner or isinstance(stmt, NextBlock)
        return barrier

    visit(t.body, frozenset(t.params))
    errors.extend(f"'{v}' is both a Boolean and a phaser variable" for v in sorted(phasers & bools))
    return [f"task {t.name}: {e}" for e in errors + unbound]


def _asynch_errors(stmt: Asynch, callee) -> list:
    """The errors of one ``asynch`` against its callee's definition (None
    when no task has its name)."""
    out = []
    if callee is None:
        out.append(f"asynch of undeclared task '{stmt.task}'")
    elif len(callee.params) != len(stmt.args):
        out.append(
            f"asynch({stmt.task}, ...) passes "
            f"{len(stmt.args)} phasers, expected {len(callee.params)}"
        )
    else:
        out.extend(
            f"asynch({stmt.task}, ...) registers '{a}' as {m}, "
            f"but {stmt.task} declares '{f}' as {d}"
            for a, m, f, d in zip(stmt.args, stmt.modes, callee.params, callee.modes)
            if m != d
        )
    if len(set(stmt.args)) != len(stmt.args):
        out.append("duplicate phaser arguments in asynch")
    return out


def validate(p) -> list:
    """The errors of a ``control.Program``, in task order; an empty list
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
    tasks = {t.name: t for t in p.tasks}
    for t in p.tasks:
        out.extend(_task_errors(t, tasks, bools))
    return out
