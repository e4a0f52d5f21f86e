"""Recursive-descent parser for .phz program sources.

Surface syntax (statements end with ';', bodies in braces, '//' comments):

    bool a, done;
    main(){
      p = newPhaser();
      while(ndet()){ asynch(Prod, p:SIG, c:WAIT); }
      drop(p);
      exit;
    }
    Prod(p:SIG, c:WAIT){ signal(p); wait(c); assert(a); a = false; }

``next(v);`` desugars to ``signal(v); wait(v);`` at parse time.
``next(v){ ... }`` is the atomic barrier statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .control import Program, TaskDef
from .syntax import (
    MODES,
    SIG_WAIT,
    And,
    Assert,
    Assign,
    Asynch,
    BoolLit,
    BoolVar,
    Cond,
    Drop,
    Exit,
    If,
    NewPhaser,
    NextBlock,
    Not,
    Ndet,
    Or,
    Signal,
    Wait,
    While,
    validate,
)


class ParseError(Exception):
    """A syntax error at ``line:col``, or a validation error (no location)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*)
  | (?P<ws>\s+)
  | (?P<sym>&&|\|\||[=;,(){}:!])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "bool",
    "newPhaser",
    "asynch",
    "drop",
    "signal",
    "wait",
    "next",
    "assert",
    "while",
    "if",
    "exit",
    "ndet",
    "true",
    "false",
}


def tokenize(text: str) -> list:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# levels of blocks (a task body is the first), parenthesised conditions
# and `!` prefixes; keeps every recursive pass inside Python's stack
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def nested(self, t: Token, parse):
        """Parse with ``parse`` one nesting level deeper, opened by ``t``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def name(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "name":
            self.fail(f"expected {what}")
        return self.next().text

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        bool_vars = []
        if self.peek().text == "bool":
            self.next()
            bool_vars.append(self.name("variable name"))
            while self.peek().text == ",":
                self.next()
                bool_vars.append(self.name("variable name"))
            self.expect(";")
        tasks = []
        while self.peek().kind != "eof":
            tasks.append(self.task())
        if not tasks:
            self.fail("expected at least one task definition")
        return Program(tuple(bool_vars), tuple(tasks))

    def task(self) -> TaskDef:
        name = self.name("task name")
        self.expect("(")
        params, modes = [], []
        if self.peek().text != ")":
            while True:
                params.append(self.name("parameter"))
                modes.append(self.opt_mode())
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(")")
        body = self.block()
        return TaskDef(name, tuple(params), tuple(modes), body)

    def opt_mode(self) -> str:
        if self.peek().text == ":":
            self.next()
            t = self.peek()
            mode = self.name("registration mode").upper()
            if mode not in MODES:
                raise ParseError(f"unknown registration mode '{mode}'", t.line, t.col)
            return mode
        return SIG_WAIT

    def block(self) -> tuple:
        return self.nested(self.expect("{"), self.block_rest)

    def block_rest(self) -> tuple:
        out = []
        while self.peek().text != "}":
            out.extend(self.statement())
        self.expect("}")
        return tuple(out)

    def statement(self) -> list:
        """One surface statement; may desugar to several AST statements."""
        t = self.peek()
        word = t.text
        if word == "exit":
            self.next()
            self.expect(";")
            return [Exit()]
        if word == "drop" or word == "signal" or word == "wait":
            self.next()
            self.expect("(")
            v = self.name("phaser variable")
            self.expect(")")
            self.expect(";")
            cls = {"drop": Drop, "signal": Signal, "wait": Wait}[word]
            return [cls(v)]
        if word == "next":
            self.next()
            self.expect("(")
            v = self.name("phaser variable")
            self.expect(")")
            if self.peek().text == "{":
                body = self.block()
                return [NextBlock(v, body)]
            self.expect(";")
            return [Signal(v), Wait(v)]
        if word == "assert":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            self.expect(";")
            return [Assert(c)]
        if word == "while" or word == "if":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            body = self.block()
            return [While(c, body) if word == "while" else If(c, body)]
        if word == "asynch":
            self.next()
            self.expect("(")
            callee = self.name("task name")
            args, modes = [], []
            while self.peek().text == ",":
                self.next()
                args.append(self.name("phaser variable"))
                modes.append(self.opt_mode())
            self.expect(")")
            self.expect(";")
            return [Asynch(callee, tuple(args), tuple(modes))]
        if t.kind == "name" and word not in KEYWORDS:
            # `v = newPhaser();` or `b = cond;`
            lhs = self.next().text
            self.expect("=")
            if self.peek().text == "newPhaser":
                self.next()
                self.expect("(")
                self.expect(")")
                self.expect(";")
                return [NewPhaser(lhs)]
            c = self.cond()
            self.expect(";")
            return [Assign(lhs, c)]
        self.fail(f"expected a statement, found {word or 'end of input'!r}")

    def cond(self) -> Cond:
        return self.cond_or()

    def cond_or(self) -> Cond:
        c = self.cond_and()
        while self.peek().text == "||":
            self.next()
            c = Or(c, self.cond_and())
        return c

    def cond_and(self) -> Cond:
        c = self.cond_not()
        while self.peek().text == "&&":
            self.next()
            c = And(c, self.cond_not())
        return c

    def cond_not(self) -> Cond:
        if self.peek().text == "!":
            return Not(self.nested(self.next(), self.cond_not))
        return self.cond_atom()

    def cond_atom(self) -> Cond:
        t = self.peek()
        if t.text == "(":
            c = self.nested(self.next(), self.cond)
            self.expect(")")
            return c
        if t.text == "ndet":
            self.next()
            self.expect("(")
            self.expect(")")
            return Ndet()
        if t.text == "true":
            self.next()
            return BoolLit(True)
        if t.text == "false":
            self.next()
            return BoolLit(False)
        if t.kind == "name" and t.text not in KEYWORDS:
            return BoolVar(self.next().text)
        self.fail("expected a condition")


def parse(text: str, check: bool = True) -> Program:
    """Parse a program source; with ``check`` also raise ParseError on
    the errors ``validate`` finds (undeclared tasks, arity, modes,
    duplicate asynch arguments, unbound phaser variables, ...)."""
    p = _Parser(text)
    prog = p.program()
    if check:
        errors = validate(prog)
        if errors:
            raise ParseError("; ".join(errors))
    return prog


def parse_seq(text: str):
    """Parse a bare statement sequence (the ``seq`` lines of target
    files); text after the sequence is an error."""
    p = _Parser("{" + text + "}")
    seq = p.block()
    if p.peek().kind != "eof":
        p.fail(f"unexpected {p.peek().text!r} after the sequence")
    return seq
