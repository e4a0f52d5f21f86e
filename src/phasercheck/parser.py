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
import shlex
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
    seq_to_str,
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
    """Parse a program source; with ``check`` also enforce well-formedness
    (undeclared tasks, arity, duplicate asynch arguments, unbound phaser
    variables) and raise ParseError on hard violations."""
    p = _Parser(text)
    prog = p.program()
    if check:
        hard = [d for d in validate(prog) if not d.startswith("info:")]
        if hard:
            raise ParseError("; ".join(hard))
    return prog


def parse_seq(text: str):
    """Parse a bare statement sequence (used by the partial-configuration
    file format for control-sequence patterns)."""
    p = _Parser("{" + text + "}")
    return p.block()


# ---------------------------------------------------------------------------
# Record-style target files (constraints and partial configurations)


class RecordFormatError(ValueError):
    """A malformed target file; the message starts with ``line N:``."""


_BV_VALUES = {"true": True, "false": False, "*": None}


def natural(word: str) -> int:
    if not word.isdigit():
        raise ValueError(f"expected a natural number, found {word!r}")
    return int(word)


def record_fields(words, keys, flags):
    """Split words into ``key=value`` pairs (keys from ``keys``) and bare
    flags (from ``flags``); any other word is an error."""
    kv, seen = {}, set()
    for w in words:
        k, eq, v = w.partition("=")
        if eq and k in keys:
            kv[k] = v
        elif not eq and w in flags:
            seen.add(w)
        else:
            raise ValueError(f"unexpected {w!r}")
    return kv, seen


def read_records(text: str, header: str, bool_vars, cell_tags) -> list:
    """Read every ``header { ... }`` record of a target file as a tuple
    (opening line, bv, seqs, phaser count, cells).

    Blank lines and ``#`` lines are skipped.  All formats share the lines
    ``bv name=true|false|*``, ``tasks N``, ``phasers N`` and
    ``seq tI "statements"|*``.  ``cell_tags`` maps every other tag to
    (index letters, reader): with letters ``"tp"`` the tag is followed by
    ``tI pJ``, with ``"p"`` by ``pJ``, and ``reader`` turns the remaining
    words into the value of ``cells[(tag, I, J)]`` or ``cells[(tag, J)]``.
    """
    lines = text.splitlines()
    records, body = [], None
    for n, ln in enumerate(map(str.strip, lines), 1):
        if not ln or ln.startswith("#"):
            continue
        if body is None:
            if ln != header + " {":
                raise RecordFormatError(f"line {n}: expected '{header} {{', found {ln!r}")
            body, opened = [], n
        elif ln == "}":
            records.append(_read_record(opened, body, bool_vars, cell_tags))
            body = None
        else:
            body.append((n, ln))
    if body is not None:
        raise RecordFormatError(f"line {opened}: unterminated {header} record")
    if not records:
        raise RecordFormatError(f"line {len(lines) + 1}: expected '{header} {{'")
    return records


def write_record(header: str, bool_vars, bv, seqs, n_phasers: int, cells) -> str:
    """One record in the form ``read_records`` reads; ``cells`` are the
    format's own lines, without indentation."""
    values = {v: word for word, v in _BV_VALUES.items()}
    lines = [f"{header} {{"]
    lines += [f"bv {name}={values[v]}" for name, v in zip(bool_vars, bv)]
    lines += [f"tasks {len(seqs)}", f"phasers {n_phasers}"]
    lines += [
        f"seq t{t} " + ("*" if seq is None else f'"{seq_to_str(seq)}"')
        for t, seq in enumerate(seqs)
    ]
    return "\n  ".join(lines + list(cells)) + "\n}"


def _read_seq(words):
    if len(words) != 1:
        raise ValueError('expected seq tI "statements" or *')
    return None if words[0] == "*" else parse_seq(words[0])


def _read_record(opened: int, body, bool_vars, cell_tags) -> tuple:
    tags = {"seq": ("t", _read_seq), **cell_tags}
    bv = dict.fromkeys(bool_vars)
    counts, cells = {}, {}
    indices = []  # (line, letter, index), checked once the counts are known
    for n, ln in body:
        try:
            tag, *words = shlex.split(ln)
            if tag == "bv":
                for w in words:
                    k, _, v = w.partition("=")
                    if k not in bv or v not in _BV_VALUES:
                        raise ValueError(f"expected name=true|false|* for a declared name, found {w!r}")
                    bv[k] = _BV_VALUES[v]
            elif tag in ("tasks", "phasers"):
                if len(words) != 1:
                    raise ValueError(f"expected '{tag} N'")
                counts[tag] = natural(words[0])
                if tag == "tasks" and counts[tag] == 0:
                    raise ValueError("a record has at least one task")
            elif tag in tags:
                letters, read = tags[tag]
                key = (tag,)
                # padded, so that a missing index reads as "" and fails
                for letter, w in zip(letters, words + [""] * len(letters)):
                    if re.fullmatch(letter + r"\d+", w) is None:
                        raise ValueError(f"expected {letter}N after {tag!r}, found {w!r}")
                    key += (int(w[1:]),)
                    indices.append((n, letter, key[-1]))
                cells[key] = read(words[len(letters):])
            else:
                raise ValueError(f"unknown record line {ln!r}")
        except ParseError as e:
            raise RecordFormatError(f"line {n}: bad control sequence: {e.message}") from None
        except ValueError as e:
            raise RecordFormatError(f"line {n}: {e}") from None
    if len(counts) != 2:
        raise RecordFormatError(f"line {opened}: missing 'tasks' or 'phasers' count")
    limits = {"t": counts["tasks"], "p": counts["phasers"]}
    for n, letter, i in indices:
        if i >= limits[letter]:
            raise RecordFormatError(
                f"line {n}: {letter}{i} is out of range (only {limits[letter]} declared)"
            )
    seqs = tuple(cells.get(("seq", t)) for t in range(counts["tasks"]))
    return opened, tuple(bv[name] for name in bool_vars), seqs, counts["phasers"], cells
