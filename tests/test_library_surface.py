"""The library ships only what its commands and engines use: every
top-level function, class and assigned name (dunders aside) of
``phasercheck`` is read somewhere in the package outside its own
statement, and so is every method and property of its classes.
Test-only reference code lives in ``tests/oracles.py``.  Every
parameter is read.  Only ``parser`` and ``targets`` read text: the
layers below them import neither.  No module imports another's
underscore-prefixed name, no module-level state is mutated or patched,
and no module runs a bare call when it is imported.  Loading the
command line pulls in neither ``dataclasses`` nor ``inspect``: every
command pays for its imports before it reads its input.  Test modules
read every name they import.  The exit codes that ``cli``'s docstring
and README's command-line block list are the ``EXIT_*`` constants,
``check --help`` lists only the options that act, and ``engine.check``
and the ``check`` command share their defaults."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phasercheck
from phasercheck import cli, engine


def test_every_definition_is_used_by_the_package():
    defs, uses = [], {}  # uses: name -> top-level statements reading it
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, top.lineno)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append((where, top.name))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if not name.startswith("__"):
                        defs.append((where, name))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                uses.setdefault(name, set()).add(where)
    assert len(defs) > 100
    assert [name for where, name in defs if not uses.get(name, set()) - {where}] == []


def test_every_class_member_is_read_by_the_package():
    members, reads = [], []  # reads: (module, line, attribute name)
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            members += [
                (path.stem, fn)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
            ]
        reads += [(path.stem, n.lineno, n.attr) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]

    def read_elsewhere(stem, fn):
        return any(
            name == fn.name and not (module == stem and fn.lineno <= line <= fn.end_lineno)
            for module, line, name in reads
        )

    assert len(members) > 40
    assert [f"{stem}.{fn.name}" for stem, fn in members if not read_elsewhere(stem, fn)] == []


def _unread_parameters(tree) -> list:
    """``function:parameter`` for each parameter of a function or lambda
    in ``tree`` that its body never reads (``self`` and names starting
    with ``_`` aside)."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "lambda")
        unread += [
            f"{name}:{p}" for p in params if p != "self" and not p.startswith("_") and p not in read
        ]
    return unread


def test_every_parameter_is_read():
    unread = []
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        unread += [f"{path.stem}.{u}" for u in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_the_parameter_scan_sees_functions_and_lambdas():
    src = """
def used(a, b=1, *rest, c, **more):
    return a, b, rest, c, more


def unused(self, a, _b, c):
    inner = lambda x, y: x
    return a


class C:
    def method(self, a):
        return None
"""
    assert sorted(_unread_parameters(ast.parse(src))) == ["lambda:y", "method:a", "unused:c"]


# the layers below the commands meet no text: programs reach them
# parsed, and targets built
TEXT_FREE = {"syntax", "control", "symbolic", "pre", "engine", "concrete"}


def _imports(path) -> set:
    """The modules a source file imports: a module of the package by its
    own name (``from .parser import`` gives ``parser``), any other by its
    top-level name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                names |= {a.name for a in node.names}
            elif node.level:
                names.add(node.module.split(".")[0])
            else:
                names.add(node.module.removeprefix("phasercheck.").split(".")[0])
    return names


def test_only_the_text_layers_read_text():
    # programs are read by ``parser``, and target records only by
    # ``targets``, the one module that splits words with ``shlex``
    paths = sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py"))
    assert TEXT_FREE <= {path.stem for path in paths}
    found = []
    for path in paths:
        imports = _imports(path)
        if path.stem in TEXT_FREE:
            found += [f"{path.stem} imports {m}" for m in sorted(imports & {"parser", "targets"})]
        if path.stem != "targets" and "shlex" in imports:
            found.append(f"{path.stem} imports shlex")
    assert found == []


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


# methods that change a list, dict or set in place
MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "reverse", "setdefault", "sort", "update",
}


def _mutations(tree) -> list:
    """Lines of ``tree`` that change module-level state: a function that
    declares ``global`` or stores into, or calls a mutating method on, a
    module-level name it does not bind itself, and a top-level statement
    that assigns an attribute (patching a class or module)."""
    module = set()
    for top in tree.body:
        if isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            module |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found += [
                node.lineno
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            ]
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        args = fn.args
        bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        bound |= {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        shared = module - bound

        def is_shared(node):
            return isinstance(node, ast.Name) and node.id in shared

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(node.lineno)
            elif isinstance(node, (ast.Subscript, ast.Attribute)):
                if not isinstance(node.ctx, ast.Load) and is_shared(node.value):
                    found.append(node.lineno)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATORS and is_shared(node.func.value):
                    found.append(node.lineno)
    return sorted(set(found))


def test_no_module_level_state_is_mutated_or_patched():
    found = []
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        found += [f"{path.stem}:{n}: {lines[n - 1].strip()}" for n in _mutations(ast.parse(text))]
    assert found == []


def test_no_module_makes_a_bare_call_at_import():
    # a top-level call statement is how a module patches classes or
    # registers itself as a side effect of being imported
    calls = []
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.Expr) and isinstance(top.value, ast.Call):
                calls.append(f"{path.stem}:{top.lineno}")
    assert calls == []


def test_the_command_line_imports_no_code_generation():
    # a fresh interpreter, so that nothing the tests loaded counts
    src = str(Path(phasercheck.__file__).resolve().parent.parent)
    probe = "import sys, phasercheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out == "[]\n"


def test_the_mutation_scan_sees_each_kind_of_store():
    src = """
CACHE = {}
SEEN = []
COUNT = 0


def memo(k):
    CACHE[k] = 1


def grow(x):
    SEEN.append(x)


def bump():
    global COUNT
    COUNT += 1


def local_only(CACHE):
    CACHE[0] = 1
    seen = []
    seen.append(1)


class C:
    pass


C.f = memo
"""
    assert _mutations(ast.parse(src)) == [8, 12, 16, 30]


def test_every_test_module_reads_what_it_imports():
    unread = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append((path.name, name))
    assert unread == []


def test_the_documented_exit_codes_are_the_exit_constants():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {0, 1, 2, 3, 4, 141}
    # the docstring lists one code per bullet, "* N: ..."
    assert {int(n) for n in re.findall(r"^\* (\d+):", cli.__doc__, re.M)} == codes
    # README names them in the comments of its command-line examples
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    comments = " ".join(line for line in block.splitlines() if line.startswith("#"))
    assert {int(n) for n in re.findall(r"\b\d+\b", comments)} == codes


def test_check_help_does_not_list_the_validate_no_op(capsys):
    # every witness is replayed; --validate is accepted only so that old
    # command lines still run
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    out = capsys.readouterr().out
    assert "--progress" in out and "--validate" not in out


def test_check_and_its_command_share_each_default():
    # k and b each have one default, worked out from the targets when
    # None: the command passes its flags on unchanged, so the library
    # and the command line cannot drift apart
    params = inspect.signature(engine.check).parameters
    args = cli.build_parser().parse_args(["check", "prog.phz"])
    for name in ("k", "b"):
        assert params[name].default is None and getattr(args, name) is None
