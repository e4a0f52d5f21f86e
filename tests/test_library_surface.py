"""The library ships only what its commands and engines use: every
top-level function, class and assigned name (dunders aside) of
``phasercheck`` is read somewhere in the package outside its own
statement.  Test-only reference code lives in
``tests/oracles.py``.  No module imports another's underscore-prefixed
name.  Test modules read every name they import."""

import ast
from pathlib import Path

import phasercheck


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


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(Path(phasercheck.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


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
