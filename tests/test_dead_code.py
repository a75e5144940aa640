"""Every module-level function and class of the package is used.

A definition counts as used when some file under ``src/`` names it
outside its own body, or when ``hyperode.__all__`` exports it.
"""

import ast
from pathlib import Path

import hyperode

SRC = Path(__file__).resolve().parents[1] / "src"


def unreferenced(sources, exported):
    """``module:line name`` of each definition nothing else names.

    ``sources`` maps a file name under ``src/`` to its text; only the
    files of the package (``hyperode/*.py``) are searched for
    definitions.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((name, node.lineno, node.attr))
    out = []
    for name, tree in trees.items():
        if Path(name).parent.name != "hyperode":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            if not any(used == node.name and not (
                    where == name and node.lineno <= line <= node.end_lineno)
                    for where, line, used in uses):
                out.append("%s:%d %s" % (name, node.lineno, node.name))
    return out


def test_every_definition_is_referenced():
    sources = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert "hyperode/equivalence.py" in sources
    assert unreferenced(sources, set(hyperode.__all__)) == []


def test_guard_flags_an_unused_definition():
    sources = {
        "hyperode/a.py": ("def used():\n    return 1\n\n"
                          "def recursive(n):\n    return recursive(n - 1)\n\n"
                          "class Exported:\n    pass\n"),
        "hyperode/b.py": "from .a import used\n\nVALUE = used()\n",
    }
    assert unreferenced(sources, {"Exported"}) == ["hyperode/a.py:4 recursive"]
