"""Every function, class and method of the package is used.

A module-level definition counts as used when some file under ``src/``
names it outside its own body, or when ``hyperode.__all__`` exports it.
A method that is not a dunder counts as used when some file under
``src/`` names it outside its own body, or when a file under
``perfbench/`` names it.
"""

import ast
from pathlib import Path

import hyperode

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree):
    """(line, name) of every name and attribute a syntax tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def unreferenced(sources, exported, bench=()):
    """``module:line name`` of each definition nothing else names.

    ``sources`` maps a file name under ``src/`` to its text; only the
    files of the package (``hyperode/*.py``) are searched for
    definitions. ``bench`` holds the texts of the benchmark's files,
    whose names count as uses of methods only. A method is reported as
    ``Class.method``.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = [(name, line, used) for name, tree in trees.items()
            for line, used in _names(tree)]
    bench_uses = {used for text in bench
                  for _, used in _names(ast.parse(text))}

    def unused(name, node):
        return not any(used == node.name and not (
            where == name and node.lineno <= line <= node.end_lineno)
            for where, line, used in uses)

    out = []
    for name, tree in trees.items():
        if Path(name).parent.name != "hyperode":
            continue
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in exported and unused(name, node):
                out.append("%s:%d %s" % (name, node.lineno, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, _DEFS)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))
                        and item.name not in bench_uses
                        and unused(name, item)):
                    out.append("%s:%d %s.%s" % (name, item.lineno,
                                                node.name, item.name))
    return out


def test_every_definition_is_referenced():
    sources = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert "hyperode/equivalence.py" in sources
    assert bench
    assert unreferenced(sources, set(hyperode.__all__), bench) == []


def test_guard_flags_an_unused_definition():
    sources = {
        "hyperode/a.py": ("def used():\n    return 1\n\n"
                          "def recursive(n):\n    return recursive(n - 1)\n\n"
                          "class Exported:\n    pass\n"),
        "hyperode/b.py": "from .a import used\n\nVALUE = used()\n",
    }
    assert unreferenced(sources, {"Exported"}) == ["hyperode/a.py:4 recursive"]


def test_guard_flags_an_unused_method():
    sources = {
        "hyperode/a.py": (
            "class Point:\n"
            "    def __init__(self, v):\n        self.v = v\n\n"
            "    def called(self):\n        return self.v\n\n"
            "    def benched(self):\n        return 1\n\n"
            "    def recursive(self):\n        return self.recursive()\n\n"
            "    def only_tests(self):\n        return 2\n"),
        "hyperode/b.py": ("from .a import Point\n\n"
                          "VALUE = Point(1).called()\n"),
    }
    bench = ["from hyperode.a import Point\n\nPoint(2).benched()\n"]
    assert unreferenced(sources, set(), bench) == [
        "hyperode/a.py:11 Point.recursive",
        "hyperode/a.py:14 Point.only_tests",
    ]
