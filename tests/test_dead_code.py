"""Every function, class and method of the package is used.

A module-level definition counts as used when some file under ``src/``
names it outside its own body, or when ``hyperode.__all__`` exports it.
A method that is not a dunder counts as used when some file under
``src/`` names it outside its own body, or when a file under
``perfbench/`` names it. A classmethod counts as used only when such a
file names it through its own class (``RatFunc.const``) or through
``cls`` inside that class, so a method of the same name on another
class does not hide it.
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


def _class_reads(tree):
    """(line, class, name) of every attribute read as ``Class.name``, or
    as ``cls.name`` inside the body of Class."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)):
                base = child.value.id
                out.append((child.lineno, owner if base == "cls" else base,
                            child.attr))
            visit(child, owner)

    visit(tree, None)
    return out


def _is_classmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in node.decorator_list)


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
    bench_trees = [ast.parse(text) for text in bench]
    bench_uses = {used for tree in bench_trees for _, used in _names(tree)}
    class_reads = [(name, line, (owner, used))
                   for name, tree in trees.items()
                   for line, owner, used in _class_reads(tree)]
    class_reads += [(None, 0, (owner, used)) for tree in bench_trees
                    for _, owner, used in _class_reads(tree)]

    def unused(name, node, key, reads):
        return not any(used == key and not (
            where == name and node.lineno <= line <= node.end_lineno)
            for where, line, used in reads)

    out = []
    for name, tree in trees.items():
        if Path(name).parent.name != "hyperode":
            continue
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in exported and unused(name, node, node.name,
                                                    uses):
                out.append("%s:%d %s" % (name, node.lineno, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, _DEFS) or (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    continue
                if _is_classmethod(item):
                    dead = unused(name, item, (node.name, item.name),
                                  class_reads)
                else:
                    dead = (item.name not in bench_uses
                            and unused(name, item, item.name, uses))
                if dead:
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


def test_guard_reads_a_classmethod_through_its_own_class_only():
    sources = {
        "hyperode/a.py": (
            "class Point:\n"
            "    @classmethod\n    def origin(cls):\n        return cls()\n\n"
            "    @classmethod\n    def unit(cls):\n"
            "        return cls.origin()\n\n"
            "    @classmethod\n    def benched(cls):\n        return 1\n\n"
            "    @classmethod\n    def shadowed(cls):\n        return 2\n\n"
            "    @classmethod\n    def recursive(cls):\n"
            "        return cls.recursive()\n\n\n"
            "class Line:\n"
            "    def shadowed(self):\n        return 3\n"),
        "hyperode/b.py": ("from .a import Line, Point\n\n"
                          "VALUE = (Point.unit(), Line().shadowed(),\n"
                          "         Point().shadowed())\n"),
    }
    bench = ["from hyperode.a import Point\n\nPoint.benched()\n"]
    assert unreferenced(sources, set(), bench) == [
        "hyperode/a.py:15 Point.shadowed",
        "hyperode/a.py:19 Point.recursive",
    ]
