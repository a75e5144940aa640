"""Every package name the benchmark harness binds still exists.

perfbench/tracer.py wraps package functions by name, and
perfbench/workloads.py builds its inputs through package calls, many of
them inside function bodies that only a benchmark run reaches. Deleting
or renaming such a name should fail here, not first in a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS = ("tracer", "workloads")


def _package_imports(tree):
    """Local name -> package module or object, for each name imported
    from the package (None where the package lacks it)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "hyperode":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = importlib.import_module(
                        "%s.%s" % (node.module, alias.name))
                except ModuleNotFoundError:
                    value = getattr(module, alias.name, None)
                bound[alias.asname or alias.name] = value
    return bound


def unresolved(source):
    """``line: name`` of each package name the source reaches but the
    package lacks: an imported name, or an attribute chain through
    package modules and classes, such as ``invariants.Mobius.from_ints``.
    """
    tree = ast.parse(source)
    bound = _package_imports(tree)
    missing = ["import: %s" % k for k, v in sorted(bound.items())
               if v is None]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        root = node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if not (isinstance(root, ast.Name) and bound.get(root.id)):
            continue
        obj, path = bound[root.id], root.id
        for attr in reversed(chain):
            if not (inspect.ismodule(obj) or inspect.isclass(obj)):
                break
            path += "." + attr
            if not hasattr(obj, attr):
                missing.append("%d: %s" % (node.lineno, path))
                break
            obj = getattr(obj, attr)
    return sorted(set(missing))


def test_harness_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in HARNESS:
        importlib.import_module(name)


def test_every_bound_name_resolves():
    for name in HARNESS:
        source = (PERFBENCH / (name + ".py")).read_text(encoding="utf-8")
        assert unresolved(source) == [], name


def test_guard_flags_a_missing_name():
    source = ("from hyperode import invariants\n"
              "from hyperode.exactalg import Poly, no_such_function\n"
              "SPANS = (invariants.transform_invariant,\n"
              "         invariants.no_such_law, Poly.no_such_method)\n")
    assert unresolved(source) == sorted([
        "4: invariants.no_such_law", "4: Poly.no_such_method",
        "import: no_such_function"])
