"""Differential test against sympy's ``2nd_hypergeometric`` hint.

The equations are the four examples of that hint in sympy's own test
file, ``sympy/solvers/ode/tests/test_single.py``, read from the installed
source. Each is written as hyperode input and solved by ``cmd_solve``,
and solved again by ``dsolve`` with the hint. The two solution spaces
agree when each of sympy's members lies in the span of hyperode's pair:
the Wronskian determinant of y1, y2 and that member vanishes at a point,
while both pairs are independent there. Values and derivatives are taken
by mpmath at 30 digits. sympy is a test-only dependency and the module
skips without it.
"""

import ast
from pathlib import Path

import mpmath
import pytest

sympy = pytest.importorskip("sympy")

from hyperode.cli import cmd_solve  # noqa: E402
from hyperode.odeio import parse_solution  # noqa: E402

from reference import mp_eval  # noqa: E402

EXAMPLES = "_get_examples_ode_sol_2nd_2F1_hypergeometric"
X = sympy.Symbol("x")
F = sympy.Function("f")
C1, C2 = sympy.symbols("C1 C2")
# off the real axis, where no principal branch of either side is cut
POINT = mpmath.mpc("0.3", "0.2")


def _examples():
    """name -> equation of the hint's examples, evaluated from sympy's
    source without importing its test module, which builds every other
    example too."""
    path = (Path(sympy.__file__).parent / "solvers" / "ode" / "tests"
            / "test_single.py")
    fn = next(n for n in ast.parse(path.read_text()).body
              if isinstance(n, ast.FunctionDef) and n.name == EXAMPLES)
    fn.decorator_list = []
    namespace = dict(vars(sympy), x=X, f=F, C1=C1, C2=C2)
    exec(compile(ast.Module([fn], []), str(path), "exec"), namespace)
    return {name: e["eq"]
            for name, e in namespace[EXAMPLES]()["examples"].items()}


EQUATIONS = _examples()


def _ode_text(eq):
    """The hyperode text of a linear homogeneous equation in f(x)."""
    d2, d1 = F(X).diff(X, 2), F(X).diff(X)
    eq = sympy.expand(eq)
    c2, c1 = eq.coeff(d2), eq.coeff(d1)
    c0 = sympy.expand(eq - c2 * d2 - c1 * d1).coeff(F(X))
    assert sympy.expand(eq - c2 * d2 - c1 * d1 - c0 * F(X)) == 0
    return "(%s)*y'' + (%s)*y' + (%s)*y = 0" % tuple(
        str(c).replace("**", "^") for c in (c2, c1, c0))


def _jet(fn):
    """(f, f', f'') at POINT, scaled so the largest entry has modulus 1."""
    col = [mpmath.diff(fn, POINT, n) for n in range(3)]
    top = max(abs(v) for v in col)
    return [v / top for v in col]


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_solution_spaces_agree(name):
    eq = EQUATIONS[name]
    payload, code = cmd_solve(_ode_text(eq))
    assert code == 0, payload
    ours = [parse_solution(payload["solutions"][m]) for m in ("y1", "y2")]
    general = sympy.dsolve(eq, F(X), hint="2nd_hypergeometric").rhs
    theirs = [general.subs({C1: 1, C2: 0}), general.subs({C1: 0, C2: 1})]
    with mpmath.workdps(30):
        y1, y2 = (_jet(lambda z, s=s: mp_eval(s, z)) for s in ours)
        s1, s2 = (_jet(sympy.lambdify(X, s, "mpmath")) for s in theirs)
        for a, b in ((y1, y2), (s1, s2)):
            assert abs(a[0] * b[1] - a[1] * b[0]) > 1e-3
        for s in (s1, s2):
            assert abs(mpmath.det(mpmath.matrix([y1, y2, s]))) < 1e-20
