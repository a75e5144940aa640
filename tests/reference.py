"""Textbook formulas the tests check the package's shortcuts against.

The package only ever needs the Schwarzian of Mobius maps and powers, and
pulls equations back along one map family; these general versions are
written straight from the definitions so the tests have an independent
route to the same values.
"""

from fractions import Fraction

from hyperode.odeio import LinearODE


def general_schwarzian(f):
    """3 F''^2 / (4 F'^2) - F''' / (2 F') for an arbitrary rational F."""
    d1 = f.deriv()
    if d1.is_zero:
        raise ValueError("constant map has no Schwarzian")
    d2 = d1.deriv()
    d3 = d2.deriv()
    return (d2 * d2) / (d1 * d1) * Fraction(3, 4) - d3 / d1 / 2


def pullback_ode(i0, f):
    """The ODE satisfied by y(x) = u(F(x)) when u'' = I0 u, F rational.

    to_normal_form(pullback_ode(I0, F)).I == transform_invariant(I0, F).
    """
    d1 = f.deriv()
    if d1.is_zero:
        raise ValueError("constant substitution")
    return LinearODE(-(d1.deriv() / d1), -(d1 * d1 * i0.compose(f)))
