"""hyperode: exact hypergeometric solutions of second-order linear ODEs.

The package takes a second-order linear ODE with rational function
coefficients, reduces it to normal form, and searches for an exact change
of variables (a power substitution composed with a fractional linear map,
plus a gauge factor) carrying one of the three hypergeometric model
equations onto it. When the search succeeds it returns closed-form
solutions that are verified both symbolically and numerically.

Typical use::

    import hyperode

    ode = hyperode.parse_ode("y'' + (x^4 + x)*y = 0")
    witness = hyperode.solve_equivalence(ode)
    pair = hyperode.assemble(witness)
    report = hyperode.residual_check(ode, pair.y1, 8)
    assert report.max_residual < 1e-7
"""

__version__ = "1.0.0"

from .errors import (
    HyperodeError,
    UnsupportedEquation,
    UnsupportedParameterField,
    DegreeOverflow,
    CoefficientOverflow,
    IrrationalExponentDifference,
    NoEquivalence,
    ParseError,
    EvalDiverged,
    PointRejected,
    SamplingFailed,
    WitnessRejected,
)
from .exactalg import (
    DEGREE_CAP,
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
)
from .odeio import (
    LinearODE,
    differentiate_expr,
    format_exact,
    parse_ode,
    parse_solution,
    print_solution,
)
from .invariants import Mobius, to_normal_form, transform_invariant
from .classifier import classify, expand_table1, profile
from .equivalence import (
    EquivalenceWitness,
    reduce_ode,
    seed_ode,
    solve_equivalence,
    transformed_seed_ode,
)
from .solutions import SolutionPair, assemble
from .numverify import (
    EvalPoint,
    ResidualReport,
    eval_pfq,
    residual_check,
)

__all__ = [
    "HyperodeError",
    "UnsupportedEquation",
    "UnsupportedParameterField",
    "DegreeOverflow",
    "CoefficientOverflow",
    "IrrationalExponentDifference",
    "NoEquivalence",
    "ParseError",
    "EvalDiverged",
    "PointRejected",
    "SamplingFailed",
    "WitnessRejected",
    "DEGREE_CAP",
    "GaussRat",
    "GenRatFunc",
    "Poly",
    "RatFunc",
    "LinearODE",
    "differentiate_expr",
    "format_exact",
    "parse_ode",
    "parse_solution",
    "print_solution",
    "Mobius",
    "to_normal_form",
    "transform_invariant",
    "classify",
    "expand_table1",
    "profile",
    "EquivalenceWitness",
    "reduce_ode",
    "seed_ode",
    "solve_equivalence",
    "transformed_seed_ode",
    "SolutionPair",
    "assemble",
    "EvalPoint",
    "ResidualReport",
    "eval_pfq",
    "residual_check",
    "__version__",
]
