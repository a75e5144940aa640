"""Exception hierarchy shared across the package.

Everything raised on purpose derives from HyperodeError so callers (and the
CLI) can distinguish "the input is outside what we handle" from a genuine bug.
"""


class HyperodeError(Exception):
    """Base class for all deliberate failures."""


class UnsupportedEquation(HyperodeError):
    """The input ODE is outside the supported class (nonrational coefficients,
    wrong order, nonlinear terms, and so on)."""


class UnsupportedParameterField(HyperodeError):
    """A witness exists only over a field extension we do not carry
    (anything beyond the rationals and the Gaussian rationals)."""


class DegreeOverflow(HyperodeError):
    """An intermediate polynomial exceeded the configured degree cap."""

    def __init__(self, degree, cap):
        super().__init__(
            "intermediate degree %d exceeds cap %d" % (degree, cap))
        self.degree = degree
        self.cap = cap


class IrrationalExponentDifference(HyperodeError):
    """A local exponent difference is not rational, so the candidate class
    cannot be matched over the fields we carry."""


class NoEquivalence(HyperodeError):
    """Classification or resolution finished cleanly but found no
    hypergeometric equivalence for the input.

    When the singularity structure of the reduced invariant is known it is
    attached as ``profile`` for diagnostics.
    """

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


class ParseError(HyperodeError):
    """The input string does not parse under the ODE grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)
        self.position = position


class WitnessRejected(HyperodeError):
    """A candidate transformation failed the exact coefficient identity.

    Raised by an explicit check, so it holds under ``python -O`` too.
    """


class EvalDiverged(HyperodeError):
    """A series evaluation failed to converge within the term budget."""


class PointRejected(HyperodeError):
    """A sample point failed one of the numeric guards and must be skipped."""


class SamplingFailed(HyperodeError):
    """The residual checker could not collect enough admissible sample
    points."""
