"""Exception and warning types shared across the package."""


class FilmHomogError(Exception):
    """Base class for all library errors."""


class NumericalError(FilmHomogError):
    """Base class for numerical failures on valid input (CLI exit 3)."""


class DegenerateFrame(NumericalError):
    """Surface tangents are (numerically) parallel; no frame exists."""


class RegimeMismatch(FilmHomogError):
    """The (l, h) pair is inconsistent with the requested scaling regime."""


class SingularEvaluation(NumericalError):
    """Kernel evaluation requested at (numerically) coincident points."""


class StandoffViolation(FilmHomogError):
    """Observation grid is too close to the film for the requested operation."""


class QuadratureNotConverged(NumericalError):
    """Adaptive quadrature stopped above its tolerance.

    Raised when the leaf to split sits at the depth cap.  ``error_estimate``
    is the summed error estimate (the largest per-column sum over the
    leaves) and ``tolerance`` the integral's ``tol``.
    """

    def __init__(self, message, error_estimate=None, tolerance=None):
        super().__init__(message)
        self.error_estimate = error_estimate
        self.tolerance = tolerance


class UnsupportedModulation(FilmHomogError):
    """Weight modulation outside the fixed catalog (constant/linear/sinusoid)."""


class ConfigError(FilmHomogError):
    """Base class for scenario-config problems."""


class ParseError(ConfigError):
    """Scenario file is missing or not well-formed."""


class ValidationError(ConfigError):
    """Scenario file parsed but violates one or more constraints.

    Carries the complete list of violations, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyTessellation(UserWarning):
    """No full cell fits in the domain; partial cells still tile it."""
