"""Exception taxonomy shared by all ocd modules.

Every error raised by this package derives from :class:`OcdError`, so callers
can catch one type at the CLI boundary and map it to an exit code.
"""


class OcdError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(OcdError):
    """Paired sample matrices do not have identical shapes."""


class NonFiniteInput(OcdError):
    """An input array contains NaN or Inf."""


class EmptyInput(OcdError):
    """An input that must contain at least one row is empty."""


class NonFiniteResult(OcdError):
    """A computation produced NaN or Inf from finite inputs.

    run() reports it as NonFiniteState; ocd_velocity and neighbor_csr raise it.
    """


class NonFiniteState(OcdError):
    """The particle state diverged during time integration.

    Carries the diagnostics recorded up to the failing step in
    ``partial_diagnostics`` so the run can be post-mortemed.
    """

    def __init__(self, message, partial_diagnostics=None):
        super().__init__(message)
        self.partial_diagnostics = list(partial_diagnostics or [])


class InvalidConfig(OcdError):
    """A solver configuration field violates its contract."""


class DegenerateEnsemble(OcdError):
    """The ensemble is too small for the requested statistic."""


class SingularCovariance(OcdError):
    """A covariance matrix that must be positive definite is not."""


class SizeGuardExceeded(OcdError):
    """An exact-solver input exceeds the desk-scale size guard."""


class DimensionMismatch(OcdError):
    """Two sample sets do not live in the same dimension."""


class NoFeasibleEpsilon(OcdError):
    """No cutoff satisfies the requested cluster-ratio bound."""


class CurveTooShort(OcdError):
    """A cluster-count curve has too few grid points for knee detection."""


class EmptyQuery(OcdError):
    """A map evaluation was called with no query points."""


class AllZeroImage(OcdError):
    """An intensity image with no mass cannot be sampled."""


class ParseError(OcdError):
    """A text input file is malformed.

    ``line`` and ``column`` are 1-based positions of the offending token
    (column may be None when only the line is known).
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
