"""Exception taxonomy for the turbchan package.

Every error raised on purpose derives from TurbchanError so callers can catch
the package's failures in one clause; the CLI maps the classes below onto its
exit codes.
"""


class TurbchanError(Exception):
    """Base class for all turbchan errors."""


class ConfigError(TurbchanError):
    """Scenario file failed to parse or validate.

    Carries the offending field and, when known, the line number.
    """

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        self.message = message
        loc = []
        if field is not None:
            loc.append("field %r" % field)
        if line is not None:
            loc.append("line %d" % line)
        if loc:
            message = "%s (%s)" % (message, ", ".join(loc))
        super().__init__(message)


class QuadratureNotConverged(TurbchanError):
    """A quadrature cannot meet its tolerance within its budget."""


class StatsInvariantViolation(TurbchanError):
    """Sampling noise broke a moment inequality by more than 3 standard
    errors, or the short-term beam width came out non-positive."""


class DomainError(TurbchanError):
    """Input outside the validated range of an approximation formula."""


class RejectionStall(TurbchanError):
    """Rejection sampler acceptance rate is pathologically small."""


class ApproximationBreakdown(TurbchanError):
    """The weak-wandering closure produced an imaginary mixing width."""


class InvalidTracking(TurbchanError):
    """Tracking fraction outside [0, 1] or negative jitter variance."""


class EmptyPostselection(TurbchanError):
    """Postselection threshold leaves no usable acceptance probability."""


class DecoyOrderingViolation(TurbchanError):
    """Signal intensity must be strictly below the weak-decoy intensity."""


class DivisionByZeroRate(TurbchanError):
    """Relative improvement is undefined when the reference rate is zero."""
