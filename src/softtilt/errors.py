"""Exception hierarchy shared across the package.

Every error raised by this library derives from SoftTiltError so callers can
catch one base class. Subclasses are semantic: they name the violated
contract, not the call site. SchemaError is an alias of ValidationError: a
fault in any input, whether a JSON field, a flag value or a library argument,
is one class. So is CoverageMismatch, a table missing cells it must cover.
"""


class SoftTiltError(Exception):
    """Base class for all library errors."""

    # the message as given, also for the KeyError subclasses, whose str() is a repr
    __str__ = BaseException.__str__


class ValidationError(SoftTiltError, ValueError):
    """Inputs violate a structural contract (types, domains, alignment)."""


SchemaError = ValidationError


class ZeroMassContext(SoftTiltError):
    """A conditioning event has probability zero, so conditioning is undefined."""


class UndefinedPMI(SoftTiltError):
    """Pointwise mutual information is undefined: the prior conditional is zero."""


class SupportViolation(SoftTiltError):
    """A candidate distribution puts mass where the prior has none."""


class DegenerateProblem(SoftTiltError):
    """The prior of an update problem has empty support."""


class InadmissibleSignal(SoftTiltError):
    """An interaction signal violates the per-context normalization constraint."""


class InfiniteInteraction(SoftTiltError):
    """A posterior-null cell (-inf interaction) where a finite reward is required."""


class MissingEventValue(SoftTiltError, KeyError):
    """An event-value lookup found no entry and no default."""


class MissingContext(SoftTiltError, KeyError):
    """A per-context map (gauge shift or context values) lacks a required context."""


class CoverageMismatch(ValidationError):
    """Two tables do not cover the same cells, or a table misses required cells."""


class NotFinite(SoftTiltError):
    """A truncation certificate is not 'finite' where finiteness is required."""


class InvalidBounds(SoftTiltError, ValueError):
    """Supplied tail bounds are invalid (negative, or increasing along the schedule)."""


class OutputError(SoftTiltError):
    """A report or artifact could not be written."""
