"""Exception types shared across the package."""


class SeqGameError(Exception):
    """Base class for all package-specific errors."""


class ConstructionError(SeqGameError):
    """A probability object could not be built from the given data."""


class ShapeError(SeqGameError):
    """Array dimensions do not match the operation's requirements."""


class DomainError(SeqGameError):
    """A numeric argument lies outside the function's domain."""


class EmptySequenceError(SeqGameError):
    """An empirical distribution was requested from zero samples."""


class InfeasibleError(SeqGameError):
    """A constrained optimization problem has an empty feasible set."""


class ResourceError(SeqGameError):
    """A capped loop ran out of steps (a solver's bracket, bisection or
    alternation, or a series certificate), or an oracle's enumeration would
    exceed its size limit."""


class DegenerateGameError(SeqGameError):
    """The distortion budget lets adversaries make hypotheses indistinguishable."""


class StateError(SeqGameError):
    """A sequential test was driven after it had already stopped."""


class StreamExhaustedError(SeqGameError):
    """A sample stream ended before the sequential test reached a decision."""


class ConfigError(SeqGameError):
    """A run configuration file is malformed or incomplete."""


class EmptyDataError(SeqGameError):
    """A data file contains no usable observations."""


class FormatError(SeqGameError):
    """A data file contains tokens outside the expected format or range."""
