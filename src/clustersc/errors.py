"""Exception types shared across the package.

Everything raised on purpose derives from ClusterScError so callers (and the
command line entry point) can distinguish diagnosed input problems from bugs.
"""

from __future__ import annotations


class ClusterScError(Exception):
    """Base class for all diagnosed errors."""


class ShapeError(ClusterScError):
    """Matrix or vector dimensions do not fit the operation."""


class InvalidInputError(ClusterScError):
    """Input contains NaN, infinities, or otherwise unusable values."""


class InvalidParamsError(ClusterScError):
    """A parameter value is outside its documented domain."""


class InvalidRankError(InvalidParamsError):
    """Requested rank is not within 1..min(n, T)."""


class DegenerateSpectrumError(ClusterScError):
    """All singular values are zero, so no energy threshold can be met."""


class SolverStepLimitError(ClusterScError):
    """An exact solver took more steps than its documented bound allows."""


class DegenerateInputError(ClusterScError):
    """Data cannot support the request, e.g. fewer distinct points than k."""


class DegenerateClusterError(ClusterScError):
    """The selected cluster has too few donors to regress on."""

    def __init__(self, label: int, size: int):
        self.label = label
        self.size = size
        super().__init__(
            f"cluster {label} has {size} donor(s); at least 2 are required"
        )

    def __reduce__(self):
        # args holds the message, not (label, size), so pickle's default
        # reconstruction would call __init__ with one argument
        return type(self), (self.label, self.size)


class UndefinedPrecisionError(ClusterScError):
    """Precision/recall requested for an empty selection."""


class PanelFormatError(ClusterScError):
    """A panel CSV or raw long file violates the documented format."""


class MissingValueError(PanelFormatError):
    """A required cell is blank."""


class ConfigError(ClusterScError, ValueError):
    """A config file or flag combination is invalid.

    Also a ValueError so argparse type converters raising it turn into
    ordinary usage errors (exit code 2) instead of crashing the parser.
    """
