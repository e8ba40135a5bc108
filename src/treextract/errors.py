"""Exception types shared across the package."""


class TreextractError(Exception):
    """Base class for all package errors."""


class InputError(TreextractError):
    """Malformed user input: bad CSV rows, dimension mismatches, bad bounds."""


class ConfigError(TreextractError):
    """Invalid configuration values (e.g. K > n, even node budget)."""


class EmptyRegionError(TreextractError):
    """The constrained region carries no representable probability mass.

    Callers treat the region as zero-mass: a frontier leaf that raises this
    becomes a permanent leaf instead of being expanded.
    """


class SamplerError(TreextractError):
    """A sampler returned points outside the box it was conditioned on."""


class UnknownCategoryError(InputError):
    """A categorical value at predict time was never seen during encoding."""


class BlackboxError(TreextractError):
    """A blackbox evaluation failed; carries context about where."""
