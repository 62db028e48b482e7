"""Exception types shared across the package.

The CLI maps these onto process exit codes: config/parse problems exit
with 2, physically invalid inputs or out-of-domain queries with 3, and
I/O failures (plain OSError) with 4.
"""


class PlateForcesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(PlateForcesError, ValueError):
    """An input value violates a constructor or function precondition."""


class DomainError(PlateForcesError):
    """A request falls outside the physically supported regime.

    Examples: a tilt large enough to bring the plates into contact, or a
    degenerate scan grid.
    """


class ConfigError(PlateForcesError):
    """A config or prior-bounds file could not be parsed.

    Messages name the offending section/key or line so the file can be
    fixed without reading source code.
    """
