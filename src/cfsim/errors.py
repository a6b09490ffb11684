"""Exception hierarchy shared by all cfsim modules: one class per exit code.

The CLI maps these onto exit codes: ConfigError -> 2, NumericsError -> 3, and any
other CfsimError (input outside an operation's domain, a user left without
serving APs, a power solver failure) -> 1.
"""


class CfsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CfsimError):
    """Invalid configuration; names the violated field."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class NumericsError(CfsimError):
    """Internal numerical failure (ill-conditioning, impossible negative denominator, ...)."""
