"""Exception types shared across the simulator."""


class FedsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FedsimError, ValueError):
    """Invalid configuration, dimensions, or operation preconditions."""


class ParseError(FedsimError, ValueError):
    """Malformed input data; carries the offending location when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc = f"{loc}{line}: "
        elif loc:
            loc = f"{loc} "
        super().__init__(f"{loc}{message}")
        self.line = line


class NumericError(FedsimError, ArithmeticError):
    """Non-finite value produced during training."""
