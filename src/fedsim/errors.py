"""Exception types shared across the simulator."""


class FedsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FedsimError, ValueError):
    """Invalid configuration, dimensions, or operation preconditions."""


class ParseError(FedsimError, ValueError):
    """Malformed input data; the message starts with the file, and the line
    when known."""


class NumericError(FedsimError, ArithmeticError):
    """Non-finite value produced during training."""
