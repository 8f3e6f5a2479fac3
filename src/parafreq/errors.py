"""Exception types shared across the package."""


class ParafreqError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(ParafreqError, ValueError):
    """An argument violates a documented precondition."""


class IncompatibleFieldsError(ParafreqError, ValueError):
    """Fields live on different geometries or have mismatched components."""


class DegenerateInputError(ParafreqError, ValueError):
    """Input is degenerate (e.g. an identically zero initial field)."""


class DegenerateTraceError(ParafreqError, RuntimeError):
    """A trace hit I(t) = 0: the backward-uniqueness regime."""


class CertificationFailureError(ParafreqError, ValueError):
    """A perturbation violates its own certified bound at a sampled point."""


class NumericalFailureError(ParafreqError, RuntimeError):
    """A linear solve or factorization failed unexpectedly."""


class ConfigError(ParafreqError, ValueError):
    """An experiment configuration is malformed."""


class ExpressionError(ConfigError):
    """An expression string failed to parse or evaluate; ``expression`` keeps all its text."""

    ECHOED = 80  # characters of the expression the message shows, with its length if longer

    def __init__(self, message: str, expression: str, position: int | None = None):
        self.expression = expression
        self.position = position
        where = f" at position {position}" if position is not None else ""
        echo = repr(expression)
        if len(expression) > self.ECHOED:
            echo = f"{expression[:self.ECHOED]!r}... ({len(expression)} characters)"
        super().__init__(f"{message}{where} in expression {echo}")
