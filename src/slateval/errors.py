"""Exception types shared across the package."""


class SlateError(ValueError):
    """Invalid slate, slate space, policy table, or logged record."""


class ContextLookupError(KeyError):
    """A policy was queried at a context it has no entry for."""

    def __str__(self) -> str:
        # KeyError would show the message quoted, as a repr
        return Exception.__str__(self)


class ConfigurationError(ValueError):
    """Invalid configuration value (e.g. a zero Monte Carlo sample count)."""


class FieldError(ConfigurationError):
    """A configuration field out of range: the message is the field's name
    and the problem, kept apart so a caller can name the field its own way
    (a config key or a command-line flag)."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


class ParseError(ValueError):
    """Malformed input file; the message carries the offending line number."""


class AbsoluteContinuityError(RuntimeError):
    """A logged slate has zero probability under the stated logging policy."""


class UndefinedEstimateError(RuntimeError):
    """The requested estimate is undefined on this data (e.g. an empty
    importance-weight normalizer)."""
