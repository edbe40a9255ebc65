"""Exception types shared by all modules, and how their messages echo a value."""

# The most characters of a value's repr that an error message echoes whole.
ECHO_CHARS = 80


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceLimitError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but leaves the statistic undefined."""


def echo(value) -> str:
    """repr(value) for a one-line error message: whole if it has at most
    ECHO_CHARS characters, else its first ECHO_CHARS and its length, so a
    stored or typed value of any size gives a short message."""
    text = repr(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... (a repr of {len(text)} characters)"
