"""Shared exception types, and how a message shows a value."""


class ValidityError(ValueError):
    """An input violates a structural invariant (malformed table, bad
    probability vector, out-of-range index, ...)."""


_SHOWN = 40  # characters of a value that a message shows


def shown(value) -> str:
    """repr(value) for a message: its first _SHOWN characters and its length
    when it is longer.  An int past CPython's int-to-str digit limit (4300
    digits by default), which repr refuses, is shown by its sign and bit
    length."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):  # no numpy integer is that long
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"
