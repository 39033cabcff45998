"""Shared exception types, and how a message shows a value."""


class ValidityError(ValueError):
    """An input violates a structural invariant (malformed table, bad
    probability vector, out-of-range index, ...)."""


def shown(value) -> str:
    """repr(value) for a message; an int past CPython's int-to-str digit
    limit (4300 digits by default), which repr refuses, is shown by its sign
    and bit length."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):  # no numpy integer is that long
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        return f"<{type(value).__name__} too long to print>"
