"""Exception types shared across the package."""


class KglabError(Exception):
    """Base class for all package errors."""


class ValidationError(KglabError, ValueError):
    """An argument is outside its documented range."""


class CapExceeded(KglabError, RuntimeError):
    """A configured memory or state-space cap would be exceeded."""


def check_cap(what: str, used, cap: int):
    """Raise CapExceeded, as "<what>: <used> exceeds the cap <cap>", when
    used > cap; ``used`` is an int or any value that compares and prints,
    shown by `int_text`."""
    if used > cap:
        raise CapExceeded(f"{what}: {int_text(used)} exceeds the cap {cap}")


def int_text(value) -> str:
    """``value`` as a message shows it: str of it, or for an int past the
    digits Python will print (4,300 by default), its bit length, as
    "a 14349-bit integer"."""
    try:
        return str(value)
    except ValueError:
        return f"a {value.bit_length()}-bit integer"


class PrecisionError(KglabError, RuntimeError):
    """A boundary decision could not be resolved even at maximal precision."""


class ConsistencyError(KglabError, RuntimeError):
    """An internal cross-check failed (these should never fire)."""


class DominationError(KglabError, ValueError):
    """A sieve weight pair does not dominate the prime indicator."""


class MinorArcError(KglabError, ValueError):
    """A major-arc-only operation was called at a minor-arc frequency."""
