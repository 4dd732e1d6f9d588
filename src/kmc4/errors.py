"""Exception types shared across the package, and the count rule."""


class InputError(ValueError):
    """Caller-supplied values violate an operation's contract."""


class ReplayError(RuntimeError):
    """A level's witness failed its check, or a main-case sequence had no
    realization containing K4; carries the partial trace for diagnosis."""

    def __init__(self, message: str, steps=None):
        super().__init__(message)
        self.steps = list(steps or [])


def _count(value, least: int, name: str) -> int:
    """The count rule, the one check of a size argument's type and lower
    bound: ``value`` when it is an ``int``, not a ``bool``, and at least
    ``least``; otherwise InputError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return value
