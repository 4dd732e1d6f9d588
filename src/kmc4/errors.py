"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller-supplied values violate an operation's contract."""


class ReplayError(RuntimeError):
    """A level's witness failed its check, or a main-case sequence had no
    realization containing K4; carries the partial trace for diagnosis."""

    def __init__(self, message: str, steps=None):
        super().__init__(message)
        self.steps = list(steps or [])
