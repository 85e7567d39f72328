"""Shared exception types."""


class ConfigurationError(ValueError):
    """A scenario, coefficient, or config document violates a stated invariant.

    With a `key`, the error is about that field or config key and reads
    "<key> <detail>", so a caller can say the detail of another name, such as
    the JSON key path that set the field.
    """

    def __init__(self, detail: str, key: str | None = None):
        super().__init__(detail if key is None else f"{key} {detail}")
        self.detail, self.key = detail, key


class DomainError(ValueError):
    """A function was evaluated outside its domain (e.g. a coefficient at t < 0)."""


class NotApplicableError(RuntimeError):
    """An operation's regime precondition does not hold for the given inputs."""


class SolverFault(RuntimeError):
    """The radial ODE oracle's integration failed (not blow-up): the solve
    gave up at some radius, or the state turned negative."""
