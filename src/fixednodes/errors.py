"""Shared exception types."""


class InvalidGraphError(ValueError):
    """A graph (or graph file) does not meet an operation's structural requirements."""


class BudgetExceededError(ValueError):
    """A listing of every matched set would exceed its node budget."""


class InconclusiveError(RuntimeError):
    """Numeric sampling could not certify a result (all draws degenerate)."""
