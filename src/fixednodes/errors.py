"""Exception types shared by the library and the CLI, which exits 1 on an
invalid graph and 3 on inconclusive numeric sampling."""


class InvalidGraphError(ValueError):
    """A graph (or graph file) does not meet an operation's structural requirements."""


class InconclusiveError(RuntimeError):
    """Numeric sampling could not certify a result (all draws degenerate)."""
