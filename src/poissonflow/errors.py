"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live over different numbers of base variables."""


class MalformedGraphError(ValueError):
    """Graph data violates a structural invariant (loops, bad labels)."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition failed."""


class ParseError(ValueError):
    """Text input rejected; carries the offending position, which a caller
    parsing a slice of its text may shift before re-raising."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def __str__(self):
        message = super().__str__()
        if self.position is None:
            return message
        return "%s (at position %d)" % (message, self.position)
