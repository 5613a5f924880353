"""Shared exception types."""


class BudgetExhausted(Exception):
    """A bounded search ran out of budget before finding a hit.

    `frontier` is how far the search got (the last |t| scanned) and
    `anchors` the integers it had pinned when it stopped.
    """

    def __init__(self, message: str, frontier=None, anchors=()):
        super().__init__(message)
        self.frontier = frontier
        self.anchors = tuple(anchors)


class TheoremViolation(Exception):
    """A property that is a proved theorem failed on concrete data.

    This always indicates a bug somewhere (in this package or in the
    caller's input handling), never a mathematical discovery.
    """
