"""Exception types shared across the package."""


class ParseError(ValueError):
    """An input file is not valid JSON or does not fit its record table: a
    key missing or unknown, or a value of another JSON type."""


class ValidationError(ValueError):
    """A loaded or constructed object violates an invariant.

    The message always names the offending field.
    """


class UnusableLinkError(RuntimeError):
    """A link has no unblocked ray, or its total gain vanished at the
    queried permittivity. Harness code drops such links before solving.
    link is the index of the link the message names, if it names one."""

    def __init__(self, message: str, link: int | None = None):
        super().__init__(message)
        self.link = link


class SolverError(RuntimeError):
    """The iterative solver hit a non-finite state or the forward model
    failed at an expansion point."""
