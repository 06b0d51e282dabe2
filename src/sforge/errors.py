"""Exception hierarchy shared across the library and the CLI, and
parse_int, the integer reading both file parsers share.

The CLI maps ParseError to exit 2, PreconditionError and int's
refusal to print to exit 3, AssertionError to exit 4; else a bug.
"""

import sys


class SforgeError(Exception):
    """Base class for all library errors."""


class ParseError(SforgeError):
    """Malformed graph or polynomial input."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class PreconditionError(SforgeError):
    """The input is well-formed but outside an operation's domain."""


class CapExceededError(PreconditionError, ValueError):
    """The input asks for more work than a desk-scale cap allows."""


class SingularMatrixError(PreconditionError):
    """A nonsingular matrix was required."""


class NotNegativeDefiniteError(PreconditionError):
    """The intersection matrix is not negative definite."""


class NotQhsTreeError(PreconditionError):
    """Not a QHS tree: the graph has a cycle, positive genus, or an
    indefinite intersection matrix."""


class NoNodesError(PreconditionError):
    """Degenerate splice diagram without nodes (cyclic-quotient/smooth
    case); equation generation refuses these."""


class SemigroupConditionError(PreconditionError):
    """An operation requiring the semigroup condition was called on a
    diagram that fails it."""


class ConditionsNotMetError(PreconditionError):
    """Equation emission refused because the semigroup or congruence
    condition fails; carries the offending node/direction."""


class NonMinimalRepresentableError(PreconditionError):
    """Blow-down produced a weight >= 0 vertex that cannot be absorbed
    by (-1)-contractions alone."""


def parse_int(value, line=None):
    """int(value, 10), or ParseError. A well-formed literal that int()
    still refuses has more digits than the interpreter converts
    (sys.get_int_max_str_digits, 4,300 by default); it is reported by
    its length, not echoed."""
    try:
        return int(value, 10)
    except ValueError:
        pass
    groups = (value[1:] if value[:1] in ("+", "-") else value).split("_")
    if all(group.isdecimal() for group in groups):
        raise ParseError(
            "integer has %d digits, more than the limit of %d"
            % (sum(map(len, groups)), sys.get_int_max_str_digits()),
            line,
        )
    raise ParseError("not an integer: %r" % value, line)
