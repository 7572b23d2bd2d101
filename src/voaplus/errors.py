"""Exception hierarchy.

Three families matter to callers (and to the CLI exit codes):

* ``InputError``     -- malformed user input (bad Gram matrix or input
                        file, unparsable expression).  CLI exit code 2.
* ``PreconditionError`` -- a well-formed object fed to an operation whose
                        preconditions it violates.  CLI exit code 3.
* ``InternalCheckError`` -- a runtime assertion that is mathematically
                        guaranteed to hold failed; always a bug.  Exit code 4.
"""


class VoaplusError(Exception):
    pass


def quoted(text):
    """text quoted for an error message: past 32 characters, only its start
    and its length, so that no message echoes a long input."""
    if len(text) <= 32:
        return repr(text)
    return "%r... (%d characters)" % (text[:32], len(text))


class InputError(VoaplusError):
    pass


class PreconditionError(VoaplusError):
    pass


class InternalCheckError(VoaplusError):
    pass


# -- input validation ---------------------------------------------------

class NotSymmetric(InputError):
    pass


class NotPositiveDefinite(InputError):
    pass


class NotIntegral(InputError):
    pass


class LengthMismatch(InputError):
    pass


class ParseError(InputError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class UnknownName(ParseError):
    pass


# -- operation preconditions --------------------------------------------

class NormNegative(PreconditionError):
    pass


class RankDeficient(PreconditionError):
    pass


class NotEven(PreconditionError):
    pass


class NotOdd(PreconditionError):
    pass


class NotDoublyEven(PreconditionError):
    pass


class NotDualVector(PreconditionError):
    pass


class DimensionTooLarge(PreconditionError):
    pass


class WrongLength(PreconditionError):
    pass


class CosetNotInR(PreconditionError):
    pass


class ConditionABC(PreconditionError):
    pass


# -- internal assertions (never expected to fire) ------------------------

class EqualityViolated(InternalCheckError):
    """A coset met the short-vector lower bound strictly above it."""


class Incomplete(InternalCheckError):
    """Greedy frame extraction stalled before reaching full rank."""


class NoSignPattern(InternalCheckError):
    """No frame sign pattern rebuilds the lattice."""


class NotPowerOfTwo(InternalCheckError):
    """The fusion group size 2 + 2|R| was not a power of two."""


class CrossCheckFailed(InternalCheckError):
    """Two provably equivalent predicates disagreed."""


class SplitCheckFailed(InternalCheckError):
    """The even sublattice of an odd lattice failed a structural check."""
