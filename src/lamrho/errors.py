"""Exception types shared across the workbench."""


class LamrhoError(Exception):
    """Base class for every error raised by this package."""


class TableFormatError(LamrhoError):
    """Raw multiplication table has the wrong shape or entry types."""


class OutOfRangeEntryError(TableFormatError):
    """A table entry does not name an element of the semigroup."""


class NonAssociativeError(LamrhoError):
    """Multiplication table fails associativity; carries a witness triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptyGeneratorsError(LamrhoError):
    """Closure of an empty generating set was requested."""


class InvalidPartitionError(LamrhoError):
    """Classes are not disjoint, not covering, or empty."""


class NotACongruenceError(LamrhoError):
    """Partition is not compatible with the product."""


class SizeCapError(LamrhoError):
    """A construction would exceed its configured size cap."""


class SearchCapError(LamrhoError):
    """A search was truncated before it could decide; result inconclusive."""


def count_text(count: int) -> str:
    """``count`` in decimal for a cap message, or ``at least 2**k`` when it
    has more digits than int-to-str conversion allows."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2**{count.bit_length() - 1}"


# Default caps: the elements of a product universe or bounded free system
# and of the semigroups an isomorphism search takes (SizeCapError), and
# the congruences a lattice search holds and the map-search nodes of a
# division search (SearchCapError). They live here so that the CLI parser
# reads them without loading an engine.
DEFAULT_UNIVERSE_CAP = 10**6
DEFAULT_ISO_CAP = 32
DEFAULT_CONGRUENCE_CAP = 20000

# Built-in systems: library name -> CLI name (None: library only), read by
# the CLI without loading an engine; ``actions`` builds each by ``_name_system``.
BUILTIN_SYSTEMS = {
    "boolean_shadow": None,  # the flip-flop system, for the subset product form
    "flip_flop": "flipflop_system",
    "left_zero": "lzero_system",
    "non_semidirect": "nonsemidirect_system",
}


class MapRangeError(LamrhoError):
    """An index map has the wrong length or out-of-range values."""


class AxiomViolationError(LamrhoError):
    """One of the composition axioms fails; carries the violation record."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class IdealViolationError(LamrhoError):
    """Empty-fiber support is not a two-sided ideal (invalid system)."""


class ActionLawError(LamrhoError):
    """An action table violates the action laws."""


class NotIdempotentError(LamrhoError):
    """The chosen element is not idempotent."""


class EmptyFiberError(LamrhoError):
    """The chosen base element has an empty index set."""


class NotAHomomorphismError(LamrhoError):
    """Map does not respect the product."""


class SquareViolationError(LamrhoError):
    """A transformation square fails to commute."""

    def __init__(self, message, kind=None, a=None, b=None, point=None):
        super().__init__(message)
        self.kind = kind
        self.a = a
        self.b = b
        self.point = point


class ComposeMismatchError(LamrhoError):
    """Arrows are not composable."""


class NotIsomorphicError(LamrhoError):
    """A semigroup that should match a given one is not isomorphic to it."""


class NotClosedError(LamrhoError):
    """Element set is not closed under the product."""


class NotGroupPreservingError(LamrhoError):
    """Operation requires a unital system over a group."""


class InputFormatError(LamrhoError):
    """A file or inline document could not be parsed; names path and field."""

    def __init__(self, where, field, message):
        super().__init__(f"{where}: field {field!r}: {message}")
        self.where = where
        self.field = field
