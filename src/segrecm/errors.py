"""Exception hierarchy and record base shared by all modules.

DomainError subclasses signal mathematically invalid input and map to CLI
exit code 3; ResourceCap signals that a configured enumeration bound was
exceeded and maps to exit code 4.  Every message names the offending input.

Record is the base of the library's value types: immutable records
compared and hashed by value, with no code generated when a module loads.
"""

from operator import index

DEFAULT_POINT_CAP = 1_000_000


class Record:
    """An immutable value whose class names its fields, in order, in _fields.
    Records of one class compare and hash by field values.  A subclass checks
    or establishes its invariants in __init__, which copy and pickle re-run."""

    def __init__(self, *values):
        # set one by one: filling self.__dict__ would make every read slower
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class SegreError(Exception):
    """Base class for all library errors."""


class DomainError(SegreError):
    """Input outside the mathematical domain of an operation."""


class ResourceCap(SegreError):
    """An enumeration exceeded its configured resource bound."""


def check_cap(total, cap, what, needs=None):
    """Raise ResourceCap naming what is bounded when total exceeds cap: an
    enumeration needs at least total entries, or what needs says, total a
    running count of what it has built or a closed-form count taken before
    it builds anything.  Each check reads cap with operator.index, so one
    that is not an int raises TypeError and a negative one ValueError.
    """
    if index(cap) < 0:
        raise ValueError(f"cap must be a nonnegative integer, got {cap}")
    if total > cap:
        raise ResourceCap(f"{what}: {needs or f'needs at least {total} entries'}, "
                          f"over the cap of {cap}")


class NotStandardGraded(DomainError):
    """No rational grading vector gives every generator degree 1."""


class NotSorted(DomainError):
    """A list that must be non-increasing is not."""


class NotPositive(DomainError):
    """A list that must consist of positive integers does not."""


class BadTwist(DomainError):
    """A twist outside the admissible set: not an integer, or a in {0, 1}."""


class DimensionTooSmall(DomainError):
    """A factor dimension below the bound required by the formula used."""


class NotApplicable(DomainError):
    """The hypothesis of the requested criterion excludes this input."""


class WindowTooSmall(DomainError):
    """A twisted module to work with is zero in every degree."""
