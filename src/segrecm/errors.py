"""Exception hierarchy shared by all modules.

DomainError subclasses signal mathematically invalid input and map to CLI
exit code 3; ResourceCap signals that a configured enumeration bound was
exceeded and maps to exit code 4.  Every message names the offending input.
"""

DEFAULT_POINT_CAP = 1_000_000


class SegreError(Exception):
    """Base class for all library errors."""


class DomainError(SegreError):
    """Input outside the mathematical domain of an operation."""


class ResourceCap(SegreError):
    """An enumeration exceeded its configured resource bound."""


def check_cap(total, cap, what):
    """Raise ResourceCap naming what is bounded when total exceeds cap.

    total is a running count of what an enumeration has built so far or a
    closed-form count taken before anything is built; either way the
    enumeration needs at least that many entries.
    """
    if cap is not None and total > cap:
        raise ResourceCap(f"{what}: needs at least {total} entries, "
                          f"over the cap of {cap}")


class NotStandardGraded(DomainError):
    """No rational grading vector gives every generator degree 1."""


class NotSorted(DomainError):
    """A list that must be non-increasing is not."""


class NotPositive(DomainError):
    """A list that must consist of positive integers does not."""


class BadTwist(DomainError):
    """A twist parameter outside the admissible set, e.g. a in {0, 1}."""


class DimensionTooSmall(DomainError):
    """A factor dimension below the bound required by the formula used."""


class NotApplicable(DomainError):
    """The hypothesis of the requested criterion excludes this input."""


class ReconstructionFailed(DomainError):
    """Rational reconstruction of a coefficient stream did not terminate."""


class EmptyWindow(DomainError):
    """Two degree windows that must overlap do not."""


class WindowTooSmall(DomainError):
    """A truncation window contains no nonzero component to work with."""
