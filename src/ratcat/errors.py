"""Domain-level exception types shared across the package."""


class DomainError(Exception):
    """Base class for errors raised on mathematically invalid input."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a bug in ratcat, not bad input.

    Deliberately not a DomainError, so that no handler for invalid input
    can mistake it for one; unlike an assert it survives ``python -O``.
    """


class MalformedPath(DomainError):
    """Step string has the wrong length, alphabet, or letter counts."""


class AboveDiagonal(DomainError):
    """Path leaves the region weakly below the rectangle diagonal."""


class LimitExceeded(DomainError):
    """Requested enumeration is larger than the configured size limit."""


class EmptyInput(DomainError):
    """A generating set is empty or misses a congruence class."""


class NotCoprimeCase(DomainError):
    """Operation is only defined when d = 1."""


class NotNormalized(DomainError):
    """Operation requires a 0-normalized invariant subset."""


class Infeasible(DomainError):
    """Shift bounds admit no shifting: some part has no finite bound chain to part 0."""


class InvalidGraph(DomainError):
    """Labeled digraph violates the gluing-data membership conditions."""


class InvalidColoring(DomainError):
    """Colors do not give each step of a path one of its d gluing vertices."""


class InvalidSkeleton(DomainError):
    """Value set is not the skeleton of any invariant subset."""


class NotBalanced(DomainError):
    """Interval does not contain n vertical and m horizontal steps."""


class NoIntersection(DomainError):
    """Paths required to intersect do not."""


class FormulaMismatch(DomainError):
    """Two formulas that must agree produced different results."""
