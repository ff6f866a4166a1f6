"""Typed errors raised by the semigroups package.  The command line exits
2 on InvalidGeneratorsError and 3 on every other SemigroupError."""


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeneratorsError(SemigroupError):
    """Generators are malformed (wrong dimension, zero vector, negative entry, ...)."""


class NotNumericalError(SemigroupError):
    """One-dimensional generators with gcd > 1 do not define a numerical semigroup."""


class NotSimplicialError(SemigroupError):
    """The operation needs a simplicial affine semigroup and this one is not."""


class InfiniteAperyError(SemigroupError):
    """The requested Apery set is not finite (or not supported for this base)."""


class InfiniteSetError(SemigroupError):
    """The requested set is infinite (or not known to be finite)."""


class FiberCapExceededError(SemigroupError):
    """A fiber enumeration hit the configured cap before completing."""

    def __init__(self, element, cap):
        self.element = element
        self.cap = cap
        super().__init__(f"fiber of {element} exceeds cap {cap}")


class IncompleteBettiError(SemigroupError):
    """S is affine with no free arrangement, so its Betti set is only known
    from a bounded sweep; the operation needs it exact."""


class DegreeBoundRequiredError(SemigroupError):
    """No exactness certificate is available; the caller must supply a degree bound."""


class SearchCapExceededError(SemigroupError):
    """An incremental search (e.g. for an arrangement constant) hit its cap."""


class InvalidGluingError(SemigroupError):
    """The requested gluing violates the gluing hypotheses."""


class InvalidParametersError(SemigroupError):
    """Constructor parameters violate their validity conditions."""
