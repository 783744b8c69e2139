"""Exception types shared across the package."""

from __future__ import annotations


class CentAtlasError(ValueError):
    """Base class for all errors raised by this package."""


class NoIdentityAtZero(CentAtlasError):
    """Element 0 does not act as a two-sided identity."""


class NotLatinSquare(CentAtlasError):
    """Some row or column of the table is not a permutation."""


class NotAssociative(CentAtlasError):
    """The table fails associativity; the message names a violating triple."""


class NoInverse(CentAtlasError):
    """Some element has no inverse."""


class OrderCapExceeded(CentAtlasError):
    """A construction or search exceeded its configured size budget."""


class SearchBudgetExceeded(OrderCapExceeded):
    """An isomorphism or clique search expanded more nodes than its budget
    allows (``find_isomorphism``'s ``max_nodes``, 500,000 by default, or
    ``omega``'s fixed cap of one million nodes)."""


class BadGroupFile(CentAtlasError):
    """A group file field has the wrong type or disagrees with the table."""


class NotSubgroup(CentAtlasError):
    """A subset given as a subgroup is not closed or misses the identity."""


class NotNormal(CentAtlasError):
    """A subgroup given as normal is not closed under conjugation."""


class NotAutomorphism(CentAtlasError):
    """A map given as an automorphism is not one."""


class NotHomomorphism(CentAtlasError):
    """Generator images do not extend to a well-defined homomorphism."""


class IndexOutOfRange(CentAtlasError):
    """An element index is outside 0..order-1."""


class NotPrime(CentAtlasError):
    """A parameter required to be prime is not."""


class BadParameters(CentAtlasError):
    """Family or claim parameters violate a documented precondition."""


class NoInstanceAvailable(CentAtlasError):
    """No curated instance exists for the requested shape within the cap."""


class UnknownClaim(CentAtlasError):
    """The claim id is not in the registry."""


class EmptySweep(CentAtlasError):
    """Claim parameters produce no instances."""


class InconsistentInvariants(CentAtlasError):
    """Two independently computed invariants disagree; indicates a bug."""
