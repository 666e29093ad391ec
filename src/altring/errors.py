"""Exception hierarchy shared by every altring module."""

from __future__ import annotations


class AltringError(Exception):
    """Base class for all library errors."""


class ParseError(AltringError):
    """A ring/map file is malformed or violates a load-time axiom."""


class InvalidField(AltringError):
    """Requested scalar domain is not usable (non-prime modulus, etc.)."""


class RingMismatch(AltringError):
    """Elements of different rings were combined."""


class DimensionMismatch(AltringError):
    """Matrix or vector shapes are incompatible with the rings involved."""


class DomainMismatch(AltringError):
    """Source and target rings do not share a scalar domain."""


class UnsupportedDomain(AltringError):
    """Operation requires a finite (prime field) scalar domain."""


class BudgetExceeded(AltringError):
    """An exhaustive scan would exceed the configured evaluation budget."""

    def __init__(self, needed: int, budget: int, what: str = "scan"):
        super().__init__(f"{what} needs {needed} evaluations, budget is {budget}")
        self.needed = needed
        self.budget = budget


class NotIdempotent(AltringError):
    """Supplied element does not satisfy e*e = e."""


class TrivialIdempotent(AltringError):
    """Idempotent is 0 or the unit, so it induces no useful decomposition."""


class NotBijective(AltringError):
    """Map table is not a bijection between the two rings."""


class NotIdempotentImage(AltringError):
    """Image of the chosen idempotent is not a nontrivial idempotent."""


class NotInvertible(AltringError):
    """Conjugating element has no two-sided inverse."""


class OffsetNotCentral(AltringError):
    """Structured-map offset is not central or does not kill commutators."""


class PeirceIncompatible(AltringError):
    """Idempotent fails the projector identities needed for a Peirce frame."""


class HypothesisFailed(AltringError):
    """A structural hypothesis required by the decomposition fails."""

    def __init__(self, condition: str, witness=None):
        super().__init__(f"structural condition ({condition}) fails")
        self.condition = condition
        self.witness = witness


class BranchUndetermined(AltringError):
    """Corner test selects no branch, both and the caller chose none, or
    one and the caller chose the other."""

    def __init__(self, dagger: bool, ddagger: bool):
        state = {(False, False): "neither corner condition holds",
                 (True, True): "both corner conditions hold; pass branch=",
                 (True, False): "the ddagger corner condition fails; only dagger holds",
                 (False, True): "the dagger corner condition fails; only ddagger holds",
                 }[(dagger, ddagger)]
        super().__init__(f"cannot choose decomposition branch: {state}")
        self.dagger = dagger
        self.ddagger = ddagger


class AmbiguousCentralSplit(AltringError):
    """Central part of a diagonal image is not uniquely solvable."""
