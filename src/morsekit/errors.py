"""Typed errors shared across the package.

Degeneracies are always rejected with a witness attached; nothing is ever
perturbed or rounded on behalf of the caller.
"""

from __future__ import annotations


class MorsekitError(Exception):
    """Base class for all package errors."""


class MalformedInput(MorsekitError, ValueError):
    """Input JSON/text could not be parsed into the expected shape."""


# --- support set validation -------------------------------------------------

class SupportError(MorsekitError, ValueError):
    """A raw exponent list fails a support-set invariant."""


class ZeroInSupport(SupportError):
    pass


class DuplicatePoint(SupportError):
    pass


class TooShort(SupportError):
    """Fewer than two exponents, or the convex hull is shorter than 3."""


class NotGenerating(SupportError):
    """The pairwise differences of the exponents do not generate the integers."""


class SupportTooLarge(MorsekitError, ValueError):
    """Support size exceeds the cap of the tree that would enumerate it."""


# --- covector / combinatorial degeneracies ----------------------------------

class CovectorError(MorsekitError, ValueError):
    """A covector fails a type invariant (negative entry, wrong domain)."""


class DegeneracyError(MorsekitError):
    """A genericity assumption fails; carries the offending witness."""


class DegenerateHull(DegeneracyError):
    """A non-vertex lifted point lies exactly on an upper-hull edge."""

    def __init__(self, point: int, edge: tuple[int, int]):
        self.point = point
        self.edge = edge
        super().__init__(f"lifted point at {point} lies on the hull edge {edge}")


class SlopeDegenerate(DegeneracyError):
    """Two distinct exponent pairs span segments of equal slope."""

    def __init__(self, pair_a: tuple[int, int], pair_b: tuple[int, int]):
        self.pair_a = pair_a
        self.pair_b = pair_b
        super().__init__(f"pairs {pair_a} and {pair_b} have equal slopes")


class RootValueDegenerate(DegeneracyError):
    """Two tropical roots attain the same polynomial value."""

    def __init__(self, index_a: int, index_b: int, value):
        self.index_a = index_a
        self.index_b = index_b
        self.value = value
        super().__init__(
            f"roots #{index_a} and #{index_b} share the value {value}"
        )


class NotMorse(MorsekitError):
    """Operation requires a Morse covector; the witness explains why not."""


class SamplingError(MorsekitError, ValueError):
    """The covector sampler cannot draw: a bound below 1, or no Morse
    covector within its budget of draws."""


# --- arithmetic preconditions ------------------------------------------------

class NonIntegerCovector(MorsekitError, ValueError):
    """Operation is defined for integer-valued covectors only."""


class NotPositiveSupport(MorsekitError, ValueError):
    """Specialized formula requires all exponents to be positive."""


class NumberTooLarge(MorsekitError, ValueError):
    """A number is too large to print as decimal text or to draw as a float."""


# --- assembly ----------------------------------------------------------------

class HyperplaneViolation(MorsekitError):
    """Vertices disagree on the two ambient hyperplane constants (internal bug)."""


class MissingCone(MorsekitError, KeyError):
    """A polytope's cone table has no cone for a type (a build that missed one)."""

    def __str__(self):
        # KeyError would quote the message
        return Exception.__str__(self)


class BadAxes(MorsekitError, ValueError):
    """Projection axes out of range or not distinct."""
