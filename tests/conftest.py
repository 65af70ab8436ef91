import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from morsekit import covector_from_values, validate_support


@pytest.fixture
def mixed_support():
    """The running mixed-sign example support."""
    return validate_support([-3, -1, 1, 2, 4])


@pytest.fixture
def mixed_gamma(mixed_support):
    """Its canonical Morse covector (3, 5, 2, 5, 1)."""
    return covector_from_values(mixed_support, [3, 5, 2, 5, 1])


@pytest.fixture
def deg4_support():
    return validate_support([1, 2, 3, 4])


@pytest.fixture
def deg4_gamma(deg4_support):
    return covector_from_values(deg4_support, [1, 4, 3, 3])


def as_fractions(witness):
    """`feasible`'s (numerators, det) as the point's Fractions; None stays None."""
    if witness is None:
        return None
    numerators, det = witness
    return tuple(Fraction(x, det) for x in numerators)


def dot(coeffs, values) -> Fraction:
    return sum((Fraction(c) * v for c, v in zip(coeffs, values)), start=Fraction(0))


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body after `seconds` of wall-clock time."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # raised afresh: the frame the signal interrupted can lack a line
        # number, which pytest cannot render
        raise TimeoutError(f"example ran longer than {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
