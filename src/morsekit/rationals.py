"""Exact-rational parsing and JSON-safe formatting.

Rationals travel through JSON as integers or "p/q" strings; floats are
rejected unless they are exact integers, so no binary rounding can leak in.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .errors import MalformedInput, NumberTooLarge


def parse_rational(value) -> Fraction:
    """Parse an int, an integral float, or a "p/q" / "n" string exactly."""
    if isinstance(value, bool):
        raise MalformedInput(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise MalformedInput(
            f"refusing float {value!r}: write it as a \"p/q\" string"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"not a rational: {value!r}") from exc
    raise MalformedInput(f"not a rational: {value!r}")


def rational_to_json(value: Fraction):
    """Render a Fraction as an int when possible, else as a "p/q" string.

    Raises NumberTooLarge when the numerator or the denominator has more
    digits than `sys.get_int_max_str_digits()` allows in decimal text.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        text = str(value)
    except ValueError as exc:
        raise NumberTooLarge(
            f"a number has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    return int(value) if value.denominator == 1 else text


def common_denominator(values) -> int:
    """Least common multiple of the denominators of `values` (ints or Fractions)."""
    return lcm(*(v.denominator for v in values))


def clear_denominators(values) -> tuple[int, ...]:
    """`values` times their common denominator: integers in the same ratios."""
    scale = common_denominator(values)
    return tuple(v.numerator * (scale // v.denominator) for v in values)
