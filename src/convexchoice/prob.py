"""Exact rational probabilities and the mixing-weight combinators.

Probabilities are `fractions.Fraction` values clamped to [0, 1], wrapped in
a `Prob`.  All arithmetic is exact; there is no tolerance parameter anywhere
in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class ProbError(ValueError):
    """Raised for out-of-range or malformed probabilities."""


ZERO = Fraction(0)
ONE = Fraction(1)


class Prob:
    """A probability: an exact rational in [0, 1], given as a Fraction or an int."""

    __slots__ = ("value",)

    def __init__(self, value: Union[Fraction, int]) -> None:
        if not isinstance(value, Fraction):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProbError(f"not an exact rational: {value!r}")
            value = Fraction(value)
        if value < 0 or value > 1:
            raise ProbError(f"probability out of range: {value}")
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Prob:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Prob(value={self.value!r})"

    def __str__(self) -> str:
        return render_rational(self.value)


def prob_make(num: int, den: int) -> Prob:
    """Build `num/den` in lowest terms; reject den == 0 and values outside [0, 1]."""
    if den == 0:
        raise ProbError("zero denominator")
    return Prob(Fraction(num, den))


def complement(p: Prob) -> Prob:
    return Prob(ONE - p.value)


def s_of(p: Prob, q: Prob) -> Prob:
    """The combined weight 1 - (1-p)(1-q); always lands in [0, 1]."""
    return Prob(ONE - (ONE - p.value) * (ONE - q.value))


def r_of(p: Prob, q: Prob) -> Prob:
    """The left-mixing weight p / s_of(p, q).

    Total by convention: when s_of(p, q) = 0 (only at p = q = 0) the result
    is 0; any value satisfies the quasi-associativity side conditions there.
    """
    s = s_of(p, q).value
    if s == 0:
        return Prob(ZERO)
    return Prob(p.value / s)


# Digits per chunk of `_decimal`: below 640, the least non-zero value that
# `sys.set_int_max_str_digits` accepts, so every chunk converts with `str`.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """`str(n)`, also past the interpreter's int-to-str digit limit.

    The limit is process-wide, so it is not raised here; a longer integer is
    cut into base-10**600 chunks that each convert on their own.
    """
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, low = divmod(n, _CHUNK)
        chunks.append(low)
    top = str(chunks.pop())
    return sign + top + "".join(str(c).zfill(_CHUNK_DIGITS) for c in reversed(chunks))


def render_rational(x: Union[Fraction, int], den: int = 1) -> str:
    """x / den as `a/b` in lowest terms, `a` alone when b is 1."""
    num, den = x.numerator, x.denominator * den
    g = math.gcd(num, den)
    if den == g:
        return _decimal(num // g)
    return f"{_decimal(num // g)}/{_decimal(den // g)}"

