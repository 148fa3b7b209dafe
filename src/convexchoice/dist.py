"""Finitely-supported probability distributions over an ordered outcome domain.

Outcomes are booleans, integers, symbols (plain strings), or nested `Dist`
and `NECSet` values.  A single total order covers all of them: tag order
first (bool < int < symbol < dist < necset), then value order within the
tag.  Within bool, `True` sorts before `False`.

A `Dist` is stored canonically as a tuple of (key, weight) entries with
keys strictly increasing, weights strictly positive, and weights summing
exactly to 1.  Equality, ordering, and rendering are all defined on this
canonical form, so two equal distributions are structurally identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Callable, Iterable, Tuple

from .prob import Prob, render_rational

Outcome = object
Entry = Tuple[Outcome, Fraction]

_TAG_BOOL = 0
_TAG_INT = 1
_TAG_SYMBOL = 2

# bool is a subclass of int and True == 1 in Python; outcomes must instead be
# compared tag-first so {true: 1} and {1: 1} stay distinct everywhere.

# Tags of the exact outcome types, looked up before the isinstance chain.
_TAG_OF_TYPE = {bool: _TAG_BOOL, int: _TAG_INT, str: _TAG_SYMBOL}


def outcome_tag(x: Outcome) -> int:
    tag = _TAG_OF_TYPE.get(type(x))
    if tag is not None:
        return tag
    if isinstance(x, bool):
        return _TAG_BOOL
    if isinstance(x, int):
        return _TAG_INT
    if isinstance(x, str):
        return _TAG_SYMBOL
    tag = getattr(type(x), "ORDER_TAG", None)
    if tag is not None:
        return tag
    raise TypeError(f"not an outcome: {x!r}")


def outcomes_equal(a: Outcome, b: Outcome) -> bool:
    return outcome_tag(a) == outcome_tag(b) and a == b


def compare_outcomes(a: Outcome, b: Outcome) -> int:
    """Total order on outcomes: -1, 0, or 1."""
    ta, tb = outcome_tag(a), outcome_tag(b)
    if ta != tb:
        return -1 if ta < tb else 1
    if ta == _TAG_BOOL:
        # true sorts before false
        if a == b:
            return 0
        return -1 if a else 1
    if ta in (_TAG_INT, _TAG_SYMBOL):
        if a == b:
            return 0
        return -1 if a < b else 1
    return a.compare(b)


def _hash_key(x: Outcome):
    return (outcome_tag(x), x)


outcome_sort_key = cmp_to_key(compare_outcomes)


@dataclass(frozen=True, eq=False)
class Dist:
    """A canonical finitely-supported distribution."""

    ORDER_TAG = 3

    entries: Tuple[Entry, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise ValueError("distribution must have non-empty support")
        prev = None
        for key, weight in entries:
            if weight.numerator <= 0:  # a denominator is always positive
                raise ValueError(f"non-positive weight {weight} for key {key!r}")
            if prev is not None and compare_outcomes(prev, key) >= 0:
                raise ValueError("entries not strictly increasing")
            prev = key
        # The exact sum, as integer numerators over one common denominator.
        scale = math.lcm(*(w.denominator for _, w in entries))
        total = sum(w.numerator * (scale // w.denominator) for _, w in entries)
        if total != scale:
            raise ValueError(f"weights sum to {Fraction(total, scale)}, not 1")

    def support(self) -> Tuple[Outcome, ...]:
        return tuple(k for k, _ in self.entries)

    def weight(self, key: Outcome) -> Fraction:
        for k, w in self.entries:
            if outcomes_equal(k, key):
                return w
        return Fraction(0)

    def compare(self, other: "Dist") -> int:
        return compare_dist(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        if self is other:
            return True
        if len(self.entries) != len(other.entries):
            return False
        return all(
            outcomes_equal(k1, k2) and w1 == w2
            for (k1, w1), (k2, w2) in zip(self.entries, other.entries)
        )

    @cached_property
    def _hash(self) -> int:
        return hash(tuple((outcome_tag(k), k, w) for k, w in self.entries))

    def __hash__(self) -> int:
        return self._hash  # computed once per value; not a field

    def __lt__(self, other: "Dist") -> bool:
        return compare_dist(self, other) < 0

    def __str__(self) -> str:
        return render_dist(self)

    def __repr__(self) -> str:
        return f"Dist({render_dist(self)})"


_TAG_OF_TYPE[Dist] = Dist.ORDER_TAG


def from_pairs(pairs: Iterable[Entry]) -> Dist:
    """Canonicalize a weighted key list: merge duplicates, drop zeros, sort.

    Negative weights are rejected; the merged weights must sum exactly to 1.
    """
    acc: dict = {}
    for key, weight in pairs:
        if weight < 0:
            raise ValueError(f"negative weight {weight} for key {key!r}")
        if weight == 0:
            continue
        hk = _hash_key(key)
        if hk in acc:
            acc[hk] = (key, acc[hk][1] + weight)
        else:
            acc[hk] = (key, weight)
    items = sorted(acc.values(), key=lambda kw: outcome_sort_key(kw[0]))
    return Dist(tuple(items))


def point(key: Outcome) -> Dist:
    """The point-supported distribution: all mass on one outcome."""
    return Dist(((key, Fraction(1)),))


def conv_dist(p: Prob, d1: Dist, d2: Dist) -> Dist:
    """Pointwise mixture p*d1 + (1-p)*d2.

    Both entry lists are already in canonical order, so one merge pass gives
    the mixture's: a key in both gets the sum of its two scaled weights, and
    no weight is 0 because p lies strictly between 0 and 1 there.
    """
    if p.is_one():
        return d1
    if p.is_zero():
        return d2
    pv = p.value
    qv = 1 - pv
    a, b = d1.entries, d2.entries
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (k1, w1), (k2, w2) = a[i], b[j]
        c = compare_outcomes(k1, k2)
        if c < 0:
            out.append((k1, pv * w1))
            i += 1
        elif c > 0:
            out.append((k2, qv * w2))
            j += 1
        else:
            out.append((k1, pv * w1 + qv * w2))
            i += 1
            j += 1
    out.extend((k, pv * w) for k, w in a[i:])
    out.extend((k, qv * w) for k, w in b[j:])
    return Dist(tuple(out))


def map_dist(f: Callable[[Outcome], Outcome], d: Dist) -> Dist:
    """Pushforward along f; mass of colliding images is merged."""
    return from_pairs((f(k), w) for k, w in d.entries)


def bind_dist(d: Dist, k: Callable[[Outcome], Dist]) -> Dist:
    """Weighted sum of the continuation's distributions over the support."""
    pairs = []
    for key, weight in d.entries:
        pairs.extend((k2, weight * w2) for k2, w2 in k(key).entries)
    return from_pairs(pairs)


def compare_dist(d1: Dist, d2: Dist) -> int:
    """Lexicographic order on entry lists; a strict prefix is smaller."""
    for (k1, w1), (k2, w2) in zip(d1.entries, d2.entries):
        c = compare_outcomes(k1, k2)
        if c != 0:
            return c
        if w1 != w2:
            return -1 if w1 < w2 else 1
    if len(d1.entries) != len(d2.entries):
        return -1 if len(d1.entries) < len(d2.entries) else 1
    return 0


def validate_dist(d: Dist) -> None:
    """Re-check every canonical-form invariant; raises on violation."""
    if not isinstance(d.entries, tuple) or not d.entries:
        raise AssertionError("empty or non-tuple entries")
    total = Fraction(0)
    for i, (key, weight) in enumerate(d.entries):
        outcome_tag(key)
        if not isinstance(weight, Fraction) or weight <= 0:
            raise AssertionError(f"bad weight {weight!r}")
        if i > 0 and compare_outcomes(d.entries[i - 1][0], key) >= 0:
            raise AssertionError("keys out of order")
        total += weight
    if total != 1:
        raise AssertionError(f"weights sum to {total}")


def render_outcome(x: Outcome) -> str:
    tag = outcome_tag(x)
    if tag == _TAG_BOOL:
        return "true" if x else "false"
    if tag == _TAG_INT:
        return str(x)
    if tag == _TAG_SYMBOL:
        return x
    if tag == Dist.ORDER_TAG:
        return render_dist(x)
    return x.render_inline()


def render_dist(d: Dist) -> str:
    """`{k1: w1, k2: w2}` with keys in canonical order, weights in lowest terms."""
    inner = ", ".join(f"{render_outcome(k)}: {render_rational(w)}" for k, w in d.entries)
    return "{" + inner + "}"
