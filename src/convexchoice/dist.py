"""Finitely-supported probability distributions over an ordered outcome domain.

Outcomes are booleans, integers, symbols (plain strings), or nested `Dist`
and `NECSet` values.  One total order covers all of them, given by one sort
key per outcome, `outcome_key`: `(0, not x)` for a bool, so `true` sorts
before `false`; `(1, x)` for an int; `(2, x)` for a symbol; and the cached
`key` of a `Dist`, `(3, ((key of k, w), ...))` over its entries, or of a
`NECSet`, `(4, (key of g, ...))` over its generators.  Keys compare as
tuples: entry by entry, with a strict prefix smaller.  The leading number
keeps `True` and `1` apart, though Python has `True == 1`.

A `Dist` is stored canonically as a tuple of (key, weight) entries with
keys strictly increasing, weights strictly positive, and weights summing
exactly to 1.  Equality, hashing and order are all read from the key of
this canonical form, so two equal distributions are structurally identical.
Every construction checks those invariants; a one-entry distribution, as
every `point` is, needs only two integer comparisons for it.  Keys and
hashes are computed once per value and stored on it by `cached_attr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterable, Tuple

from .prob import Prob, render_rational

Outcome = object
Entry = Tuple[Outcome, Fraction]

# The sort key of each exact outcome type; every `Keyed` class adds itself.
_KEY_OF_TYPE: Dict[type, Callable[[Outcome], tuple]] = {
    bool: lambda x: (0, not x),
    int: lambda x: (1, x),
    str: lambda x: (2, x),
}


class cached_attr:
    """A computed attribute, stored in the instance `__dict__` on its first read.

    Like `functools.cached_property` but with no lock: Python 3.11's takes an
    RLock on every first read, and this package runs on one thread.  It
    defines no `__set__`, so the stored value shadows it from then on; that
    also works on frozen dataclasses, whose `__setattr__` it never calls.
    """

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def outcome_key(x: Outcome) -> tuple:
    """The sort key of an outcome: equal keys exactly for equal outcomes."""
    key_of = _KEY_OF_TYPE.get(type(x))
    if key_of is None:
        raise TypeError(f"not an outcome: {x!r}")
    return key_of(x)


class Keyed:
    """Equality, hashing and `<` of a nested value, all read from its `key`.

    A subclass defines `key` and becomes an outcome kind.  The hash is
    computed once per value.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _KEY_OF_TYPE[cls] = attrgetter("key")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Keyed):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "Keyed") -> bool:
        return self.key < other.key

    @cached_attr
    def _hash(self) -> int:
        return hash(self.key)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, eq=False)
class Dist(Keyed):
    """A canonical finitely-supported distribution."""

    entries: Tuple[Entry, ...]

    def __post_init__(self) -> None:
        self._check()

    def _check(self) -> None:
        """The canonical-form invariants; raises ValueError on the first broken.

        The key of a one-entry distribution is not read, so `barycenter` can
        take point masses on values that are not outcomes, such as rationals.
        One entry is valid exactly when its weight is the `Fraction` 1, which
        two integer comparisons settle; any other input gets the full check.
        """
        entries = self.entries
        if type(entries) is not tuple or not entries:
            raise ValueError("distribution must have non-empty support")
        if len(entries) == 1:
            _, weight = entries[0]
            if type(weight) is Fraction and weight.numerator == weight.denominator == 1:
                return
        for key, weight in entries:
            # a denominator is always positive
            if not isinstance(weight, Fraction) or weight.numerator <= 0:
                raise ValueError(f"weight {weight!r} for key {key!r} is not a positive Fraction")
        if len(entries) > 1:
            keys = self.key[1]
            if any(a[0] >= b[0] for a, b in zip(keys, keys[1:])):
                raise ValueError("entries not strictly increasing")
        # The exact sum, as integer numerators over one common denominator.
        scale = math.lcm(*(w.denominator for _, w in entries))
        total = sum(w.numerator * (scale // w.denominator) for _, w in entries)
        if total != scale:
            raise ValueError(f"weights sum to {Fraction(total, scale)}, not 1")

    @cached_attr
    def key(self) -> tuple:
        return (3, tuple((outcome_key(k), w) for k, w in self.entries))

    def support(self) -> Tuple[Outcome, ...]:
        return tuple(k for k, _ in self.entries)

    def weight(self, key: Outcome) -> Fraction:
        wanted = outcome_key(key)
        for k, w in self.key[1]:
            if k == wanted:
                return w
        return Fraction(0)

    def __str__(self) -> str:
        return render_dist(self)

    def __repr__(self) -> str:
        return f"Dist({render_dist(self)})"


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
        k = outcome_key(key)
        if k in acc:
            acc[k] = (key, acc[k][1] + weight)
        else:
            acc[k] = (key, weight)
    return Dist(tuple(entry for _, entry in sorted(acc.items())))


_ONE = Fraction(1)


def point(key: Outcome) -> Dist:
    """The point-supported distribution: all mass on one outcome."""
    return Dist(((key, _ONE),))


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
    ka, kb = d1.key[1], d2.key[1]
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (k1, w1), (k2, w2) = a[i], b[j]
        c1, c2 = ka[i][0], kb[j][0]
        if c1 < c2:
            out.append((k1, pv * w1))
            i += 1
        elif c2 < c1:
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


def compare_dist(d1: Outcome, d2: Outcome) -> int:
    """-1, 0 or 1 as `d1` sorts before, with or after `d2`; any two outcomes compare."""
    return (outcome_key(d1) > outcome_key(d2)) - (outcome_key(d1) < outcome_key(d2))


def validate_dist(d: Dist) -> None:
    """Re-check every canonical-form invariant; raises on violation.

    Beyond the constructor's checks, every key must be an outcome.
    """
    d._check()
    d.key  # raises TypeError on a key that is not an outcome


def render_outcome(x: Outcome) -> str:
    # a `Dist` renders as `render_dist`, a `NECSet` as its `render_inline`
    if type(x) is bool:
        return "true" if x else "false"
    return str(x)


def render_dist(d: Dist) -> str:
    """`{k1: w1, k2: w2}` with keys in canonical order, weights in lowest terms."""
    inner = ", ".join(f"{render_outcome(k)}: {render_rational(w)}" for k, w in d.entries)
    return "{" + inner + "}"
