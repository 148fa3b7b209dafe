"""Finitely-supported probability distributions over an ordered outcome domain.

Outcomes are booleans, integers, symbols (plain strings), or nested `Dist`
and `NECSet` values.  One total order covers all of them, given by one sort
key per outcome, `outcome_key`: `(0, not x)` for a bool, so `true` sorts
before `false`; `(1, x)` for an int; `(2, x)` for a symbol; and the cached
`key` of a `Dist`, `(3, ((key of k, Weight(n, den)), ...))` over its
entries, or of a `NECSet`, `(4, (key of g, ...))` over its generators.  Keys
compare as tuples: entry by entry, with a strict prefix smaller.  The
leading number keeps `True` and `1` apart, though Python has `True == 1`.

A `Dist` holds its outcomes, keys strictly increasing, and their weights as
positive integer numerators `nums` over one denominator `den`, with
`sum(nums) == den` and `gcd(den, *nums) == 1`: the form is unique, so
equality, hashing and order, all read from the key, are structural.  A
`Weight` in the key is the rational n/den, compared by cross-multiplication,
so keys order exactly as they would with `Fraction` weights.  Mixing,
merging and pushforward work on the numerators, with one gcd per result,
and build their results with the one constructor, `Dist(outcomes, nums,
den)`, which reduces by the gcd and checks nothing else.  `Fraction`s are
only at the edges: `from_pairs` takes them, checked, and `entries`,
`weight()` and rendering give them back.
Keys, hashes and `entries` are computed once per value by `cached_attr`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterable, Sequence, Tuple

from . import stats
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


class Weight:
    """The rational n/d (d > 0) in a `Dist` key, compared with another `Weight`.

    Tuple order calls `==` and then one more comparison on the first elements
    that differ, so all six are defined, each by cross-multiplication.  Equal
    values over different denominators hash alike.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        self.n, self.d = n, d

    __eq__ = lambda a, b: a.n * b.d == b.n * a.d  # noqa: E731
    __ne__ = lambda a, b: a.n * b.d != b.n * a.d  # noqa: E731
    __lt__ = lambda a, b: a.n * b.d < b.n * a.d  # noqa: E731
    __le__ = lambda a, b: a.n * b.d <= b.n * a.d  # noqa: E731
    __gt__ = lambda a, b: a.n * b.d > b.n * a.d  # noqa: E731
    __ge__ = lambda a, b: a.n * b.d >= b.n * a.d  # noqa: E731

    def __hash__(self) -> int:
        g = math.gcd(self.n, self.d)
        return hash((self.n // g, self.d // g))


_ONE = Weight(1, 1)  # the weight of every point mass, in every key


class Dist(Keyed):
    """A canonical finitely-supported distribution: `outcomes` with weights `nums` / `den`.

    `Dist(outcomes, nums, den)` reduces the weights by their gcd and checks
    nothing else; `from_pairs` is the checked entry for outside weights.
    The key of a one-entry distribution is not read, so `barycenter` can
    take point masses on values that are not outcomes.
    """

    __slots__ = ("outcomes", "nums", "den")

    def __init__(self, outcomes: Tuple[Outcome, ...], nums: Sequence[int], den: int) -> None:
        g = math.gcd(den, *nums)
        self.outcomes, self.den = outcomes, den // g
        self.nums = tuple(n // g for n in nums) if g > 1 else tuple(nums)

    @cached_attr
    def okeys(self) -> Tuple[tuple, ...]:
        """The `outcome_key` of each outcome; those `_normalized` builds come with them."""
        return tuple(map(outcome_key, self.outcomes))

    @cached_attr
    def key(self) -> tuple:
        den = self.den
        weights = [Weight(n, den) for n in self.nums] if den > 1 else [_ONE]  # a point mass
        return (3, tuple(zip(self.okeys, weights)))

    @cached_attr
    def entries(self) -> Tuple[Entry, ...]:
        """The `(outcome, Fraction)` pairs, in canonical order."""
        den = self.den
        return tuple((k, Fraction(n, den)) for k, n in zip(self.outcomes, self.nums))

    def weight(self, key: Outcome) -> Fraction:
        wanted = outcome_key(key)
        for k, n in zip(self.okeys, self.nums):
            if k == wanted:
                return Fraction(n, self.den)
        return Fraction(0)

    def __str__(self) -> str:
        return render_dist(self)

    def __repr__(self) -> str:
        return f"Dist({render_dist(self)})"


def _normalized(triples: Iterable[Tuple[tuple, Outcome, int]]) -> Dist:
    """The distribution proportional to positive integer weights, merged by outcome and sorted.

    Takes `(outcome_key(x), x, weight)` triples.
    """
    acc: dict = {}
    for k, key, n in triples:
        if k in acc:
            acc[k][1] += n
        else:
            acc[k] = [key, n]
    okeys = sorted(acc)
    merged = [acc[k] for k in okeys]
    nums = [n for _, n in merged]
    d = Dist(tuple(k for k, _ in merged), nums, sum(nums))
    d.__dict__["okeys"] = tuple(okeys)
    return d


def from_pairs(pairs: Iterable[Entry]) -> Dist:
    """Canonicalize a weighted key list: merge duplicates, drop zeros, sort.

    Negative weights are rejected; the others must be `Fraction`s, and they
    must sum exactly to 1.  They are merged as numerators over their least
    common denominator.
    """
    if stats.enabled:
        stats.from_pairs_calls += 1
    kept = []
    for key, weight in pairs:
        if weight < 0:
            raise ValueError(f"negative weight {weight} for key {key!r}")
        if weight:
            kept.append((key, weight))
    if not kept:
        raise ValueError("distribution must have non-empty support")
    for key, weight in kept:
        if not isinstance(weight, Fraction):
            raise ValueError(f"weight {weight!r} for key {key!r} is not a positive Fraction")
    den = math.lcm(*(w.denominator for _, w in kept))
    nums = [w.numerator * (den // w.denominator) for _, w in kept]
    if sum(nums) != den:
        raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, not 1")
    return _normalized((outcome_key(k), k, n) for (k, _), n in zip(kept, nums))


def point(key: Outcome) -> Dist:
    """The point-supported distribution: all mass on one outcome."""
    return Dist((key,), (1,), 1)


def conv_dist(p: Prob, d1: Dist, d2: Dist) -> Dist:
    """Pointwise mixture p*d1 + (1-p)*d2: for p = a/b, `mix_dists` with weights a and b - a."""
    a, b = p.value.numerator, p.value.denominator
    if a == b:
        return d1
    if not a:
        return d2
    return mix_dists([(a, d1), (b - a, d2)])


def mix_dists(family: Sequence[Tuple[int, Dist]]) -> Dist:
    """The mixture sum w*d / sum w over `[(w, d), ...]`, for positive integer weights w."""
    if len(family) == 1:
        return family[0][1]
    den = math.lcm(*(d.den for _, d in family))
    return _normalized(
        (k, x, w * (den // d.den) * n) for w, d in family for k, x, n in zip(d.okeys, d.outcomes, d.nums)
    )


def map_dist(f: Callable[[Outcome], Outcome], d: Dist) -> Dist:
    """Pushforward along f; mass of colliding images is merged."""
    return _normalized((outcome_key(y), y, n) for y, n in zip(map(f, d.outcomes), d.nums))


def bind_dist(d: Dist, k: Callable[[Outcome], Dist]) -> Dist:
    """Weighted sum of the continuation's distributions over the support."""
    return mix_dists(list(zip(d.nums, map(k, d.outcomes))))


def compare_dist(d1: Outcome, d2: Outcome) -> int:
    """-1, 0 or 1 as `d1` sorts before, with or after `d2`; any two outcomes compare."""
    return (outcome_key(d1) > outcome_key(d2)) - (outcome_key(d1) < outcome_key(d2))


def validate_dist(d: Dist) -> None:
    """Re-check every canonical-form invariant; raises ValueError on violation.

    First on the `Fraction` view `entries`: positive weights, outcome keys
    strictly increasing (a key that is not an outcome raises TypeError), and
    an exact sum of 1.  Then the integer form must match it: `den` is the
    least common denominator of the weights, each numerator its weight times `den`.
    """
    entries = d.entries
    keys = [outcome_key(k) for k, _ in entries]
    if not entries or any(w <= 0 for _, w in entries) or any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError(f"not positive weights on strictly increasing keys: {entries}")
    if sum(w for _, w in entries) != 1:
        raise ValueError(f"weights do not sum to 1: {entries}")
    lcd = math.lcm(*(w.denominator for _, w in entries))
    if (d.den, list(d.nums)) != (lcd, [w * lcd for _, w in entries]) or len(d.outcomes) != len(d.nums):
        raise ValueError(f"integer form {d.nums} / {d.den} does not match {entries}")


def render_outcome(x: Outcome) -> str:
    # a `Dist` renders as `render_dist`, a `NECSet` as its `render_inline`
    if type(x) is bool:
        return "true" if x else "false"
    return str(x)


def render_dist(d: Dist) -> str:
    """`{k1: w1, k2: w2}` with keys in canonical order, weights in lowest terms."""
    inner = ", ".join(
        f"{render_outcome(k)}: {render_rational(n, d.den)}" for k, n in zip(d.outcomes, d.nums)
    )
    return "{" + inner + "}"
