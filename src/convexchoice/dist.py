"""Finitely-supported probability distributions over an ordered outcome domain.

Outcomes are booleans, integers, symbols (plain strings), or nested `Dist`
and `NECSet` values.  One total order covers all of them, given by one sort
key per outcome, `outcome_key`: `(0, not x)` for a bool, so `true` sorts
before `false`; `(1, x)` for an int; `(2, x)` for a symbol; and `(3, d)` for
a `Dist` or `(4, x)` for a `NECSet`, which compare by their own methods.
The leading number keeps `True` and `1` apart, though Python has `True == 1`.

A `Dist` holds its outcomes, keys strictly increasing, and their weights as
positive integer numerators `nums` over one denominator `den`, with
`sum(nums) == den` and `gcd(den, *nums) == 1`.  The form is unique, so
equality and hashing read it as it is: the outcome keys and the numerators.
Order goes entry by entry, the outcome key first and then the weight n/den
by cross-multiplication: exactly the order of the `(key, Fraction)`
entries.  A `NECSet` compares its generator tuple entry by entry, with a
strict prefix smaller.  Mixing, merging and pushforward work on the
numerators, with one gcd per result, and build their results with the one
constructor, `Dist(outcomes, nums, den)`, which reduces by the gcd and
checks nothing else; `_normalized` sorts weighted outcomes stably by key and
merges equal neighbours, hashing none.  `Fraction`s are only at the edges:
`from_pairs` takes them, checked, and `entries`, `weight()` and rendering
give them back.  Outcome keys, hashes and `entries` are computed once per
value by `cached_attr`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, Iterable, Sequence, Tuple

from . import stats
from .prob import Prob, render_rational

Outcome = object
Entry = Tuple[Outcome, Fraction]
_first = itemgetter(0)

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
    defines no `__set__`, so the stored value shadows it from then on.
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
    """A nested outcome kind, whose sort key is `(tag, x)`: the value itself.

    A subclass passes its `tag` and defines `==`, `<` and `__hash__` on its
    own integer form, so keys of nested values compare through those
    methods.  `<` is a total order, and Python answers `a > b` with the
    reflected `b < a`; nothing compares outcomes by `<=` or `>=`.
    """

    def __init_subclass__(cls, tag: int, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _KEY_OF_TYPE[cls] = lambda x: (tag, x)


class Dist(Keyed, tag=3):
    """A canonical finitely-supported distribution: `outcomes` with weights `nums` / `den`.

    `Dist(outcomes, nums, den)` reduces the weights by their gcd and checks
    nothing else; `from_pairs` is the checked entry for outside weights.
    The outcome keys of a one-entry distribution are not read, so
    `barycenter` can take point masses on values that are not outcomes.
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

    def __eq__(self, other: object) -> bool:
        # `den` is `sum(nums)`, so it adds nothing
        return self is other or (
            type(other) is Dist and self.nums == other.nums and self.okeys == other.okeys
        )

    def __lt__(self, other: "Dist") -> bool:
        """At the first entry that differs: the outcome key, then the weight n / den.

        Weights compare by cross-multiplication.  No distribution's entries
        are a strict prefix of another's, since the weights of each sum to 1.
        """
        d1, d2 = self.den, other.den
        for k1, n1, k2, n2 in zip(self.okeys, self.nums, other.okeys, other.nums):
            if k1 is not k2 and k1 != k2:  # mixtures share their inputs' key tuples
                return k1 < k2
            if n1 * d2 != n2 * d1:
                return n1 * d2 < n2 * d1
        return False

    @cached_attr
    def _hash(self) -> int:
        return hash((self.okeys, self.nums))

    def __hash__(self) -> int:
        return self._hash

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

    Takes `(outcome_key(x), x, weight)` triples, sorts them stably by key and
    sums the weights of equal neighbours, keeping the first outcome given and
    its key, as a dict would.  The result comes with its `okeys`.
    """
    okeys, outcomes, nums = [], [], []
    last = None
    for k, x, n in sorted(triples, key=_first):
        if k == last:
            nums[-1] += n
        else:
            okeys.append(k)
            outcomes.append(x)
            nums.append(n)
            last = k
    d = Dist(tuple(outcomes), nums, sum(nums))
    d.__dict__["okeys"] = tuple(okeys)
    return d


def from_pairs(pairs: Iterable[Entry]) -> Dist:
    """Canonicalize a weighted key list: merge duplicates, drop zeros, sort.

    Negative weights are rejected; the others must be `Fraction`s, and they
    must sum exactly to 1.  They are merged as numerators over their least
    common denominator.
    """
    if stats.enabled:
        stats.counts["from_pairs_calls"] += 1
    kept = []
    for key, weight in pairs:
        sign = weight.numerator if type(weight) is Fraction else weight  # Fraction's < and bool are slow
        if sign < 0:
            raise ValueError(f"negative weight {weight} for key {key!r}")
        if sign:
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
    """The mixture sum w*d / sum w over `[(w, d), ...]`, for positive integer weights w.

    Two members are merged in one pass over their sorted `okeys`, which the
    result shares; on a key both hold it keeps the first member's outcome, as
    `_normalized` does, which mixes three or more.
    """
    if len(family) == 1:
        return family[0][1]
    den = math.lcm(*(d.den for _, d in family))
    if len(family) > 2:
        return _normalized(
            (k, x, w * (den // d.den) * n) for w, d in family for k, x, n in zip(d.okeys, d.outcomes, d.nums)
        )
    (w1, d1), (w2, d2) = family
    s1, s2 = w1 * (den // d1.den), w2 * (den // d2.den)
    keys1, keys2, xs1, xs2, ns1, ns2 = d1.okeys, d2.okeys, d1.outcomes, d2.outcomes, d1.nums, d2.nums
    len1, len2 = len(keys1), len(keys2)
    okeys, outcomes, nums = [], [], []
    i = j = 0
    while i < len1 and j < len2:
        k1, k2 = keys1[i], keys2[j]
        if k1 is k2 or k1 == k2:
            okeys.append(k1)
            outcomes.append(xs1[i])
            nums.append(s1 * ns1[i] + s2 * ns2[j])
            i, j = i + 1, j + 1
        elif k1 < k2:
            okeys.append(k1)
            outcomes.append(xs1[i])
            nums.append(s1 * ns1[i])
            i += 1
        else:
            okeys.append(k2)
            outcomes.append(xs2[j])
            nums.append(s2 * ns2[j])
            j += 1
    okeys += keys1[i:] + keys2[j:]
    outcomes += xs1[i:] + xs2[j:]
    nums += [s1 * n for n in ns1[i:]] + [s2 * n for n in ns2[j:]]
    d = Dist(tuple(outcomes), nums, s1 * d1.den + s2 * d2.den)
    d.__dict__["okeys"] = tuple(okeys)
    return d


def map_dist(f: Callable[[Outcome], Outcome], d: Dist) -> Dist:
    """Pushforward along f; mass of colliding images is merged."""
    return _normalized((outcome_key(y), y, n) for y, n in zip(map(f, d.outcomes), d.nums))


def bind_dist(d: Dist, k: Callable[[Outcome], Dist]) -> Dist:
    """Weighted sum of the continuation's distributions over the support."""
    return mix_dists(list(zip(d.nums, map(k, d.outcomes))))


def compare_dist(d1: Outcome, d2: Outcome) -> int:
    """-1, 0 or 1 as `d1` sorts before, with or after `d2`; any two outcomes compare."""
    return (outcome_key(d1) > outcome_key(d2)) - (outcome_key(d1) < outcome_key(d2))


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
