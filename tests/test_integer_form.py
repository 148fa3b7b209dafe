"""The integer form of a `Dist`: key order, `Weight`, the `Fraction` edges, `validate_dist`.

The reference key below is the key every `Dist` had when it held `Fraction`
weights, `(3, ((outcome key, w), ...))` over its entries, rebuilt here from
the `entries` view, nested outcomes included.  The new key must compare and
hash as it does.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from convexchoice import necset
from convexchoice.convexgeom import canonicalize
from convexchoice.dist import Dist, Weight, conv_dist, from_pairs, outcome_key, point, validate_dist
from convexchoice.gcm import bind_gcm, join_gcm
from convexchoice.necset import NECSet, alt_necset, from_generators, lub_necset, singleton_necset
from convexchoice.prob import Prob

ATOMS = [True, False, 0, 1, 2, "a", "b", "c"]


def _old_key(x):
    if isinstance(x, Dist):
        return (3, tuple((_old_key(k), w) for k, w in x.entries))
    if isinstance(x, NECSet):
        return (4, tuple(_old_key(g) for g in x.generators))
    return outcome_key(x)


def _random_dist(rng, pool, prefix=()):
    """A distribution that starts with the entries `prefix` and puts the rest on later keys."""
    rest = 1 - sum(w for _, w in prefix)
    later = [k for k in pool if not prefix or outcome_key(k) > outcome_key(prefix[-1][0])]
    if not later:
        return None
    picked = rng.sample(later, rng.randint(1, min(3, len(later))))
    raw = [rng.randint(1, 6) for _ in picked]
    return from_pairs(list(prefix) + [(k, rest * Fraction(r, sum(raw))) for k, r in zip(picked, raw)])


def _pool(rng):
    """Atoms with `True` next to `1`, then distributions and sets over them, sorted."""
    pool = list(ATOMS)
    for _ in range(2):
        inner = [_random_dist(rng, pool) for _ in range(4)]
        pool += inner + [from_generators(rng.sample(inner, rng.randint(1, 3)))]
    return sorted(pool, key=outcome_key)


def _family(seed, n=60):
    """Distributions in groups that share a prefix of entries with equal weights.

    Two members of a group agree on their first entries but split the rest of
    their mass differently, so they mostly differ in `den`: the weights they
    share are written over different denominators.
    """
    rng = random.Random(seed)
    pool = _pool(rng)
    dists = []
    while len(dists) < n:
        base = _random_dist(rng, pool)
        for _ in range(3):
            d = _random_dist(rng, pool, base.entries[: rng.randrange(len(base.entries))])
            if d is not None:
                dists.append(d)
        dists.append(base)
    return pool, dists


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_key_order_matches_the_fraction_key(seed):
    pool, dists = _family(seed)
    values = dists + [x for x in pool if isinstance(x, (Dist, NECSet))]
    values += [from_generators(dists[i:i + 3]) for i in range(0, 30, 3)]
    dens = set()
    for x, y in combinations(values, 2):
        new, old = (x.key, y.key), (_old_key(x), _old_key(y))
        assert (new[0] < new[1]) == (old[0] < old[1]), (x, y)
        assert (new[0] <= new[1]) == (old[0] <= old[1]), (x, y)
        assert (new[0] > new[1]) == (old[0] > old[1]), (x, y)
        assert (new[0] >= new[1]) == (old[0] >= old[1]), (x, y)
        assert (new[0] == new[1]) == (old[0] == old[1]), (x, y)
        if new[0] == new[1]:
            assert hash(new[0]) == hash(new[1])
        if isinstance(x, Dist) and isinstance(y, Dist) and old[0][1][0] == old[1][1][0]:
            # the same first entry; over different denominators for most pairs
            assert x.key[1][0] == y.key[1][0] and hash(x.key[1][0]) == hash(y.key[1][0])
            dens.add(x.den != y.den)
    assert dens == {True, False}
    rng = random.Random(seed)
    for _ in range(20):
        gens = rng.sample(dists, 8)
        assert sorted(gens, key=lambda g: g.key) == sorted(gens, key=_old_key)
    assert point(True).key != point(1).key and point(True).key < point(1).key


def test_point_masses_share_one_weight():
    masses = [point(x) for x in ATOMS] + [Dist(("a",), (3,), 3), from_pairs([("b", Fraction(1))])]
    masses.append(point(from_generators([point(1), masses[-1]])))
    assert len({id(w) for d in masses for _, w in d.key[1]}) == 1
    values = masses + [from_pairs([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])]
    for x, y in combinations(values, 2):
        new, old = (x.key, y.key), (_old_key(x), _old_key(y))
        assert (new[0] < new[1], new[0] > new[1], new[0] == new[1]) == (
            old[0] < old[1], old[0] > old[1], old[0] == old[1]
        ), (x, y)
    assert point("a") == masses[-3] and hash(point("a")) == hash(masses[-3])


def test_weight_matches_fraction_on_random_pairs():
    assert {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"} <= set(vars(Weight))
    rng = random.Random(4)
    for _ in range(2000):
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        d1, d2 = rng.randint(n1, 24), rng.randint(n2, 24)
        a, b = Weight(n1, d1), Weight(n2, d2)
        fa, fb = Fraction(n1, d1), Fraction(n2, d2)
        assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (
            fa == fb, fa != fb, fa < fb, fa <= fb, fa > fb, fa >= fb
        )
        if fa == fb:
            assert hash(a) == hash(b)


def _fractions_made(monkeypatch):
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


def test_no_fractions_on_the_hot_path(monkeypatch):
    rng = random.Random(5)
    pool = sorted(["a", "b", "c", "d", True, 1], key=outcome_key)
    dists = [_random_dist(rng, pool) for _ in range(40)]
    sets = [from_generators(dists[i:i + 4]) for i in range(0, 40, 4)]
    probs = [Prob(Fraction(n, 7)) for n in range(8)]
    # point images too, so `mix_necsets` also mixes in a translation
    table = {k: sets[i] if i % 3 else singleton_necset(dists[i]) for i, k in enumerate(pool)}
    nested = from_generators([from_pairs([(sets[0], Fraction(1, 3)), (sets[1], Fraction(2, 3))]),
                              from_pairs([(sets[2], Fraction(1, 2)), (sets[0], Fraction(1, 2))])])
    made = _fractions_made(monkeypatch)
    lp_heavy = canonicalize(dists)
    for i in range(0, 36, 2):
        conv_dist(probs[i % 8], dists[i], dists[i + 1])
        from_generators(dists[i:i + 5])
        alt_necset(sets[i % 10], sets[(i + 3) % 10])
        lub_necset(sets[i % 10: i % 10 + 3])
        necset.conv_necset(probs[i % 8], sets[i % 10], sets[(i + 1) % 10])
    assert made == [] and len(lp_heavy) < len(dists)
    # the folds of `mix_necsets`, its translation step included, mix on integer weights
    folds = []
    original_mix = necset._mix_pair
    monkeypatch.setattr(necset, "_mix_pair", lambda *a: folds.append(a) or original_mix(*a))
    for x in sets:
        bind_gcm(x, table.__getitem__)
    join_gcm(nested)
    assert len(folds) > 20 and made == []


def _form(outcomes, nums, den):
    d = object.__new__(Dist)
    d.outcomes, d.nums, d.den = outcomes, nums, den
    return d


def test_validate_dist_rechecks_from_the_fraction_view():
    for d in _family(6, 20)[1]:
        validate_dist(d)
        assert d.den == math.lcm(*(w.denominator for _, w in d.entries))
    validate_dist(_form(("a", "b"), (1, 2), 3))
    bad = [
        _form(("a", "b"), (2, 2), 4),  # gcd(den, *nums) > 1
        _form(("a", "b"), (1, 1), 3),  # sums to 2/3
        _form(("a", "b"), (0, 1), 1),  # a zero numerator
        _form(("b", "a"), (1, 1), 2),  # keys out of order
        _form(("a", "b"), (1,), 1),  # a weight missing
    ]
    for d in bad:
        with pytest.raises(ValueError):
            validate_dist(d)
