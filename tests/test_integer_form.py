"""The integer form of a `Dist`: its order, the `Fraction` edges, `validate_dist`.

A `Dist` and a `NECSet` compare and hash by their own integer form, and so do
their outcome keys `(tag, x)`.  The reference key below is the key every
`Dist` had when it held `Fraction` weights, `(3, ((outcome key, w), ...))`
over its entries, rebuilt here from the `entries` view, nested outcomes
included.  Values and their keys must compare as it does.
"""

import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import validate_dist
from convexchoice import necset
from convexchoice.cli import cli_main
from convexchoice.convexgeom import canonicalize
from convexchoice.dist import Dist, conv_dist, from_pairs, outcome_key, point
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


def _assert_compares_as_old_key(x, y):
    """`==`, `!=`, `<`, `<=`, `>`, `>=` and `hash` as on the `Fraction` keys.

    On the outcome keys of any two values, and on the values themselves when
    they are of one nested kind.
    """
    ox, oy = _old_key(x), _old_key(y)
    want = (ox == oy, ox != oy, ox < oy, ox <= oy, ox > oy, ox >= oy)
    pairs = [(outcome_key(x), outcome_key(y))]
    if type(x) is type(y) and isinstance(x, (Dist, NECSet)):
        pairs.append((x, y))
    for a, b in pairs:
        assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == want, (x, y)
        if ox == oy:
            assert hash(a) == hash(b), (x, y)


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
    values = dists + pool + [from_generators(dists[i:i + 3]) for i in range(0, 30, 3)]
    dens = set()
    for x, y in combinations(values, 2):
        _assert_compares_as_old_key(x, y)
        if isinstance(x, Dist) and isinstance(y, Dist) and _old_key(x)[1][0] == _old_key(y)[1][0]:
            # the same first entry; over different denominators for most pairs
            dens.add(x.den != y.den)
    assert dens == {True, False}
    # a value equal to one in the pool, but built anew, nested values included
    for x in pool:
        if isinstance(x, Dist):
            twin = from_pairs(x.entries)
        elif isinstance(x, NECSet):
            twin = NECSet(tuple(from_pairs(g.entries) for g in x.generators))
        else:
            continue
        assert twin is not x
        _assert_compares_as_old_key(twin, x)
        assert twin == x and hash(twin) == hash(x) and hash(outcome_key(twin)) == hash(outcome_key(x))
    rng = random.Random(seed)
    for _ in range(20):
        gens = rng.sample(dists, 8)
        assert sorted(gens) == sorted(gens, key=_old_key) == sorted(gens, key=outcome_key)
        assert canonicalize(gens) == sorted(canonicalize(gens), key=_old_key)
    assert point(True) != point(1) and point(True) < point(1)


def test_point_masses_compare_as_fraction_keys():
    masses = [point(x) for x in ATOMS] + [Dist(("a",), (3,), 3), from_pairs([("b", Fraction(1))])]
    masses.append(point(from_generators([point(1), masses[-1]])))
    values = masses + [from_pairs([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])]
    for x, y in combinations(values, 2):
        _assert_compares_as_old_key(x, y)
    assert point("a") == masses[-3] and hash(point("a")) == hash(masses[-3])


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


# The renders at n = 10, pinned when sets still compared by `Fraction`-weight keys.
CHAIN_RENDER_SHA256 = {
    "disjoint": "f34c8db0dbbc88c5d8d98321047143b76049cf48bed2495fc1965d3009d04129",
    "overlapping": "c432fd7afd26346a6a22110cf7462fbeaf7d5409e0f15fd069ec3e2aae306ca0",
}


@pytest.mark.parametrize("kind", sorted(CHAIN_RENDER_SHA256))
def test_choice_chain_sorts_its_vertices_as_fraction_keys(kind, tmp_path, capsys):
    """`arbitrary 0 [a, b] <|1/2|> ...` over n pairs: 2**n vertices, in `_old_key` order.

    Disjoint pairs are (2i, 2i + 1), overlapping ones (i, i + 1); either way
    the n segments are independent, so every one of the 2**n picks is a vertex.
    """
    n = 10
    pairs = [(2 * i, 2 * i + 1) if kind == "disjoint" else (i, i + 1) for i in range(n)]
    path = tmp_path / "chain.choice"
    path.write_text(" <|1/2|> ".join(f"arbitrary 0 [{a}, {b}]" for a, b in pairs) + "\n")
    assert cli_main(["eval", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_RENDER_SHA256[kind]
    lines = out.splitlines()
    assert len(lines) == 2**n
    keys = [
        (3, tuple(((1, int(k)), Fraction(w)) for k, w in re.findall(r"(\d+): (\d+(?:/\d+)?)", line)))
        for line in lines
    ]
    assert all(a < b for a, b in zip(keys, keys[1:]))
