"""Differential tests of the fast paths against the definitions they replace.

Each reference below is the plain definition, kept only here:

- `conv_necset` mixes only the generator pairs that `minkowski_vertices`
  keeps; the reference mixes every pair and puts the products in normal form.
- `minkowski_vertices` forces columns to 0 on bitmasks and builds difference
  columns only for the pairs an LP decides; the reference builds every
  pair's columns, drops the forced ones by `_unforced`, and runs the same LP.
- `conv_dist` mixes the integer numerators of both distributions; the
  reference re-canonicalizes the scaled `Fraction` entries with `from_pairs`.
- `mix_necsets` sums point images into one translation, merges equal sets
  and folds the rest; the reference is the barycenter of the distribution
  over sets that `map_dist` builds, folded by `convn`.
- `bind_gcm` takes the hull of the mixtures of all mapped generators; the
  references are `join_gcm` of the mapped set in normal form, and
  `bind_gcm_direct`.
"""

import random
from fractions import Fraction

from convexchoice import stats
from convexchoice.convexgeom import HullForm, _pivot_feasible, barycenter, minkowski_vertices
from convexchoice.dist import Dist, conv_dist, from_pairs, map_dist, point
from convexchoice.gcm import bind_gcm, bind_gcm_direct, join_gcm
from convexchoice.necset import (
    NECSET_INSTANCE,
    conv_necset,
    from_generators,
    mix_necsets,
    singleton_necset,
)
from convexchoice.prob import Prob

ATOMS = [True, False, 0, 1, 2, "a", "b"]
NESTED = [
    point("a"),
    from_pairs([("a", Fraction(1, 2)), (True, Fraction(1, 2))]),
    from_generators([point(1), point(True)]),
    singleton_necset(point("b")),
]
PROBS = [Prob(Fraction(n, d)) for n, d in [(0, 1), (1, 1), (1, 2), (1, 3), (1, 1000), (999, 1000)]]


def _conv_dist_ref(p, d1, d2):
    pairs = [(k, p.value * w) for k, w in d1.entries]
    pairs += [(k, (1 - p.value) * w) for k, w in d2.entries]
    return from_pairs(pairs)


def _conv_necset_ref(p, x, y):
    return from_generators(
        [_conv_dist_ref(p, gx, gy) for gx in x.generators for gy in y.generators]
    )


def _random_dist(rng, keys):
    picked = rng.sample(keys, rng.randint(1, min(3, len(keys))))
    weights = [rng.randint(1, 4) for _ in picked]
    return from_pairs((k, Fraction(w, sum(weights))) for k, w in zip(picked, weights))


def _random_set(rng, keys, most=7):
    return from_generators([_random_dist(rng, keys) for _ in range(rng.randint(1, most))])


def _random_prob(rng):
    if rng.random() < 0.3:
        return rng.choice(PROBS)
    den = rng.randint(2, 12)
    return Prob(Fraction(rng.randint(1, den - 1), den))


def _segment(a, b):
    return from_generators([from_pairs(a), from_pairs(b)])


def _w(*pairs):
    return [(k, Fraction(n, d)) for k, n, d in pairs]


def _lp_count(fn, *args):
    stats.start()
    try:
        result = fn(*args)
    finally:
        stats.stop()
    return result, stats.counts["lp_calls"]


def test_conv_necset_hand_built_cases():
    d0, d1, mid = point(0), point(1), from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    both = from_generators([d0, d1])
    half = Prob(Fraction(1, 2))
    # the sums of (d0, d1) and (d1, d0) coincide at the midpoint: two vertices, not three
    assert conv_necset(half, both, both).generators == both.generators
    assert mid not in conv_necset(half, both, both).generators
    # True next to 1: four distinct outcomes, a square of four vertices
    bools = from_generators([point(True), point(1)])
    ints = from_generators([point(False), point(0)])
    assert len(conv_necset(half, bools, ints).generators) == 4
    parallel_same = _segment(_w(("a", 1, 1)), _w(("b", 1, 1)))
    parallel_short = _segment(_w(("a", 3, 4), ("b", 1, 4)), _w(("a", 1, 4), ("b", 3, 4)))
    opposite = _segment(_w(("b", 1, 1)), _w(("a", 1, 1)))  # the same segment, reversed
    crossing = _segment(_w(("c", 1, 1)), _w(("a", 1, 2), ("b", 1, 2)))
    general_x = _segment(_w(("a", 1, 3), ("b", 1, 3), ("c", 1, 3)), _w(("a", 1, 2), ("b", 1, 2)))
    general_y = _segment(_w(("a", 1, 3), ("b", 1, 3), ("c", 1, 3)), _w(("a", 1, 2), ("c", 1, 2)))
    sets = [both, bools, ints, parallel_same, parallel_short, opposite, crossing, general_x, general_y]
    sets += [singleton_necset(mid), singleton_necset(point(True)), from_generators(NESTED[:2])]
    for x in sets:
        for y in sets:
            for p in PROBS:
                assert conv_necset(p, x, y) == _conv_necset_ref(p, x, y), (p, x, y)
    assert len(conv_necset(half, parallel_same, parallel_short).generators) == 2
    assert len(conv_necset(half, general_x, general_y).generators) == 4


def test_conv_necset_matches_pairwise_products_random():
    rng = random.Random(20)
    keys = ["a", "b", "c", "d", True, 1]
    sizes = set()
    for _ in range(250):
        x, y = _random_set(rng, keys), _random_set(rng, keys)
        sizes.update((len(x.generators), len(y.generators)))
        p = _random_prob(rng)
        assert conv_necset(p, x, y) == _conv_necset_ref(p, x, y), (p, x, y)
    assert sizes >= set(range(1, 8))


def test_conv_necset_nested_keys():
    rng = random.Random(21)
    keys = NESTED + ["a"]
    for _ in range(60):
        x, y = _random_set(rng, keys, 4), _random_set(rng, keys, 4)
        p = _random_prob(rng)
        assert conv_necset(p, x, y) == _conv_necset_ref(p, x, y), (p, x, y)


def test_minkowski_vertex_lp_counts_are_pinned():
    x = _segment(_w(("a", 1, 3), ("b", 1, 3), ("c", 1, 3)), _w(("a", 1, 2), ("b", 1, 2)))
    y = _segment(_w(("a", 1, 3), ("b", 1, 3), ("c", 1, 3)), _w(("a", 1, 2), ("c", 1, 2)))
    # general position: each of the four pairs shares a coordinate's unique max or min
    pairs, lps = _lp_count(minkowski_vertices, x.generators, y.generators)
    assert (pairs, lps) == ([(0, 0), (0, 1), (1, 0), (1, 1)], 0)
    # a singleton operand keeps every pair
    four = from_generators([point(k) for k in "abcd"])
    pairs, lps = _lp_count(minkowski_vertices, (point("e"),), four.generators)
    assert (len(pairs), lps) == (4, 0)
    pairs, lps = _lp_count(minkowski_vertices, four.generators, (point("e"),))
    assert (len(pairs), lps) == (4, 0)
    # parallel segments (opposite orientation, as sorted): the two pairs that no
    # coordinate settles each need an LP, and both sums fall inside
    x = _segment(_w(("a", 1, 1)), _w(("b", 1, 1)))
    y = _segment(_w(("a", 3, 4), ("b", 1, 4)), _w(("a", 1, 4), ("b", 3, 4)))
    pairs, lps = _lp_count(minkowski_vertices, x.generators, y.generators)
    assert (pairs, lps) == ([(0, 1), (1, 0)], 2)
    # a tie in y's coordinate a: no coordinate's unique max or min settles (0, 0)
    # or (1, 1), but dropping the columns that coordinate a forces to 0 leaves
    # one column with a single sign in coordinate b, so no LP is needed
    x = _segment(_w(("a", 1, 1)), _w(("b", 1, 1)))
    y = _segment(_w(("a", 1, 2), ("b", 1, 2)), _w(("a", 1, 2), ("c", 1, 2)))
    pairs, lps = _lp_count(minkowski_vertices, x.generators, y.generators)
    assert (pairs, lps) == ([(0, 0), (0, 1), (1, 0), (1, 1)], 0)


def _unforced(columns):
    """The columns left free in sum_j x_j * columns[j] = 0 with x >= 0.

    A row whose nonzero entries all have one sign forces their columns to 0;
    dropping those columns may let another row do the same, so it repeats.
    """
    while columns:
        forced = set()
        for r in range(len(columns[0])):
            signs = {col[r] > 0 for col in columns if col[r]}
            if len(signs) == 1:
                forced.update(j for j, col in enumerate(columns) if col[r])
        if not forced:
            break
        columns = [col for j, col in enumerate(columns) if j not in forced]
    return columns


def _minkowski_vertices_ref(xs, ys):
    """Every pair's difference columns, then `_unforced`, then the Gordan LP on what is left."""
    if len(xs) == 1 or len(ys) == 1:
        return [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    points = list(zip(*HullForm([*xs, *ys]).rows[1]))
    xc, yc = points[: len(xs)], points[len(xs) :]
    kept = []
    for i, xi in enumerate(xc):
        for j, yj in enumerate(yc):
            columns = [[u - v for u, v in zip(x, xi)] for a, x in enumerate(xc) if a != i]
            columns += [[u - v for u, v in zip(y, yj)] for b, y in enumerate(yc) if b != j]
            columns = _unforced(columns)
            if columns:
                tab = [[*row, 0] for row in zip(*columns) if any(row)]
                tab.append([1] * (len(columns) + 1))
                if _pivot_feasible(tab, len(columns)):
                    continue
            kept.append((i, j))
    return kept


def _lp_work(fn, *args):
    stats.start()
    try:
        result = fn(*args)
    finally:
        stats.stop()
    return result, stats.counts["lp_calls"], stats.counts["pivots"]


def _tied_set(rng, keys, most):
    """Weights 0-2 over `keys`, so coordinates often tie between points."""
    gens = []
    for _ in range(rng.randint(1, most)):
        weights = [rng.randint(0, 2) for _ in keys]
        if not any(weights):
            weights[rng.randrange(len(keys))] = 1
        gens.append(from_pairs((k, Fraction(w, sum(weights))) for k, w in zip(keys, weights) if w))
    return from_generators(gens)


def _parallel_segments(rng, keys):
    """A segment and a shorter or reversed copy of it, translated."""
    a, c = rng.sample(keys, 2), rng.sample(keys, 2)
    t = Fraction(rng.choice([0, 1, 3]), 4)
    x = _segment([(a[0], Fraction(1))], [(a[1], Fraction(1))])
    base = [(c[0], Fraction(1, 4)), (c[1], Fraction(1, 4))]
    ends = [[(a[0], t / 2), (a[1], (1 - t) / 2)], [(a[1], t / 2), (a[0], (1 - t) / 2)]]
    rng.shuffle(ends)
    return x, _segment(base + ends[0], base + ends[1])


def test_minkowski_vertices_match_the_per_pair_reference():
    rng = random.Random(26)
    keys = ["a", "b", "c", "d", True, 1]
    cases = []
    for _ in range(300):
        picked = rng.sample(keys, rng.randint(2, 5))
        x = _tied_set(rng, picked, 6)
        # y shares some of x's coordinates and may have its own
        y = _tied_set(rng, rng.sample(keys, rng.randint(1, 3)) + picked[:2], 6)
        cases.append((x, y))
    cases += [_parallel_segments(rng, keys) for _ in range(60)]
    cases += [(_random_set(rng, keys), _random_set(rng, keys)) for _ in range(100)]
    seen = {"lp": 0, "no lp": 0, "singleton": 0, "dropped": 0}
    for x, y in cases:
        for xs, ys in ((x.generators, y.generators), (y.generators, x.generators)):
            want = _lp_work(_minkowski_vertices_ref, xs, ys)
            assert _lp_work(minkowski_vertices, xs, ys) == want, (xs, ys)
            seen["singleton"] += min(len(xs), len(ys)) == 1
            seen["lp" if want[1] else "no lp"] += 1
            seen["dropped"] += len(want[0]) < len(xs) * len(ys)
    assert min(seen.values()) > 50, seen


def test_conv_dist_matches_from_pairs():
    rng = random.Random(22)
    keys = ATOMS + NESTED
    for _ in range(400):
        d1, d2 = _random_dist(rng, keys), _random_dist(rng, keys)
        p = _random_prob(rng)
        got = conv_dist(p, d1, d2)
        assert got == _conv_dist_ref(p, d1, d2), (p, d1, d2)
        assert got.entries == _conv_dist_ref(p, d1, d2).entries


def _image(rng, points):
    if points:
        return singleton_necset(_random_dist(rng, ATOMS + NESTED))
    while True:
        x = _random_set(rng, ATOMS + NESTED, 4)
        if len(x.generators) > 1:
            return x


def test_bind_matches_join_of_normal_form_and_direct():
    rng = random.Random(23)
    keys = [True, 1, "a", "b"]
    for _ in range(80):
        m = _random_set(rng, keys, 3)
        # point images and sets of 2-4 generators, over nested outcomes too
        table = {(type(k), k): _image(rng, rng.random() < 0.5) for k in keys}

        def k(a):
            return table[(type(a), a)]

        want = join_gcm(from_generators([map_dist(k, d) for d in m.generators]))
        got = bind_gcm(m, k)
        assert got == want, (m, table)
        assert got == bind_gcm_direct(m, k), (m, table)


def test_mix_necsets_matches_barycenter_of_mapped_dist():
    rng = random.Random(25)
    for kind in ("points", "sets", "mixed"):
        for n in range(1, 6):
            for rep in range(8):
                # a pool smaller than the support repeats images
                pool = [
                    _image(rng, kind == "points" or (kind == "mixed" and i % 2 == 0))
                    for i in range(1 + rep % n)
                ]
                images = [pool[rng.randrange(len(pool))] for _ in range(n)]
                if n == 2 and rep % 2 == 0:
                    weights = [Fraction(1, 1000), Fraction(999, 1000)]
                else:
                    raw = [rng.randint(1, 5) for _ in range(n)]
                    weights = [Fraction(r, sum(raw)) for r in raw]
                d = from_pairs(zip(range(n), weights))
                want = barycenter(map_dist(images.__getitem__, d), NECSET_INSTANCE)
                got = mix_necsets(list(zip(d.nums, map(images.__getitem__, d.outcomes))))
                assert got.generators == want.generators, (kind, images, weights)
    x = _image(rng, False)
    assert mix_necsets([(1, x)]) is x
    assert mix_necsets([(1, x), (2, x)]) is x


def test_equal_dists_hash_equal_by_every_route():
    rng = random.Random(24)
    keys = ATOMS + NESTED
    for _ in range(200):
        d = _random_dist(rng, keys)
        split = [(k, w / 2) for k, w in d.entries] * 2
        rng.shuffle(split)
        p = _random_prob(rng)
        routes = [
            d,
            Dist(d.outcomes, [3 * n for n in d.nums], 3 * d.den),
            from_pairs(d.entries),
            from_pairs(split),
            map_dist(lambda a: a, d),
            conv_dist(p, d, d),
            _conv_dist_ref(p, d, d),
        ]
        hash(routes[0])  # computed and kept before the others are built or hashed
        for other in routes:
            assert other == d and hash(other) == hash(d)
        assert len(set(routes)) == 1
    assert point(True) != point(1) and len({point(True), point(1)}) == 2
