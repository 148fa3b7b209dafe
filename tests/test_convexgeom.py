import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import d_of, dist_kleislis, dists, functions, probs
from convexchoice import convexgeom, stats
from convexchoice.convexgeom import (
    DIST_INSTANCE,
    RAT_INSTANCE,
    HullForm,
    barycenter,
    canonicalize,
    convn,
    in_hull,
    in_hull_oracle,
)
from convexchoice.dist import bind_dist, cached_attr, from_pairs, map_dist, outcome_key, point
from convexchoice.laws import GenConfig, _gen_hull_instance
from convexchoice.necset import from_generators, member


def idx_dist(*pairs):
    return from_pairs((i, Fraction(n, m)) for i, n, m in pairs)


def test_convn_trivial_cases():
    g0, g1 = Fraction(2), Fraction(5)
    assert convn(point(0), [g0, g1], RAT_INSTANCE) == g0
    assert convn(idx_dist((0, 1, 2), (1, 1, 2)), [g0, g1], RAT_INSTANCE) == Fraction(7, 2)
    inst = convexgeom.ConvexInstance(RAT_INSTANCE.conv)
    assert inst.conv is RAT_INSTANCE.conv
    assert convn(idx_dist((0, 1, 4), (1, 3, 4)), [g0, g1], inst) == Fraction(17, 4)


def test_convn_dist_instance():
    got = convn(idx_dist((0, 1, 3), (1, 2, 3)), [point("a"), point("b")], DIST_INSTANCE)
    assert got == d_of(("a", 1, 3), ("b", 2, 3))


def test_convn_wide_support_does_not_recurse():
    n = 1500
    weights = from_pairs((i, Fraction(1, n)) for i in range(n))
    assert convn(weights, [Fraction(i) for i in range(n)], RAT_INSTANCE) == Fraction(n - 1, 2)
    # a short list, against its weighted sum
    weights = idx_dist((0, 1, 6), (1, 1, 3), (2, 1, 2))
    want = Fraction(1, 6) * 2 + Fraction(1, 3) * 3 + Fraction(1, 2) * 7
    assert convn(weights, [Fraction(2), Fraction(3), Fraction(7)], RAT_INSTANCE) == want


def test_convn_missing_point():
    with pytest.raises(ValueError):
        convn(point(2), [Fraction(0)], RAT_INSTANCE)


def test_barycenter_examples():
    assert barycenter(point(Fraction(4)), RAT_INSTANCE) == Fraction(4)
    d1 = point("a")
    d2 = d_of(("a", 1, 2), ("b", 1, 2))
    weights = from_pairs([(d1, Fraction(1, 2)), (d2, Fraction(1, 2))])
    assert barycenter(weights, DIST_INSTANCE) == d_of(("a", 3, 4), ("b", 1, 4))


@given(dists, dist_kleislis)
def test_barycenter_of_pushforward_is_bind(d, k):
    lhs = barycenter(map_dist(k.__getitem__, d), DIST_INSTANCE)
    assert lhs == bind_dist(d, k.__getitem__)


@given(dists)
def test_flattening_identity(d):
    assert barycenter(map_dist(point, d), DIST_INSTANCE) == d


def test_in_hull_examples():
    mid = d_of(("a", 1, 2), ("b", 1, 2))
    assert in_hull(mid, [point("a"), point("b")]) is True
    assert in_hull(point("a"), [point("b")]) is False
    # lambda = (1/2, 1/2) solves the 2x2 system exactly
    x = d_of(("a", 3, 4), ("b", 1, 4))
    assert in_hull(x, [mid, point("a")]) is True


def test_in_hull_oracle_examples():
    mid = d_of(("a", 1, 2), ("b", 1, 2))
    assert in_hull_oracle(mid, [point("a"), point("b")]) is True
    assert in_hull_oracle(point("a"), [point("b")]) is False
    x = d_of(("a", 3, 4), ("b", 1, 4))
    assert in_hull_oracle(x, [mid, point("a")]) is True
    assert in_hull_oracle(mid, [point("c"), mid]) is True


def _unpruned_oracle(x, generators):
    """The enumeration with no support pruning: every subset of size <= dim + 1."""
    if any(g == x for g in generators):
        return True
    keyed = {outcome_key(k): k for d in (x, *generators) for k in d.outcomes}
    basis = [keyed[k] for k in sorted(keyed)]
    dim = len(basis)
    xv = [x.weight(k) for k in basis] + [Fraction(1)]
    vecs = [[g.weight(k) for k in basis] + [Fraction(1)] for g in generators]
    for size in range(1, min(len(generators), dim + 1) + 1):
        for subset in itertools.combinations(range(len(generators)), size):
            matrix = [[vecs[j][row] for j in subset] for row in range(dim + 1)]
            sol = convexgeom._solve_exact(matrix, xv)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _sparse_hull_instance(rng):
    """Generators on one or two of four keys, some duplicated; x often a mixture of a few."""
    keys = list("abcd")
    gens = []
    for _ in range(rng.randint(1, 5)):
        support = rng.sample(keys, rng.randint(1, 2))
        weights = [rng.randint(1, 3) for _ in support]
        gens.append(from_pairs((k, Fraction(w, sum(weights))) for k, w in zip(support, weights)))
    gens += rng.sample(gens, rng.randint(0, min(2, len(gens))))
    roll = rng.random()
    if roll < 0.15:
        x = rng.choice(gens)
    elif roll < 0.3:
        # weight on a key no generator has
        x = d_of(("z", 1, 2), (rng.choice(keys), 1, 2))
    elif roll < 0.45:
        support = rng.sample(keys, rng.randint(1, 3))
        x = from_pairs((k, Fraction(1, len(support))) for k in support)
    else:
        picked = rng.sample(gens, rng.randint(1, len(gens)))
        weights = [rng.randint(1, 3) for _ in picked]
        x = from_pairs(
            (k, w * p / sum(weights)) for g, w in zip(picked, weights) for k, p in g.entries
        )
    return x, gens


def test_pruned_oracle_matches_the_unpruned_enumeration():
    cfg = GenConfig()
    cases = [
        (point("a"), [d_of(("a", 1, 2), ("b", 1, 2))]),  # x off no support, but not covered
        (d_of(("a", 1, 2), ("b", 1, 2)), [point("a"), point("a"), point("b")]),
        (d_of(("a", 1, 2), ("b", 1, 2)), [point("c"), point("d")]),  # off every support
        (d_of(("a", 1, 3), ("b", 2, 3)), [point("b"), d_of(("a", 1, 3), ("b", 2, 3))]),
        (point(True), [point(1), d_of((True, 1, 2), (1, 1, 2))]),
    ]
    for seed in range(8):
        rng = random.Random(seed)
        cases += [_gen_hull_instance(rng, cfg, max_gens=3 + seed % 4) for _ in range(250)]
    rng = random.Random(2024)
    for _ in range(1000):
        x, gens = _sparse_hull_instance(rng)
        cases.append((x, gens))
        if rng.random() < 0.2:
            # x equal to a generator, among duplicates
            g = rng.choice(gens)
            cases.append((g, gens + [g]))
    assert len(cases) >= 3000
    answers = []
    for x, gens in cases:
        want = _unpruned_oracle(x, gens)
        assert in_hull_oracle(x, gens) == want, (x, gens)
        answers.append(want)
    assert min(answers.count(True), answers.count(False)) > 1000


def test_oracle_runs_no_code_of_the_simplex_path(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the oracle reached the simplex path")

    for name in ("HullForm", "_simplex_feasible", "_pivot_feasible", "_int_coords"):
        monkeypatch.setattr(convexgeom, name, refuse)
    rng = random.Random(77)
    for _ in range(200):
        in_hull_oracle(*_gen_hull_instance(rng, GenConfig(), max_gens=6))


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        in_hull(point("a"), [])
    with pytest.raises(ValueError):
        in_hull_oracle(point("a"), [])
    with pytest.raises(ValueError):
        canonicalize([])


def test_canonicalize_examples():
    mid = from_pairs([(True, Fraction(1, 2)), (False, Fraction(1, 2))])
    got = canonicalize([point(True), point(False), mid])
    assert got == sorted([point(True), point(False)])
    d = d_of(("a", 1, 3), ("b", 2, 3))
    assert canonicalize([d]) == [d]
    assert canonicalize([d, d]) == [d]


def _random_gens(rng, count):
    out = []
    for _ in range(count):
        size = rng.randint(1, 4)
        support = rng.sample(["a", "b", "c", "d"], size)
        weights = [rng.randint(1, 6) for _ in range(size)]
        total = sum(weights)
        out.append(from_pairs((s, Fraction(w, total)) for s, w in zip(support, weights)))
    return out


def test_canonicalize_properties_random():
    rng = random.Random(2024)
    for _ in range(60):
        gens = _random_gens(rng, rng.randint(1, 6))
        canon = canonicalize(gens)
        assert canonicalize(canon) == canon
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert canonicalize(shuffled) == canon
        x = _random_gens(rng, 1)[0]
        assert in_hull(x, gens) == in_hull(x, canon)


def _extreme_reference(gens):
    """The distinct generators outside the oracle hull of the other distinct ones."""
    unique = []
    for g in gens:
        if g not in unique:
            unique.append(g)
    return sorted(
        g
        for g in unique
        if len(unique) == 1 or not in_hull_oracle(g, [u for u in unique if u != g])
    )


_KEYS = ("a", "b", "c", True, 1, point("a"), d_of(("a", 1, 2), ("b", 1, 2)))


def _random_instance(rng):
    keys = rng.sample(_KEYS, rng.randint(1, 4))
    gens = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            gens.append(point(rng.choice(keys)))
            continue
        support = rng.sample(keys, rng.randint(1, len(keys)))
        # few distinct weights, so coordinate maxima and minima often tie
        weights = [rng.randint(1, 2) for _ in support]
        total = sum(weights)
        gens.append(from_pairs((k, Fraction(w, total)) for k, w in zip(support, weights)))
    return gens + rng.sample(gens, rng.randint(0, len(gens)))


def _hull_form_reference(gens):
    """`(index, scale, rows)` from each generator's `_int_coords` column, rescaled and transposed."""
    index = {}
    for g in gens:
        for k in g.okeys:
            index.setdefault(k, len(index))
    columns = [convexgeom._int_coords(g, index) for g in gens]
    scale = math.lcm(*(g.den for g in gens))
    scaled = [[v * (scale // g.den) for v in col] for col, g in zip(columns, gens)]
    return list(index.items()), scale, [list(row) for row in zip(*scaled)]


def _mixed_den_instance(rng):
    # weights over their own totals, so the dens differ and the scale is their lcm
    keys = rng.sample(_KEYS + ("d", 2, False, point(True)), rng.randint(2, 7))
    gens = []
    for _ in range(rng.randint(1, 7)):
        support = rng.sample(keys, rng.randint(1, len(keys)))
        weights = [rng.randint(1, 9) for _ in support]
        gens.append(from_pairs((k, Fraction(w, sum(weights))) for k, w in zip(support, weights)))
    return gens


def test_hull_form_index_and_rows_match_the_column_reference():
    rng = random.Random(27)
    cases = [_random_instance(rng) for _ in range(150)] + [_mixed_den_instance(rng) for _ in range(150)]
    assert any(len({g.den for g in gens}) > 2 for gens in cases)
    for gens in cases:
        form = HullForm(gens)
        index, scale, rows = _hull_form_reference(gens)
        # the index in first-seen order, not only the same pairs
        assert list(form.index.items()) == index, gens
        assert form.rows == (scale, rows), gens
        # each column is its generator's own numerators: its row entries over scale / den
        assert form.columns == tuple(tuple(r[j] // (scale // g.den) for r in rows) for j, g in enumerate(gens))


def test_canonicalize_matches_oracle_reference():
    cases = [
        # a tied coordinate (a) everywhere; the third point is the midpoint
        [d_of(("a", 1, 2), ("b", 1, 2)), d_of(("a", 1, 2), ("c", 1, 2)),
         d_of(("a", 1, 2), ("b", 1, 4), ("c", 1, 4))],
        [point(True), point(1), d_of((True, 1, 2), (1, 1, 2)), point(True)],
        [point(k) for k in _KEYS] + [point("a")],
        [point(point("a")), point(_KEYS[-1]),
         from_pairs([(point("a"), Fraction(1, 2)), (_KEYS[-1], Fraction(1, 2))])],
    ]
    rng = random.Random(7)
    cases += [_random_instance(rng) for _ in range(150)]
    cases += [[point(rng.choice(_KEYS)) for _ in range(rng.randint(1, 8))] for _ in range(20)]
    for gens in cases:
        assert canonicalize(gens) == _extreme_reference(gens), gens


def test_canonicalize_skips_lp_for_certainly_extreme_points(monkeypatch):
    calls = []
    solve = convexgeom._simplex_feasible

    def counted(columns, rhs):
        calls.append(len(columns))
        return solve(columns, rhs)

    monkeypatch.setattr(convexgeom, "_simplex_feasible", counted)
    points = [point(i) for i in range(24)]
    assert canonicalize(points) == points
    assert calls == []
    masses = [point(k) for k in "abcd"]
    mixture = from_pairs((k, Fraction(1, 4)) for k in "abcd")
    assert canonicalize(masses + [mixture]) == masses
    assert len(calls) == 1


def _lp_calls(fn, *args):
    """`fn(*args)` and the number of LPs it solved."""
    stats.start()
    try:
        return fn(*args), stats.counts["lp_calls"]
    finally:
        stats.stop()


def test_canonicalize_settles_a_row_difference_maximum_with_no_lp():
    # a quadrilateral on the simplex over a, b, c: neither point on its
    # a = 1/2 edge is alone at any coordinate's maximum or minimum, but each
    # is alone at the maximum of a - b or of a - c
    s, t = point("b"), point("c")
    v, u = d_of(("a", 1, 2), ("c", 1, 2)), d_of(("a", 1, 2), ("b", 1, 2))
    rows = HullForm([s, t, v, u]).rows[1]
    for row in rows:
        for w in (max(row), min(row)):
            assert row.count(w) > 1 or row.index(w) in (0, 1)
    got, lps = _lp_calls(canonicalize, [s, t, v, u])
    assert (got, lps) == (sorted([s, t, v, u]), 0)
    # with an interior point added, only that point needs an LP
    centre = d_of(("a", 1, 4), ("b", 3, 8), ("c", 3, 8))
    got, lps = _lp_calls(canonicalize, [s, t, v, u, centre])
    assert (got, lps) == (sorted([s, t, v, u]), 1)


def test_row_difference_pass_reads_at_most_two_pairs_per_row(monkeypatch):
    # three points with full support over 200 outcomes and the midpoint of two
    # of them: no functional settles the midpoint, so the pass runs to its bound
    rng = random.Random(31)
    ends = []
    for _ in range(3):
        w = [rng.randint(1, 12) for _ in range(200)]
        ends.append(from_pairs((k, Fraction(x, sum(w))) for k, x in enumerate(w)))
    mid = from_pairs([(k, w / 2) for k, w in ends[0].entries] + [(k, w / 2) for k, w in ends[1].entries])
    subtractions = []
    real_sub = convexgeom.sub

    def counted(a, b):
        subtractions.append(1)
        return real_sub(a, b)

    monkeypatch.setattr(convexgeom, "sub", counted)
    got, lps = _lp_calls(canonicalize, [*ends, mid])
    assert (got, lps) == (sorted(ends), 1)
    # one subtraction per generator for each difference row read
    assert len(subtractions) == 4 * 2 * 200


def test_canonicalize_settles_one_of_two_at_an_extreme_with_no_lp():
    # y = {a: 2/3, c: 1/3} is alone at no functional's maximum or minimum,
    # but shares the minimum of b with the point mass on a
    x, y, z = d_of(("a", 2, 3), ("b", 1, 3)), d_of(("a", 2, 3), ("c", 1, 3)), d_of(("b", 1, 3), ("c", 2, 3))
    gens = sorted([x, y, point("a"), z])
    i = gens.index(y)
    form = HullForm(gens)
    for row in convexgeom._functionals(form.rows[1], convexgeom._row_sub):
        for v in (max(row), min(row)):
            assert row.count(v) > 1 or row.index(v) != i
    assert _lp_calls(canonicalize, gens) == (gens, 0)


def test_canonicalize_keeps_the_lp_for_a_third_point_at_an_extreme():
    # b, c and their midpoint share the minimum of a; the midpoint is no vertex
    mid = d_of(("b", 1, 2), ("c", 1, 2))
    got, lps = _lp_calls(canonicalize, [point("a"), point("b"), mid, point("c")])
    assert (got, lps) == ([point("a"), point("b"), point("c")], 1)
    # and so do three points on a face at a = 1/4
    face = [d_of(("a", 1, 4), ("b", k, 8), ("c", 6 - k, 8)) for k in (1, 3, 5)]
    got, lps = _lp_calls(canonicalize, [*face, point("b"), point("c")])
    assert got == sorted([face[0], face[2], point("b"), point("c")]) and lps == 1


def _wide_instance(rng):
    """Points over six to nine outcomes with weights 0-2, and mixtures of some of them."""
    keys = rng.sample(range(9), rng.randint(6, 9))
    gens = []
    for _ in range(rng.randint(3, 6)):
        weights = [rng.randint(0, 2) for _ in keys]
        if not any(weights):
            weights[0] = 1
        gens.append(from_pairs((k, Fraction(w, sum(weights))) for k, w in zip(keys, weights) if w))
    for _ in range(rng.randint(0, 3)):
        picked = rng.sample(gens, 2)
        gens.append(from_pairs((k, w / 2) for g in picked for k, w in g.entries))
    return gens


def test_canonicalize_matches_oracle_reference_past_the_pair_bound():
    # six or more outcomes, so the difference pass stops before reading every row pair
    rng = random.Random(32)
    for _ in range(60):
        gens = _wide_instance(rng)
        assert canonicalize(gens) == _extreme_reference(gens), gens


def test_canonicalize_point_masses_match_the_general_path(monkeypatch):
    forms = []

    class CountedForm(HullForm):
        def __init__(self, generators):
            forms.append(generators)
            super().__init__(generators)

    monkeypatch.setattr(convexgeom, "HullForm", CountedForm)
    rng = random.Random(41)
    outcomes = [True, False, 0, 1, 2, "a", "b"]
    for _ in range(40):
        points = [point(rng.choice(outcomes)) for _ in range(rng.randint(0, 9))]
        points += [point(True), point(1), point(1)]  # True == 1, but distinct outcomes
        rng.shuffle(points)
        fast, lps = _lp_calls(canonicalize, points)
        assert lps == 0 and forms == []
        # an interior mixture forces the general path, which then drops it
        distinct = sorted(set(points))
        centre = from_pairs((p.outcomes[0], Fraction(1, len(distinct))) for p in distinct)
        assert canonicalize(points + [centre]) == fast == distinct
        assert forms
        forms.clear()


def _sorted_then_deduped(generators):
    """The reference: sort by the `Dist` order, then keep the first of equal neighbours."""
    unique = []
    for g in sorted(generators):
        if not unique or g != unique[-1]:
            unique.append(g)
    return unique


def test_point_masses_dedup_by_key_as_sorting_then_dropping_equal_neighbours():
    # each draw builds a new outcome object, so equal nested outcomes are not
    # the same object and the first of equal generators must be the one kept
    pools = [
        [lambda: True, lambda: False],
        [lambda: -1, lambda: 0, lambda: 1, lambda: 2],
        [lambda: "a", lambda: "b", lambda: "ab"],
        [
            lambda: from_generators([point(1), point(True)]),
            lambda: from_generators([point(True), point(1)]),
            lambda: from_generators([point(from_generators([point("a")]))]),
            lambda: from_generators([d_of(("a", 1, 2), ("b", 1, 2)), point("a")]),
            lambda: d_of((0, 1, 3), (1, 2, 3)),
        ],
    ]
    pools.append([draw for pool in pools for draw in pool])
    rng = random.Random(47)
    for trial in range(300):
        pool = pools[trial % len(pools)]
        points = [point(rng.choice(pool)()) for _ in range(rng.randint(1, 12))]
        want = _sorted_then_deduped(points)
        stats.start()
        try:
            got = canonicalize(points)
        finally:
            stats.stop()
        assert got == want and all(g is w for g, w in zip(got, want)), points
        assert [stats.counts[k] for k in ("canonicalize_calls", "gens_in", "gens_out")] == [
            1, len(points), len(want)
        ]
    # True == 1 in Python, but they are two outcomes
    assert canonicalize([point(1), point(True), point(1), point(True)]) == [point(True), point(1)]


def _small_weights(rng, keys):
    """A distribution over `keys` with integer weights 0-3."""
    weights = [rng.randint(0, 3) for _ in keys]
    if not any(weights):
        weights[rng.randrange(len(keys))] = 1
    total = sum(weights)
    return from_pairs((k, Fraction(w, total)) for k, w in zip(keys, weights) if w)


def _small_query(rng, keys, gens):
    """A query point: random, over a subset of the keys, or a small mixture of generators."""
    kind = rng.randrange(3)
    if kind == 0:
        return _small_weights(rng, keys)
    if kind == 1:
        return _small_weights(rng, rng.sample(keys, rng.randint(1, len(keys))))
    # mixtures of a few generators lie on faces of the hull, so ratio tests tie
    # and pivots are degenerate
    picked = rng.sample(gens, rng.randint(1, len(gens)))
    weights = [rng.randint(1, 3) for _ in picked]
    return from_pairs(
        (k, w * p / sum(weights)) for g, w in zip(picked, weights) for k, p in g.entries
    )


def test_in_hull_matches_oracle_small_integer_weights():
    rng = random.Random(31)
    cases = [
        # every generator has weight on a, where the query is 0: no column survives
        (point("b"), [d_of(("a", 1, 2), ("b", 1, 2)), d_of(("a", 1, 4), ("b", 3, 4))]),
        (point("b"), [d_of(("a", 1, 2), ("b", 1, 2)), point("b"), point("a")]),
        # weight on a key no generator has: False with no LP
        (point("c"), [point("a"), point("b")]),
        (d_of(("a", 1, 2), ("c", 1, 2)), [point("a"), point("b"), d_of(("a", 1, 2), ("b", 1, 2))]),
        (point(True), [point(1), d_of((1, 1, 2), ("a", 1, 2))]),
        (d_of((True, 1, 2), (1, 1, 2)), [point(1), point("a")]),
        # x equal to a generator: True with no LP
        (d_of(("a", 1, 3), ("b", 2, 3)), [point("a"), d_of(("a", 1, 3), ("b", 2, 3)), point("b")]),
        (point(True), [point(1), point(True)]),
    ]
    for _ in range(400):
        keys = list("abcde"[: rng.randint(1, 5)])
        gens = [_small_weights(rng, keys) for _ in range(rng.randint(1, 4))]
        gens += rng.sample(gens, rng.randint(0, min(2, len(gens))))
        if rng.random() < 0.3:
            gens += [point(k) for k in rng.sample(keys, rng.randint(1, min(2, len(keys))))]
        cases.append((_small_query(rng, keys, gens), gens))
    for x, gens in cases:
        want = in_hull_oracle(x, gens)
        assert in_hull(x, gens) == want, (x, gens)
        # a set answers from the form it keeps: the same answer again after
        # another query (the centre of the generators, inside by construction)
        hull = from_generators(gens)
        centre = from_pairs((k, w / len(gens)) for g in gens for k, w in g.entries)
        assert member(x, hull) == want, (x, gens)
        assert member(centre, hull) is True
        assert member(x, hull) == want, (x, gens)
        assert hull.hull_form.columns == HullForm(hull.generators).columns


def _with_weight(rng, keys, k, weight):
    """A distribution with exactly `weight` on `k` and the rest spread over the other keys."""
    rest = [o for o in keys if o != k]
    if weight == 1 or not rest:
        return point(k)
    shares = [rng.randint(0, 3) for _ in rest]
    if not any(shares):
        shares[0] = 1
    return from_pairs(
        [(k, weight)] + [(o, (1 - weight) * c / sum(shares)) for o, c in zip(rest, shares)]
    )


def test_member_range_rejection_agrees_with_oracle_at_the_boundaries():
    rng = random.Random(43)
    for _ in range(40):
        keys = list("abcd"[: rng.randint(2, 4)])
        gens = [_small_weights(rng, keys) for _ in range(rng.randint(2, 4))]
        hull = from_generators(gens)
        for k in keys:
            weights = [g.weight(k) for g in gens]
            for edge, beyond in [(max(weights), (1 + max(weights)) / 2), (min(weights), min(weights) / 2)]:
                at_edge = [g for g, w in zip(gens, weights) if w == edge]
                # the centre of the generators at the edge is inside, with `edge` on k
                centre = from_pairs((o, w / len(at_edge)) for g in at_edge for o, w in g.entries)
                assert centre.weight(k) == edge and member(centre, hull)
                for q in [centre] + [_with_weight(rng, keys, k, edge) for _ in range(3)]:
                    want = in_hull_oracle(q, gens)
                    assert member(q, hull) == want, (q, gens)
                    assert in_hull(q, gens) == want, (q, gens)
                if beyond != edge:
                    q = _with_weight(rng, keys, k, beyond)
                    assert not in_hull_oracle(q, gens)
                    assert _lp_calls(member, q, hull) == (False, 0), (q, gens)
                    assert _lp_calls(in_hull, q, gens) == (False, 0), (q, gens)


def test_member_beyond_a_coordinate_range_needs_no_lp():
    # a spans [0, 1/2], b [1/4, 1/2] and c [0, 1/2]
    gens = [d_of(("a", 1, 2), ("b", 1, 2)), d_of(("a", 1, 4), ("b", 1, 4), ("c", 1, 2)),
            d_of(("b", 1, 2), ("c", 1, 2))]
    hull = from_generators(gens)
    assert list(hull.generators) == sorted(gens)
    cases = [
        (d_of(("a", 3, 4), ("b", 1, 4)), False, 0),  # a above its range
        (d_of(("a", 2, 5), ("b", 1, 5), ("c", 2, 5)), False, 0),  # b below its range
        (d_of(("a", 1, 2), ("b", 1, 4), ("c", 1, 4)), False, 0),  # a - b above [-1/2, 0]
        # the centre: the three columns are the crash basis, so no LP either
        (d_of(("a", 1, 4), ("b", 5, 12), ("c", 1, 3)), True, 0),
    ]
    for x, want, lps in cases:
        assert _lp_calls(member, x, hull) == (want, lps), x
        assert in_hull_oracle(x, gens) == want
    # a triangle with an edge on c = 1/4 from a = 1/2 to 3/4: a point on that
    # line short of the edge is inside every coordinate and difference range
    gens = [d_of(("a", 1, 2), ("b", 1, 4), ("c", 1, 4)), d_of(("a", 3, 4), ("c", 1, 4)), point("b")]
    x = d_of(("a", 3, 8), ("b", 3, 8), ("c", 1, 4))
    assert not in_hull_oracle(x, gens)
    assert _lp_calls(member, x, from_generators(gens)) == (False, 1)


def _beyond_vertex(g, c):
    """g + t (g - c), for half the largest t <= 1 that keeps every weight >= 0; None when that is 0.

    Outside the hull when g is one of its vertices and c is another point of it.
    """
    keys = {k for k, _ in g.entries} | {k for k, _ in c.entries}
    steps = [g.weight(k) / (c.weight(k) - g.weight(k)) for k in keys if c.weight(k) > g.weight(k)]
    t = min([Fraction(1)] + steps) / 2
    if not t:
        return None
    return from_pairs((k, g.weight(k) + t * (g.weight(k) - c.weight(k))) for k in keys)


def _at_functional_ends(rng, gens, keys):
    """Points whose value on a coordinate or a difference of two is its generators' least or greatest.

    The centre of the generators at that end, which is in the hull, and a
    generator there moved along a direction that keeps the value, which
    may be outside.
    """
    functionals = [lambda g, k=k: g.weight(k) for k in keys]
    functionals += [lambda g, r=r, s=s: g.weight(r) - g.weight(s) for r, s in itertools.combinations(keys, 2)]
    for f in rng.sample(functionals, min(4, len(functionals))):
        values = [f(g) for g in gens]
        for end in (max(values), min(values)):
            at = [g for g, v in zip(gens, values) if v == end]
            centre = from_pairs((k, w / len(at)) for g in at for k, w in g.entries)
            yield centre, True
            g = rng.choice(at)
            moved = {k: g.weight(k) for k in keys}
            r, s, t = rng.sample(keys, 3)
            step = moved[t] / 4
            moved[t] -= 2 * step
            for k in (r, s):
                moved[k] += step
            if f(from_pairs(moved.items())) == end:
                yield from_pairs(moved.items()), None


def test_member_matches_the_references_at_and_past_every_range():
    # seeded hulls over 3-8 outcomes, queried by mixtures, points past a
    # vertex, points at a functional's least or greatest value, and random
    # points; answers against the oracle (small hulls) or the simplex on all
    # the generators' columns (larger ones)
    rng = random.Random(20)
    seen = {True: 0, False: 0}
    for _ in range(80):
        keys = list("abcdefgh"[: rng.randint(3, 8)])
        gens = [_small_weights(rng, keys) for _ in range(rng.randint(2, 8))]
        hull = from_generators(gens)
        queries = []
        for _ in range(3):
            picked = rng.sample(gens, min(len(gens), rng.randint(2, 3)))
            w = [rng.randint(1, 5) for _ in picked]
            mixture = from_pairs((k, Fraction(wi, sum(w)) * p) for g, wi in zip(picked, w) for k, p in g.entries)
            queries.append((mixture, True))
            vertex = rng.choice(hull.generators)
            beyond = _beyond_vertex(vertex, rng.choice(gens))
            if beyond is not None and vertex != beyond:
                queries.append((beyond, False))
            queries.append((_small_weights(rng, keys + ["z"]), None))
        queries += _at_functional_ends(rng, gens, keys)
        small = len(hull.generators) <= 5 and len(keys) <= 5
        full = HullForm(gens)
        for q, known in queries:
            if small:
                want = in_hull_oracle(q, gens)
            else:
                row = convexgeom._int_coords(q, full.index)
                want = row is not None and convexgeom._simplex_feasible(full.columns, row)
            assert known in (None, want), (q, gens)
            assert member(q, hull) == want, (q, gens)
            assert in_hull(q, gens) == want, (q, gens)
            seen[want] += 1
    assert min(seen.values()) > 200, seen


def test_member_builds_the_ranges_once_per_form(monkeypatch):
    built = []
    original = HullForm.ranges.func

    def ranges(form):
        built.append(form)
        return original(form)

    monkeypatch.setattr(HullForm, "ranges", cached_attr(ranges))
    mid = d_of(("a", 1, 3), ("b", 1, 3), ("c", 1, 3))
    x = from_generators([point("a"), point("b"), point("c"), mid])
    assert built == []  # canonicalize reads the columns only
    queries = [mid, point("d"), d_of(("a", 1, 2), ("b", 1, 4), ("c", 1, 4))]
    assert [member(q, x) for q in queries * 3] == [True, False, True] * 3
    assert built == [x.hull_form]


def test_simplex_feasible_hand_built():
    columns = [[1, 2, 1], [2, 1, 1], [1, 1, 2]]
    # a scaled column: the artificial sum reaches 0 after one pivot
    assert convexgeom._simplex_feasible(columns, [3, 6, 3]) is True
    # rhs 0 in row 0 rules out both columns, so nothing is left to combine
    assert convexgeom._simplex_feasible([[1, 0], [1, 1]], [0, 1]) is False
    # rhs 0 in row 2 leaves only [1, 1, 0], which carries [2, 2, 0]
    assert convexgeom._simplex_feasible([[1, 1, 0], [1, 0, 1]], [2, 2, 0]) is True
    assert convexgeom._simplex_feasible([[1, 1, 0], [1, 0, 1]], [2, 1, 0]) is False
    # a tie in the first ratio test leads to a degenerate pivot, after which
    # the entering column is chosen by Bland's rule
    assert convexgeom._simplex_feasible([[1, 1, 0], [0, 2, 1], [1, 1, 1]], [1, 2, 1]) is True
    assert convexgeom._simplex_feasible([[2, 2, 0], [0, 1, 1], [1, 1, 1]], [1, 1, 2]) is False


@given(probs, dists, dists)
@settings(max_examples=50)
def test_hull_closed_under_mixture(p, d1, d2):
    from convexchoice.dist import conv_dist

    gens = [d1, d2]
    assert in_hull(conv_dist(p, d1, d2), gens)


@settings(max_examples=40, deadline=None)
@given(dists, dists, dists, functions)
def test_affine_image_preserves_hull(d1, d2, d3, table):
    gens = [d1, d2, d3]
    f = table.__getitem__
    lhs = canonicalize([map_dist(f, g) for g in gens])
    rhs = canonicalize([map_dist(f, g) for g in canonicalize(gens)])
    assert lhs == rhs
