import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import bool_dists, d_of, dist_kleislis, dists, functions, nested_dists, outcomes, probs, validate_dist
from convexchoice.convexgeom import HullForm
from convexchoice.dist import (
    Dist,
    _normalized,
    bind_dist,
    cached_attr,
    compare_dist,
    conv_dist,
    from_pairs,
    map_dist,
    mix_dists,
    outcome_key,
    point,
    render_dist,
)
from convexchoice.necset import NECSet, from_generators
from convexchoice.prob import prob_make


def test_point():
    assert point(True).entries == ((True, Fraction(1)),)
    assert point("A").entries == (("A", Fraction(1)),)
    assert len(point(3).outcomes) == 1


def test_bool_and_int_keys_stay_distinct():
    # True == 1 in Python; the tag order must keep them apart
    d = from_pairs([(True, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert len(d.entries) == 2
    assert point(True) != point(1)
    assert outcome_key(True)[0] != outcome_key(1)[0]


def test_invalid_dists_rejected():
    with pytest.raises(ValueError):
        from_pairs([])
    with pytest.raises(ValueError):
        from_pairs([("a", Fraction(1, 2))])  # does not sum to 1
    with pytest.raises(ValueError):
        from_pairs([("a", Fraction(-1, 2)), ("b", Fraction(3, 2))])
    # one entry is valid only with the Fraction 1 as its weight
    for weight in [Fraction(1, 2), Fraction(3, 2), Fraction(-1), 1, True, 1.0]:
        with pytest.raises(ValueError):
            from_pairs([("a", weight)])
    assert from_pairs([("a", Fraction(2, 2))]) == point("a")
    with pytest.raises(TypeError):
        outcome_key(1.5)  # a float is no outcome


def _from_pairs_by_comparison(pairs):
    """`from_pairs` as it was when it read every weight's sign with `<` and `bool`."""
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


class _LoggedFraction(Fraction):
    """A `Fraction` subclass that logs each sign test made on it."""

    log = []

    def __lt__(self, other):
        self.log.append(("<", self, other))
        return super().__lt__(other)

    def __bool__(self):
        self.log.append(("bool", self))
        return super().__bool__()


def _outcome(fn, pairs):
    """`fn(pairs)`, or the type and message it raised, with the sign tests it made on subclass weights."""
    _LoggedFraction.log = []
    try:
        result = fn(pairs)
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, _LoggedFraction.log


def test_from_pairs_matches_reading_signs_by_comparison():
    rng = random.Random(31)
    f, sub = Fraction, _LoggedFraction
    cases = [
        [],
        [("a", f(0))],
        [("a", f(0)), ("b", 0), ("c", 0.0), ("d", False)],
        [("a", f(1, 2))],  # does not sum to 1
        [("a", f(1, 2)), ("b", f(1, 3))],
        [("a", f(3, 2)), ("b", f(-1, 2))],  # a negative weight, not first
        [("a", f(-1, 2)), ("b", -1), ("c", f(3, 2))],  # two negative weights: the first is named
        [("a", -0.5), ("b", f(-1, 2)), ("c", f(2))],
        [("a", 1)],
        [("a", True)],
        [("a", 1.0)],
        [("a", f(1, 2)), ("b", 0.5)],
        [("a", 0.5), ("b", f(-1, 2))],  # a float before a negative Fraction
        [("a", sub(1, 2)), ("b", sub(1, 2))],
        [("a", sub(0)), ("b", sub(1))],
        [("a", sub(-1, 2)), ("b", f(3, 2))],
        [("a", f(1, 4)), ("b", sub(0)), ("a", f(3, 4))],
    ]
    for _ in range(300):
        dens = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        weights = [f(rng.randint(0, 3), d) for d in dens]
        total = sum(weights)
        if total and rng.random() < 0.8:
            weights = [w / total for w in weights]  # sums to 1
        cases.append([(rng.choice("abcd"), w) for w in weights])
    for pairs in cases:
        assert _outcome(from_pairs, pairs) == _outcome(_from_pairs_by_comparison, pairs), pairs
    valid = sum(not isinstance(_outcome(from_pairs, pairs)[0], tuple) for pairs in cases)
    assert 200 < valid < len(cases) - 50, valid


def test_cached_attr_computes_once_per_instance():
    calls = []

    class Box:
        def __init__(self, v):
            self.v = v

        @cached_attr
        def doubled(self):
            calls.append(self)
            return [2 * self.v]

    a, b = Box(1), Box(2)
    assert [a.doubled, a.doubled, b.doubled, b.doubled] == [[2], [2], [4], [4]]
    assert calls == [a, b]
    assert a.doubled is a.doubled and a.doubled is not Box(1).doubled
    assert isinstance(Box.doubled, cached_attr)
    # on the frozen value classes the value is stored on first read
    d = point("a")
    assert "okeys" not in vars(d)
    okeys = d.okeys
    assert vars(d)["okeys"] is okeys and d.okeys is okeys
    x = from_generators([d, point("b")])
    assert "_hash" not in vars(x)
    assert hash(x) == vars(x)["_hash"] == hash(x.generators)
    cached = [Dist.okeys, Dist.entries, Dist._hash, NECSet._hash, NECSet.hull_form, HullForm.columns,
              HullForm.column_set, HullForm.ranges]
    assert all(isinstance(c, cached_attr) for c in cached)


def test_conv_examples():
    mid = conv_dist(prob_make(1, 2), point("a"), point("b"))
    assert mid == d_of(("a", 1, 2), ("b", 1, 2))
    d1, d2 = point("a"), d_of(("a", 1, 2), ("b", 1, 2))
    assert conv_dist(prob_make(0, 1), d1, d2) == d2
    assert conv_dist(prob_make(1, 1), d1, d2) == d1
    # (1/3)*{a:1} + (2/3)*{a:1/2, b:1/2} = {a:2/3, b:1/3}
    assert conv_dist(prob_make(1, 3), d1, d2) == d_of(("a", 2, 3), ("b", 1, 3))


def test_map_examples():
    d = d_of(("a", 1, 2), ("b", 1, 2))
    assert map_dist(lambda k: k, d) == d
    assert map_dist(lambda k: "c", d) == point("c")
    flip = map_dist(lambda b: not b, from_pairs([(True, Fraction(1, 3)), (False, Fraction(2, 3))]))
    assert flip == from_pairs([(True, Fraction(2, 3)), (False, Fraction(1, 3))])


def test_bind_examples():
    k = {"a": point("T"), "b": d_of(("T", 1, 2), ("F", 1, 2))}
    d = d_of(("a", 1, 2), ("b", 1, 2))
    # 1/2*1 + 1/2*1/2 = 3/4 on T
    assert bind_dist(d, k.__getitem__) == d_of(("T", 3, 4), ("F", 1, 4))


def test_compare_examples():
    assert compare_dist(point("a"), point("b")) < 0
    assert compare_dist(point("a"), point("a")) == 0
    # weight 1/3 < 1/2 at the first entry
    left = d_of(("a", 1, 3), ("b", 2, 3))
    right = d_of(("a", 1, 2), ("b", 1, 2))
    assert compare_dist(left, right) < 0
    # a strict prefix is smaller
    assert compare_dist(point("a"), d_of(("a", 1, 1))) == 0


@given(dists, dists, probs)
def test_conv_validates(d1, d2, p):
    validate_dist(conv_dist(p, d1, d2))


@given(dists, functions)
def test_map_validates(d, table):
    validate_dist(map_dist(table.__getitem__, d))


@given(probs, dists, dists, functions)
def test_map_is_affine(p, d1, d2, table):
    f = table.__getitem__
    assert map_dist(f, conv_dist(p, d1, d2)) == conv_dist(p, map_dist(f, d1), map_dist(f, d2))


@given(dists, dist_kleislis)
def test_monad_left_unit_and_assoc(d, k):
    # left unit
    for a in d.outcomes:
        assert bind_dist(point(a), k.__getitem__) == k[a]
    # right unit
    assert bind_dist(d, point) == d


@given(dists, dist_kleislis, dist_kleislis)
def test_monad_associativity(d, k1, k2):
    lhs = bind_dist(bind_dist(d, k1.__getitem__), k2.__getitem__)
    rhs = bind_dist(d, lambda a: bind_dist(k1[a], k2.__getitem__))
    assert lhs == rhs


@given(probs, dists, dists, dist_kleislis)
def test_bind_left_distributes_over_conv(p, d1, d2, k):
    lhs = bind_dist(conv_dist(p, d1, d2), k.__getitem__)
    rhs = conv_dist(p, bind_dist(d1, k.__getitem__), bind_dist(d2, k.__getitem__))
    assert lhs == rhs


@given(outcomes, outcomes, outcomes)
def test_compare_total_order(a, b, c):
    assert compare_dist(a, b) == -compare_dist(b, a)
    assert (compare_dist(a, b) == 0) == (outcome_key(a) == outcome_key(b))
    if type(a) is type(b):  # across kinds Python has True == 1
        assert (compare_dist(a, b) == 0) == (a == b)
    if a == b:
        assert hash(a) == hash(b)
    if compare_dist(a, b) <= 0 and compare_dist(b, c) <= 0:
        assert compare_dist(a, c) <= 0


def test_pinned_sort_of_mixed_outcomes():
    half = d_of(("a", 1, 2), ("b", 1, 2))
    third = d_of(("a", 1, 3), ("b", 2, 3))  # same keys as half, less weight on a
    # Its support is a prefix of half's, but no entry list of a distribution is
    # a strict prefix of another's (both sum to 1): the first weight decides.
    only_a = point("a")
    set_ab = from_generators([point("a"), point("b")])
    set_a = from_generators([point("a")])  # its generators a strict prefix of set_ab's
    over_sets = from_pairs([(set_ab, Fraction(1, 2)), (set_a, Fraction(1, 2))])
    pinned = [True, False, 1, 2, "a", "b", third, half, only_a, over_sets, set_a, set_ab]
    shuffled = [set_ab, 2, half, False, over_sets, "b", third, 1, only_a, set_a, "a", True]
    assert sorted(shuffled, key=outcome_key) == pinned
    assert [k for k, _ in over_sets.entries] == [set_a, set_ab]


def test_render_canonical_order():
    d = from_pairs([(False, Fraction(1, 3)), (True, Fraction(2, 3))])
    assert render_dist(d) == "{true: 2/3, false: 1/3}"
    assert render_dist(d_of(("a", 1, 2), ("b", 1, 2))) == "{a: 1/2, b: 1/2}"


@given(bool_dists, bool_dists)
def test_equal_dists_render_identically(d1, d2):
    if d1 == d2:
        assert render_dist(d1) == render_dist(d2)


def test_nested_keys_are_ordered():
    inner1 = point("a")
    inner2 = d_of(("a", 1, 2), ("b", 1, 2))
    nested = from_pairs([(inner1, Fraction(1, 2)), (inner2, Fraction(1, 2))])
    validate_dist(nested)
    assert len(nested.entries) == 2
    # bools sort before ints, ints before symbols, symbols before dists
    mixed = from_pairs(
        [(True, Fraction(1, 4)), (2, Fraction(1, 4)), ("z", Fraction(1, 4)), (inner1, Fraction(1, 4))]
    )
    assert [outcome_key(k)[0] for k in mixed.outcomes] == [0, 1, 2, 3]


def _assert_merge_is_normalized(family):
    """Two-member `mix_dists` against `_normalized` on the same weighted triples."""
    den = math.lcm(*(d.den for _, d in family))
    triples = [
        (k, x, w * (den // d.den) * n) for w, d in family for k, x, n in zip(d.okeys, d.outcomes, d.nums)
    ]
    merged, sorted_ = mix_dists(family), _normalized(triples)
    assert (merged.nums, merged.den) == (sorted_.nums, sorted_.den)
    # the same outcome objects and key tuples: the first member's on a shared key
    assert len(merged.outcomes) == len(sorted_.outcomes)
    assert all(a is b for a, b in zip(merged.outcomes, sorted_.outcomes))
    assert len(merged.okeys) == len(sorted_.okeys)
    assert all(a is b for a, b in zip(merged.okeys, sorted_.okeys))
    validate_dist(merged)


_INNER = d_of(("a", 1, 2), ("b", 1, 2))
_INNER_COPY = d_of(("a", 1, 2), ("b", 1, 2))  # equal to _INNER, a distinct object
_MIXED = from_pairs([(True, Fraction(1, 2)), (1, Fraction(1, 2))])


@pytest.mark.parametrize("d1, d2", [
    # disjoint supports, one before the other and interleaved
    (d_of(("a", 1, 2), ("b", 1, 2)), d_of(("c", 1, 3), ("d", 2, 3))),
    (d_of(("a", 1, 2), ("c", 1, 2)), d_of(("b", 1, 3), ("d", 2, 3))),
    # one support inside the other, both ways round
    (d_of(("b", 1, 1)), d_of(("a", 1, 4), ("b", 1, 4), ("c", 1, 2))),
    (d_of(("a", 1, 4), ("b", 1, 4), ("c", 1, 2)), d_of(("c", 1, 1))),
    # identical supports, and one distribution with itself
    (d_of(("a", 1, 3), ("b", 2, 3)), d_of(("a", 3, 4), ("b", 1, 4))),
    (_INNER, _INNER),
    # True next to 1
    (_MIXED, from_pairs([(1, Fraction(1, 3)), (True, Fraction(1, 3)), (2, Fraction(1, 3))])),
    (point(1), point(True)),
    # nested outcomes, equal but distinct ones on a shared key
    (from_pairs([(_INNER, Fraction(1, 2)), (point("a"), Fraction(1, 2))]),
     from_pairs([(_INNER_COPY, Fraction(1, 3)), (_MIXED, Fraction(2, 3))])),
    (from_pairs([(from_generators([_INNER]), Fraction(1, 2)), ("z", Fraction(1, 2))]),
     from_pairs([(from_generators([_INNER_COPY]), Fraction(1, 4)),
                 (from_generators([point("a"), point("b")]), Fraction(3, 4))])),
])
@pytest.mark.parametrize("w1, w2", [(1, 1), (2, 3), (5, 1)])
def test_two_member_mix_merges_as_normalized_does(d1, d2, w1, w2):
    _assert_merge_is_normalized([(w1, d1), (w2, d2)])


@given(nested_dists, nested_dists, st.integers(1, 6), st.integers(1, 6))
def test_two_member_mix_merges_as_normalized_does_on_any_outcomes(d1, d2, w1, w2):
    _assert_merge_is_normalized([(w1, d1), (w2, d2)])


def _normalized_reference(triples):
    """`_normalized` as a dict of keys, then the sorted keys: each key's first outcome and the sum."""
    acc: dict = {}
    for k, x, n in triples:
        if k in acc:
            acc[k][1] += n
        else:
            acc[k] = [x, n]
    okeys = sorted(acc)
    merged = [acc[k] for k in okeys]
    nums = [n for _, n in merged]
    return tuple(okeys), tuple(x for x, _ in merged), nums, sum(nums)


def _assert_normalized_as_reference(triples):
    got = _normalized(iter(triples))
    okeys, outcomes, nums, den = _normalized_reference(triples)
    g = math.gcd(den, *nums)
    assert (got.nums, got.den) == (tuple(n // g for n in nums), den // g)
    # the first outcome and key tuple given for each key, by identity
    assert len(got.outcomes) == len(outcomes) and len(got.okeys) == len(okeys)
    assert all(a is b for a, b in zip(got.outcomes, outcomes))
    assert all(a is b for a, b in zip(got.okeys, okeys))
    validate_dist(got)


def _triples(*pairs):
    return [(outcome_key(x), x, n) for x, n in pairs]


_SET = from_generators([_INNER, point("b")])
_SET_COPY = from_generators([point("b"), _INNER_COPY])  # equal to _SET, a distinct object


@pytest.mark.parametrize("triples", [
    _triples((3, 1)),
    # duplicates, adjacent and apart, and a key given three times
    _triples(("b", 1), ("a", 2), ("b", 3), ("c", 1), ("a", 1), ("b", 2)),
    # True next to 1, and False next to 0, in both orders
    _triples((1, 1), (True, 2), (0, 3), (False, 1), (True, 1), (1, 2)),
    # equal but distinct nested outcomes: the first one given is kept
    _triples((_INNER_COPY, 1), ("z", 2), (_INNER, 3), (point("a"), 1), (_INNER, 1)),
    _triples((_SET, 2), (_SET_COPY, 1), (_INNER, 1), (_SET_COPY, 4), (_INNER_COPY, 1)),
    _triples((_SET_COPY, 1), (_SET, 1), (True, 1), (_INNER_COPY, 1), (_INNER, 1), (1, 5)),
    # a common factor in the weights
    _triples(("a", 2), ("b", 4), ("a", 6)),
])
def test_normalized_keeps_the_first_outcome_of_each_key(triples):
    _assert_normalized_as_reference(triples)


def _copy(x):
    if type(x) is Dist:
        return Dist(x.outcomes, x.nums, x.den)
    return NECSet(x.generators) if type(x) is NECSet else x


@given(st.lists(st.tuples(outcomes, st.integers(1, 6)), min_size=1, max_size=8), st.randoms())
def test_normalized_matches_the_dict_reference_on_any_outcomes(pairs, rnd):
    # each nested outcome again as an equal but distinct copy
    mixed = pairs + [(_copy(x), n) for x, n in pairs]
    rnd.shuffle(mixed)
    _assert_normalized_as_reference(_triples(*mixed))
