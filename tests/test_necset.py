import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings

from conftest import d_of, dists, necsets, probs, small_necsets, validate_necset
from convexchoice import necset
from convexchoice.convexgeom import HullForm, convn
from convexchoice.dist import conv_dist, from_pairs, point
from convexchoice.gcm import bind_gcm, bind_gcm_direct
from convexchoice.laws import GenConfig, gen_dist, gen_gcm, gen_kleisli
from convexchoice.necset import (
    NECSET_INSTANCE,
    NECSet,
    alt_necset,
    conv_necset,
    from_generators,
    lub_necset,
    member,
    singleton_necset,
)
from convexchoice.prob import complement, prob_make


MID = from_pairs([(True, Fraction(1, 2)), (False, Fraction(1, 2))])


def test_singleton():
    s = singleton_necset(point("a"))
    assert s.generators == (point("a"),)
    assert member(point("a"), s)


def test_from_generators_examples():
    got = from_generators([point(True), MID, point(False)])
    assert got.generators == tuple(sorted([point(True), point(False)]))
    d = d_of(("a", 1, 3), ("b", 2, 3))
    assert from_generators([d]).generators == (d,)
    with pytest.raises(ValueError):
        from_generators([])


def test_raw_constructor_enforces_sorting():
    lo, hi = sorted([point(True), point(False)])
    with pytest.raises(ValueError):
        NECSet((hi, lo))
    with pytest.raises(ValueError):
        NECSet(())
    # a repeated generator, also as an equal value built anew
    with pytest.raises(ValueError):
        NECSet((lo, lo))
    with pytest.raises(ValueError):
        NECSet((MID, d_of((True, 1, 2), (False, 1, 2))))


def test_member_examples():
    x = from_generators([point("a"), point("b")])
    assert member(d_of(("a", 1, 2), ("b", 1, 2)), x)
    assert not member(point("c"), x)


def test_member_builds_the_form_once_and_only_when_queried(monkeypatch):
    built = []

    class CountedForm(HullForm):
        def __init__(self, generators):
            built.append(generators)
            super().__init__(generators)

    monkeypatch.setattr(necset, "HullForm", CountedForm)
    mid = d_of(("a", 1, 3), ("b", 1, 3), ("c", 1, 3))
    x = from_generators([point("a"), point("b"), point("c"), mid])
    assert built == []
    queries = [mid, point("a"), point("d"), d_of(("a", 1, 2), ("d", 1, 2))]
    assert [member(q, x) for q in queries * 3] == [True, True, False, False] * 3
    assert built == [x.generators]
    # the kept form is not part of the value
    twin = from_generators([point("c"), point("b"), point("a")])
    assert x == twin and hash(x) == hash(twin) and not x < twin and not twin < x


def test_alt_examples():
    t, f = singleton_necset(point(True)), singleton_necset(point(False))
    both = alt_necset(t, f)
    assert both.generators == tuple(sorted([point(True), point(False)]))
    x = from_generators([MID])
    assert alt_necset(x, x) == x


def test_lub_examples():
    a, b, c = (singleton_necset(point(s)) for s in "abc")
    assert lub_necset([a]) == a
    assert lub_necset([a, b, c]).generators == (point("a"), point("b"), point("c"))
    with pytest.raises(ValueError):
        lub_necset([])


def test_lub_of_one_set_is_that_set():
    rng, cfg = random.Random(1414), GenConfig()
    for _ in range(200):
        x = gen_gcm(rng, cfg, max_generators=rng.randint(1, 6))
        assert lub_necset([x]) is x
        assert lub_necset([x]) == from_generators(x.generators)


def test_bind_over_one_generator_values_matches_the_direct_formula():
    # join/bind over a one-generator value is a `lub_necset` of one set
    rng, cfg = random.Random(1515), GenConfig()
    for _ in range(100):
        m = singleton_necset(gen_dist(rng, cfg))
        k = gen_kleisli(rng, cfg, max_generators=3)
        assert bind_gcm(m, k.__getitem__) == bind_gcm_direct(m, k.__getitem__), (m, k)


def test_conv_examples():
    t, f = singleton_necset(point(True)), singleton_necset(point(False))
    x = from_generators([point("a"), point("b")])
    y = from_generators([point("c")])
    assert conv_necset(prob_make(1, 1), x, y) == x
    assert conv_necset(prob_make(0, 1), x, y) == y
    third = conv_necset(prob_make(1, 3), t, f)
    assert third.generators == (from_pairs([(True, Fraction(1, 3)), (False, Fraction(2, 3))]),)


@given(necsets)
def test_canonical_form_validates(x):
    validate_necset(x)


@given(probs, necsets, necsets)
@settings(max_examples=50, deadline=None)
def test_convex_axioms_identity_commutativity(p, x, y):
    assert conv_necset(prob_make(1, 1), x, y) == x
    assert conv_necset(p, x, x) == x
    assert conv_necset(p, x, y) == conv_necset(complement(p), y, x)


@given(necsets, necsets, necsets)
@settings(max_examples=30, deadline=None)
def test_semilattice_axioms(x, y, z):
    assert lub_necset([x]) == x
    families = [[x, y], [z]]
    flat = lub_necset([x, y, z])
    assert flat == lub_necset([lub_necset(f) for f in families])
    assert flat == reduce(alt_necset, [x, y, z])
    assert alt_necset(x, y) == alt_necset(y, x)


@given(probs, small_necsets, small_necsets, small_necsets)
@settings(max_examples=30, deadline=None)
def test_conv_distributes_over_lub(p, x, y, z):
    family = [y, z]
    lhs = conv_necset(p, x, lub_necset(family))
    rhs = lub_necset([conv_necset(p, x, w) for w in family])
    assert lhs == rhs


@given(small_necsets, small_necsets, probs)
@settings(max_examples=30, deadline=None)
def test_lub_absorbs_mixtures(x, y, p):
    family = [x, y]
    weights = from_pairs([(0, p.value), (1, 1 - p.value)])
    mixed = convn(weights, family, NECSET_INSTANCE)
    assert lub_necset(family + [mixed]) == lub_necset(family)


@given(necsets, necsets)
@settings(max_examples=40, deadline=None)
def test_structural_equality_is_extensional(x, y):
    mutual = all(member(g, y) for g in x.generators) and all(
        member(h, x) for h in y.generators
    )
    assert (x == y) == mutual


@given(probs, probs, dists, dists)
@settings(max_examples=40, deadline=None)
def test_members_closed_under_mixture(p, q, d1, d2):
    x = from_generators([d1, d2])
    u = conv_dist(q, d1, d2)
    assert member(u, x)
    assert member(conv_dist(p, u, d1), x)
