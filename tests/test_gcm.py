import random
from fractions import Fraction

from hypothesis import given, settings

from conftest import d_of, functions, kleislis, necsets, probs, small_necsets
from convexchoice.dist import from_pairs, map_dist, point
from convexchoice.gcm import (
    alt_gcm,
    bind_gcm,
    bind_gcm_direct,
    choice_gcm,
    join_gcm,
    map_gcm,
    ret_gcm,
)
from convexchoice.laws import GenConfig, _gen_nested, carrier_of, gen_gcm, gen_kleisli
from convexchoice.necset import alt_necset, conv_necset, from_generators, singleton_necset
from convexchoice.prob import prob_make


MID = from_pairs([(True, Fraction(1, 2)), (False, Fraction(1, 2))])


def test_ret():
    v = ret_gcm(True)
    assert v == singleton_necset(point(True))
    assert len(v.generators) == 1
    assert len(v.generators[0].entries) == 1


def test_map_examples():
    m = from_generators([point(True)])
    assert map_gcm(lambda b: not b, m) == from_generators([point(False)])


@given(necsets, functions, functions)
@settings(max_examples=50, deadline=None)
def test_functor_laws(m, t1, t2):
    assert map_gcm(lambda a: a, m) == m
    f, g = t1.__getitem__, t2.__getitem__
    assert map_gcm(f, map_gcm(g, m)) == map_gcm(lambda a: f(g(a)), m)


def test_join_barycenter_example():
    x = singleton_necset(point(True))
    y = singleton_necset(point(False))
    dd = from_pairs([(x, Fraction(1, 2)), (y, Fraction(1, 2))])
    assert join_gcm(singleton_necset(dd)) == from_generators([MID])


@given(necsets)
@settings(max_examples=50, deadline=None)
def test_join_unit_laws(m):
    assert join_gcm(ret_gcm(m)) == m
    assert join_gcm(map_gcm(ret_gcm, m)) == m


def test_bind_product_example():
    # one generator {a:1/2, b:1/2}; k(a) has two generators, k(b) one
    m = from_generators([d_of(("a", 1, 2), ("b", 1, 2))])
    k = {
        "a": from_generators([point(True), point(False)]),
        "b": singleton_necset(point(False)),
        "c": ret_gcm("c"),
        "d": ret_gcm("d"),
    }
    got = bind_gcm(m, k.__getitem__)
    expected = from_generators([MID, point(False)])
    assert got == expected
    assert bind_gcm_direct(m, k.__getitem__) == expected


def test_choice_alt_examples():
    t, f = ret_gcm(True), ret_gcm(False)
    third = choice_gcm(prob_make(1, 3), t, f)
    assert third.generators == (from_pairs([(True, Fraction(1, 3)), (False, Fraction(2, 3))]),)
    assert alt_gcm(t, f) == from_generators([point(True), point(False)])
    # the two choices are the set-level operators themselves, with no wrapper
    assert choice_gcm is conv_necset and alt_gcm is alt_necset


@given(kleislis)
def test_monad_left_unit(k):
    for a in "abcd":
        assert bind_gcm(ret_gcm(a), k.__getitem__) == k[a]


def test_affine_and_left_unit_laws_on_flat_and_nested_carriers():
    # The laws `do` evaluation settles binders by: a value is a non-empty set
    # of total distributions, so the monad is affine and m >> n = n; and
    # bind (ret a) k = k a.  A test rather than a registered law, so the law
    # set that `check-laws` reports stays as it is.
    rng, cfg = random.Random(1313), GenConfig()
    for _ in range(30):
        for gen in (gen_gcm, _gen_nested):
            m, n = gen(rng, cfg), gen(rng, cfg)
            assert bind_gcm(m, lambda _: n) == n
        k = gen_kleisli(rng, cfg)
        a = rng.choice(carrier_of(cfg))
        assert bind_gcm(ret_gcm(a), k.__getitem__) == k[a]
        v = _gen_nested(rng, cfg)  # a value over values, so the identity is a Kleisli map
        assert bind_gcm(ret_gcm(v), lambda x: x) == v


@given(necsets)
@settings(max_examples=50, deadline=None)
def test_monad_right_unit(m):
    assert bind_gcm(m, ret_gcm) == m


@given(small_necsets, kleislis, kleislis)
@settings(max_examples=25, deadline=None)
def test_monad_associativity(m, k1, k2):
    lhs = bind_gcm(bind_gcm(m, k1.__getitem__), k2.__getitem__)
    rhs = bind_gcm(m, lambda a: bind_gcm(k1[a], k2.__getitem__))
    assert lhs == rhs


@given(small_necsets, kleislis)
@settings(max_examples=25, deadline=None)
def test_bind_two_paths_agree(m, k):
    assert bind_gcm(m, k.__getitem__) == bind_gcm_direct(m, k.__getitem__)


@given(probs, small_necsets, small_necsets, kleislis)
@settings(max_examples=25, deadline=None)
def test_bind_left_distributes_over_choice(p, m1, m2, k):
    lhs = bind_gcm(choice_gcm(p, m1, m2), k.__getitem__)
    rhs = choice_gcm(p, bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__))
    assert lhs == rhs


@given(small_necsets, small_necsets, kleislis)
@settings(max_examples=25, deadline=None)
def test_bind_left_distributes_over_alt(m1, m2, k):
    lhs = bind_gcm(alt_gcm(m1, m2), k.__getitem__)
    rhs = alt_gcm(bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__))
    assert lhs == rhs


@given(probs, small_necsets, small_necsets, small_necsets)
@settings(max_examples=30, deadline=None)
def test_choice_distributes_over_alt(p, x, y, z):
    lhs = choice_gcm(p, x, alt_gcm(y, z))
    rhs = alt_gcm(choice_gcm(p, x, y), choice_gcm(p, x, z))
    assert lhs == rhs


@given(probs, probs)
def test_nontriviality(p, q):
    if p != q:
        lhs = choice_gcm(p, ret_gcm(True), ret_gcm(False))
        rhs = choice_gcm(q, ret_gcm(True), ret_gcm(False))
        assert lhs != rhs


def test_coinarb_is_arb():
    from convexchoice.programs import arb, coinarb

    for num, den in [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]:
        assert coinarb(prob_make(num, den)) == arb()


@given(small_necsets, small_necsets, functions)
@settings(max_examples=25, deadline=None)
def test_join_naturality(x, y, table):
    f = table.__getitem__
    mm = from_generators(
        [
            from_pairs([(x, Fraction(1, 2)), (y, Fraction(1, 2))]),
            map_dist(lambda d: x, point(y)),
        ]
    )
    lhs = map_gcm(f, join_gcm(mm))
    rhs = join_gcm(map_gcm(lambda inner: map_gcm(f, inner), mm))
    assert lhs == rhs
