"""Shared hypothesis strategies for small exact instances."""

from fractions import Fraction

import hypothesis.strategies as st

from convexchoice.dist import from_pairs
from convexchoice.necset import from_generators
from convexchoice.prob import Prob

SYMBOLS = ("a", "b", "c", "d")


def _normalize(pairs):
    total = sum(w for _, w in pairs)
    return from_pairs((k, Fraction(w, total)) for k, w in pairs)


probs = st.fractions(min_value=0, max_value=1, max_denominator=12).map(Prob)

dists = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), st.integers(1, 6)),
    min_size=1,
    max_size=4,
).map(_normalize)

bool_dists = st.lists(
    st.tuples(st.booleans(), st.integers(1, 6)),
    min_size=1,
    max_size=2,
).map(_normalize)

necsets = st.lists(dists, min_size=1, max_size=3).map(from_generators)

small_necsets = st.lists(dists, min_size=1, max_size=2).map(from_generators)

functions = st.fixed_dictionaries({k: st.sampled_from(SYMBOLS) for k in SYMBOLS})

kleislis = st.fixed_dictionaries({k: small_necsets for k in SYMBOLS})

dist_kleislis = st.fixed_dictionaries({k: dists for k in SYMBOLS})


def _dists_over(keys):
    return st.lists(st.tuples(keys, st.integers(1, 6)), min_size=1, max_size=3).map(_normalize)


# Every kind of outcome, nested: bools, ints (so `True` meets `1`), symbols,
# and distributions and convex sets over any of them.
outcomes = st.recursive(
    st.one_of(st.booleans(), st.integers(-1, 2), st.sampled_from(SYMBOLS)),
    lambda inner: st.one_of(
        _dists_over(inner),
        st.lists(_dists_over(inner), min_size=1, max_size=3).map(from_generators),
    ),
    max_leaves=6,
)
