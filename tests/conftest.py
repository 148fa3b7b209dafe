"""Shared hypothesis strategies for small exact instances, the canonical-form checks, and a time budget."""

import contextlib
import math
import signal
from fractions import Fraction

import hypothesis.strategies as st
import pytest

from convexchoice.convexgeom import canonicalize
from convexchoice.dist import from_pairs, outcome_key
from convexchoice.necset import from_generators
from convexchoice.prob import Prob

SYMBOLS = ("a", "b", "c", "d")


def d_of(*pairs):
    """The distribution with weight n/m on outcome k, for each `(k, n, m)` of `pairs`."""
    return from_pairs((k, Fraction(n, m)) for k, n, m in pairs)


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

nested_dists = _dists_over(outcomes)


@contextlib.contextmanager
def time_budget(seconds, what):
    """Fail the test once `seconds` of wall time pass inside the block.

    Code that went exponential, or looped forever, would otherwise keep the
    test running until the whole job is stopped from outside.  The alarm
    repeats every second after that, because one raised inside a
    garbage-collector callback is reported and dropped.
    """

    def out_of_time(signum, frame):
        pytest.fail(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def validate_dist(d):
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


def validate_necset(x):
    """Re-check canonical-form invariants, including irredundancy.

    Irredundancy is checked here only: the constructor would pay an LP per
    generator for it, and `from_generators`, `conv_necset` and
    `singleton_necset` build sets that have it by construction.
    """
    x._check()
    if list(x.generators) != canonicalize(list(x.generators)):
        raise ValueError("generators not in extreme-point normal form")
