from fractions import Fraction

import pytest
from hypothesis import given

from conftest import probs
from convexchoice.prob import (
    Prob,
    ProbError,
    complement,
    prob_make,
    r_of,
    render_rational,
    s_of,
)


def test_prob_make_basic():
    assert prob_make(1, 2).value == Fraction(1, 2)
    # canonical form
    assert prob_make(2, 4) == prob_make(1, 2)
    assert prob_make(2, 4).value.denominator == 2


def test_prob_make_errors():
    with pytest.raises(ProbError):
        prob_make(3, 2)
    with pytest.raises(ProbError):
        prob_make(-1, 3)
    with pytest.raises(ProbError):
        prob_make(1, 0)


def test_prob_takes_exact_rationals_only():
    assert Prob(1) == Prob(Fraction(1)) == prob_make(1, 1)
    assert hash(Prob(1)) == hash(Prob(Fraction(1))) and type(Prob(1).value) is Fraction
    assert Prob(Fraction(1, 3)) != Fraction(1, 3) and Prob(1) != 1
    assert repr(Prob(Fraction(1, 3))) == "Prob(value=Fraction(1, 3))"
    for value in (0.1, "1/3", True, None, 1.0):
        with pytest.raises(ProbError):
            Prob(value)


def test_complement_examples():
    assert complement(prob_make(0, 1)) == prob_make(1, 1)
    assert complement(prob_make(1, 3)) == prob_make(2, 3)


@given(probs)
def test_complement_involution(p):
    assert complement(complement(p)) == p


def test_s_of_examples():
    # 1 - (1/2)(1/2) = 3/4
    assert s_of(prob_make(1, 2), prob_make(1, 2)) == prob_make(3, 4)
    assert s_of(prob_make(0, 1), prob_make(0, 1)) == prob_make(0, 1)


@given(probs)
def test_s_of_one_left(q):
    assert s_of(prob_make(1, 1), q) == prob_make(1, 1)


def test_r_of_examples():
    # (1/2) / (3/4) = 2/3
    assert r_of(prob_make(1, 2), prob_make(1, 2)) == prob_make(2, 3)
    # convention at s = 0
    assert r_of(prob_make(0, 1), prob_make(0, 1)) == prob_make(0, 1)


@given(probs)
def test_r_of_one_left(q):
    assert r_of(prob_make(1, 1), q) == prob_make(1, 1)


@given(probs, probs)
def test_s_of_formula(p, q):
    assert s_of(p, q).value == 1 - (1 - p.value) * (1 - q.value)


@given(probs, probs)
def test_quasi_associativity_side_conditions(p, q):
    s = s_of(p, q)
    assert complement(s).value == complement(p).value * complement(q).value
    if s.value != 0:
        assert r_of(p, q).value * s.value == p.value


@given(probs)
def test_prob_make_idempotent(p):
    again = prob_make(p.value.numerator, p.value.denominator)
    assert again == p


def test_render_rational():
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(3)) == "3"
    assert render_rational(Fraction(0)) == "0"
    # past the interpreter's int-to-str digit limit, in chunks that each convert
    assert render_rational(Fraction(1, 10**8000)) == "1/1" + "0" * 8000
    big = int("987654321" * 300) * (10**2700 + 1)  # its 2700 digits, twice
    assert render_rational(Fraction(-big, 32)) == "-" + "987654321" * 600 + "/32"


@given(probs)
def test_render_parse_round_trip(p):
    assert Prob(Fraction(str(p))) == p
