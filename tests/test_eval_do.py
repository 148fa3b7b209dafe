"""`do` sequences evaluate their rest once per distinct value of what it reads.

The reference evaluator below is the plain definition: nested `bind_gcm`
calls whose continuations recurse, with no memo, so the rest of a sequence
is evaluated once per entry of every generator.  `eval_expr` must give the
same value, or raise the same first error, on every program.
"""

import random

import pytest

from convexchoice import programs
from convexchoice.gcm import alt_gcm, bind_gcm, choice_gcm, ret_gcm
from convexchoice.programs import (
    Alt,
    Arbitrary,
    Bind,
    Choice,
    Ret,
    SourceError,
    Uniform,
    arbitrary,
    eval_expr,
    eval_value,
    free_vars,
    parse,
    render,
    render_expr,
    run,
    uniform,
)
from test_programs import _VARS, _gen_expr


def _reference(e, env):
    if isinstance(e, Ret):
        return ret_gcm(eval_value(e.value, env))
    if isinstance(e, Choice):
        return choice_gcm(e.prob, _reference(e.left, env), _reference(e.right, env))
    if isinstance(e, Alt):
        return alt_gcm(_reference(e.left, env), _reference(e.right, env))
    if isinstance(e, Bind):
        return bind_gcm(_reference(e.bound, env), lambda a: _reference(e.body, {**env, e.var: a}))
    values = [eval_value(v, env) for v in e.items]
    default = eval_value(e.default, env)
    if isinstance(e, Uniform):
        return uniform(default, values)
    assert isinstance(e, Arbitrary)
    return arbitrary(default, values)


def _gen_sequence(rng):
    """A `do` sequence of two to four binders over random expressions."""
    heads, bound = [], frozenset()
    for _ in range(rng.randint(2, 4)):
        var = rng.choice(_VARS)
        heads.append((var, _gen_expr(rng, bound, rng.randint(1, 2))))
        bound |= {var}
    e = _gen_expr(rng, bound, rng.randint(0, 2))
    for var, b in reversed(heads):
        e = Bind(var, b, e)
    return e


def _outcome(evaluate, ast):
    try:
        return ("ok", evaluate(ast))
    except SourceError as exc:
        return ("error", exc.kind, exc.line, exc.column, exc.message)


def _count_memo_hits(monkeypatch):
    """Lists of the levels built and of the values they stored; a value of
    the rest that a level took from its memo is one it holds but never stored."""
    levels, stored = [], []

    class Counting(programs._Level):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            levels.append(self)

        def add(self, value):
            stored.append(value)
            super().add(value)

    monkeypatch.setattr(programs, "_Level", Counting)
    return levels, stored


def test_eval_agrees_with_the_reference_evaluator(monkeypatch):
    levels, stored = _count_memo_hits(monkeypatch)
    rng = random.Random(1010)
    kinds, with_hits = [], 0
    for i in range(600):
        e = _gen_sequence(rng) if i % 2 else _gen_expr(rng, frozenset(), rng.randint(1, 4))
        # through the printer and parser, so errors carry positions
        ast = parse(render_expr(e))
        levels.clear()
        stored.clear()
        got = _outcome(lambda e: eval_expr(e, {}), ast)
        with_hits += sum(len(level.results) for level in levels) > len(stored)
        want = _outcome(lambda e: _reference(e, {}), ast)
        assert got == want, render_expr(ast)
        kinds.append(got[0])
    assert kinds.count("ok") > 300 and kinds.count("error") > 100
    assert with_hits > 80  # the memo answered in many of them


@pytest.mark.parametrize(
    "source, want",
    [
        # an unused binder
        ("do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [3, 4, 5]; ret x", "{1: 1}\n{2: 1}"),
        # shadowing, with one value per binder and with several
        ("do x <- ret 1; do x <- ret true; ret x", "{true: 1}"),
        ("do x <- arbitrary 0 [1, 2]; do x <- uniform 0 [3, 4]; ret x", "{3: 1/2, 4: 1/2}"),
        # true and 1 are different values, so the rest is evaluated for each
        ("do x <- arbitrary 0 [1, true]; do y <- uniform 0 [0, 1]; ret x", "{true: 1}\n{1: 1}"),
        # an outer variable read inside a nested do, and one a nested do shadows
        (
            "do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [0, 1]; "
            "(do z <- ret x; ret z) <|1/2|> ret 0",
            "{0: 1/2, 1: 1/2}\n{0: 1/2, 2: 1/2}",
        ),
        (
            "do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [0, 1]; "
            "(do x <- ret 0; ret x) [~] ret x",
            "{0: 1}\n{1: 1}\n{2: 1}",
        ),
        # a binder's own bound expression reads the outer variable of its name,
        # on the sequence and in a nested do
        (
            "do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [0, 1]; do x <- ret (x == 1); ret x",
            "{true: 1}\n{false: 1}",
        ),
        (
            "do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [0, 1]; "
            "(do x <- ret (x == 1); ret x) [~] ret 0",
            "{true: 1}\n{false: 1}\n{0: 1}",
        ),
    ],
)
def test_do_sequence_hand_cases(source, want):
    ast = parse(source)
    assert render(eval_expr(ast)) == want
    assert eval_expr(ast) == _reference(ast, {})


def test_do_sequence_first_error_is_unchanged():
    source = "do y <- uniform 0 [1, 2]; do z <- arbitrary 0 [1, 2]; ret (y == true)"
    with pytest.raises(SourceError) as exc:
        run(source)
    assert str(exc.value) == "line 1, col 59: type: cannot compare 1 and true"


def test_k8_program_builds_one_ret_per_pair_it_reads(monkeypatch):
    calls = []
    monkeypatch.setattr(programs, "ret_gcm", lambda a: calls.append(a) or ret_gcm(a))
    values = ", ".join(str(i) for i in range(8))
    ast = parse(
        f"do x <- arbitrary 0 [{values}]; do y <- uniform 0 [{values}]; "
        f"do z <- arbitrary 0 [{values}]; ret (x == z)"
    )
    got = eval_expr(ast)
    assert len(calls) == 64  # 8 * 8 pairs (x, z), not 512 triples
    assert got == _reference(ast, {})


def test_rest_reads_is_worked_out_once_and_only_when_needed(monkeypatch):
    walked = []
    monkeypatch.setattr(programs, "free_vars", lambda e: walked.append(e) or free_vars(e))
    single = parse("do x <- ret 1; do y <- ret x; ret (x == y)")
    assert render(eval_expr(single)) == "{true: 1}"
    assert walked == [] and "rest_reads" not in vars(single)
    several = parse("do x <- ret 1; do y <- arbitrary 0 [1, 2]; do z <- ret x; ret z")
    assert render(eval_expr(several)) == "{1: 1}"
    assert len(walked) == 4  # the body and each bound expression, once
    assert render(eval_expr(several)) == "{1: 1}"
    assert len(walked) == 4
    # the rest after x reads x, which is every binder so far, so it keeps no
    # memo; the rest after y reads x through z's bound; the last reads z
    assert several.rest_reads == (None, (0,), (2,))


def test_free_vars():
    cases = {
        "ret 1": set(),
        "ret (x == y)": {"x", "y"},
        "do x <- ret x; ret (x == y)": {"x", "y"},
        "(do x <- ret 0; ret x) [~] ret x": {"x"},
        "uniform a [b, (c == d)] <|1/2|> arbitrary e []": {"a", "b", "c", "d", "e"},
    }
    for source, want in cases.items():
        assert free_vars(programs._Parser(programs._tokenize(source)).parse_expr()) == want
