"""`do` sequences are settled by the monad laws where one applies.

A binder whose bound value is `ret a` binds `a` in place, one that the parser
marks unread binds nothing, and any other evaluates the rest of the sequence
once per distinct bound value.  The reference evaluator below is the plain
definition: nested `bind_gcm` calls whose continuations recurse, so the rest
of a sequence is evaluated once per entry of every generator.  `eval_expr`
must give the same value, or raise the same first error, on every program.
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
    Eq,
    Lit,
    Ret,
    SourceError,
    Uniform,
    Var,
    arbitrary,
    eval_expr,
    eval_value,
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


def test_eval_agrees_with_the_reference_evaluator():
    rng = random.Random(1010)
    kinds = []
    for i in range(600):
        e = _gen_sequence(rng) if i % 2 else _gen_expr(rng, frozenset(), rng.randint(1, 4))
        # through the printer and parser, so errors carry positions
        ast = parse(render_expr(e))
        got = _outcome(lambda e: eval_expr(e, {}), ast)
        want = _outcome(lambda e: _reference(e, {}), ast)
        assert got == want, render_expr(ast)
        kinds.append(got[0])
    assert kinds.count("ok") > 300 and kinds.count("error") > 100


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


def test_hand_built_bind_is_read_by_default():
    y = Bind("y", Uniform(Lit(0), (Lit(3), Lit(4))), Ret(Var("x")))
    e = Bind("x", Arbitrary(Lit(0), (Lit(1), Lit(2))), y)
    assert e.used and y.used
    assert render(eval_expr(e)) == "{1: 1}\n{2: 1}"
    assert eval_expr(e) == _reference(e, {})


def test_unread_binder_still_raises_the_errors_of_its_bound():
    with pytest.raises(SourceError) as exc:
        run("do y <- ret (1 == true); ret 0")
    assert str(exc.value) == "line 1, col 13: type: cannot compare 1 and true"


def _free_vars(e):
    """The variables `e` reads that no binder inside it binds; a binder's
    variable is in scope in its body, not in its bound expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Bind):
        return _free_vars(e.bound) | (_free_vars(e.body) - {e.var})
    if isinstance(e, Ret):
        return _free_vars(e.value)
    if isinstance(e, (Choice, Alt, Eq)):
        return _free_vars(e.left) | _free_vars(e.right)
    return set().union(_free_vars(e.default), *map(_free_vars, e.items))


def _binders(e):
    if isinstance(e, Bind):
        yield e
        yield from _binders(e.bound)
        yield from _binders(e.body)
    elif isinstance(e, (Choice, Alt)):
        yield from _binders(e.left)
        yield from _binders(e.right)


def test_parser_marks_a_binder_read_exactly_when_its_body_reads_its_variable():
    hand = {
        # shadowing: the inner x is read, the outer one is not
        "do x <- ret 1; do x <- ret true; ret x": [False, True],
        # a bound that reads the outer variable of its own name
        "do x <- ret 1; do x <- ret (x == 1); ret 0": [True, False],
        # a nested do, read through and shadowed inside an operand
        "do x <- ret 1; (do x <- ret 0; ret x) [~] ret 2": [False, True],
        "do x <- ret 1; do y <- ret 2; (do z <- ret x; ret z) <|1/2|> ret 0": [True, False, True],
        # value lists and ==
        "do a <- ret 1; do b <- ret 2; uniform a [0, (b == 2)]": [True, True],
        "do a <- ret 1; do b <- ret 2; arbitrary 0 [(1 == a)]": [True, False],
    }
    for source, want in hand.items():
        binders = list(_binders(parse(source)))
        assert [b.used for b in binders] == want, source
        assert [b.used for b in binders] == [b.var in _free_vars(b.body) for b in binders]
    rng = random.Random(1212)
    read = unread = 0
    for i in range(400):
        e = _gen_sequence(rng) if i % 2 else _gen_expr(rng, frozenset(), rng.randint(1, 4))
        for b in _binders(parse(render_expr(e))):
            assert b.used == (b.var in _free_vars(b.body)), render_expr(b)
            read += b.used
            unread += not b.used
    assert read > 200 and unread > 200
