"""`do` sequences are settled by the monad laws where one applies.

A binder whose bound value is `ret a` binds `a` in place, one whose variable
the rest does not read (it is not in `Bind.live`) binds nothing, and after any
other the rest of the sequence is evaluated once per distinct tuple of values
of the variables it reads.  A bound that reads no variable (`Bind.closed`) is
evaluated once per evaluation.  The reference evaluator below is the plain
definition: nested `bind_gcm` calls whose continuations recurse, so the rest
of a sequence is evaluated once per entry of every generator.  `eval_expr`
must give the same value, or raise the same first error, on every program.
"""

import io
import random
import time

import pytest

from conftest import time_budget
from convexchoice import programs
from convexchoice.cli import cli_main
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
    # in source order: the default, then the items
    default = eval_value(e.default, env)
    values = [eval_value(v, env) for v in e.items]
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
        # a parenthesized body shares the outer sequence's memo, and its bound
        # `ret x` reads no binder of its own sequence but does read x, so it is
        # evaluated once per x, not once for the whole
        (
            "do x <- arbitrary 0 [1, 2]; (do y <- ret 0; do z <- ret x; ret (z == 2))",
            "{true: 1}\n{false: 1}",
        ),
        # a parenthesized body whose rest reads the outer variable as well as
        # its own: 2 x 2 generators
        (
            "do x <- arbitrary 0 [1, 2]; (do y <- arbitrary 0 [3, 4]; uniform 0 [x, y])",
            "{1: 1/2, 3: 1/2}\n{1: 1/2, 4: 1/2}\n{2: 1/2, 3: 1/2}\n{2: 1/2, 4: 1/2}",
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


def test_closed_bound_that_raises_reports_one_error_line(capsys, monkeypatch):
    # z's bound reads no variable, so it is evaluated once, where it is first
    # reached, and raises there as it did when evaluated once per x and y
    source = (
        "do x <- arbitrary 0 [1, 2]; do y <- uniform 0 [x, 3]; "
        "do z <- (do w <- ret 1; ret (w == true)); ret (x == y)"
    )
    code, out, err = _eval_stdin(capsys, monkeypatch, source)
    assert (code, out, err) == (1, "", "error: line 1, col 83: type: cannot compare 1 and true\n")
    ast = parse(source)
    assert _outcome(lambda e: eval_expr(e, {}), ast) == _outcome(lambda e: _reference(e, {}), ast)


def test_closed_bounds_are_evaluated_once_per_sequence(monkeypatch):
    calls = []
    monkeypatch.setattr(programs, "arbitrary", lambda d, vs: calls.append(vs) or arbitrary(d, vs))
    # the rest reads x and y, so it is evaluated per pair, but z's set reads no
    # variable and the parenthesized body shares the sequence's memo: built once
    shared = (
        "do x <- arbitrary 0 [1, 2, 3]; do y <- uniform 0 [x, 4]; "
        "(do z <- arbitrary 0 [5, 6]; ret (y == z))"
    )
    # an operand of `[~]` is a sequence of its own, evaluated once per x, but
    # it shares the evaluation's memo, so z's set is built once there too
    apart = "do x <- arbitrary 0 [1, 2, 3]; (do z <- arbitrary 0 [5, 6]; ret (x == z)) [~] ret 0"
    for source, want in [(shared, 1), (apart, 1)]:
        ast = parse(source)
        calls.clear()
        got = eval_expr(ast)
        assert calls == [[1, 2, 3]] + [[5, 6]] * want, source
        assert got == _reference(ast, {})


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
    assert e.live is None and y.live is None and not e.closed and not y.closed
    assert render(eval_expr(e)) == "{1: 1}\n{2: 1}"
    assert eval_expr(e) == _reference(e, {})


def test_hand_built_subtree_in_two_scopes_is_keyed_by_variable_name():
    # one `do` node under x in the left operand and under y in the right: both
    # operands share the evaluation's memo, and the values of x and y agree,
    # so only the names tell the two keys apart; the right one reads an
    # unbound x and must raise, as the reference does
    inner = Bind("z", Arbitrary(Lit(0), (Lit(5), Lit(6))), Ret(Var("x")))
    pick = Arbitrary(Lit(0), (Lit(1), Lit(2)))
    e = Alt(Bind("x", pick, inner), Bind("y", pick, inner))
    got = _outcome(lambda e: eval_expr(e, {}), e)
    assert got == _outcome(lambda e: _reference(e, {}), e)
    assert got[0] == "error" and got[-1] == "unbound variable 'x'"


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


def test_parser_records_the_free_variables_of_each_binders_body():
    hand = {
        # shadowing: the inner x is read, the outer one is not
        "do x <- ret 1; do x <- ret true; ret x": [(), ("x",)],
        # a bound that reads the outer variable of its own name
        "do x <- ret 1; do x <- ret (x == 1); ret 0": [("x",), ()],
        # a nested do, read through and shadowed inside an operand
        "do x <- ret 1; (do x <- ret 0; ret x) [~] ret 2": [(), ("x",)],
        "do x <- ret 1; do y <- ret 2; (do z <- ret x; ret z) <|1/2|> ret 0": [
            ("x",), ("x",), ("z",)
        ],
        # a parenthesized body reads the outer sequence's variable
        "do x <- arbitrary 0 [1, 2]; (do y <- arbitrary 0 [3, 4]; uniform 0 [x, y])": [
            ("x",), ("x", "y")
        ],
        # a name shadowed inside a parenthesized body, and read after it
        "do x <- ret 1; do y <- ret 2; ((do x <- ret y; ret x) [~] ret x)": [
            ("x",), ("x", "y"), ("x",)
        ],
        # value lists and ==
        "do a <- ret 1; do b <- ret 2; uniform a [0, (b == 2)]": [("a",), ("a", "b")],
        "do a <- ret 1; do b <- ret 2; arbitrary 0 [(1 == a)]": [("a",), ("a",)],
    }
    for source, want in hand.items():
        binders = list(_binders(parse(source)))
        assert [b.live for b in binders] == want, source
        assert [set(b.live) for b in binders] == [_free_vars(b.body) for b in binders]
    rng = random.Random(1212)
    read = unread = 0
    for i in range(400):
        e = _gen_sequence(rng) if i % 2 else _gen_expr(rng, frozenset(), rng.randint(1, 4))
        for b in _binders(parse(render_expr(e))):
            assert set(b.live) == _free_vars(b.body), render_expr(b)
            assert b.closed == (not _free_vars(b.bound)), render_expr(b)
            read += b.var in b.live
            unread += b.var not in b.live
    assert read > 200 and unread > 200


# --- source fuzz: nested bodies that read earlier multi-valued binders -----

_FUZZ_VARS = ("x", "y", "z")
_FUZZ_LITS = {"int": ("0", "1", "2"), "bool": ("true", "false")}


def _src_value(rng, scope, kind):
    """A value of `kind` read from `scope` [(variable, kind)] or a literal;
    about one comparison in 20 is of values of different kinds, a type error."""
    names = [v for v, k in scope if k == kind]
    r = rng.random()
    if names and r < 0.6:
        return rng.choice(names)
    if kind == "bool" and scope and r < 0.85:
        var, var_kind = rng.choice(scope)
        other = var_kind if rng.random() > 0.05 else ("bool" if var_kind == "int" else "int")
        return f"({var} == {rng.choice(_FUZZ_LITS[other])})"
    return rng.choice(_FUZZ_LITS[kind])


def _src_values(rng, scope, kind):
    return ", ".join(_src_value(rng, scope, kind) for _ in range(rng.randint(1, 3)))


def _src_bound(rng, scope, kind, depth):
    """A bound expression, most often of several values."""
    shape = rng.choice(("arbitrary", "uniform", "alt", "choice", "ret", "do"))
    if shape in ("arbitrary", "uniform"):
        return f"{shape} {_src_value(rng, scope, kind)} [{_src_values(rng, scope, kind)}]"
    if shape == "alt" or shape == "choice":
        op = " [~] " if shape == "alt" else f" <|1/{rng.randint(2, 3)}|> "
        return f"ret {_src_value(rng, scope, kind)}{op}ret {_src_value(rng, scope, kind)}"
    if shape == "do" and depth:
        return f"({_src_sequence(rng, scope, kind, depth - 1)})"
    return f"ret {_src_value(rng, scope, kind)}"


def _src_sequence(rng, scope, kind, depth):
    """A `do` sequence of one to three binders whose rest is of `kind`; the rest
    is often a parenthesized sequence, which shares the evaluation of the
    outer one, and sometimes an operand of `[~]`, which does not.  After the
    first binder, one bound in three reads no variable at all (it may be a
    parenthesized sequence of its own), which is evaluated once per sequence."""
    heads = []
    for i in range(rng.randint(1, 3)):
        var, var_kind = rng.choice(_FUZZ_VARS), rng.choice(("int", "bool"))
        reads = [] if i and rng.random() < 1 / 3 else scope
        heads.append(f"do {var} <- {_src_bound(rng, reads, var_kind, depth)}; ")
        scope = [(v, k) for v, k in scope if v != var] + [(var, var_kind)]
    r = rng.random()
    if depth and r < 0.5:
        rest = f"({_src_sequence(rng, scope, kind, depth - 1)})"
        if r < 0.1:
            rest += f" [~] ret {_src_value(rng, scope, kind)}"
    elif r < 0.8:
        shape = rng.choice(("uniform", "arbitrary"))
        rest = f"{shape} {_src_value(rng, scope, kind)} [{_src_values(rng, scope, kind)}]"
    else:
        rest = f"ret {_src_value(rng, scope, kind)}"
    return "".join(heads) + rest


def test_source_fuzz_agrees_with_the_reference_evaluator():
    rng = random.Random(1818)
    kinds = []
    for _ in range(300):
        source = _src_sequence(rng, [], rng.choice(("int", "bool")), 2)
        ast = parse(source)
        got = _outcome(lambda e: eval_expr(e, {}), ast)
        want = _outcome(lambda e: _reference(e, {}), ast)
        assert got == want, source
        kinds.append(got[0])
    assert kinds.count("ok") > 150 and kinds.count("error") > 30


# --- chains: each binder reads the one before ------------------------------


def _chain(n):
    heads = ["do x1 <- arbitrary true [true, false]; "]
    for i in range(2, n + 1):
        heads.append(f"do x{i} <- arbitrary true [(x{i - 1} == true), (x{i - 1} == false)]; ")
    return "".join(heads) + f"ret x{n}"


def _eval_stdin(capsys, monkeypatch, source, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code = cli_main(["eval", *flags, "-"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("n, calls", [(8, 30), (16, 62), (24, 94)])
def test_chain_canonicalizes_linearly(capsys, monkeypatch, n, calls):
    # 4n - 2: a binder's rest is evaluated once per value of its own variable,
    # which is all that the rest reads
    with time_budget(5, f"a chain of {n} binders"):
        code, out, err = _eval_stdin(capsys, monkeypatch, _chain(n), "--stats")
    assert (code, out) == (0, "{true: 1}\n{false: 1}\n")
    assert f" canonicalize_calls={calls} " in err


def test_long_chains_evaluate():
    for n in (64, 200):
        start = time.perf_counter()
        with time_budget(5, f"a chain of {n} binders"):
            got = run(_chain(n))
        assert time.perf_counter() - start < 1.0  # under 0.05 s on a 2-core host
        assert render(got) == "{true: 1}\n{false: 1}"


def test_chain_past_the_recursion_limit_is_one_error_line(capsys, monkeypatch):
    # each binder that binds several values costs a few frames of recursion
    code, out, err = _eval_stdin(capsys, monkeypatch, _chain(1000))
    assert (code, out) == (1, "")
    assert err == "error: program nested too deeply to evaluate\n"
