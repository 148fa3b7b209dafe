import random
import sys
from pathlib import Path

import pytest

from conftest import d_of, validate_dist
from convexchoice.dist import mix_dists, point
from convexchoice.gcm import alt_gcm, bind_gcm, choice_gcm, ret_gcm
from convexchoice.necset import from_generators, singleton_necset
from convexchoice.prob import prob_make
from convexchoice.programs import (
    Alt,
    Arbitrary,
    Bind,
    Choice,
    Eq,
    Lit,
    QUOTE_LIMIT,
    Ret,
    SourceError,
    Uniform,
    Var,
    arb,
    arbitrary,
    bcoin,
    coinarb,
    coinarb_source,
    eval_expr,
    monty,
    parse,
    render,
    render_expr,
    run,
    uniform,
    _tokenize,
)

CORPUS = Path(__file__).parent / "corpus"


# --- parsing -------------------------------------------------------------


def test_parse_coinarb_shape():
    ast = parse(coinarb_source(prob_make(1, 2)))
    assert isinstance(ast, Bind) and ast.var == "c"
    assert isinstance(ast.bound, Choice) and ast.bound.prob == prob_make(1, 2)
    inner = ast.body
    assert isinstance(inner, Bind) and isinstance(inner.bound, Alt)
    assert inner.body == Ret(Eq(Var("a"), Var("c")))


# Parsed programs that use every node class, and their reprs as the frozen
# dataclass nodes printed them.
AST_REPRS = [
    (
        "do x <- uniform 0 [1, 2] <|1/3|> ret true; do y <- arbitrary A [B, x]; ret (x == y) [~] ret false",
        "Bind(var='x', bound=Choice(prob=Prob(value=Fraction(1, 3)), left=Uniform(default=Lit(value=0), "
        "items=(Lit(value=1), Lit(value=2))), right=Ret(value=Lit(value=True))), body=Bind(var='y', "
        "bound=Arbitrary(default=Lit(value='A'), items=(Lit(value='B'), Var(name='x'))), "
        "body=Alt(left=Ret(value=Eq(left=Var(name='x'), right=Var(name='y'))), right=Ret(value=Lit(value=False)))))",
    ),
    (
        "do x <- arbitrary -1 []; do u <- uniform x [x, (x == 3), true]; ret u",
        "Bind(var='x', bound=Arbitrary(default=Lit(value=-1), items=()), body=Bind(var='u', "
        "bound=Uniform(default=Var(name='x'), items=(Var(name='x'), Eq(left=Var(name='x'), right=Lit(value=3)), "
        "Lit(value=True))), body=Ret(value=Var(name='u'))))",
    ),
]


@pytest.mark.parametrize("source, want", AST_REPRS)
def test_ast_repr(source, want):
    assert repr(parse(source)) == want


def test_ast_equality_ignores_positions_and_live():
    # parsed nodes carry positions and `Bind.live`; hand-built ones the defaults
    parsed = parse(AST_REPRS[0][0])
    x, y = Var("x"), Var("y")
    built = Bind(
        "x",
        Choice(prob_make(1, 3), Uniform(Lit(0), (Lit(1), Lit(2))), Ret(Lit(True))),
        Bind("y", Arbitrary(Lit("A"), (Lit("B"), x)), Alt(Ret(Eq(x, y)), Ret(Lit(False)))),
    )
    assert parsed.live == ("x",) and built.live is None
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert Var("x", (1, 2)) == Var("x", (3, 4)) and hash(Var("x", (1, 2))) == hash(Var("x"))
    assert Eq(x, y, (1, 2)) == Eq(x, y) and hash(Eq(x, y, (1, 2))) == hash(Eq(x, y))
    assert len({Bind("x", Ret(x), Ret(x), ("x",)), Bind("x", Ret(x), Ret(x))}) == 1
    assert Var("x") != Var("y") and Bind("x", Ret(x), Ret(x)) != Bind("y", Ret(x), Ret(x))


def test_ast_nodes_of_two_classes_are_unequal():
    one = Lit(1)
    assert Uniform(one, (one,)) != Arbitrary(one, (one,))
    assert Ret(one) != Lit(one) and Lit(1) != (1,)
    assert Choice(prob_make(1, 2), Ret(one), Ret(one)) != Alt(Ret(one), Ret(one))
    # `Lit(True) == Lit(1)`, as `True == 1`, but their reprs differ
    assert Lit(True) == Lit(1) and hash(Lit(True)) == hash(Lit(1))
    assert (repr(Lit(True)), repr(Lit(1))) == ("Lit(value=True)", "Lit(value=1)")


def test_parse_unbound_variable():
    with pytest.raises(SourceError) as exc:
        parse("ret (x == true)")
    assert (exc.value.kind, exc.value.line, exc.value.column) == ("unbound-variable", 1, 6)
    assert exc.value.message == "unbound variable 'x'"
    assert str(exc.value) == "line 1, col 6: unbound-variable: unbound variable 'x'"
    # in a chain the first unbound variable from the left is reported
    source = "ret 1 <|1/2|> ret x [~] ret y <|1/2|> ret z"
    with pytest.raises(SourceError) as exc:
        parse(source)
    assert (exc.value.line, exc.value.column) == (1, source.index("x") + 1)


def _error_of(source):
    with pytest.raises(SourceError) as exc:
        parse(source)
    return exc.value


def test_scope_ends_at_close_paren():
    source = "(do x <- ret 1; ret x) [~] ret x"
    err = _error_of(source)
    assert err.kind == "unbound-variable"
    assert (err.line, err.column) == (1, source.rindex("x") + 1)


def test_bound_expression_does_not_see_its_variable():
    err = _error_of("do x <- ret x; ret x")
    assert (err.kind, err.line, err.column) == ("unbound-variable", 1, 13)


def test_syntax_error_beats_earlier_unbound_variable():
    err = _error_of("ret x <|1/2|> (")
    assert (err.kind, err.line, err.column) == ("syntax", 1, 16)
    # also trailing input, which is found only after the whole expression
    err = _error_of("ret x )")
    assert (err.kind, err.line, err.column) == ("syntax", 1, 7)


def test_unbound_default_comes_before_items():
    err = _error_of("uniform a [b]")
    assert (err.kind, err.line, err.column) == ("unbound-variable", 1, 9)
    assert err.message == "unbound variable 'a'"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\u2163"])
def test_integers_are_ascii_digits(digit):
    # superscript two, Arabic-Indic three, Roman numeral four
    err = _error_of(f"ret {digit}")
    assert (err.kind, err.line, err.column) == ("syntax", 1, 5)
    assert err.message == f"unexpected character {digit!r}"


def test_parse_probability_out_of_range():
    with pytest.raises(SourceError) as exc:
        parse("ret true <|3/2|> ret false")
    assert exc.value.kind == "syntax"


def test_parse_overlong_integer_literals():
    # past the interpreter's int() digit limit: a positioned error at each literal site
    digits = "1" * 5000
    for source in [f"ret {digits}", f"ret 1 <|{digits}/2|> ret 2", f"ret 1 <|1/{digits}|> ret 2"]:
        with pytest.raises(SourceError) as exc:
            parse(source)
        assert exc.value.kind == "syntax"
        assert (exc.value.line, exc.value.column) == (1, source.index(digits) + 1)
        assert "5000 digits" in exc.value.message


@pytest.mark.parametrize("sign", ["", "-"])
def test_overlong_integer_literal_counts_digits_not_the_sign(sign):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SourceError) as exc:
        parse(f"ret {sign}{digits}")
    assert (exc.value.line, exc.value.column) == (1, 5)
    assert exc.value.message.startswith(f"integer literal of {len(digits)} digits,")


def test_parse_error_quotes_a_long_token_cut():
    long = 10**6
    for source, col in [("x" * long, 1), ("ret 1 " + "y" * long, 7),
                        ("do x <- ret 1 " + "z" * long, 15), ("ret " + "q" * long, 5)]:
        with pytest.raises(SourceError) as exc:
            parse(source)
        assert (exc.value.line, exc.value.column) == (1, col)
        assert len(str(exc.value)) < 200 and "..." in exc.value.message
    # a token at the limit is quoted whole
    with pytest.raises(SourceError) as exc:
        parse("ret 1 " + "y" * QUOTE_LIMIT)
    assert exc.value.message == f"unexpected trailing input {'y' * QUOTE_LIMIT!r}"


def test_parse_syntax_error_position():
    with pytest.raises(SourceError) as exc:
        parse("do c <- ;\nret c")
    assert exc.value.kind == "syntax"
    assert exc.value.line == 1
    with pytest.raises(SourceError) as exc:
        parse("ret true\n[~] ???")
    assert exc.value.line == 2


def test_precedence_choice_binds_tighter():
    ast = parse("ret A [~] ret B <|1/3|> ret C")
    assert isinstance(ast, Alt)
    assert isinstance(ast.right, Choice)


def test_left_associativity():
    ast = parse("ret A <|1/2|> ret B <|1/3|> ret C")
    assert isinstance(ast, Choice) and isinstance(ast.left, Choice)
    ast = parse("ret A [~] ret B [~] ret C")
    assert isinstance(ast, Alt) and isinstance(ast.left, Alt)


def test_shadowing_allowed():
    ast = parse("do x <- ret true; do x <- ret A; ret x")
    assert isinstance(ast, Bind) and isinstance(ast.body, Bind)


# --- evaluation ----------------------------------------------------------


def test_eval_ret():
    assert run("ret true") == singleton_necset(point(True))


def test_eval_coinarb_equals_arb():
    for num, den in [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]:
        assert run(coinarb_source(prob_make(num, den))) == run("ret true [~] ret false")


def test_eval_mix_program():
    got = run("(ret 1 [~] ret 2) <|1/3|> ret 3")
    assert got == from_generators([d_of((1, 1, 3), (3, 2, 3)), d_of((2, 1, 3), (3, 2, 3))])


def test_eval_type_error():
    with pytest.raises(SourceError) as exc:
        run("do x <- ret true; ret (x == A)")
    assert exc.value.kind == "type"


def test_corpus_parses_and_round_trips():
    for path in sorted(CORPUS.glob("*.choice")):
        text = path.read_text().strip()
        ast = parse(text)
        back = parse(render_expr(ast))
        assert back == ast and repr(back) == repr(ast), path.name
        eval_expr(ast)  # must evaluate cleanly


def test_corpus_coinarb_is_arb():
    text = (CORPUS / "coinarb.choice").read_text()
    assert run(text) == arb()


# --- library programs ----------------------------------------------------


def test_uniform_examples():
    assert uniform("d", ["A", "B", "C"]) == from_generators(
        [d_of(("A", 1, 3), ("B", 1, 3), ("C", 1, 3))]
    )
    assert uniform("d", ["x"]) == ret_gcm("x")
    assert uniform("d", []) == ret_gcm("d")


def _uniform_reference(default, values):
    """uniform as a mixture of one point mass per value."""
    if not values:
        return ret_gcm(default)
    return singleton_necset(mix_dists([(1, point(v)) for v in values]))


def test_uniform_renders_match_the_mixture_of_point_masses():
    cases = [
        (0, [1, True, 1], "{true: 1/3, 1: 2/3}"),
        ("d", ["a", "b", "a", "c"], "{a: 1/2, b: 1/4, c: 1/4}"),
        (0, [True, 1, False, 0], "{true: 1/4, false: 1/4, 0: 1/4, 1: 1/4}"),
        (0, [], "{0: 1}"),
        (True, [], "{true: 1}"),
    ]
    rng = random.Random(21)
    pool = [True, False, 0, 1, 2, "a", "b", "c"]
    for _ in range(100):
        values = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        cases.append(("d", values, None))
    for default, values, want in cases:
        got, ref = uniform(default, values), _uniform_reference(default, values)
        assert want is None or render(got) == want, values
        for fmt in ("text", "structured"):
            assert render(got, fmt) == render(ref, fmt), values
        validate_dist(got.generators[0])


def test_arbitrary_examples():
    assert arbitrary("d", [True, False]) == arb()
    assert arbitrary("d", ["x"]) == ret_gcm("x")
    assert arbitrary("d", ["A", "B", "C"]) == from_generators(
        [point("A"), point("B"), point("C")]
    )
    # duplicates are harmless by idempotence
    assert arbitrary("d", ["A", "A", "B"]) == arbitrary("d", ["A", "B"])


def test_bcoin():
    assert bcoin(prob_make(2, 3)) == from_generators([d_of((True, 2, 3), (False, 1, 3))])


def test_monty_results():
    assert monty("switch") == from_generators([d_of((True, 2, 3), (False, 1, 3))])
    assert monty("stick") == from_generators([d_of((True, 1, 3), (False, 2, 3))])
    with pytest.raises(ValueError):
        monty("flail")


def test_biased_coin_from_doors():
    # arbitrary hide, uniform pick, compare: a 2/3-biased coin
    doors = ["A", "B", "C"]
    got = bind_gcm(
        arbitrary("A", doors),
        lambda h: bind_gcm(uniform("A", doors), lambda p: ret_gcm(h != p)),
    )
    assert got == from_generators([d_of((True, 2, 3), (False, 1, 3))])


def test_arbitrary_then_ignore_is_continuation():
    m = choice_gcm(prob_make(1, 3), ret_gcm("a"), alt_gcm(ret_gcm("b"), ret_gcm("c")))
    for values in (["A"], ["A", "B"], ["A", "B", "C"], ["A", "A"]):
        assert bind_gcm(arbitrary("A", values), lambda _: m) == m


# --- rendering -----------------------------------------------------------


def test_render_text():
    assert render(ret_gcm(True)) == "{true: 1}"
    assert render(arb()) == "{true: 1}\n{false: 1}"


def test_render_structured_stable():
    left = render(coinarb(prob_make(1, 2)), "structured")
    right = render(arb(), "structured")
    assert left == right
    assert left == '[[[true,"1"]],[[false,"1"]]]'
    # a nested distribution or set renders as an object keyed by its kind
    assert render(ret_gcm(point("a")), "structured") == '[[[{"dist":[["a","1"]]},"1"]]]'
    nested_set = ret_gcm(from_generators([point(1), point(2)]))
    assert render(nested_set, "structured") == '[[[{"necset":[[[1,"1"]],[[2,"1"]]]},"1"]]]'


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(arb(), "yaml")


# --- random round-trip and oracle evaluator -------------------------------

_SYMS = ["A", "B", "C"]
_VARS = ["x", "y", "z"]


def _gen_value(rng: random.Random, bound, depth: int):
    options = ["bool", "int", "sym"]
    if bound:
        options.append("var")
    if depth > 0:
        options.append("eq")
    kind = rng.choice(options)
    if kind == "bool":
        return Lit(rng.choice([True, False]))
    if kind == "int":
        return Lit(rng.randint(-5, 9))
    if kind == "sym":
        return Lit(rng.choice(_SYMS))
    if kind == "var":
        return Var(rng.choice(sorted(bound)))
    return Eq(_gen_value(rng, bound, depth - 1), _gen_value(rng, bound, depth - 1))


def _gen_expr(rng: random.Random, bound, depth: int):
    if depth == 0:
        return Ret(_gen_value(rng, bound, 1))
    kind = rng.choice(["ret", "choice", "alt", "bind", "uniform", "arbitrary"])
    if kind == "ret":
        return Ret(_gen_value(rng, bound, depth))
    if kind == "choice":
        den = rng.randint(1, 6)
        p = prob_make(rng.randint(0, den), den)
        return Choice(p, _gen_expr(rng, bound, depth - 1), _gen_expr(rng, bound, depth - 1))
    if kind == "alt":
        return Alt(_gen_expr(rng, bound, depth - 1), _gen_expr(rng, bound, depth - 1))
    if kind == "bind":
        var = rng.choice(_VARS)
        return Bind(
            var,
            _gen_expr(rng, bound, depth - 1),
            _gen_expr(rng, bound | {var}, depth - 1),
        )
    items = tuple(_gen_value(rng, bound, 0) for _ in range(rng.randint(0, 3)))
    default = _gen_value(rng, bound, 0)
    return Uniform(default, items) if kind == "uniform" else Arbitrary(default, items)


def test_round_trip_long_chains():
    # compared as text: == on a parse tree 1200 deep would recurse by itself
    chains = [
        " <|1/2|> ".join(f"ret {i % 2}" for i in range(1200)),
        " [~] ".join(f"ret {i % 2} <|1/3|> (ret 2 [~] ret 0)" for i in range(1200)),
        "(ret 0 [~] ret 1) <|1/2|> ret 2 <|1/4|> ret 3",
        "(do x <- ret 1; ret x) [~] ret 2 <|1/2|> ret 3 [~] ret 4",
        "".join(f"do x{i} <- ret {i}; " for i in range(2000)) + "ret x0",
    ]
    for source in chains:
        assert render_expr(parse(source)) == source


_BLANKS = [" ", "\t", "\n", "\r", "  \t", "\r\n", "\n\t\n "]


def _assert_positions(text):
    lines = text.split("\n")
    kinds, texts, poss = _tokenize(text)
    assert len(kinds) == len(texts) == len(poss)
    for kind, word, (line, col) in zip(kinds, texts, poss):
        assert lines[line - 1][col - 1 :].startswith(word), (text, kind, word, line, col)
    assert kinds[-1] == "EOF"
    assert poss[-1] == (len(lines), len(lines[-1]) + 1)
    return kinds, texts


def test_token_positions():
    rng = random.Random(31)
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.choice"))]
    sources += [render_expr(_gen_expr(rng, frozenset(), rng.randint(0, 3))) for _ in range(100)]
    for source in sources:
        kinds, texts = _assert_positions(source)
        # the same tokens with random blanks, tabs and newlines between them
        spaced = "".join(rng.choice(_BLANKS) + word for word in texts)
        assert _assert_positions(spaced) == (kinds, texts)


def test_round_trip_random_asts():
    rng = random.Random(11)
    for _ in range(100):
        ast = _gen_expr(rng, frozenset(), rng.randint(0, 3))
        back = parse(render_expr(ast))
        # `Lit(True) == Lit(1)` in Python; their reprs differ
        assert back == ast and repr(back) == repr(ast)


def _subst_value(v, name, value):
    if isinstance(v, Var) and v.name == name:
        return Lit(value)
    if isinstance(v, Eq):
        return Eq(_subst_value(v.left, name, value), _subst_value(v.right, name, value))
    return v


def _subst(e, name, value):
    if isinstance(e, Ret):
        return Ret(_subst_value(e.value, name, value))
    if isinstance(e, Choice):
        return Choice(e.prob, _subst(e.left, name, value), _subst(e.right, name, value))
    if isinstance(e, Alt):
        return Alt(_subst(e.left, name, value), _subst(e.right, name, value))
    if isinstance(e, Bind):
        bound = _subst(e.bound, name, value)
        body = e.body if e.var == name else _subst(e.body, name, value)
        return Bind(e.var, bound, body)
    items = tuple(_subst_value(v, name, value) for v in e.items)
    node = type(e)
    return node(_subst_value(e.default, name, value), items)


def _eval_by_substitution(e):
    """Independent evaluator: no environment, textual substitution instead."""
    if isinstance(e, Ret):
        return eval_expr(e, {})
    if isinstance(e, Choice):
        return choice_gcm(e.prob, _eval_by_substitution(e.left), _eval_by_substitution(e.right))
    if isinstance(e, Alt):
        return alt_gcm(_eval_by_substitution(e.left), _eval_by_substitution(e.right))
    if isinstance(e, Bind):
        bound = _eval_by_substitution(e.bound)
        return bind_gcm(bound, lambda a: _eval_by_substitution(_subst(e.body, e.var, a)))
    return eval_expr(e, {})


def _outcome(evaluate, ast):
    try:
        return ("ok", evaluate(ast))
    except SourceError as exc:
        return ("error", exc.kind)


def test_evaluator_agrees_with_substitution_oracle():
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        ast = _gen_expr(rng, frozenset(), rng.randint(0, 3))
        got = _outcome(lambda e: eval_expr(e, {}), ast)
        want = _outcome(_eval_by_substitution, ast)
        assert got == want
        checked += got[0] == "ok"
    assert checked > 20  # most random programs evaluate cleanly
