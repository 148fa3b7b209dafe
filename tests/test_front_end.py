"""The DSL front end against a reference: the tokenizer and parser as they were
before the scanner read the text with one `findall` into flat token lists.

The reference shares only the AST classes and `SourceError` with
`convexchoice.programs`.  Both parse the same inputs, and each must give the
same error text or an equal tree with the same `repr` and the same position on
every `Var` and `Eq` (`==` and `repr` ignore positions).  Every parsed
`Bind.live`, taken as a set, must be the free variables of the binder's body.
"""

import random
import re
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from convexchoice.prob import Prob, ProbError, prob_make
from convexchoice.programs import (
    Alt,
    Arbitrary,
    Bind,
    Choice,
    Eq,
    Expr,
    Lit,
    Pos,
    Ret,
    SourceError,
    Uniform,
    ValueExpr,
    Var,
    parse,
    render_expr,
)
from test_eval_do import _free_vars
from test_programs import _gen_expr

CORPUS = Path(__file__).parent / "corpus"

# --- Reference front end -------------------------------------------------

MAX_PAREN_DEPTH = 100
QUOTE_LIMIT = 40
KEYWORDS = {"ret", "do", "uniform", "arbitrary", "true", "false"}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: Pos


_OPERATORS = {
    "[~]": "ALT", "<|": "LCHOICE", "|>": "RCHOICE", "<-": "ARROW", "==": "EQEQ",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA", ";": "SEMI", "/": "SLASH",
}

# After any blanks: a newline, an integer, a word, an operator (longest
# first), the end of the text, or else the one character that starts none.
# `\w` is exactly `str.isalnum()` or `_`, and a word must start with
# `isalpha()` or `_`, so a non-ASCII digit or numeral is a bad character.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<NL>\n)|(?P<INT>-?[0-9]+)|(?P<WORD>\w+)|(?P<OP>"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + r")|(?P<EOF>\Z)|(?P<BAD>.))",
    re.DOTALL,
)


def _tokenize(text: str) -> List[_Token]:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
            continue
        word = m[kind]
        pos = (line, m.start(kind) - line_start + 1)
        if kind == "WORD":
            if not (word[0].isalpha() or word[0] == "_"):
                word, kind = word[0], "BAD"
            elif word in KEYWORDS:
                kind = word.upper()
            else:
                kind = "SYMBOL" if word[0].isupper() else "VAR"
        elif kind == "OP":
            kind = _OPERATORS[word]
        if kind == "BAD":
            raise SourceError("syntax", *pos, f"unexpected character {word!r}")
        toks.append(_Token(kind, word, pos))
        if kind == "EOF":
            break
    return toks


def _quote(text: str) -> str:
    """`text` quoted for an error message, cut to QUOTE_LIMIT characters."""
    if len(text) > QUOTE_LIMIT:
        text = text[:QUOTE_LIMIT] + "..."
    return repr(text)


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.toks = tokens
        self.i = 0
        self.depth = 0
        # name -> how many enclosing binders bind it
        self.scope: Dict[str, int] = {}
        self.unbound: Optional[SourceError] = None  # the first, in source order

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.err(f"expected {what}, found {_quote(tok.text or 'end of input')}")
        return self.next()

    def err(self, msg: str) -> SourceError:
        tok = self.peek()
        return SourceError("syntax", tok.pos[0], tok.pos[1], msg)

    @staticmethod
    def integer(tok: _Token) -> int:
        # int() refuses more digits than the interpreter's conversion limit
        try:
            return int(tok.text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            msg = f"integer literal of {len(tok.text.lstrip('-'))} digits, over the limit of {limit}"
            raise SourceError("syntax", tok.pos[0], tok.pos[1], msg) from None

    def open_paren(self) -> None:
        if self.depth == MAX_PAREN_DEPTH:
            raise self.err(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
        self.next()
        self.depth += 1

    def close_paren(self) -> None:
        self.expect("RPAREN", "')'")
        self.depth -= 1

    def parse_expr(self) -> Expr:
        # A `do` sequence is read in a loop and its binders are nested from the
        # last one back, so a long sequence does not recurse.  Each variable is
        # in scope from the end of its bound expression to the end of this one.
        heads = []
        scope = self.scope
        while self.peek().kind == "DO":
            self.next()
            var = self.expect("VAR", "a variable name").text
            self.expect("ARROW", "'<-'")
            bound = self.parse_alt()
            self.expect("SEMI", "';'")
            scope[var] = scope.get(var, 0) + 1
            heads.append((var, bound))
        expr = self.parse_alt()
        for var, bound in reversed(heads):
            scope[var] -= 1
            expr = Bind(var, bound, expr)
        return expr

    def parse_alt(self) -> Expr:
        left = self.parse_choice()
        while self.peek().kind == "ALT":
            self.next()
            right = self.parse_choice()
            left = Alt(left, right)
        return left

    def parse_choice(self) -> Expr:
        left = self.parse_primary()
        while self.peek().kind == "LCHOICE":
            self.next()
            p = self.parse_prob()
            self.expect("RCHOICE", "'|>'")
            right = self.parse_primary()
            left = Choice(p, left, right)
        return left

    def parse_prob(self) -> Prob:
        tok = self.expect("INT", "a probability")
        num = self.integer(tok)
        den = 1
        if self.peek().kind == "SLASH":
            self.next()
            den_tok = self.expect("INT", "a denominator")
            den = self.integer(den_tok)
        try:
            return prob_make(num, den)
        except ProbError as exc:
            raise SourceError("syntax", tok.pos[0], tok.pos[1], str(exc)) from exc

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "RET":
            self.next()
            return Ret(self.parse_value())
        if tok.kind in ("UNIFORM", "ARBITRARY"):
            self.next()
            default = self.parse_value()
            self.expect("LBRACKET", "'['")
            items: List[ValueExpr] = []
            if self.peek().kind != "RBRACKET":
                items.append(self.parse_value())
                while self.peek().kind == "COMMA":
                    self.next()
                    items.append(self.parse_value())
            self.expect("RBRACKET", "']'")
            node = Uniform if tok.kind == "UNIFORM" else Arbitrary
            return node(default, tuple(items))
        if tok.kind == "LPAREN":
            self.open_paren()
            inner = self.parse_expr()
            self.close_paren()
            return inner
        raise self.err(f"expected an expression, found {_quote(tok.text or 'end of input')}")

    def parse_value(self) -> ValueExpr:
        tok = self.peek()
        if tok.kind == "TRUE":
            self.next()
            return Lit(True)
        if tok.kind == "FALSE":
            self.next()
            return Lit(False)
        if tok.kind == "INT":
            self.next()
            return Lit(self.integer(tok))
        if tok.kind == "SYMBOL":
            self.next()
            return Lit(tok.text)
        if tok.kind == "VAR":
            self.next()
            if not self.scope.get(tok.text) and self.unbound is None:
                msg = f"unbound variable {_quote(tok.text)}"
                self.unbound = SourceError("unbound-variable", *tok.pos, msg)
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "LPAREN":
            self.open_paren()
            left = self.parse_value()
            if self.peek().kind == "EQEQ":
                self.next()
                left = Eq(left, self.parse_value(), pos=tok.pos)
            self.close_paren()
            return left
        raise self.err(f"expected a value, found {_quote(tok.text or 'end of input')}")


def ref_parse(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise parser.err(f"unexpected trailing input {_quote(tok.text)}")
    if parser.unbound is not None:
        raise parser.unbound
    return expr


# --- Comparison ----------------------------------------------------------

_NODES = (Lit, Var, Eq, Ret, Choice, Alt, Bind, Uniform, Arbitrary)


def _children(node):
    if isinstance(node, (Eq, Choice, Alt)):
        return [node.left, node.right]
    if isinstance(node, Ret):
        return [node.value]
    if isinstance(node, Bind):
        return [node.bound, node.body]
    if isinstance(node, (Uniform, Arbitrary)):
        return [node.default, *node.items]
    return []


def _assert_same_positions(got, want, text):
    """The same position on every `Var` and `Eq`; every `Bind.live` of `got`
    the free variables of its body."""
    pairs = [(got, want)]
    while pairs:
        a, b = pairs.pop()
        assert type(a) is type(b) and isinstance(a, _NODES), text
        if isinstance(a, (Var, Eq)):
            assert a.pos == b.pos, (text, a, a.pos, b.pos)
        if isinstance(a, Bind):
            assert set(a.live) == _free_vars(a.body), (text, a)
        kids_a, kids_b = _children(a), _children(b)
        assert len(kids_a) == len(kids_b), text
        pairs.extend(zip(kids_a, kids_b))


def _outcome(parse_fn, text):
    try:
        return parse_fn(text), None
    except SourceError as exc:
        return None, str(exc)


def _check(text):
    """Assert both front ends agree on `text`; whether it parsed."""
    want, want_err = _outcome(ref_parse, text)
    got, got_err = _outcome(parse, text)
    assert got_err == want_err, text
    if want_err is None:
        assert got == want and repr(got) == repr(want), text
        _assert_same_positions(got, want, text)
    return want_err is None


def _check_all(texts):
    """Check every text; how many parsed."""
    return sum(_check(text) for text in texts)


# --- Inputs --------------------------------------------------------------

_SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", " \r "]


def _mutate(rng, source):
    """`source` with one token deleted, duplicated or swapped with the next,
    the tokens joined by random blanks (an empty one may merge two)."""
    words = [tok.text for tok in _tokenize(source)[:-1]]
    i = rng.randrange(len(words))
    op = rng.choice(("delete", "duplicate", "swap"))
    if op == "delete":
        del words[i]
    elif op == "duplicate":
        words.insert(i, words[i])
    elif i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    return "".join(rng.choice(_SEPARATORS) + word for word in words)


_FUZZ_ATOMS = list("()[]<>|~-=,;/ 0123456789abxAB_") + [
    "\t", "\r\n", "\n", "٣", "²", "é", "É",
    "ret ", "do ", "uniform ", "arbitrary ", "true", "false", "<-", "[~]", "<|", "|>", "==",
]


def _corpus():
    return [path.read_text() for path in sorted(CORPUS.glob("*.choice"))]


def _generated(seed, n):
    rng = random.Random(seed)
    return [render_expr(_gen_expr(rng, frozenset(), rng.randint(0, 3))) for _ in range(n)]


def test_corpus_and_generated_programs():
    sources = _corpus() + _generated(17, 3000)
    assert _check_all(sources) == len(sources)


def test_one_token_mutations():
    rng = random.Random(23)
    valid = _corpus() + _generated(29, 300)
    parsed = _check_all(_mutate(rng, rng.choice(valid)) for _ in range(3000))
    # some mutants still parse (a swap of equal tokens, a duplicated value in
    # a list), most do not
    assert 100 < parsed < 2000


def test_seeded_character_fuzz():
    rng = random.Random(41)
    texts = ["".join(rng.choices(_FUZZ_ATOMS, k=rng.randint(0, 24))) for _ in range(3000)]
    # a random string almost never parses: this seed gives one
    assert _check_all(texts) == 1


def test_edge_cases():
    nest = lambda n, inner: "(" * n + inner + ")" * n
    cases = [
        "", " \t\r\n \r\n", "--1", "ret --1", "1e3", "ret 1e3", "ret -0", "ret 1 <| 1 / 2 |> ret 0",
        "<| 1 / 2 |>", nest(100, "ret 1"), nest(101, "ret 1"), "ret " + nest(100, "1"),
        "ret " + nest(101, "1"), "ret " + nest(50, "(1 == 1)"), "ret " + "7" * 4301,
        "ret 1 <|" + "1" * 4301 + "|> ret 0", "ret ٣", "ret x٣", "ret ²", "ret É",
        "ret é", "ret _", "ret -", "\tret\tA", "ret 1\r\n[~]\r\n\tret 2", "ret 1 [~]\r\rret 2",
        "do x <- ret 1; ret y", "ret 1 ==",
    ]
    # the nine that parse: `ret -0`, the `<| 1 / 2 |>` choice, the three nests
    # of at most 100, `ret É` and the three with tabs and CRs
    assert _check_all(cases) == 9
