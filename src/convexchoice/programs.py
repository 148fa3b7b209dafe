"""Program DSL (parser, printer, evaluator), example programs, and rendering.

Grammar
-------
::

    expr        := 'do' VAR '<-' alt_expr ';' expr        -- binder body extends right
                 | alt_expr
    alt_expr    := choice_expr ( '[~]' choice_expr )*     -- left-associative
    choice_expr := primary ( '<|' PROB '|>' primary )*    -- left-assoc, binds tighter
    primary     := 'ret' value
                 | 'uniform' value '[' value-list ']'
                 | 'arbitrary' value '[' value-list ']'
                 | '(' expr ')'
    value       := 'true' | 'false' | INT | SYMBOL | VAR
                 | '(' value '==' value ')'
    value-list  := ( value (',' value)* )?
    PROB        := INT ( '/' INT )?                       -- must lie in [0, 1]
    INT         := '-'? [0-9]+                            -- ASCII digits only

The scanner reads the text with one ``findall`` into three flat lists: the
token kinds, their texts and their (line, column) positions, with space, tab
and CR as blanks and columns counted in characters from 1.  A word that is no
keyword is a symbol when it starts with an uppercase letter (the Monty Hall
doors are ``A``, ``B``, ``C``), else a variable.  The parser reads the lists
by index.  A nested binder on the left of ``<-`` needs parentheses.  Every
variable must be bound by an enclosing ``do``, and the parser checks this as
it reads: a binder's variable is in scope in the rest of its ``do`` sequence,
not in its own bound expression.  It also records, on each binder, the free
variables of its body, by which the evaluator keys the rest of a sequence,
and whether its bound expression reads any variable.
Errors come in a fixed order: an unexpected character first, then a syntax
error, then the first unbound variable in source order.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .dist import (
    Dist,
    Outcome,
    _normalized,
    outcome_key,
    point,
    render_dist,
    render_outcome,
)
from .gcm import GcmVal, alt_gcm, bind_gcm, choice_gcm, ret_gcm
from .necset import NECSet, from_generators, singleton_necset
from .prob import Prob, ProbError, prob_make, render_rational

Pos = Tuple[int, int]

# Parentheses an expression or a value may nest.  Each expression level costs
# the parser four stack frames, so a fixed limit well inside the interpreter's
# recursion limit lets deep input end in a positioned error.
MAX_PAREN_DEPTH = 100
# Characters of an offending token that an error message quotes, so one long
# word or integer cannot make the one-line message as long as the input.
QUOTE_LIMIT = 40


class SourceError(Exception):
    """A positioned parse/scope/type error."""

    def __init__(self, kind: str, line: int, column: int, message: str) -> None:
        super().__init__(kind, line, column, message)
        self.kind = kind  # syntax | unbound-variable | type
        self.line, self.column, self.message = line, column, message

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.kind}: {self.message}"


# --- AST ---------------------------------------------------------------

_NOPOS: Pos = (0, 0)


class _Node:
    """Base of the AST nodes: `==`, `hash` and `repr` read only `_fields`, so no position,
    `Bind.live` or `Bind.closed` tells two nodes apart; nodes of two classes are never equal."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({fields})"


class Lit(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Outcome) -> None:
        self.value = value


class Var(_Node):
    __slots__ = ("name", "pos")
    _fields = ("name",)

    def __init__(self, name: str, pos: Pos = _NOPOS) -> None:
        self.name, self.pos = name, pos


class Eq(_Node):
    __slots__ = ("left", "right", "pos")
    _fields = ("left", "right")

    def __init__(self, left: "ValueExpr", right: "ValueExpr", pos: Pos = _NOPOS) -> None:
        self.left, self.right, self.pos = left, right, pos


ValueExpr = Union[Lit, Var, Eq]


class Ret(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: ValueExpr) -> None:
        self.value = value


class Choice(_Node):
    __slots__ = _fields = ("prob", "left", "right")

    def __init__(self, prob: Prob, left: "Expr", right: "Expr") -> None:
        self.prob, self.left, self.right = prob, left, right


class Alt(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr") -> None:
        self.left, self.right = left, right


class Bind(_Node):
    """`do var <- bound; body`.  `live` holds the free variables of `body`,
    the only ones the rest of the sequence reads, and `closed` says that
    `bound` reads no variable at all; the parser sets both.  A hand-built node
    keeps the defaults None and False, which the evaluator reads as every
    variable in scope and a bound evaluated each time it is reached."""

    __slots__ = ("var", "bound", "body", "live", "closed")
    _fields = ("var", "bound", "body")

    def __init__(self, var: str, bound: "Expr", body: "Expr",
                 live: Optional[Tuple[str, ...]] = None, closed: bool = False) -> None:
        self.var, self.bound, self.body, self.live, self.closed = var, bound, body, live, closed


class Uniform(_Node):
    __slots__ = _fields = ("default", "items")

    def __init__(self, default: ValueExpr, items: Tuple[ValueExpr, ...]) -> None:
        self.default, self.items = default, items


class Arbitrary(_Node):
    __slots__ = _fields = ("default", "items")

    def __init__(self, default: ValueExpr, items: Tuple[ValueExpr, ...]) -> None:
        self.default, self.items = default, items


Expr = Union[Ret, Choice, Alt, Bind, Uniform, Arbitrary]

KEYWORDS = {"ret", "do", "uniform", "arbitrary", "true", "false"}


# --- Scanner -----------------------------------------------------------

_OPERATORS = {
    "[~]": "ALT", "<|": "LCHOICE", "|>": "RCHOICE", "<-": "ARROW", "==": "EQEQ",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA", ";": "SEMI", "/": "SLASH",
}
# The kind of each token that its text alone decides.
_KINDS = {**{w: w.upper() for w in KEYWORDS}, **_OPERATORS, "\n": "NL", "": "EOF"}

# (blanks)(token): the token is a newline, an operator (longest first), an
# integer, a word, the end of the text, or else the one character that starts
# none.  `\w` is exactly `str.isalnum()` or `_`, and a word must start with
# `isalpha()` or `_`, so a non-ASCII digit or numeral is a bad character.
_TOKEN = re.compile(
    r"([ \t\r]*)(\n|"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + r"|-?[0-9]+|\w+|\Z|.)",
    re.DOTALL,
)


def _tokenize(text: str) -> Tuple[List[str], List[str], List[Pos]]:
    """The kinds, texts and positions of the tokens of `text`, up to EOF."""
    kinds: List[str] = []
    texts: List[str] = []
    poss: List[Pos] = []
    line, col = 1, 1
    for blanks, tok in _TOKEN.findall(text):
        col += len(blanks)
        kind = _KINDS.get(tok)
        if kind is None:
            first = tok[0]
            if first in "0123456789" or (first == "-" and tok != "-"):
                kind = "INT"
            elif first.isalpha() or first == "_":
                kind = "SYMBOL" if first.isupper() else "VAR"
            else:
                raise SourceError("syntax", line, col, f"unexpected character {first!r}")
        elif kind == "NL":
            line, col = line + 1, 1
            continue
        kinds.append(kind)
        texts.append(tok)
        poss.append((line, col))
        if kind == "EOF":
            break
        col += len(tok)
    return kinds, texts, poss


# --- Parser ------------------------------------------------------------


def _quote(text: str) -> str:
    """`text` quoted for an error message, cut to QUOTE_LIMIT characters."""
    if len(text) > QUOTE_LIMIT:
        text = text[:QUOTE_LIMIT] + "..."
    return repr(text)


class _Parser:
    """Recursive descent over the token lists; token `i` is the next to read."""

    def __init__(self, kinds: List[str], texts: List[str], poss: List[Pos]) -> None:
        self.kinds, self.texts, self.poss = kinds, texts, poss
        self.i = 0
        self.depth = 0
        # name -> how many enclosing binders bind it
        self.scope: Dict[str, int] = {}
        # the variables read so far that no binder inside the body of each
        # enclosing binder binds, innermost last; the first is the whole text
        self.reads: List[Set[str]] = [set()]
        self.unbound: Optional[SourceError] = None  # the first, in source order

    def expect(self, kind: str, what: str) -> int:
        """Read the next token, which must be of `kind`; its index."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.err(f"expected {what}, found {_quote(self.texts[i] or 'end of input')}")
        self.i = i + 1
        return i

    def err(self, msg: str) -> SourceError:
        return SourceError("syntax", *self.poss[self.i], msg)

    def integer(self, i: int) -> int:
        # int() refuses more digits than the interpreter's conversion limit
        text = self.texts[i]
        try:
            return int(text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            msg = f"integer literal of {len(text.lstrip('-'))} digits, over the limit of {limit}"
            raise SourceError("syntax", *self.poss[i], msg) from None

    def open_paren(self) -> None:
        if self.depth == MAX_PAREN_DEPTH:
            raise self.err(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
        self.i += 1
        self.depth += 1

    def close_paren(self) -> None:
        self.expect("RPAREN", "')'")
        self.depth -= 1

    def parse_expr(self) -> Expr:
        # A `do` sequence is read in a loop and its binders are nested from the
        # last one back, so a long sequence does not recurse.  Each variable is
        # in scope from the end of its bound expression to the end of this one,
        # where its binder's body is read.  The free variables of a body are
        # those read in it, less the variable of each binder inside it from
        # that binder's body on: free(do x <- m; r) = free(m) | free(r) - {x}.
        # A bound is closed when free(m) is empty.
        heads = []
        kinds, scope, reads = self.kinds, self.scope, self.reads
        while kinds[self.i] == "DO":
            self.i += 1
            var = self.texts[self.expect("VAR", "a variable name")]
            self.expect("ARROW", "'<-'")
            reads.append(set())
            bound = self.parse_alt()
            read = reads.pop()
            reads[-1] |= read
            self.expect("SEMI", "';'")
            scope[var] = scope.get(var, 0) + 1
            reads.append(set())
            heads.append((var, bound, not read))
        expr = self.parse_alt()
        for var, bound, closed in reversed(heads):
            scope[var] -= 1
            live = reads.pop()
            expr = Bind(var, bound, expr, tuple(sorted(live)), closed)
            live.discard(var)
            reads[-1] |= live
        return expr

    def parse_alt(self) -> Expr:
        left = self.parse_choice()
        kinds = self.kinds
        while kinds[self.i] == "ALT":
            self.i += 1
            left = Alt(left, self.parse_choice())
        return left

    def parse_choice(self) -> Expr:
        left = self.parse_primary()
        kinds = self.kinds
        while kinds[self.i] == "LCHOICE":
            self.i += 1
            p = self.parse_prob()
            self.expect("RCHOICE", "'|>'")
            left = Choice(p, left, self.parse_primary())
        return left

    def parse_prob(self) -> Prob:
        i = self.expect("INT", "a probability")
        num = self.integer(i)
        den = 1
        if self.kinds[self.i] == "SLASH":
            self.i += 1
            den = self.integer(self.expect("INT", "a denominator"))
        try:
            return prob_make(num, den)
        except ProbError as exc:
            raise SourceError("syntax", *self.poss[i], str(exc)) from exc

    def parse_primary(self) -> Expr:
        i = self.i
        kind = self.kinds[i]
        if kind == "RET":
            self.i = i + 1
            return Ret(self.parse_value())
        if kind == "UNIFORM" or kind == "ARBITRARY":
            self.i = i + 1
            default = self.parse_value()
            self.expect("LBRACKET", "'['")
            items: List[ValueExpr] = []
            kinds = self.kinds
            if kinds[self.i] != "RBRACKET":
                items.append(self.parse_value())
                while kinds[self.i] == "COMMA":
                    self.i += 1
                    items.append(self.parse_value())
            self.expect("RBRACKET", "']'")
            node = Uniform if kind == "UNIFORM" else Arbitrary
            return node(default, tuple(items))
        if kind == "LPAREN":
            self.open_paren()
            inner = self.parse_expr()
            self.close_paren()
            return inner
        raise self.err(f"expected an expression, found {_quote(self.texts[i] or 'end of input')}")

    def parse_value(self) -> ValueExpr:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "VAR":
            self.i = i + 1
            if self.scope.get(text):
                self.reads[-1].add(text)
            elif self.unbound is None:
                msg = f"unbound variable {_quote(text)}"
                self.unbound = SourceError("unbound-variable", *self.poss[i], msg)
            return Var(text, self.poss[i])
        if kind == "INT":
            self.i = i + 1
            return Lit(self.integer(i))
        if kind == "SYMBOL":
            self.i = i + 1
            return Lit(text)
        if kind == "TRUE" or kind == "FALSE":
            self.i = i + 1
            return Lit(kind == "TRUE")
        if kind == "LPAREN":
            self.open_paren()
            left = self.parse_value()
            if self.kinds[self.i] == "EQEQ":
                self.i += 1
                left = Eq(left, self.parse_value(), self.poss[i])
            self.close_paren()
            return left
        raise self.err(f"expected a value, found {_quote(text or 'end of input')}")


def parse(text: str) -> Expr:
    """Parse a program; raises SourceError with a position on failure."""
    parser = _Parser(*_tokenize(text))
    expr = parser.parse_expr()
    i = parser.i
    if parser.kinds[i] != "EOF":
        raise parser.err(f"unexpected trailing input {_quote(parser.texts[i])}")
    if parser.unbound is not None:
        raise parser.unbound
    return expr


# --- Printer -----------------------------------------------------------

_LEVEL_EXPR, _LEVEL_ALT, _LEVEL_CHOICE, _LEVEL_PRIMARY = 0, 1, 2, 3


def _level(e: Expr) -> int:
    if isinstance(e, Bind):
        return _LEVEL_EXPR
    if isinstance(e, Alt):
        return _LEVEL_ALT
    if isinstance(e, Choice):
        return _LEVEL_CHOICE
    return _LEVEL_PRIMARY


def render_value_expr(v: ValueExpr) -> str:
    if isinstance(v, Lit):
        return render_outcome(v.value)
    if isinstance(v, Var):
        return v.name
    return f"({render_value_expr(v.left)} == {render_value_expr(v.right)})"


def render_expr(e: Expr) -> str:
    """Pretty-print with minimal parentheses; parse(render_expr(e)) == e."""
    return _render_at(e, _LEVEL_EXPR)


def _render_at(e: Expr, need: int) -> str:
    text = _render_raw(e)
    if _level(e) < need:
        return f"({text})"
    return text


def _render_raw(e: Expr) -> str:
    if isinstance(e, Ret):
        return f"ret {render_value_expr(e.value)}"
    if isinstance(e, Bind):
        # The body spine is walked in a loop, so a long sequence does not
        # recurse; a body never needs parentheses.
        heads = []
        while isinstance(e, Bind):
            heads.append(f"do {e.var} <- {_render_at(e.bound, _LEVEL_ALT)}; ")
            e = e.body
        return "".join(heads) + _render_raw(e)
    if isinstance(e, (Choice, Alt)):
        # The left spine is walked in a loop, so a long chain does not
        # recurse; it ends at the first left operand that needs parentheses.
        tails = []
        while isinstance(e, (Choice, Alt)):
            if isinstance(e, Alt):
                need, right = _LEVEL_ALT, f" [~] {_render_at(e.right, _LEVEL_CHOICE)}"
            else:
                need, right = _LEVEL_CHOICE, f" <|{e.prob}|> {_render_at(e.right, _LEVEL_PRIMARY)}"
            tails.append(right)
            e = e.left
            if _level(e) < need:
                break
        return _render_at(e, need) + "".join(reversed(tails))
    if isinstance(e, (Uniform, Arbitrary)):
        items = ", ".join(render_value_expr(v) for v in e.items)
        keyword = "uniform" if isinstance(e, Uniform) else "arbitrary"
        return f"{keyword} {render_value_expr(e.default)} [{items}]"
    raise TypeError(f"not an expression: {e!r}")


# --- Evaluator ---------------------------------------------------------

def eval_value(v: ValueExpr, env: Dict[str, Outcome]) -> Outcome:
    if isinstance(v, Lit):
        return v.value
    if isinstance(v, Var):
        if v.name not in env:
            raise SourceError(
                "unbound-variable", v.pos[0], v.pos[1], f"unbound variable {v.name!r}"
            )
        return env[v.name]
    if isinstance(v, Eq):
        left = eval_value(v.left, env)
        right = eval_value(v.right, env)
        if type(left) is not type(right) or type(left) not in (bool, int, str):
            raise SourceError(
                "type",
                v.pos[0],
                v.pos[1],
                f"cannot compare {render_outcome(left)} and {render_outcome(right)}",
            )
        return left == right
    raise TypeError(f"not a value expression: {v!r}")


def eval_expr(e: Expr, env: Optional[Dict[str, Outcome]] = None, memo: Optional[dict] = None) -> GcmVal:
    """Compositional evaluation in the combined-choice monad.

    Each `do` of one evaluation, in an operand or a bound too, shares `memo` (see `_eval_do`)."""
    env, memo = env or {}, {} if memo is None else memo
    if isinstance(e, Ret):
        return ret_gcm(eval_value(e.value, env))
    if isinstance(e, (Choice, Alt)):
        # The left spine is walked in a loop, so a long chain does not
        # recurse; operands are still evaluated left to right.
        spine = []
        while isinstance(e, (Choice, Alt)):
            spine.append(e)
            e = e.left
        value = eval_expr(e, env, memo)
        for node in reversed(spine):
            right = eval_expr(node.right, env, memo)
            value = (
                choice_gcm(node.prob, value, right)
                if isinstance(node, Choice)
                else alt_gcm(value, right)
            )
        return value
    if isinstance(e, Bind):
        return _eval_do(e, env, memo)
    if isinstance(e, (Uniform, Arbitrary)):
        make = uniform if isinstance(e, Uniform) else arbitrary
        return make(eval_value(e.default, env), [eval_value(v, env) for v in e.items])
    raise TypeError(f"not an expression: {e!r}")


def _eval_do(e: Bind, env: Dict[str, Outcome], memo: Dict[object, GcmVal]) -> GcmVal:
    """A `do` sequence by the monad laws, with the rest evaluated only as often
    as the values it reads differ.

    Each bound expression is evaluated, in order, and its binder settled by
    one of three rules:

    - unread (its variable is not in `Bind.live`): it binds nothing, since a
      value is a non-empty set of total distributions and so `m >> n = n`;
    - one outcome: the bound value is `ret a`, so `a` is bound in place
      (left unit, `bind (ret a) k = k a`);
    - otherwise `bind_gcm` runs the rest once per outcome, and the rest is
      evaluated once per distinct tuple of values of the variables it reads,
      kept in `memo` for the whole evaluation.  A variable that the rest does not
      read drops out of its key (associativity: `do x <- m; do y <- k; r` is
      `do y <- (do x <- m; k); r` when `r` does not read `x`), so a chain in
      which each binder reads only the one before is evaluated in linear time.
      Misses are evaluated in the order in which `bind_gcm` first calls its
      continuation, so the first error raised is the one nested binds raise.
      Each such binder costs four frames of recursion, so about 250 of them
      in one chain reach the interpreter's recursion limit.

    A bound that reads no variable at all (`Bind.closed`) has one value
    wherever it is reached, so it is evaluated where first reached, which
    keeps its first error, and kept in `memo` under its node's identity for
    the whole evaluation.  "No earlier binder of this sequence" would not do:
    a `do` in a body, bound or operand shares `memo` and may read an outer
    binder.  A hand-built node (`live` None) keys on each variable's name too.
    """
    while isinstance(e, Bind):
        if not e.closed:
            bound = eval_expr(e.bound, env, memo)
        elif (bound := memo.get(id(e))) is None:
            bound = memo[id(e)] = eval_expr(e.bound, env, memo)
        if e.live is None or e.var in e.live:
            gens = bound.generators
            if len(gens) > 1 or len(gens[0].outcomes) > 1:
                return bind_gcm(bound, partial(_eval_rest, e, env, memo))
            env = {**env, e.var: gens[0].outcomes[0]}
        e = e.body
    return eval_expr(e, env, memo)


def _eval_rest(e: Bind, env: Dict[str, Outcome], memo: Dict[object, GcmVal], a: Outcome) -> GcmVal:
    """The body of `e` with its variable bound to `a`, through `memo`."""
    env = {**env, e.var: a}
    if e.live is None:
        key = (id(e), *[(v, outcome_key(b)) for v, b in env.items()])
    else:
        key = (id(e), *[outcome_key(env[v]) for v in e.live])
    value = memo.get(key)
    if value is None:
        value = memo[key] = _eval_do(e.body, env, memo)
    return value


def run(text: str) -> GcmVal:
    return eval_expr(parse(text))


# --- Library programs --------------------------------------------------


def uniform(default: Outcome, values: Sequence[Outcome]) -> GcmVal:
    """Uniformly random element of `values` (`default` if empty)."""
    if not values:
        return ret_gcm(default)
    return singleton_necset(_normalized((outcome_key(v), v, 1) for v in values))


def arbitrary(default: Outcome, values: Sequence[Outcome]) -> GcmVal:
    """Nondeterministically chosen element of `values` (`default` if empty)."""
    if not values:
        return ret_gcm(default)
    return from_generators([point(v) for v in values])


def bcoin(p: Prob) -> GcmVal:
    """Biased coin: true with probability p."""
    return choice_gcm(p, ret_gcm(True), ret_gcm(False))


def arb() -> GcmVal:
    """Arbitrary boolean."""
    return alt_gcm(ret_gcm(True), ret_gcm(False))


def coinarb(p: Prob) -> GcmVal:
    """Flip a p-biased coin, then compare with an arbitrary boolean."""
    return bind_gcm(bcoin(p), lambda c: bind_gcm(arb(), lambda a: ret_gcm(a == c)))


def coinarb_source(p: Prob) -> str:
    """The coinarb program as DSL source text."""
    return (
        f"do c <- ret true <|{p}|> ret false; "
        "do a <- ret true [~] ret false; ret (a == c)"
    )


DOORS: Tuple[str, ...] = ("A", "B", "C")


def _without(xs: Sequence[str], removed: Sequence[str]) -> List[str]:
    return [x for x in xs if x not in removed]


def monty(strategy: str) -> GcmVal:
    """The full game over three doors; `strategy` is 'stick' or 'switch'.

    The car is hidden nondeterministically, the player picks uniformly,
    the host teases by opening a nondeterministic goat door, and the
    strategy maps (picked, teased) to a final door.  The result is the
    distribution set of "player wins".
    """
    doors = list(DOORS)
    default = doors[0]

    hide = arbitrary(default, doors)
    pick = uniform(default, doors)

    def tease(h: str, p: str) -> GcmVal:
        return arbitrary(default, _without(doors, [h, p]))

    if strategy == "stick":
        def strat(p: str, t: str) -> GcmVal:
            return ret_gcm(p)
    elif strategy == "switch":
        def strat(p: str, t: str) -> GcmVal:
            remaining = _without(doors, [p, t])
            return ret_gcm(remaining[0] if remaining else default)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return bind_gcm(
        hide,
        lambda h: bind_gcm(
            pick,
            lambda p: bind_gcm(
                tease(h, p),
                lambda t: bind_gcm(strat(p, t), lambda s: ret_gcm(s == h)),
            ),
        ),
    )


# --- Rendering of monadic values ---------------------------------------


def _structured_outcome(x: Outcome):
    if isinstance(x, Dist):
        return {"dist": _structured_dist(x)}
    if isinstance(x, NECSet):
        return {"necset": _structured_necset(x)}
    return x


def _structured_dist(d: Dist) -> list:
    return [[_structured_outcome(k), render_rational(n, d.den)] for k, n in zip(d.outcomes, d.nums)]


def _structured_necset(v: NECSet) -> list:
    return [_structured_dist(d) for d in v.generators]


def render(v: GcmVal, fmt: str = "text") -> str:
    """Render a monadic value; equal values render byte-identically.

    text: one generator per line, in canonical order.
    structured: JSON array of generators, each an array of [key, weight] pairs.
    """
    if fmt == "text":
        return "\n".join(render_dist(d) for d in v.generators)
    if fmt == "structured":
        import json  # here, so that a text render loads no JSON module
        return json.dumps(_structured_necset(v), separators=(",", ":"), sort_keys=True)
    raise ValueError(f"unknown format {fmt!r}")
