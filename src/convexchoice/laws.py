"""Law registry and randomized checking harness.

`REGISTRY` is the one table of laws, in the order they are checked.  An
equation is written as data by `_equation`: a draw `(rng, cfg) -> {name:
input}` and its sides `(**inputs) -> (lhs, rhs)`; its counterexample shows
the inputs in draw order, then `lhs` and `rhs`.  A law whose counterexample
shows anything else is a predicate `(rng, cfg) -> Optional[str]`.  To add a
law, add its entry to the table: a draw lists its inputs in the order they
read the RNG, and sides that use a value twice bind it once, in a named
function.

A check runs a configured number of independent trials; each trial derives
its own RNG purely from (seed, law name, trial index), so reports are
deterministic and trials could run in any order.  Two negative controls are
deliberately false laws the harness must refute; they document the
rejected right-distributivity axioms and establish that the harness can
detect a false law at these instance sizes.

The trial RNG is a plain `random.Random`.  `gen_dist`, which builds most of
every instance, reads its `getrandbits` stream by rules of its own, held
once here: `_below(n)` takes `getrandbits(n.bit_length())` again while it is
>= n, and `_sample` picks from a `range` of at most 21 items by swapping its
pool; it builds a distribution over the carrier straight in normal form.
Every other draw (`randint`, `choice`, `sample`, `shuffle`, `random`) is
`random.Random`'s own method, whose output Python does not promise to keep
across versions; CI checks the 200-trial report bytes on 3.10 to 3.13.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .convexgeom import (
    DIST_INSTANCE,
    RAT_INSTANCE,
    canonicalize,
    barycenter,
    convn,
    in_hull,
    in_hull_oracle,
)
from .dist import (
    Dist,
    _normalized,
    bind_dist,
    compare_dist,
    conv_dist,
    map_dist,
    mix_dists,
    outcome_key,
    point,
    render_outcome,
)
from .gcm import (
    GcmVal,
    alt_gcm,
    bind_gcm,
    bind_gcm_direct,
    choice_gcm,
    join_gcm,
    map_gcm,
    ret_gcm,
)
from .necset import (
    NECSET_INSTANCE,
    alt_necset,
    conv_necset,
    from_generators,
    lub_necset,
    member,
)
from .prob import Prob, complement, r_of, s_of
from .programs import arbitrary

Rng = random.Random


@dataclass(frozen=True)
class GenConfig:
    """Trials per law and the seed of their RNGs; the instance bounds are fixed."""

    carrier_size = 4
    max_support = 4
    max_generators = 4
    max_denominator = 12
    trials: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Counterexample:
    trial: int
    rendered: str


@dataclass(frozen=True)
class LawCase:
    """A registered law; `checker` runs one trial and returns its rendered counterexample or None."""

    name: str
    expected: str  # "pass" | "fail" (negative control)
    checker: Callable[[Rng, GenConfig], Optional[str]]
    description: str = ""


@dataclass(frozen=True)
class LawReport:
    name: str
    expected: str
    trials: int
    failures: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A law that must hold has no counterexample; a negative control has one."""
        return bool(self.failures) == (self.expected == "fail")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw below n > 0 by CPython 3.11's `_randbelow`: `getrandbits(n.bit_length())` again while >= n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits: Callable[[int], int], population: range, k: int) -> list:
    """k items of a `range` of at most 21, 0 < k <= its length, by CPython 3.11's pool swap."""
    pool, result = list(population), []
    for m in range(len(pool), len(pool) - k, -1):  # the m items not chosen yet are pool[:m]
        j = _below(getrandbits, m)
        result.append(pool[j])
        pool[j] = pool[m - 1]
    return result


def trial_rng(seed: int, law_name: str, trial: int) -> Rng:
    """The RNG of one trial, seeded from (seed, law name, trial) alone.

    A plain `random.Random` seeded with the first 8 bytes of the sha256 of
    `"{seed}|{law_name}|{trial}"`, so no hash seed or earlier trial moves it.
    """
    digest = hashlib.sha256(f"{seed}|{law_name}|{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# --- instance generators -------------------------------------------------

_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"
_SYMBOL_KEYS = tuple(map(outcome_key, _SYMBOLS))


def carrier_of(cfg: GenConfig) -> List[str]:
    return list(_SYMBOLS[: cfg.carrier_size])


def gen_prob(rng: Rng, cfg: GenConfig) -> Prob:
    den = rng.randint(1, cfg.max_denominator)
    return Prob(Fraction(rng.randint(0, den), den))


def _gen_widths(rng: Rng, cfg: GenConfig, size: int) -> List[int]:
    """`size` positive integers whose sum, `den`, is at most `max_denominator`.

    They take the bits of `randint(size, max_denominator)` for `den` and then,
    past one width, of `sorted(sample(range(1, den), size - 1))` for the cuts.
    """
    max_den = cfg.max_denominator
    if not 0 < size <= max_den:
        raise ValueError(f"{size} positive widths cannot sum to at most {max_den}")
    getrandbits = rng.getrandbits
    den = size + _below(getrandbits, max_den - size + 1)
    if size == 1:
        return [den]
    bounds = [0, *sorted(_sample(getrandbits, range(1, den), size - 1)), den]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def gen_dist(
    rng: Rng,
    cfg: GenConfig,
    keys: Optional[Sequence[object]] = None,
    max_support: Optional[int] = None,
) -> Dist:
    """A distribution over 1 to `max_support` items of `keys`, by default the carrier.

    It reads the bits of `randint(1, cap)`, `sample(range(len(pool)), size)`
    and `_gen_widths`, in that order, in one pass through `_below` and
    `_sample` (`rng.sample` past 21 items).  Over the carrier, whose symbols
    are distinct and in key order, it is built sorted by symbol, with `okeys`
    from `_SYMBOL_KEYS` and `den` the sum of its widths; a `keys` pool, whose
    values may be equal, goes through `_normalized`.
    """
    n = cfg.carrier_size if keys is None else len(keys)
    cap = min(max_support or cfg.max_support, n, cfg.max_denominator)
    if cap < 1:
        raise ValueError("gen_dist needs a nonempty pool and a positive max_support")
    getrandbits = rng.getrandbits
    size = 1 + _below(getrandbits, cap)
    support = _sample(getrandbits, range(n), size) if n <= 21 else rng.sample(range(n), size)
    widths = _gen_widths(rng, cfg, size)
    if keys is not None:
        return _normalized((outcome_key(keys[i]), keys[i], w) for i, w in zip(support, widths))
    pairs = sorted(zip(support, widths))
    d = Dist(tuple([_SYMBOLS[i] for i, _ in pairs]), [w for _, w in pairs], sum(widths))
    d.__dict__["okeys"] = tuple([_SYMBOL_KEYS[i] for i, _ in pairs])
    return d


def gen_gcm(
    rng: Rng,
    cfg: GenConfig,
    keys: Optional[Sequence[object]] = None,
    max_generators: Optional[int] = None,
    max_support: Optional[int] = None,
) -> GcmVal:
    count = rng.randint(1, max_generators or cfg.max_generators)
    return from_generators(
        [gen_dist(rng, cfg, keys=keys, max_support=max_support) for _ in range(count)]
    )


def gen_function(rng: Rng, cfg: GenConfig) -> Dict[str, str]:
    cs = carrier_of(cfg)
    return {a: rng.choice(cs) for a in cs}


def gen_kleisli(
    rng: Rng,
    cfg: GenConfig,
    max_generators: Optional[int] = None,
    max_support: Optional[int] = None,
) -> Dict[str, GcmVal]:
    return {
        a: gen_gcm(rng, cfg, max_generators=max_generators, max_support=max_support)
        for a in carrier_of(cfg)
    }


def _gen_nested(rng: Rng, cfg: GenConfig) -> GcmVal:
    """A monadic value whose outcome carrier is itself monadic values."""
    pool = [
        gen_gcm(rng, cfg, max_generators=2, max_support=2)
        for _ in range(rng.randint(1, 3))
    ]
    return gen_gcm(rng, cfg, keys=pool, max_generators=2, max_support=2)


def _gen_nested2(rng: Rng, cfg: GenConfig) -> GcmVal:
    """Two levels of nesting: values over values over the base carrier."""
    pool = [_gen_nested(rng, cfg) for _ in range(rng.randint(1, 2))]
    return gen_gcm(rng, cfg, keys=pool, max_generators=2, max_support=2)


def _mixture_member(rng: Rng, cfg: GenConfig, x: GcmVal) -> Dist:
    """A random convex combination of x's generators: a member by construction."""
    widths = _gen_widths(rng, cfg, rng.randint(1, len(x.generators)))
    chosen = rng.sample(range(len(x.generators)), len(widths))
    return mix_dists([(w, x.generators[i]) for i, w in zip(chosen, widths)])


# --- counterexample rendering --------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{k}->{_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return render_outcome(value)


def _ce(**parts) -> str:
    return "; ".join(f"{k}={_fmt(v)}" for k, v in parts.items())


def _eq_or_ce(lhs, rhs, **inputs) -> Optional[str]:
    if lhs == rhs:
        return None
    return _ce(**inputs, lhs=lhs, rhs=rhs)


# --- laws -----------------------------------------------------------------


def _equation(
    name: str,
    expected: str,
    description: str,
    draw: Callable[[Rng, GenConfig], Dict[str, object]],
    sides: Callable[..., Tuple[object, object]],
) -> LawCase:
    """The law `lhs == rhs` for `lhs, rhs = sides(**draw(rng, cfg))`, shown with the inputs when false."""

    def check(rng: Rng, cfg: GenConfig) -> Optional[str]:
        inputs = draw(rng, cfg)
        return _eq_or_ce(*sides(**inputs), **inputs)

    return LawCase(name, expected, check, description)


def _registry(*cases: LawCase) -> Dict[str, LawCase]:
    """The cases by name, in the order given; a name given twice is a ValueError."""
    registry: Dict[str, LawCase] = {}
    for case in cases:
        if case.name in registry:
            raise ValueError(f"law name {case.name!r} is registered twice")
        registry[case.name] = case
    return registry


def _gen_dist_table(rng: Rng, cfg: GenConfig) -> Dict[str, Dist]:
    """A distribution for each carrier symbol: an arrow of the distribution monad."""
    return {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}


def _gen_generators(rng: Rng, cfg: GenConfig) -> List[Dist]:
    return [gen_dist(rng, cfg) for _ in range(rng.randint(1, cfg.max_generators + 2))]


def _gen_family(rng: Rng, cfg: GenConfig, most: int) -> List[GcmVal]:
    return [gen_gcm(rng, cfg, max_generators=2) for _ in range(rng.randint(1, most))]


def _gen_small(rng: Rng, cfg: GenConfig) -> GcmVal:
    """A value of at most two generators over at most three outcomes, for the laws that bind."""
    return gen_gcm(rng, cfg, max_generators=2, max_support=3)


def _gen_small_kleisli(rng: Rng, cfg: GenConfig, max_support: int) -> Dict[str, GcmVal]:
    return gen_kleisli(rng, cfg, max_generators=2, max_support=max_support)


def _gen_rationals(rng: Rng, cfg: GenConfig) -> List[Fraction]:
    bound = cfg.max_denominator
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(rng.randint(1, 4))]


def _gen_weights(rng: Rng, cfg: GenConfig, n: int) -> Dist:
    """Mixing weights on the indices 0 .. n-1."""
    return gen_dist(rng, cfg, keys=range(n), max_support=n)


def _law_prob_rs(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p, q = gen_prob(rng, cfg), gen_prob(rng, cfg)
    s, r = s_of(p, q), r_of(p, q)
    ok = complement(s).value == complement(p).value * complement(q).value
    if s.value != 0:
        ok = ok and r.value * s.value == p.value
    return None if ok else _ce(p=p, q=q, r=r, s=s)


def _law_dist_order_total(rng: Rng, cfg: GenConfig) -> Optional[str]:
    ds = [gen_dist(rng, cfg) for _ in range(3)]
    for a in ds:
        for b in ds:
            cab, cba = compare_dist(a, b), compare_dist(b, a)
            if cab != -cba or (cab == 0) != (a == b):
                return _ce(d1=a, d2=b)
    for a in ds:
        for b in ds:
            for c in ds:
                if compare_dist(a, b) <= 0 and compare_dist(b, c) <= 0:
                    if compare_dist(a, c) > 0:
                        return _ce(d1=a, d2=b, d3=c)
    return None


def _convn_perm_draw(gen_points: Callable[[Rng, GenConfig], list]):
    """Points, mixing weights on their indices, and a permutation of the indices."""

    def draw(rng: Rng, cfg: GenConfig) -> Dict[str, object]:
        points = gen_points(rng, cfg)
        weights = _gen_weights(rng, cfg, len(points))
        perm = list(range(len(points)))
        rng.shuffle(perm)
        return {"weights": weights, "points": points, "perm": perm}

    return draw


def _convn_perm_sides(inst):
    """The points mixed, and mixed again with points and weights moved by the permutation."""

    def sides(weights: Dist, points: list, perm: List[int]) -> tuple:
        permuted_points = [None] * len(points)
        for i, v in enumerate(points):
            permuted_points[perm[i]] = v
        permuted_weights = map_dist(perm.__getitem__, weights)
        return convn(weights, points, inst), convn(permuted_weights, permuted_points, inst)

    return sides


def _gen_hull_instance(rng: Rng, cfg: GenConfig, max_gens: int):
    gens = [gen_dist(rng, cfg) for _ in range(rng.randint(1, max_gens))]
    if rng.random() < 0.5:
        x = gen_dist(rng, cfg)
    else:
        x = mix_dists(list(zip(_gen_widths(rng, cfg, len(gens)), gens)))
    return x, gens


def _law_hull_oracle_agree(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, gens = _gen_hull_instance(rng, cfg, max_gens=6)
    lp, oracle = in_hull(x, gens), in_hull_oracle(x, gens)
    if lp == oracle:
        return None
    return _ce(x=x, generators=gens, simplex=lp, oracle=oracle)


def _canonicalize_twice(generators: List[Dist]) -> tuple:
    once = canonicalize(generators)
    return canonicalize(once), once


def _law_canonicalize_hull_preserved(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, gens = _gen_hull_instance(rng, cfg, max_gens=cfg.max_generators + 2)
    lhs = in_hull(x, gens)
    rhs = in_hull(x, canonicalize(gens))
    if lhs == rhs:
        return None
    return _ce(x=x, generators=gens, full=lhs, canonical=rhs)


def _law_canonicalize_order_independent(rng: Rng, cfg: GenConfig) -> Optional[str]:
    gens = _gen_generators(rng, cfg)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    return _eq_or_ce(canonicalize(shuffled), canonicalize(gens), generators=gens)


def _draw_lub_op_hull(rng: Rng, cfg: GenConfig) -> Dict[str, object]:
    family = _gen_family(rng, cfg, 3)
    weights = _gen_weights(rng, cfg, len(family))
    return {"family": family, "weights": weights, "mixture": convn(weights, family, NECSET_INSTANCE)}


def _law_necset_eq_extensional(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x = gen_gcm(rng, cfg, max_generators=3)
    y = gen_gcm(rng, cfg, max_generators=3)
    mutual = all(member(g, y) for g in x.generators) and all(
        member(h, x) for h in y.generators
    )
    if (x == y) == mutual:
        return None
    return _ce(x=x, y=y, structural=(x == y), extensional=mutual)


def _law_member_convex(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x = gen_gcm(rng, cfg, max_generators=3)
    p = gen_prob(rng, cfg)
    u = _mixture_member(rng, cfg, x)
    v = _mixture_member(rng, cfg, x)
    if not member(u, x) or not member(v, x):
        return _ce(x=x, u=u, v=v, note="constructed member rejected")
    mix = conv_dist(p, u, v)
    if member(mix, x):
        return None
    return _ce(x=x, p=p, u=u, v=v, mixture=mix)


def _draw_choiceA(rng: Rng, cfg: GenConfig) -> Dict[str, object]:
    p, q = gen_prob(rng, cfg), gen_prob(rng, cfg)
    x, y, z = (gen_gcm(rng, cfg, max_generators=2) for _ in range(3))
    return {"p": p, "q": q, "r": r_of(p, q), "s": s_of(p, q), "x": x, "y": y, "z": z}


def _law_choice_nontrivial(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    q = gen_prob(rng, cfg)
    for _ in range(64):
        if q != p:
            break
        q = gen_prob(rng, cfg)
    if q == p:
        return None  # degenerate bound; cannot sample distinct probabilities
    lhs = choice_gcm(p, ret_gcm(True), ret_gcm(False))
    rhs = choice_gcm(q, ret_gcm(True), ret_gcm(False))
    if lhs != rhs:
        return None
    return _ce(p=p, q=q, value=lhs)


# --- registry -------------------------------------------------------------

REGISTRY: Dict[str, LawCase] = _registry(
    # prob / dist level
    LawCase("prob_rs", "pass", _law_prob_rs, "mixing-weight side conditions"),
    _equation("dist_map_affine", "pass", "pushforward is affine",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), d1=gen_dist(rng, cfg), d2=gen_dist(rng, cfg),
                                    f=gen_function(rng, cfg)),
              lambda p, d1, d2, f: (map_dist(f.__getitem__, conv_dist(p, d1, d2)),
                                    conv_dist(p, map_dist(f.__getitem__, d1), map_dist(f.__getitem__, d2)))),
    _equation("dist_bindretf", "pass", "dist monad left unit",
              lambda rng, cfg: dict(a=rng.choice(carrier_of(cfg)), k=_gen_dist_table(rng, cfg)),
              lambda a, k: (bind_dist(point(a), k.__getitem__), k[a])),
    _equation("dist_bindmret", "pass", "dist monad right unit",
              lambda rng, cfg: dict(d=gen_dist(rng, cfg)),
              lambda d: (bind_dist(d, point), d)),
    _equation("dist_bindA", "pass", "dist monad associativity",
              lambda rng, cfg: dict(d=gen_dist(rng, cfg), k1=_gen_dist_table(rng, cfg),
                                    k2=_gen_dist_table(rng, cfg)),
              lambda d, k1, k2: (bind_dist(bind_dist(d, k1.__getitem__), k2.__getitem__),
                                 bind_dist(d, lambda a: bind_dist(k1[a], k2.__getitem__)))),
    _equation("dist_bindDl", "pass", "dist bind distributes left over mixing",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), d1=gen_dist(rng, cfg), d2=gen_dist(rng, cfg),
                                    k=_gen_dist_table(rng, cfg)),
              lambda p, d1, d2, k: (
                  bind_dist(conv_dist(p, d1, d2), k.__getitem__),
                  conv_dist(p, bind_dist(d1, k.__getitem__), bind_dist(d2, k.__getitem__)))),
    _equation("dist_flatten", "pass", "barycenter of point masses",
              lambda rng, cfg: dict(d=gen_dist(rng, cfg)),
              lambda d: (barycenter(map_dist(point, d), DIST_INSTANCE), d)),
    LawCase("dist_order_total", "pass", _law_dist_order_total, "distribution order is total"),
    _equation("barycenter_bind", "pass", "barycenter of pushforward is bind",
              lambda rng, cfg: dict(d=gen_dist(rng, cfg), k=_gen_dist_table(rng, cfg)),
              lambda d, k: (barycenter(map_dist(k.__getitem__, d), DIST_INSTANCE),
                            bind_dist(d, k.__getitem__))),
    _equation("convn_perm_rat", "pass", "n-ary mixing permutation invariance",
              _convn_perm_draw(_gen_rationals), _convn_perm_sides(RAT_INSTANCE)),
    _equation("convn_perm_dist", "pass", "n-ary mixing permutation invariance",
              _convn_perm_draw(lambda rng, cfg: [gen_dist(rng, cfg) for _ in range(rng.randint(1, 4))]),
              _convn_perm_sides(DIST_INSTANCE)),
    _equation("convn_perm_necset", "pass", "n-ary mixing permutation invariance",
              _convn_perm_draw(lambda rng, cfg: [gen_gcm(rng, cfg, max_generators=2, max_support=2)
                                                 for _ in range(rng.randint(1, 3))]),
              _convn_perm_sides(NECSET_INSTANCE)),
    # convex geometry level
    LawCase("hull_oracle_agree", "pass", _law_hull_oracle_agree, "simplex matches enumeration oracle"),
    _equation("canonicalize_idempotent", "pass", "",
              lambda rng, cfg: dict(generators=_gen_generators(rng, cfg)),
              _canonicalize_twice),
    LawCase("canonicalize_hull_preserved", "pass", _law_canonicalize_hull_preserved, ""),
    LawCase("canonicalize_order_independent", "pass", _law_canonicalize_order_independent, ""),
    _equation("affine_image_hull", "pass", "affine images preserve hulls",
              lambda rng, cfg: dict(generators=_gen_generators(rng, cfg), f=gen_function(rng, cfg)),
              lambda generators, f: (
                  canonicalize([map_dist(f.__getitem__, g) for g in generators]),
                  canonicalize([map_dist(f.__getitem__, g) for g in canonicalize(generators)]))),
    # necset level
    _equation("lub_singleton", "pass", "collapse of a one-element family",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg)),
              lambda x: (lub_necset([x]), x)),
    _equation("lub_flatten", "pass", "collapse of family of families",
              lambda rng, cfg: dict(families=[_gen_family(rng, cfg, 2) for _ in range(rng.randint(1, 3))]),
              lambda families: (lub_necset([x for fam in families for x in fam]),
                                lub_necset([lub_necset(fam) for fam in families]))),
    _equation("conv_lub_distr", "pass", "mixing distributes over collapse",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), x=gen_gcm(rng, cfg, max_generators=2),
                                    family=_gen_family(rng, cfg, 3)),
              lambda p, x, family: (conv_necset(p, x, lub_necset(family)),
                                    lub_necset([conv_necset(p, x, y) for y in family]))),
    _equation("lub_op_hull", "pass", "mixtures are absorbed by collapse",
              _draw_lub_op_hull,
              lambda family, weights, mixture: (lub_necset(family + [mixture]), lub_necset(family))),
    LawCase("necset_eq_extensional", "pass", _law_necset_eq_extensional, "structural = extensional equality"),
    _equation("lub_fold", "pass", "family collapse = fold of binary choice",
              lambda rng, cfg: dict(family=_gen_family(rng, cfg, 4)),
              lambda family: (lub_necset(family), reduce(alt_necset, family))),
    LawCase("member_convex", "pass", _law_member_convex, "members are closed under mixing"),
    # gcm level
    _equation("bindretf", "pass", "monad left unit",
              lambda rng, cfg: dict(a=rng.choice(carrier_of(cfg)), k=gen_kleisli(rng, cfg)),
              lambda a, k: (bind_gcm(ret_gcm(a), k.__getitem__), k[a])),
    _equation("bindmret", "pass", "monad right unit",
              lambda rng, cfg: dict(m=gen_gcm(rng, cfg)),
              lambda m: (bind_gcm(m, ret_gcm), m)),
    _equation("bindA", "pass", "monad associativity",
              lambda rng, cfg: dict(m=_gen_small(rng, cfg), k1=_gen_small_kleisli(rng, cfg, 3),
                                    k2=_gen_small_kleisli(rng, cfg, 3)),
              lambda m, k1, k2: (bind_gcm(bind_gcm(m, k1.__getitem__), k2.__getitem__),
                                 bind_gcm(m, lambda a: bind_gcm(k1[a], k2.__getitem__)))),
    _equation("choice0", "pass", "zero-weight choice is the right branch",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg), y=gen_gcm(rng, cfg)),
              lambda x, y: (choice_gcm(Prob(Fraction(0)), x, y), y)),
    _equation("choice1", "pass", "unit-weight choice is the left branch",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg), y=gen_gcm(rng, cfg)),
              lambda x, y: (choice_gcm(Prob(Fraction(1)), x, y), x)),
    _equation("choiceC", "pass", "skewed commutativity",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), x=gen_gcm(rng, cfg), y=gen_gcm(rng, cfg)),
              lambda p, x, y: (choice_gcm(p, x, y), choice_gcm(complement(p), y, x))),
    _equation("choicemm", "pass", "probabilistic choice idempotence",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), x=gen_gcm(rng, cfg)),
              lambda p, x: (choice_gcm(p, x, x), x)),
    _equation("choiceA", "pass", "quasi-associativity",
              _draw_choiceA,
              lambda p, q, r, s, x, y, z: (choice_gcm(p, x, choice_gcm(q, y, z)),
                                           choice_gcm(s, choice_gcm(r, x, y), z))),
    _equation("prob_bindDl", "pass", "bind left-distributes over choice",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), m1=_gen_small(rng, cfg), m2=_gen_small(rng, cfg),
                                    k=_gen_small_kleisli(rng, cfg, 3)),
              lambda p, m1, m2, k: (bind_gcm(choice_gcm(p, m1, m2), k.__getitem__),
                                    choice_gcm(p, bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__)))),
    _equation("altA", "pass", "nondeterministic choice associativity",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg), y=gen_gcm(rng, cfg), z=gen_gcm(rng, cfg)),
              lambda x, y, z: (alt_gcm(x, alt_gcm(y, z)), alt_gcm(alt_gcm(x, y), z))),
    _equation("alt_bindDl", "pass", "bind left-distributes over alt",
              lambda rng, cfg: dict(m1=_gen_small(rng, cfg), m2=_gen_small(rng, cfg),
                                    k=_gen_small_kleisli(rng, cfg, 3)),
              lambda m1, m2, k: (bind_gcm(alt_gcm(m1, m2), k.__getitem__),
                                 alt_gcm(bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__)))),
    _equation("altmm", "pass", "nondeterministic choice idempotence",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg)),
              lambda x: (alt_gcm(x, x), x)),
    _equation("altC", "pass", "nondeterministic choice commutativity",
              lambda rng, cfg: dict(x=gen_gcm(rng, cfg), y=gen_gcm(rng, cfg)),
              lambda x, y: (alt_gcm(x, y), alt_gcm(y, x))),
    _equation("choicealtDr", "pass", "choice distributes over alt",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), x=gen_gcm(rng, cfg, max_generators=2),
                                    y=gen_gcm(rng, cfg, max_generators=2),
                                    z=gen_gcm(rng, cfg, max_generators=2)),
              lambda p, x, y, z: (choice_gcm(p, x, alt_gcm(y, z)),
                                  alt_gcm(choice_gcm(p, x, y), choice_gcm(p, x, z)))),
    _equation("join_ret", "pass", "join after ret",
              lambda rng, cfg: dict(m=gen_gcm(rng, cfg)),
              lambda m: (join_gcm(ret_gcm(m)), m)),
    _equation("join_map_ret", "pass", "join after mapped ret",
              lambda rng, cfg: dict(m=gen_gcm(rng, cfg)),
              lambda m: (join_gcm(map_gcm(ret_gcm, m)), m)),
    _equation("join_naturality", "pass", "join is natural",
              lambda rng, cfg: dict(mm=_gen_nested(rng, cfg), f=gen_function(rng, cfg)),
              lambda mm, f: (map_gcm(f.__getitem__, join_gcm(mm)),
                             join_gcm(map_gcm(lambda inner: map_gcm(f.__getitem__, inner), mm)))),
    _equation("join_join", "pass", "join associativity",
              lambda rng, cfg: dict(mmm=_gen_nested2(rng, cfg)),
              lambda mmm: (join_gcm(map_gcm(join_gcm, mmm)), join_gcm(join_gcm(mmm)))),
    LawCase("choice_nontrivial", "pass", _law_choice_nontrivial, "distinct weights are distinguished"),
    _equation("bind_two_path", "pass", "join-after-map = product formula",
              lambda rng, cfg: dict(m=_gen_small(rng, cfg), k=_gen_small_kleisli(rng, cfg, 3)),
              lambda m, k: (bind_gcm(m, k.__getitem__), bind_gcm_direct(m, k.__getitem__))),
    _equation("arbitrary_inde", "pass", "ignored nondeterminism vanishes",
              lambda rng, cfg: dict(values=[rng.choice(carrier_of(cfg)) for _ in range(rng.randint(1, 4))],
                                    m=_gen_small(rng, cfg)),
              lambda values, m: (bind_gcm(arbitrary(_SYMBOLS[0], values), lambda _: m), m)),
    # negative controls
    _equation("neg_bindDr_alt", "fail", "rejected: bind right-distributes over alt",
              lambda rng, cfg: dict(m=_gen_small(rng, cfg), k1=_gen_small_kleisli(rng, cfg, 2),
                                    k2=_gen_small_kleisli(rng, cfg, 2)),
              lambda m, k1, k2: (bind_gcm(m, lambda a: alt_gcm(k1[a], k2[a])),
                                 alt_gcm(bind_gcm(m, k1.__getitem__), bind_gcm(m, k2.__getitem__)))),
    _equation("neg_bindDr_choice", "fail", "rejected: bind right-distributes over choice",
              lambda rng, cfg: dict(p=gen_prob(rng, cfg), m=_gen_small(rng, cfg),
                                    k1=_gen_small_kleisli(rng, cfg, 2), k2=_gen_small_kleisli(rng, cfg, 2)),
              lambda p, m, k1, k2: (bind_gcm(m, lambda a: choice_gcm(p, k1[a], k2[a])),
                                    choice_gcm(p, bind_gcm(m, k1.__getitem__), bind_gcm(m, k2.__getitem__)))),
)


def law_names() -> List[str]:
    return list(REGISTRY)


def run_trial(name: str, config: GenConfig, trial: int) -> Optional[str]:
    """Re-run one trial standalone; reproduces any reported counterexample."""
    case = REGISTRY[name]
    return case.checker(trial_rng(config.seed, name, trial), config)


def check_law(name: str, config: GenConfig) -> LawReport:
    if name not in REGISTRY:
        raise ValueError(f"unknown law name {name!r}")
    case = REGISTRY[name]
    failures = []
    for trial in range(config.trials):
        rendered = case.checker(trial_rng(config.seed, name, trial), config)
        if rendered is not None:
            failures.append(Counterexample(trial, rendered))
    return LawReport(
        name=name,
        expected=case.expected,
        trials=config.trials,
        failures=failures,
    )


def check_all(config: GenConfig) -> List[LawReport]:
    return [check_law(name, config) for name in law_names()]


def render_report(report: LawReport) -> str:
    tag = "PASS" if report.ok else "FAIL"
    suffix = " (negative control)" if report.expected == "fail" else ""
    lines = [
        f"{tag} {report.name:32s} trials={report.trials} counterexamples={len(report.failures)}{suffix}"
    ]
    shown = report.failures[:5]  # the rest are counted on one line
    lines.extend(f"    trial {ce.trial}: {ce.rendered}" for ce in shown)
    hidden = len(report.failures) - len(shown)
    if hidden > 0:
        lines.append(f"    ... {hidden} more")
    return "\n".join(lines)
