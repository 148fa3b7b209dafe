"""Law registry and randomized checking harness.

Every algebraic law of the package has a named entry here.  A check runs a
configured number of independent trials; each trial derives its own RNG
purely from (seed, law name, trial index), so reports are deterministic
and trials could run in any order.  Two negative controls are deliberately
false laws the harness must refute; they document the rejected
right-distributivity axioms and establish that the harness can detect a
false law at these instance sizes.

Draws read the trial RNG's `getrandbits` stream by CPython 3.11's rules,
implemented once here: `_below(n)` takes `getrandbits(n.bit_length())` again
while it is >= n, and `_sample` picks from a `range` of at most 21 items by
swapping its pool.  `gen_dist`, which builds most of every instance, draws
its support and widths through them in one pass and builds a distribution
over the carrier straight in normal form.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence

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


class _TrialRandom(random.Random):
    """`random.Random` whose `randint`, `choice` and `sample` read `getrandbits` directly.

    They draw by `_below` and `_sample`, so every call returns what
    `random.Random`'s does on the same state.  Anything else (an empty range or
    sequence, a larger or other population, `counts=`) goes to the base method,
    so errors are the base's.  `random` and `getrandbits` are not overridden:
    `Random.__init_subclass__` would then switch `_randbelow`.
    """

    def randint(self, a: int, b: int) -> int:
        n = b - a + 1
        if type(n) is not int or n <= 0:
            return super().randint(a, b)
        return a + _below(self.getrandbits, n)

    def choice(self, seq):
        n = len(seq)
        if not n:
            return super().choice(seq)
        return seq[_below(self.getrandbits, n)]

    def sample(self, population, k, *, counts=None):
        if counts is not None or type(population) is not range or type(k) is not int:
            return super().sample(population, k, counts=counts)
        if not 0 < k <= len(population) <= 21:
            return super().sample(population, k)
        return _sample(self.getrandbits, population, k)


def trial_rng(seed: int, law_name: str, trial: int) -> Rng:
    """The RNG of one trial, seeded from (seed, law name, trial) alone.

    Its draws are read from the Mersenne Twister's `getrandbits` stream by
    `_TrialRandom`, so a trial's instance does not depend on how a Python
    version's `random` turns that stream into integers and samples.
    """
    digest = hashlib.sha256(f"{seed}|{law_name}|{trial}".encode()).digest()
    return _TrialRandom(int.from_bytes(digest[:8], "big"))


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


# --- law checkers ---------------------------------------------------------
# prob / dist level


def _law_prob_rs(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p, q = gen_prob(rng, cfg), gen_prob(rng, cfg)
    s, r = s_of(p, q), r_of(p, q)
    ok = complement(s).value == complement(p).value * complement(q).value
    if s.value != 0:
        ok = ok and r.value * s.value == p.value
    return None if ok else _ce(p=p, q=q, r=r, s=s)


def _law_dist_map_affine(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    d1, d2 = gen_dist(rng, cfg), gen_dist(rng, cfg)
    table = gen_function(rng, cfg)
    f = table.__getitem__
    lhs = map_dist(f, conv_dist(p, d1, d2))
    rhs = conv_dist(p, map_dist(f, d1), map_dist(f, d2))
    return _eq_or_ce(lhs, rhs, p=p, d1=d1, d2=d2, f=table)


def _law_dist_bindretf(rng: Rng, cfg: GenConfig) -> Optional[str]:
    a = rng.choice(carrier_of(cfg))
    table = {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}
    return _eq_or_ce(bind_dist(point(a), table.__getitem__), table[a], a=a, k=table)


def _law_dist_bindmret(rng: Rng, cfg: GenConfig) -> Optional[str]:
    d = gen_dist(rng, cfg)
    return _eq_or_ce(bind_dist(d, point), d, d=d)


def _law_dist_bindA(rng: Rng, cfg: GenConfig) -> Optional[str]:
    d = gen_dist(rng, cfg)
    k1 = {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}
    k2 = {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}
    lhs = bind_dist(bind_dist(d, k1.__getitem__), k2.__getitem__)
    rhs = bind_dist(d, lambda a: bind_dist(k1[a], k2.__getitem__))
    return _eq_or_ce(lhs, rhs, d=d, k1=k1, k2=k2)


def _law_dist_bindDl(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    d1, d2 = gen_dist(rng, cfg), gen_dist(rng, cfg)
    table = {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}
    k = table.__getitem__
    lhs = bind_dist(conv_dist(p, d1, d2), k)
    rhs = conv_dist(p, bind_dist(d1, k), bind_dist(d2, k))
    return _eq_or_ce(lhs, rhs, p=p, d1=d1, d2=d2, k=table)


def _law_dist_flatten(rng: Rng, cfg: GenConfig) -> Optional[str]:
    d = gen_dist(rng, cfg)
    return _eq_or_ce(barycenter(map_dist(point, d), DIST_INSTANCE), d, d=d)


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


def _law_barycenter_bind(rng: Rng, cfg: GenConfig) -> Optional[str]:
    d = gen_dist(rng, cfg)
    table = {c: gen_dist(rng, cfg) for c in carrier_of(cfg)}
    lhs = barycenter(map_dist(table.__getitem__, d), DIST_INSTANCE)
    rhs = bind_dist(d, table.__getitem__)
    return _eq_or_ce(lhs, rhs, d=d, k=table)


def _convn_perm_check(rng: Rng, cfg: GenConfig, points: list, inst) -> Optional[str]:
    n = len(points)
    size = rng.randint(1, n)
    support = rng.sample(range(n), size)
    weights = _normalized((outcome_key(i), i, w) for i, w in zip(support, _gen_widths(rng, cfg, size)))
    perm = list(range(n))
    rng.shuffle(perm)
    permuted_points = [None] * n
    for i, v in enumerate(points):
        permuted_points[perm[i]] = v
    permuted_weights = map_dist(perm.__getitem__, weights)
    lhs = convn(weights, points, inst)
    rhs = convn(permuted_weights, permuted_points, inst)
    return _eq_or_ce(lhs, rhs, weights=weights, points=points, perm=perm)


def _law_convn_perm_rat(rng: Rng, cfg: GenConfig) -> Optional[str]:
    n = rng.randint(1, 4)
    pts = [
        Fraction(rng.randint(-cfg.max_denominator, cfg.max_denominator), rng.randint(1, cfg.max_denominator))
        for _ in range(n)
    ]
    return _convn_perm_check(rng, cfg, pts, RAT_INSTANCE)


def _law_convn_perm_dist(rng: Rng, cfg: GenConfig) -> Optional[str]:
    pts = [gen_dist(rng, cfg) for _ in range(rng.randint(1, 4))]
    return _convn_perm_check(rng, cfg, pts, DIST_INSTANCE)


def _law_convn_perm_necset(rng: Rng, cfg: GenConfig) -> Optional[str]:
    pts = [
        gen_gcm(rng, cfg, max_generators=2, max_support=2)
        for _ in range(rng.randint(1, 3))
    ]
    return _convn_perm_check(rng, cfg, pts, NECSET_INSTANCE)


# convex geometry level


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


def _law_canonicalize_idempotent(rng: Rng, cfg: GenConfig) -> Optional[str]:
    gens = [gen_dist(rng, cfg) for _ in range(rng.randint(1, cfg.max_generators + 2))]
    once = canonicalize(gens)
    return _eq_or_ce(canonicalize(once), once, generators=gens)


def _law_canonicalize_hull_preserved(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, gens = _gen_hull_instance(rng, cfg, max_gens=cfg.max_generators + 2)
    lhs = in_hull(x, gens)
    rhs = in_hull(x, canonicalize(gens))
    if lhs == rhs:
        return None
    return _ce(x=x, generators=gens, full=lhs, canonical=rhs)


def _law_canonicalize_order_independent(rng: Rng, cfg: GenConfig) -> Optional[str]:
    gens = [gen_dist(rng, cfg) for _ in range(rng.randint(1, cfg.max_generators + 2))]
    shuffled = gens[:]
    rng.shuffle(shuffled)
    return _eq_or_ce(canonicalize(shuffled), canonicalize(gens), generators=gens)


def _law_affine_image_hull(rng: Rng, cfg: GenConfig) -> Optional[str]:
    gens = [gen_dist(rng, cfg) for _ in range(rng.randint(1, cfg.max_generators + 2))]
    table = gen_function(rng, cfg)
    f = table.__getitem__
    lhs = canonicalize([map_dist(f, g) for g in gens])
    rhs = canonicalize([map_dist(f, g) for g in canonicalize(gens)])
    return _eq_or_ce(lhs, rhs, generators=gens, f=table)


# necset level


def _law_lub_singleton(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x = gen_gcm(rng, cfg)
    return _eq_or_ce(lub_necset([x]), x, x=x)


def _law_lub_flatten(rng: Rng, cfg: GenConfig) -> Optional[str]:
    families = [
        [gen_gcm(rng, cfg, max_generators=2) for _ in range(rng.randint(1, 2))]
        for _ in range(rng.randint(1, 3))
    ]
    flat = [x for fam in families for x in fam]
    lhs = lub_necset(flat)
    rhs = lub_necset([lub_necset(fam) for fam in families])
    return _eq_or_ce(lhs, rhs, families=families)


def _law_conv_lub_distr(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    x = gen_gcm(rng, cfg, max_generators=2)
    family = [gen_gcm(rng, cfg, max_generators=2) for _ in range(rng.randint(1, 3))]
    lhs = conv_necset(p, x, lub_necset(family))
    rhs = lub_necset([conv_necset(p, x, y) for y in family])
    return _eq_or_ce(lhs, rhs, p=p, x=x, family=family)


def _law_lub_op_hull(rng: Rng, cfg: GenConfig) -> Optional[str]:
    family = [gen_gcm(rng, cfg, max_generators=2) for _ in range(rng.randint(1, 3))]
    size = rng.randint(1, len(family))
    support = rng.sample(range(len(family)), size)
    weights = _normalized((outcome_key(i), i, w) for i, w in zip(support, _gen_widths(rng, cfg, size)))
    y = convn(weights, family, NECSET_INSTANCE)
    lhs = lub_necset(family + [y])
    rhs = lub_necset(family)
    return _eq_or_ce(lhs, rhs, family=family, weights=weights, mixture=y)


def _law_necset_eq_extensional(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x = gen_gcm(rng, cfg, max_generators=3)
    y = gen_gcm(rng, cfg, max_generators=3)
    mutual = all(member(g, y) for g in x.generators) and all(
        member(h, x) for h in y.generators
    )
    if (x == y) == mutual:
        return None
    return _ce(x=x, y=y, structural=(x == y), extensional=mutual)


def _law_lub_fold(rng: Rng, cfg: GenConfig) -> Optional[str]:
    family = [gen_gcm(rng, cfg, max_generators=2) for _ in range(rng.randint(1, 4))]
    lhs = lub_necset(family)
    rhs = reduce(alt_necset, family)
    return _eq_or_ce(lhs, rhs, family=family)


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


# gcm level


def _law_bindretf(rng: Rng, cfg: GenConfig) -> Optional[str]:
    a = rng.choice(carrier_of(cfg))
    k = gen_kleisli(rng, cfg)
    return _eq_or_ce(bind_gcm(ret_gcm(a), k.__getitem__), k[a], a=a, k=k)


def _law_bindmret(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg)
    return _eq_or_ce(bind_gcm(m, ret_gcm), m, m=m)


def _law_bindA(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k1 = gen_kleisli(rng, cfg, max_generators=2, max_support=3)
    k2 = gen_kleisli(rng, cfg, max_generators=2, max_support=3)
    lhs = bind_gcm(bind_gcm(m, k1.__getitem__), k2.__getitem__)
    rhs = bind_gcm(m, lambda a: bind_gcm(k1[a], k2.__getitem__))
    return _eq_or_ce(lhs, rhs, m=m, k1=k1, k2=k2)


def _law_choice0(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, y = gen_gcm(rng, cfg), gen_gcm(rng, cfg)
    return _eq_or_ce(choice_gcm(Prob(Fraction(0)), x, y), y, x=x, y=y)


def _law_choice1(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, y = gen_gcm(rng, cfg), gen_gcm(rng, cfg)
    return _eq_or_ce(choice_gcm(Prob(Fraction(1)), x, y), x, x=x, y=y)


def _law_choiceC(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    x, y = gen_gcm(rng, cfg), gen_gcm(rng, cfg)
    lhs = choice_gcm(p, x, y)
    rhs = choice_gcm(complement(p), y, x)
    return _eq_or_ce(lhs, rhs, p=p, x=x, y=y)


def _law_choicemm(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    x = gen_gcm(rng, cfg)
    return _eq_or_ce(choice_gcm(p, x, x), x, p=p, x=x)


def _law_choiceA(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p, q = gen_prob(rng, cfg), gen_prob(rng, cfg)
    r, s = r_of(p, q), s_of(p, q)
    x = gen_gcm(rng, cfg, max_generators=2)
    y = gen_gcm(rng, cfg, max_generators=2)
    z = gen_gcm(rng, cfg, max_generators=2)
    lhs = choice_gcm(p, x, choice_gcm(q, y, z))
    rhs = choice_gcm(s, choice_gcm(r, x, y), z)
    return _eq_or_ce(lhs, rhs, p=p, q=q, r=r, s=s, x=x, y=y, z=z)


def _law_prob_bindDl(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    m1 = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    m2 = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k = gen_kleisli(rng, cfg, max_generators=2, max_support=3)
    lhs = bind_gcm(choice_gcm(p, m1, m2), k.__getitem__)
    rhs = choice_gcm(p, bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__))
    return _eq_or_ce(lhs, rhs, p=p, m1=m1, m2=m2, k=k)


def _law_altA(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, y, z = (gen_gcm(rng, cfg) for _ in range(3))
    lhs = alt_gcm(x, alt_gcm(y, z))
    rhs = alt_gcm(alt_gcm(x, y), z)
    return _eq_or_ce(lhs, rhs, x=x, y=y, z=z)


def _law_alt_bindDl(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m1 = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    m2 = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k = gen_kleisli(rng, cfg, max_generators=2, max_support=3)
    lhs = bind_gcm(alt_gcm(m1, m2), k.__getitem__)
    rhs = alt_gcm(bind_gcm(m1, k.__getitem__), bind_gcm(m2, k.__getitem__))
    return _eq_or_ce(lhs, rhs, m1=m1, m2=m2, k=k)


def _law_altmm(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x = gen_gcm(rng, cfg)
    return _eq_or_ce(alt_gcm(x, x), x, x=x)


def _law_altC(rng: Rng, cfg: GenConfig) -> Optional[str]:
    x, y = gen_gcm(rng, cfg), gen_gcm(rng, cfg)
    return _eq_or_ce(alt_gcm(x, y), alt_gcm(y, x), x=x, y=y)


def _law_choicealtDr(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    x, y, z = (gen_gcm(rng, cfg, max_generators=2) for _ in range(3))
    lhs = choice_gcm(p, x, alt_gcm(y, z))
    rhs = alt_gcm(choice_gcm(p, x, y), choice_gcm(p, x, z))
    return _eq_or_ce(lhs, rhs, p=p, x=x, y=y, z=z)


def _law_join_ret(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg)
    return _eq_or_ce(join_gcm(ret_gcm(m)), m, m=m)


def _law_join_map_ret(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg)
    return _eq_or_ce(join_gcm(map_gcm(ret_gcm, m)), m, m=m)


def _law_join_naturality(rng: Rng, cfg: GenConfig) -> Optional[str]:
    mm = _gen_nested(rng, cfg)
    table = gen_function(rng, cfg)
    f = table.__getitem__
    lhs = map_gcm(f, join_gcm(mm))
    rhs = join_gcm(map_gcm(lambda inner: map_gcm(f, inner), mm))
    return _eq_or_ce(lhs, rhs, mm=mm, f=table)


def _law_join_join(rng: Rng, cfg: GenConfig) -> Optional[str]:
    mmm = _gen_nested2(rng, cfg)
    lhs = join_gcm(map_gcm(join_gcm, mmm))
    rhs = join_gcm(join_gcm(mmm))
    return _eq_or_ce(lhs, rhs, mmm=mmm)


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


def _law_bind_two_path(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k = gen_kleisli(rng, cfg, max_generators=2, max_support=3)
    lhs = bind_gcm(m, k.__getitem__)
    rhs = bind_gcm_direct(m, k.__getitem__)
    return _eq_or_ce(lhs, rhs, m=m, k=k)


def _law_arbitrary_inde(rng: Rng, cfg: GenConfig) -> Optional[str]:
    from .programs import arbitrary

    cs = carrier_of(cfg)
    values = [rng.choice(cs) for _ in range(rng.randint(1, 4))]
    m = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    lhs = bind_gcm(arbitrary(cs[0], values), lambda _: m)
    return _eq_or_ce(lhs, m, values=values, m=m)


# negative controls


def _law_neg_bindDr_alt(rng: Rng, cfg: GenConfig) -> Optional[str]:
    m = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k1 = gen_kleisli(rng, cfg, max_generators=2, max_support=2)
    k2 = gen_kleisli(rng, cfg, max_generators=2, max_support=2)
    lhs = bind_gcm(m, lambda a: alt_gcm(k1[a], k2[a]))
    rhs = alt_gcm(bind_gcm(m, k1.__getitem__), bind_gcm(m, k2.__getitem__))
    return _eq_or_ce(lhs, rhs, m=m, k1=k1, k2=k2)


def _law_neg_bindDr_choice(rng: Rng, cfg: GenConfig) -> Optional[str]:
    p = gen_prob(rng, cfg)
    m = gen_gcm(rng, cfg, max_generators=2, max_support=3)
    k1 = gen_kleisli(rng, cfg, max_generators=2, max_support=2)
    k2 = gen_kleisli(rng, cfg, max_generators=2, max_support=2)
    lhs = bind_gcm(m, lambda a: choice_gcm(p, k1[a], k2[a]))
    rhs = choice_gcm(p, bind_gcm(m, k1.__getitem__), bind_gcm(m, k2.__getitem__))
    return _eq_or_ce(lhs, rhs, p=p, m=m, k1=k1, k2=k2)


# --- registry -------------------------------------------------------------

_CASES: List[LawCase] = [
    LawCase("prob_rs", "pass", _law_prob_rs, "mixing-weight side conditions"),
    LawCase("dist_map_affine", "pass", _law_dist_map_affine, "pushforward is affine"),
    LawCase("dist_bindretf", "pass", _law_dist_bindretf, "dist monad left unit"),
    LawCase("dist_bindmret", "pass", _law_dist_bindmret, "dist monad right unit"),
    LawCase("dist_bindA", "pass", _law_dist_bindA, "dist monad associativity"),
    LawCase("dist_bindDl", "pass", _law_dist_bindDl, "dist bind distributes left over mixing"),
    LawCase("dist_flatten", "pass", _law_dist_flatten, "barycenter of point masses"),
    LawCase("dist_order_total", "pass", _law_dist_order_total, "distribution order is total"),
    LawCase("barycenter_bind", "pass", _law_barycenter_bind, "barycenter of pushforward is bind"),
    LawCase("convn_perm_rat", "pass", _law_convn_perm_rat, "n-ary mixing permutation invariance"),
    LawCase("convn_perm_dist", "pass", _law_convn_perm_dist, "n-ary mixing permutation invariance"),
    LawCase("convn_perm_necset", "pass", _law_convn_perm_necset, "n-ary mixing permutation invariance"),
    LawCase("hull_oracle_agree", "pass", _law_hull_oracle_agree, "simplex matches enumeration oracle"),
    LawCase("canonicalize_idempotent", "pass", _law_canonicalize_idempotent, ""),
    LawCase("canonicalize_hull_preserved", "pass", _law_canonicalize_hull_preserved, ""),
    LawCase("canonicalize_order_independent", "pass", _law_canonicalize_order_independent, ""),
    LawCase("affine_image_hull", "pass", _law_affine_image_hull, "affine images preserve hulls"),
    LawCase("lub_singleton", "pass", _law_lub_singleton, "collapse of a one-element family"),
    LawCase("lub_flatten", "pass", _law_lub_flatten, "collapse of family of families"),
    LawCase("conv_lub_distr", "pass", _law_conv_lub_distr, "mixing distributes over collapse"),
    LawCase("lub_op_hull", "pass", _law_lub_op_hull, "mixtures are absorbed by collapse"),
    LawCase("necset_eq_extensional", "pass", _law_necset_eq_extensional, "structural = extensional equality"),
    LawCase("lub_fold", "pass", _law_lub_fold, "family collapse = fold of binary choice"),
    LawCase("member_convex", "pass", _law_member_convex, "members are closed under mixing"),
    LawCase("bindretf", "pass", _law_bindretf, "monad left unit"),
    LawCase("bindmret", "pass", _law_bindmret, "monad right unit"),
    LawCase("bindA", "pass", _law_bindA, "monad associativity"),
    LawCase("choice0", "pass", _law_choice0, "zero-weight choice is the right branch"),
    LawCase("choice1", "pass", _law_choice1, "unit-weight choice is the left branch"),
    LawCase("choiceC", "pass", _law_choiceC, "skewed commutativity"),
    LawCase("choicemm", "pass", _law_choicemm, "probabilistic choice idempotence"),
    LawCase("choiceA", "pass", _law_choiceA, "quasi-associativity"),
    LawCase("prob_bindDl", "pass", _law_prob_bindDl, "bind left-distributes over choice"),
    LawCase("altA", "pass", _law_altA, "nondeterministic choice associativity"),
    LawCase("alt_bindDl", "pass", _law_alt_bindDl, "bind left-distributes over alt"),
    LawCase("altmm", "pass", _law_altmm, "nondeterministic choice idempotence"),
    LawCase("altC", "pass", _law_altC, "nondeterministic choice commutativity"),
    LawCase("choicealtDr", "pass", _law_choicealtDr, "choice distributes over alt"),
    LawCase("join_ret", "pass", _law_join_ret, "join after ret"),
    LawCase("join_map_ret", "pass", _law_join_map_ret, "join after mapped ret"),
    LawCase("join_naturality", "pass", _law_join_naturality, "join is natural"),
    LawCase("join_join", "pass", _law_join_join, "join associativity"),
    LawCase("choice_nontrivial", "pass", _law_choice_nontrivial, "distinct weights are distinguished"),
    LawCase("bind_two_path", "pass", _law_bind_two_path, "join-after-map = product formula"),
    LawCase("arbitrary_inde", "pass", _law_arbitrary_inde, "ignored nondeterminism vanishes"),
    LawCase("neg_bindDr_alt", "fail", _law_neg_bindDr_alt, "rejected: bind right-distributes over alt"),
    LawCase("neg_bindDr_choice", "fail", _law_neg_bindDr_choice, "rejected: bind right-distributes over choice"),
]

REGISTRY: Dict[str, LawCase] = {case.name: case for case in _CASES}

assert len(REGISTRY) == len(_CASES), "law names must be unique"


def law_names() -> List[str]:
    return [case.name for case in _CASES]


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
