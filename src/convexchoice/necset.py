"""Non-empty finitely-generated convex sets of distributions.

A `NECSet` is stored as the sorted extreme points of its hull, so
structural equality of two sets coincides with equality of the convex
sets they denote.  The nondeterministic-choice operators (binary `alt`
and finite-family `lub`) are hull-of-union.  Probabilistic choice is the
Minkowski mixture p*X + (1-p)*Y, whose vertices are the mixtures of the
generator pairs (x, y) that some one direction maximizes uniquely in both
sets.  Scaling a set by a positive factor does not change which direction
picks which point, so the rule needs no p: the pairs are found once from
the two generator lists (see `convexgeom.minkowski_vertices`) and only the
kept pairs are mixed.  `mix_necsets` extends the mixture to a weighted
family of sets, as the barycenters of bind and join need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .convexgeom import ConvexInstance, HullForm, canonicalize, minkowski_vertices
from .dist import Dist, Keyed, cached_attr, mix_dists
from .prob import Prob


class NECSet(Keyed, tag=4):
    """The convex hull of a non-empty finite set of distributions.

    Equality, hashing and order are those of the `generators` tuple: entry
    by entry, with a strict prefix smaller.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: Tuple[Dist, ...]) -> None:
        self.generators = generators
        self._check()

    def _check(self) -> None:
        """The sorted-generator invariants; raises ValueError on the first broken."""
        if not self.generators:
            raise ValueError("convex set must be non-empty")
        for a, b in zip(self.generators, self.generators[1:]):
            if not a < b:
                raise ValueError("generators not strictly sorted")

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is NECSet and self.generators == other.generators)

    def __lt__(self, other: "NECSet") -> bool:
        return self.generators < other.generators

    @cached_attr
    def _hash(self) -> int:
        return hash(self.generators)

    def __hash__(self) -> int:
        return self._hash

    @cached_attr
    def hull_form(self) -> HullForm:
        """The integer form of the generators, built on the first `member` query.

        Lazy, because most sets are only built, combined and compared, and
        never queried.  Equality, hashing and order ignore it.
        """
        return HullForm(self.generators)

    def render_inline(self) -> str:
        return "{" + "; ".join(str(d) for d in self.generators) + "}"

    def __str__(self) -> str:
        return self.render_inline()

    def __repr__(self) -> str:
        return f"NECSet({self.render_inline()})"


def singleton_necset(d: Dist) -> NECSet:
    return NECSet((d,))


def from_generators(generators: Iterable[Dist]) -> NECSet:
    """The hull of a finite generator list, in extreme-point normal form."""
    return NECSet(tuple(canonicalize(list(generators))))


def member(d: Dist, x: NECSet) -> bool:
    """Exact test for d in x, on the integer form `x` keeps for all its queries.

    The form is built on the first query (see `NECSet.hull_form`), its crash
    basis on the first query that needs it; `HullForm.contains` lists the
    shortcuts that answer with no LP.
    """
    return x.hull_form.contains(d)


def alt_necset(x: NECSet, y: NECSet) -> NECSet:
    """Binary nondeterministic choice: hull of the union."""
    return from_generators(list(x.generators) + list(y.generators))


def lub_necset(family: Sequence[NECSet]) -> NECSet:
    """Collapse a non-empty finite family into the hull of its union.

    A one-member family is returned as it is: a `NECSet` already holds the
    extreme points of its hull, so canonicalizing them again changes
    nothing.  `bind_gcm` and `join_gcm` over a one-generator value take
    this path.
    """
    if not family:
        raise ValueError("empty family")
    if len(family) == 1:
        return family[0]
    gens: List[Dist] = []
    for x in family:
        gens.extend(x.generators)
    return from_generators(gens)


def _mix_pair(a: int, x: NECSet, b: int, y: NECSet) -> NECSet:
    """The vertices of (a*x + b*y) / (a+b), for positive integers a and b.

    Only the generator pairs that `minkowski_vertices` keeps are mixed, by
    `mix_dists`; their mixtures are distinct extreme points, so sorting them
    gives the normal form.
    """
    gx, gy = x.generators, y.generators
    return NECSet(
        tuple(sorted(mix_dists([(a, gx[i]), (b, gy[j])]) for i, j in minkowski_vertices(gx, gy)))
    )


def conv_necset(p: Prob, x: NECSet, y: NECSet) -> NECSet:
    """Probabilistic choice on sets: the vertices of p*x + (1-p)*y.

    x at p = 1 and y at p = 0; otherwise, for p = a/b, `_mix_pair` with
    weights a and b - a.
    """
    a, b = p.value.numerator, p.value.denominator
    if a == b:
        return x
    if not a:
        return y
    return _mix_pair(a, x, b - a, y)


def mix_necsets(family: Sequence[Tuple[int, NECSet]]) -> NECSet:
    """The Minkowski mixture sum n*X / sum n over `[(n, X), ...]`, for positive integers n.

    A one-generator set only translates the mixture, so all of those are
    mixed into one translation point by `mix_dists`.  Equal sets merge, since
    a*X + b*X = (a+b)*X for a convex X.  The distinct sets left are folded
    with `_mix_pair` on their integer weights, and the translation is mixed
    in last, so no `Fraction` is made.
    """
    if len(family) == 1:
        return family[0][1]
    shift: List[Tuple[int, Dist]] = []
    sets: Dict[NECSet, int] = {}
    for n, x in family:
        if len(x.generators) > 1:
            sets[x] = sets.get(x, 0) + n
        else:
            shift.append((n, x.generators[0]))
    mixed, mass = None, 0
    for x, n in sets.items():
        mixed = x if mixed is None else _mix_pair(n, x, mass, mixed)
        mass += n
    if not shift:
        return mixed
    point = singleton_necset(mix_dists(shift))
    if mixed is None:
        return point
    return _mix_pair(sum(n for n, _ in shift), point, mass, mixed)


NECSET_INSTANCE = ConvexInstance(_mix_pair)
