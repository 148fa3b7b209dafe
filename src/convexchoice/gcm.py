"""The combined-choice monad on convex sets of distributions.

A monadic value over a carrier A is a `NECSet` whose generators are
distributions over A.  `ret` is the singleton point mass; `join` takes a
set of distributions-over-sets, replaces each by its barycenter in the
set-level convex structure, and closes under hull-of-union; `bind` is
join after map.  Both compute a barycenter as one n-ary Minkowski mixture
(`mix_necsets`) of the weighted sets, with no distribution keyed by sets
in between.  Probabilistic and nondeterministic choice, `choice_gcm` and
`alt_gcm`, are the set-level mixture and hull-of-union operators themselves.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .dist import Outcome, from_pairs, map_dist, point
from .necset import (
    NECSet,
    alt_necset,
    conv_necset,
    from_generators,
    lub_necset,
    mix_necsets,
    singleton_necset,
)

GcmVal = NECSet

choice_gcm = conv_necset
alt_gcm = alt_necset


def ret_gcm(a: Outcome) -> GcmVal:
    return singleton_necset(point(a))


def map_gcm(f: Callable[[Outcome], Outcome], m: GcmVal) -> GcmVal:
    return from_generators([map_dist(f, d) for d in m.generators])


def join_gcm(mm: GcmVal) -> GcmVal:
    """Flatten one monadic layer.

    Each generator of `mm` is a distribution whose keys are themselves
    monadic values; its barycenter in the set-level convex structure is a
    set, computed as the mixture of its keys by their weights.  The join is
    the hull of the union of those barycenters.
    """
    return lub_necset([mix_necsets(list(zip(d.nums, d.outcomes))) for d in mm.generators])


def bind_gcm(m: GcmVal, k: Callable[[Outcome], GcmVal]) -> GcmVal:
    """join after map, with neither the mapped set nor its distributions built.

    Each generator d of m gives the mixture of the images k(a) by d's weights,
    and the result is the hull of the union of those mixtures.  Barycenters
    are affine, so the mixture of a mapped distribution that is not extreme
    lies in the hull of the others' and the union's hull is the same as
    join's.  `k` is called once per outcome, in the order of d's outcomes, and
    equal images merge inside `mix_necsets`.
    """
    return lub_necset([mix_necsets(list(zip(d.nums, map(k, d.outcomes)))) for d in m.generators])


def bind_gcm_direct(m: GcmVal, k: Callable[[Outcome], GcmVal]) -> GcmVal:
    """Product-of-generators formula for bind, kept as a second code path.

    For each generator d of m, every choice of one generator per
    continuation value yields the mixture sum_a d(a) * g_a; the result is
    the hull of all such mixtures.  Exponential in the support size; used
    for cross-checking, not as the primary route.
    """
    candidates = []
    for d in m.generators:
        images = [k(a) for a in d.outcomes]
        for pick in itertools.product(*(img.generators for img in images)):
            pairs = []
            for (_, w), g in zip(d.entries, pick):
                pairs.extend((key, w * wg) for key, wg in g.entries)
            candidates.append(from_pairs(pairs))
    return from_generators(candidates)

