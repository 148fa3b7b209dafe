"""Convex-space operations, exact hull membership, and generator canonicalization.

All membership work reads one integer form of a generator list (`HullForm`):
an index of the supported outcomes and their rows of integer weights over one
common scale, built in one pass, and lazily the generators' columns, the
functional ranges and a crash basis.  A membership query maps the point into
that index, answers with no LP where one of the shortcuts listed in
`HullForm.contains` applies, and otherwise runs a phase-1 simplex over
integer rows (see `_simplex_feasible`).  Every pivot, of the simplex and of
the crash basis, is `_pivot`'s integer-preserving step, so every sign test is
exact and needs no tolerance.  `in_hull` builds a form for one query; a
`NECSet` keeps the form of its generators for all of its queries.

`minkowski_vertices` finds the vertices of a Minkowski mixture of two hulls
from their extreme points: forcing on bitmasks settles most generator pairs,
and the same pivot loop on a Gordan system decides the rest.  It backs
probabilistic choice on sets.

A brute-force Caratheodory enumeration (`in_hull_oracle`) serves as an
independent oracle for the same question: it shares no code with the form or
the simplex, so a fault in them cannot hide in it.  The two must agree and the
test suite checks that they do.  It solves only the generator subsets whose
supports could carry x (each inside x's support, together covering it): a
positive combination is supported on the union of its members' supports, so
the pruning changes no answer, only how many `Fraction` solves run.

`canonicalize` keeps a list of distinct point masses as it is: they are
vertices of the simplex, so no hull work is needed to find them extreme.
Otherwise a point that is one of at most two at the maximum or minimum of one
of the form's `_functionals` is extreme with no LP, and each point left gets
one LP.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, TypeVar

from . import stats
from .dist import Dist, cached_attr, mix_dists

C = TypeVar("C")
# A crash basis: (basis, inverse, den), see `HullForm.crash`.
Crash = Tuple[Tuple[int, ...], List[List[int]], int]


class ConvexInstance:
    """A carrier's mixing operator: `conv(a, x, b, y)` is (a*x + b*y) / (a+b), for integers a, b > 0."""

    __slots__ = ("conv",)

    def __init__(self, conv: Callable[[int, C, int, C], C]) -> None:
        self.conv = conv


def _conv_rat(a: int, x: Fraction, b: int, y: Fraction) -> Fraction:
    return Fraction(a * x + b * y, a + b)


def _mix_dist_pair(a: int, x: Dist, b: int, y: Dist) -> Dist:
    return mix_dists([(a, x), (b, y)])


RAT_INSTANCE = ConvexInstance(_conv_rat)
DIST_INSTANCE = ConvexInstance(_mix_dist_pair)


def convn(weights: Dist, points: Sequence[C], inst: ConvexInstance) -> C:
    """n-ary convex combination, folded from the last supported index back.

    `weights` is a distribution over integer indices into `points`.  Each
    step mixes one more point, at its numerator, into the accumulated
    mixture of those after it, at the mass mixed so far, so the support can
    be any size without recursion.
    """
    idxs, nums = weights.outcomes, weights.nums
    for idx in idxs:
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(points):
            raise ValueError(f"no point for supported index {idx!r}")
    acc, mass = points[idxs[-1]], nums[-1]
    for idx, n in zip(reversed(idxs[:-1]), reversed(nums[:-1])):
        acc = inst.conv(n, points[idx], mass, acc)
        mass += n
    return acc


def barycenter(d: Dist, inst: ConvexInstance) -> C:
    """Convex combination of a distribution's own support elements."""
    return convn(Dist(tuple(range(len(d.nums))), d.nums, d.den), d.outcomes, inst)


def _int_coords(d: Dist, index: Dict[tuple, int]) -> Optional[Tuple[int, ...]]:
    """The numerators of `d`, over its own `den`, in the rows of `index`.

    None when `d` puts weight on an outcome the index lacks.  A positive
    scale per column (or per right-hand side) only rescales the simplex
    variables, so hull membership is unchanged.  The scale is the least
    common denominator, so two rows are equal exactly when their
    distributions are: a row sums to its own scale.
    """
    row = [0] * len(index)
    for k, n in zip(d.okeys, d.nums):
        i = index.get(k)
        if i is None:
            return None
        row[i] = n
    return tuple(row)


def _row_sub(r: Sequence[int], s: Sequence[int]) -> List[int]:
    return [*map(sub, r, s)]


def _functionals(rows: Sequence, diff: Callable) -> Iterator:
    """The functionals hull work reads, lazily: each of `rows`, then `diff(row_r, row_s)`
    for the first 2 * len(rows) pairs of `itertools.combinations` (all for 5 rows or fewer).

    Over a form's rows (`diff` is `_row_sub`) it yields each functional's values
    on the generators; over a point's row (`diff` is `sub`), the point's own.
    """
    pairs = itertools.islice(itertools.combinations(rows, 2), 2 * len(rows))
    return itertools.chain(rows, itertools.starmap(diff, pairs))


class HullForm:
    """The integer form of a generator list, read by every hull query on it.

    Built in one pass over each generator's `(okeys, nums)`: `index` numbers
    the supported outcomes in first-seen order, and `rows` is `(scale, rows)`
    with row r holding each generator's weight on outcome r times `scale`,
    the lcm of the `den`s, so all are integers.  Built on first use: `columns`
    (each generator's `_int_coords`), `column_set` for lookup, `ranges`
    (the span of each of `_functionals`), and `crash` (d generators whose
    columns span the form, with their integer inverse).  Nothing
    changes after it is built.
    """

    def __init__(self, generators: Sequence[Dist]) -> None:
        self.generators = generators
        scale, n = math.lcm(*[g.den for g in generators]), len(generators)
        index: Dict[tuple, int] = {}
        rows: List[List[int]] = []
        for j, g in enumerate(generators):
            s = scale // g.den
            for k, v in zip(g.okeys, g.nums):
                i = index.get(k)
                if i is None:
                    i = index[k] = len(rows)
                    rows.append([0] * n)
                rows[i][j] = v * s
        self.index, self.rows = index, (scale, rows)

    @cached_attr
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(_int_coords(g, self.index) for g in self.generators)

    @cached_attr
    def column_set(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset(self.columns)

    @cached_attr
    def ranges(self) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """`(scale, low, high)`: each functional's least and greatest value, times `scale`."""
        scale, rows = self.rows
        values = list(_functionals(rows, _row_sub))
        return scale, tuple(map(min, values)), tuple(map(max, values))

    @cached_attr
    def crash(self) -> Optional[Crash]:
        """`(basis, inverse, den)`: d generators whose columns span the form, or None.

        A crash basis (Bixby, ORSA J. Computing 4, 1992), chosen once per form.
        For each outcome r in index order, it takes the generator with the
        greatest weight on r (common-scale rows, ties to the lower index)
        among those with a nonzero entry in row r of the columns pivoted so
        far, and pivots it in at row r with `_pivot`; either sign may pivot.
        Row r's pivoted entries are 0 on the generators already taken, so none
        is taken twice, and when they are all 0, row r depends on the rows
        before it: the columns have rank below d, and the form gets None.

        `basis[r]` is the generator pivoted in at row r, and `den` is the last
        pivot, det(B) for B the basis columns in basis order; it may be
        negative.  The same pivots run on a d x d identity block right of the
        columns (only generator columns enter), which by Sylvester's identity
        ends as den B^-1 (Bareiss, Math. Comp. 22, 1968).  `inverse` is that
        block times the sign of den, |den| B^-1: its row r times a point's row
        is |den| times the coefficient of column `basis[r]` in the combination
        of basis columns equal to it.  Built on the first query that asks for it.
        """
        columns, weights = self.columns, self.rows[1]
        n, d = len(columns), len(weights)
        tab = [[*row, *[0] * i, 1, *[0] * (d - 1 - i)] for i, row in enumerate(zip(*columns))]
        basis: List[int] = []
        den = 1
        for r, pivot_row in enumerate(tab):
            w = weights[r]
            enter = max((j for j in range(n) if pivot_row[j]), key=w.__getitem__, default=None)
            if enter is None:
                return None
            basis.append(enter)
            den = _pivot(tab, r, enter, den)
        return tuple(basis), [[a if den > 0 else -a for a in row[n:]] for row in tab], den

    def contains(self, x: Dist) -> bool:
        """Exact test for x in the hull, with an LP only when no shortcut answers.

        The membership shortcuts, each with no LP, in the order they are tried:
        False when x has weight on an outcome no generator has; True when x is
        a generator; False when x's value on a coordinate, or on a difference
        of two (`_functionals`), lies outside the range that functional spans
        over the generators; and True when x has positive weight on every
        indexed outcome and each row of the `crash` inverse has a nonnegative
        dot product with x's row, so x is a nonnegative combination of the
        basis columns (d integer dot products).  Otherwise one simplex runs
        over the kept columns, which it does not change.  With counting on,
        `stats` counts the crash-basis checks and the points they settle.
        """
        row = _int_coords(x, self.index)
        if row is None:
            return False  # weight where every generator has none
        if row in self.column_set:
            return True  # x is a generator
        # A mixture keeps every functional inside the generators' range; x's
        # values are over x.den, compared by cross-multiplication.
        scale, low, high = self.ranges
        total = x.den
        for v, lo, hi in zip(_functionals(row, sub), low, high):
            if not lo * total <= v * scale <= hi * total:
                return False
        # A point with a zero weight goes straight to the simplex, whose
        # presolve drops that row and every column with weight on it.
        if all(row):
            crash = self.crash
            if crash is not None:
                settled = all(sum(map(mul, inverse_row, row)) >= 0 for inverse_row in crash[1])
                if stats.enabled:
                    stats.counts["crash_checks"] += 1
                    stats.counts["crash_settled"] += settled
                if settled:
                    return True  # x is a nonnegative combination of the basis columns
        # Every point's coordinates sum to 1, so sum_j x_j = 1 follows from the
        # coordinate rows and needs no row of its own.
        return _simplex_feasible(self.columns, row)


def _pivot(tab: List[List[int]], r: int, enter: int, den: int) -> int:
    """Pivot `tab` on row r, column `enter`, in place; return the pivot entry, the new `den`.

    Rows are integer-preserving (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
    Math. Comp. 22, 1968): every entry is an integer over one common
    denominator `den`, 1 at first and the pivot entry after each pivot.  Row r
    stays; every other row, with entry f in column `enter`, becomes
    (a * piv - f * b) // den, only a rescale when f = 0.  By Sylvester's
    identity each division is exact: `den` is the determinant of the basis
    and every entry a minor of the starting tableau with an identity beside
    it, so entries stay bounded with no gcd per row.
    """
    pivot_row = tab[r]
    piv = pivot_row[enter]
    for i, row in enumerate(tab):
        if i != r:
            f = row[enter]
            if f:
                tab[i] = [(a * piv - f * b) // den for a, b in zip(row, pivot_row)]
            elif piv != den:
                tab[i] = [a * piv // den for a in row]
    return piv


def _simplex_feasible(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Phase-1 simplex: is there x >= 0 with sum_j x_j * columns[j] = rhs?

    Assumes every entry of the columns and of rhs is >= 0 (true here: they
    are distribution weights).  The work is split in two.  The presolve here
    uses that sign: a row with rhs 0 forces every column with a positive
    entry in it to weight 0, so those columns and rows are dropped.  What is
    left goes to `_pivot_feasible`, the pivot loop, which takes entries of
    either sign and is shared with `minkowski_vertices`.  Neither argument is
    changed, so the columns a `HullForm` keeps can be passed as they are.
    """
    zero = [i for i, r in enumerate(rhs) if not r]
    if zero:
        columns = [col for col in columns if not any(col[i] for i in zero)]
    rows = zip(*columns) if columns else itertools.repeat(())
    return _pivot_feasible([[*row, r] for row, r in zip(rows, rhs) if r], len(columns))


def _pivot_feasible(tab: List[List[int]], n: int) -> bool:
    """Is there x >= 0 with sum_j row[j] * x_j = row[n] for every row of `tab`?

    Entries may have either sign; every right-hand side row[n] must be >= 0.
    `tab` is the tableau [columns | rhs] and is consumed.

    The method minimizes the sum of one artificial variable per row, starting
    from the all-artificial basis.  An artificial that leaves never re-enters,
    so the tableau holds only [columns | rhs] and the objective row holds the
    reduced costs of the columns and the artificial sum.  It stops with True
    as soon as that sum is 0, and with False when it is positive but no column
    has a positive reduced cost: the objective row is then y^T [columns | rhs]
    for multipliers y with y^T column <= 0 for every column and y^T rhs > 0,
    a Farkas certificate that no x exists.

    The entering column has the largest reduced cost, except after a stall:
    once `len(tab)` degenerate pivots (pivot row rhs 0) have run in a row, it
    is the smallest index with a positive one (Bland, Math. Oper. Res. 2,
    1977) until a nondegenerate pivot resets the count.  Ties in the ratio
    test go to the smallest basic index.  It terminates: each nondegenerate
    pivot strictly lowers the artificial sum, so no basis repeats across
    them, and a degenerate run that never ended would be all Bland pivots
    from some point on, which cannot cycle.

    Each pivot is `_pivot`'s integer-preserving step, and the objective row
    takes the same update.  Pivot entries are positive, so `den` is, and each
    sign test, argmax and cross-multiplied ratio test reads as it would over
    the rationals.  The pivots are counted in a local and reported once per
    LP to `stats` when counting is on.
    """
    obj = [*map(sum, zip(*tab))] or [0]  # an empty tableau is feasible
    basis = list(range(n, n + len(tab)))  # artificials get indices past the columns
    stall = pivots = 0
    den = 1
    while obj[-1]:
        enter = max(range(n), key=obj.__getitem__, default=None)
        if enter is None or obj[enter] <= 0:
            break  # a Farkas certificate: infeasible
        if stall >= len(tab):
            enter = next(j for j in range(n) if obj[j] > 0)
        # obj[enter] > 0 sums the column over rows with an artificial basic
        # variable, so some row has a positive entry and a row leaves.
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                else:
                    lhs = row[-1] * tab[leave][enter]
                    rhs_cmp = tab[leave][-1] * a
                    if lhs < rhs_cmp or (lhs == rhs_cmp and basis[i] < basis[leave]):
                        leave = i
        pivot_row = tab[leave]
        stall = 0 if pivot_row[-1] else stall + 1
        f = obj[enter]
        piv = _pivot(tab, leave, enter, den)
        obj = [(a * piv - f * b) // den for a, b in zip(obj, pivot_row)]
        den = piv
        basis[leave] = enter
        pivots += 1
    if stats.enabled:
        stats.counts["lp_calls"] += 1
        stats.counts["pivots"] += pivots
    return not obj[-1]


def _order_masks(points: Sequence[Sequence[int]], shift: int = 0) -> List[Tuple[Tuple[int, int], ...]]:
    """Per point and coordinate, the bitmasks of the points strictly above and strictly below it.

    Point b of `points` is bit `shift + b`.  Points with the same value on a
    coordinate share one `(above, below)` pair.
    """
    full = (1 << len(points) + shift) - (1 << shift)
    per_row = []
    for row in zip(*points):
        at: Dict[int, int] = {}
        for b, v in enumerate(row, shift):
            at[v] = at.get(v, 0) | 1 << b
        below = 0
        for v in sorted(at):
            at[v], below = (full ^ below ^ at[v], below), below | at[v]
        per_row.append([*map(at.__getitem__, row)])
    return list(zip(*per_row))


def minkowski_vertices(xs: Sequence[Dist], ys: Sequence[Dist]) -> List[Tuple[int, int]]:
    """The pairs (i, j), sorted, for which xs[i] + ys[j] is a vertex of hull(xs) + hull(ys).

    Both lists must be the extreme points of their hulls, as a `NECSet`'s
    generators are.  A sum point is a vertex exactly when some direction c is
    uniquely maximized by xs[i] over xs and by ys[j] over ys (Fukuda, "From
    the zonotope construction to the Minkowski addition of convex polytopes",
    J. Symbolic Computation 2004).  Positive scale factors do not move those
    directions, so the same pairs give the vertices of p*hull(xs) +
    (1-p)*hull(ys) for every p strictly between 0 and 1, and no two kept pairs
    have the same sum.

    A singleton list keeps every pair.  Otherwise, by Gordan's theorem, no
    such c exists exactly when some lambda, mu >= 0 with sum lambda + sum mu
    = 1 have sum_a lambda_a (x_a - x_i) + sum_b mu_b (y_b - y_j) = 0.  All
    points are read from the rows of one `HullForm` of both lists, integers
    over its common scale.  A coordinate on which every live column x_a - x_i
    or y_b - y_j has one sign forces those columns to 0, until none does; the
    columns left do not depend on the order.  This runs on bitmasks of the
    live columns, from the points above and below each point per coordinate,
    built once per call.  When no column is left the pair is kept with no LP
    (this covers xs[i] and ys[j] being the unique maximum, or both the unique
    minimum, of one coordinate); otherwise the columns left are built, in
    index order, and one LP over them decides it.
    """
    if len(xs) == 1 or len(ys) == 1:
        return [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    points = list(zip(*HullForm([*xs, *ys]).rows[1]))
    nx = len(xs)
    xc, yc = points[:nx], points[nx:]
    full, ymasks = (1 << len(points)) - 1, _order_masks(yc, nx)
    kept = []
    for i, xm in enumerate(_order_masks(xc)):
        for j, ym in enumerate(ymasks):
            live, before = full ^ (1 << i) ^ (1 << (nx + j)), 0
            while live and live != before:
                before = live
                for (ax, bx), (ay, by) in zip(xm, ym):
                    up, down = (ax | ay) & live, (bx | by) & live
                    if (not up) != (not down):
                        live &= ~(up | down)
            if live:
                xi, yj = xc[i], yc[j]
                columns = [[u - v for u, v in zip(x, xi)] for a, x in enumerate(xc) if live >> a & 1]
                columns += [[u - v for u, v in zip(y, yj)] for b, y in enumerate(yc) if live >> (nx + b) & 1]
                tab = [[*row, 0] for row in zip(*columns) if any(row)]
                tab.append([1] * (len(columns) + 1))  # sum lambda + sum mu = 1
                if _pivot_feasible(tab, len(columns)):
                    continue
            kept.append((i, j))
    return kept


def in_hull(x: Dist, generators: Sequence[Dist]) -> bool:
    """Exact test for x in hull(generators), on a form built for this one query.

    The answer comes from `HullForm.contains`, whose shortcuts are listed
    there.  A `NECSet` keeps its form instead, so `necset.member` builds the
    form and its crash basis once per set.
    """
    if not generators:
        raise ValueError("empty generator list")
    return HullForm(generators).contains(x)


def _solve_exact(matrix: List[List[Fraction]], rhs: List[Fraction]):
    """Gauss elimination over the rationals.

    Returns the unique solution vector, or None when the system is
    inconsistent or underdetermined.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined; a smaller subset covers this case
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][-1]
    return sol


def in_hull_oracle(x: Dist, generators: Sequence[Dist]) -> bool:
    """Caratheodory enumeration over the generator subsets that could carry x.

    A nonnegative combination of distributions with positive coefficients
    has exactly the union of their supports as its support.  So only
    generators whose support lies inside x's take part, and a subset is
    solved only when their supports together cover x's.  By Caratheodory, if
    x is in the hull, some affinely independent subset carries it with
    positive coefficients; it passes both tests and its system has a unique
    solution.  Those generators live in the simplex over x's support, of
    affine dimension |supp x| - 1, so no subset needs more than |supp x|
    members.  Each subset, smallest first, gets one `Fraction` Gauss solve
    and a sign check.

    Independent of `HullForm` and the simplex, so it can check them;
    intended for small instances only.
    """
    if not generators:
        raise ValueError("empty generator list")
    if any(g == x for g in generators):
        return True
    support = frozenset(x.okeys)
    supports = [frozenset(g.okeys) for g in generators]
    inside = [j for j, s in enumerate(supports) if s <= support]
    # x's weights and each candidate's on x's outcomes, in key order, then a 1
    # for the sum of the coefficients
    xv = [w for _, w in x.entries] + [Fraction(1)]
    vecs = {j: [generators[j].weight(k) for k in x.outcomes] + [Fraction(1)] for j in inside}
    for size in range(1, min(len(inside), len(support)) + 1):
        for subset in itertools.combinations(inside, size):
            if frozenset().union(*(supports[j] for j in subset)) != support:
                continue
            matrix = [[vecs[j][row] for j in subset] for row in range(len(xv))]
            sol = _solve_exact(matrix, xv)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def canonicalize(generators: Sequence[Dist]) -> List[Dist]:
    """Reduce a generator list to the sorted extreme points of its hull.

    Deduplicates, then removes every generator lying in the hull of the
    others.  Extreme points are never removable, so one pass over the
    deduplicated list suffices and the result is removal-order independent.
    Duplicates are dropped after sorting, as equal neighbours, so no
    generator is hashed, except in a list of three or more point masses
    (below).

    The pass is output-sensitive: a point that is one of at most two to
    reach the maximum (or the minimum) of some coordinate, or of the
    difference of two coordinates, among the distinct generators is extreme
    without an LP (see `_extreme_points`).  That covers every point owning a
    support key no other generator has.  The remaining points each get one
    exact LP over the generators still alive; all of them are put in integer
    coordinates once.
    When every generator is a point mass, as the values of `ret` and
    `arbitrary` are, the distinct ones sit on distinct vertices of the
    simplex, so all of them are kept with no integer form built at all.  Of
    three or more, they are deduplicated in a dict on their one outcome key,
    keeping the first of equal ones, and the keys are sorted: the `Dist`
    order of point masses is the order of their keys.
    """
    if not generators:
        raise ValueError("empty generator list")
    if len(generators) > 2 and all(len(g.nums) == 1 for g in generators):
        first = {g.okeys[0]: g for g in reversed(generators)}
        unique = [first[k] for k in sorted(first)]
    else:
        unique = []
        for g in sorted(generators):
            if not unique or g != unique[-1]:
                unique.append(g)
        if len(unique) > 2:
            unique = _extreme_points(unique)
    if stats.enabled:
        stats.counts["canonicalize_calls"] += 1
        stats.counts["gens_in"] += len(generators)
        stats.counts["gens_out"] += len(unique)
    return unique


def _extreme_points(unique: List[Dist]) -> List[Dist]:
    """The extreme points of at least three distinct sorted generators.

    A generator alone at the maximum or the minimum of a linear functional is
    extreme (Dula & Helgason, EJOR 1996), and so are both of two there: a
    point that is not extreme is a mixture of the others at that extreme, so
    with one other it would equal it.  The functionals are the form's
    `_functionals` (a row's minimum is 0 where generators lack its outcome),
    so the pass is O(rows * n).  It stops once every point is settled; each
    point left gets one LP over the others still alive.
    """
    n = len(unique)
    form = HullForm(unique)
    extreme = set()
    for row in _functionals(form.rows[1], _row_sub):
        for v in (max(row), min(row)):
            at = row.count(v)
            if at <= 2:
                i = row.index(v)
                extreme.add(i)
                if at == 2:
                    extreme.add(row.index(v, i + 1))
        if len(extreme) == n:
            return unique
    coords = form.columns
    alive = [True] * n
    for i in range(n):
        if i not in extreme:
            others = [coords[j] for j in range(n) if j != i and alive[j]]
            alive[i] = not _simplex_feasible(others, coords[i])
    return [g for g, keep in zip(unique, alive) if keep]
