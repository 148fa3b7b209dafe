"""The pivot loop of the exact simplex against a reference, and its pinned counts.

`_reference_pivot_feasible` is the loop as it was before it kept one common
denominator: each row was cleared by multiplying through and then divided by
its own gcd.  Every row then differs from the common-denominator row only by
a positive factor, so both must make the same pivots and give the same
answer.  The consumed tableau is checked as well: after the last pivot it
must be D times B^-1 [columns | rhs], where B holds the original columns of
the final basis (unit columns for artificials) and D = det(B) > 0 is the
last pivot, so every entry is a determinant of the input and stays bounded.
It picks columns by the loop's rule, and counts the pivots on which the
rule's two choices differ, so a test can see that both of them run.

The pinned counts are the LPs and pivots of fixed seeded work, and how many
points the crash basis of a hull form settles there with no LP; any change to
the pivot path moves them.
"""

import math
import random
from fractions import Fraction

from convexchoice import convexgeom, stats
from convexchoice.dist import from_pairs
from convexchoice.laws import GenConfig, check_all
from convexchoice.necset import from_generators, member


def _reference_pivot_feasible(tab, n):
    """(answer, pivots, basis, rule) of the gcd-normalized pivot loop; `tab` is consumed.

    The entering column has the largest reduced cost until `len(tab)`
    degenerate pivots (pivot row rhs 0) have run in a row, and the smallest
    index with a positive one from then until the next nondegenerate pivot.
    `rule` counts the pivots on which that choice told the two rules apart:
    "bland", Bland's pick differing from the largest reduced cost, and
    "reset", a largest-reduced-cost pick after a Bland pivot of the same LP
    differing from Bland's, which a one-way switch would have taken.
    """

    def eliminate(row, pivot_row, piv, f):
        row = [a * piv - f * b for a, b in zip(row, pivot_row)]
        g = math.gcd(*row)
        return [a // g for a in row] if g > 1 else row

    obj = [sum(row[j] for row in tab) for j in range(n + 1)]
    basis = list(range(n, n + len(tab)))
    stall = pivots = 0
    rule = {"bland": 0, "reset": 0}
    after_bland = False
    while obj[-1]:
        enter = max(range(n), key=obj.__getitem__, default=None)
        if enter is None or obj[enter] <= 0:
            break
        smallest = next(j for j in range(n) if obj[j] > 0)
        if stall >= len(tab):
            rule["bland"] += smallest != enter
            enter, after_bland = smallest, True
        elif after_bland:
            rule["reset"] += smallest != enter
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
        piv = pivot_row[enter]
        stall = 0 if pivot_row[-1] else stall + 1
        for i, row in enumerate(tab):
            if i != leave and row[enter]:
                tab[i] = eliminate(row, pivot_row, piv, row[enter])
        obj = eliminate(obj, pivot_row, piv, obj[enter])
        basis[leave] = enter
        pivots += 1
    return not obj[-1], pivots, basis, rule


def _reference_simplex_feasible(columns, rhs):
    """The presolve of `_simplex_feasible`, then the reference loop: (answer, pivots)."""
    zero = [i for i, r in enumerate(rhs) if not r]
    columns = [col for col in columns if not any(col[i] for i in zero)]
    tab = [[col[i] for col in columns] + [r] for i, r in enumerate(rhs) if r]
    return _reference_pivot_feasible(tab, len(columns))[:2]


def _counted(fn, *args):
    """`fn(*args)` with its (lp_calls, pivots)."""
    stats.start()
    try:
        return fn(*args), (stats.counts["lp_calls"], stats.counts["pivots"])
    finally:
        stats.stop()


def _det(matrix):
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _check_common_denominator(original, final, basis, n):
    """`final` is det(B) * B^-1 `original`, with det(B) > 0 for the final basis B."""
    m = len(original)
    # column i of B is the original column of the variable basic in row i
    b = [[original[r][j] if j < n else int(r == j - n) for j in basis] for r in range(m)]
    den = _det(b)
    assert den > 0 and den.denominator == 1
    for r in range(m):
        for c in range(n + 1):
            assert sum(b[r][i] * final[i][c] for i in range(m)) == den * original[r][c]
    for i, j in enumerate(basis):
        if j < n:
            assert final[i][j] == den  # a basic column is D times a unit column


def _mixed_tableau(rng):
    m, n = rng.randint(1, 5), rng.randint(0, 7)
    tab = [[rng.randint(-3, 3) for _ in range(n)] + [rng.randint(0, 4)] for _ in range(m)]
    if rng.random() < 0.3:
        for row in rng.sample(tab, rng.randint(1, m)):
            row[-1] = 0
    return tab, n


def _degenerate_tableau(rng):
    """A right-hand side that is a nonnegative combination of few columns: feasible."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    cols = [[rng.randint(-2, 3) for _ in range(m)] for _ in range(n)]
    x = [0] * n
    for j in rng.sample(range(n), rng.randint(1, min(2, n))):
        x[j] = rng.randint(0, 2)
    rhs = [sum(c[r] * v for c, v in zip(cols, x)) for r in range(m)]
    tab = [[c[r] for c in cols] + [rhs[r]] for r in range(m)]
    return [row if row[-1] >= 0 else [-a for a in row] for row in tab], n


def _gordan_tableau(rng):
    """A Gordan system as `minkowski_vertices` builds it: rhs 0 and an all-ones row."""
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    tab = [[rng.randint(-3, 3) for _ in range(n)] + [0] for _ in range(m)]
    return [row for row in tab if any(row)] + [[1] * (n + 1)], n


def _check_against_reference(tab, n):
    """`_pivot_feasible` on a copy of `tab` against the reference: (answer, pivots, rule)."""
    want, want_pivots, basis, rule = _reference_pivot_feasible([row[:] for row in tab], n)
    final = [row[:] for row in tab]
    assert _counted(convexgeom._pivot_feasible, final, n) == (want, (1, want_pivots)), (tab, n)
    _check_common_denominator(tab, final, basis, n)
    return want, want_pivots, rule


def test_pivot_loop_matches_the_gcd_normalized_reference():
    rng = random.Random(12)
    cases = [([], 0), ([], 3), ([[0]], 0), ([[2]], 0), ([[0, 0, 0]], 2), ([[1, 1]], 1)]
    makers = [_mixed_tableau, _degenerate_tableau, _gordan_tableau]
    cases += [rng.choice(makers)(rng) for _ in range(6000)]
    seen = {"feasible": 0, "infeasible": 0, "degenerate": 0}
    most_pivots = 0
    for tab, n in cases:
        want, want_pivots, _ = _check_against_reference(tab, n)
        seen["feasible" if want else "infeasible"] += 1
        seen["degenerate"] += any(not row[-1] for row in tab) and want_pivots > 0
        most_pivots = max(most_pivots, want_pivots)
    assert min(seen.values()) > 500 and most_pivots >= 8, (seen, most_pivots)


def _stalling_tableau(rng):
    """Mostly rhs-0 rows over more columns, mostly positive: long degenerate runs."""
    m, n = rng.randint(3, 7), rng.randint(4, 14)
    return [[rng.randint(-2, 4) for _ in range(n)] + [0 if rng.random() < 0.6 else rng.randint(1, 4)]
            for _ in range(m)], n


def _points_gordan_tableau(rng):
    """The Gordan system sum_a lambda_a (x_a - x_i) = 0, sum lambda = 1 over seeded points x.

    Half the time x_i is moved to the points' centroid, rounded down, so it
    is mostly not a vertex and the system mostly feasible.
    """
    d = rng.randint(3, 6)
    points = [[rng.randint(0, 6) for _ in range(d)] for _ in range(rng.randint(6, 14))]
    i = rng.randrange(len(points))
    if rng.random() < 0.5:
        points[i] = [sum(c) // len(points) for c in zip(*points)]
    columns = [[u - v for u, v in zip(x, points[i])] for a, x in enumerate(points) if a != i]
    tab = [[*row, 0] for row in zip(*columns) if any(row)]
    return tab + [[1] * (len(columns) + 1)], len(columns)


def test_bland_rule_runs_only_after_a_stall():
    # long degenerate runs, where the rule picks the entering column: Bland's
    # pick must differ from the largest reduced cost on some pivots, and the
    # largest reduced cost, back after a nondegenerate pivot, from Bland's
    rng = random.Random(30)
    rule = {"bland": 0, "reset": 0}
    bland_lps = {_stalling_tableau: 0, _points_gordan_tableau: 0}
    for _ in range(1200):
        make = rng.choice([*bland_lps])
        counts = _check_against_reference(*make(rng))[2]
        bland_lps[make] += counts["bland"] > 0
        for k in rule:
            rule[k] += counts[k]
    assert min(bland_lps.values()) >= 20 and rule["reset"] >= 10, (bland_lps, rule)


def test_simplex_feasible_matches_the_reference_presolve():
    rng = random.Random(13)
    cases = [([[1, 0]], [0, 0]), ([], [0, 0]), ([], [1, 0]), ([[0, 0]], [0, 0]), ([[0, 0]], [0, 1])]
    for _ in range(2000):
        m, n = rng.randint(1, 5), rng.randint(0, 6)
        columns = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        rhs = [rng.randint(0, 4) if rng.random() < 0.7 else 0 for _ in range(m)]
        cases.append((columns, rhs))
    for columns, rhs in cases:
        want, want_pivots = _reference_simplex_feasible(columns, rhs)
        assert _counted(convexgeom._simplex_feasible, columns, rhs) == (want, (1, want_pivots))
    # an empty tableau is feasible, with or without columns left
    assert convexgeom._simplex_feasible([[1, 0]], [0, 0]) is True
    assert convexgeom._simplex_feasible([[0, 0]], [0, 0]) is True
    assert convexgeom._simplex_feasible([], [1, 0]) is False


def test_simplex_feasible_on_full_support_right_hand_sides():
    # no zero in rhs, so the presolve has no column to drop: the path every
    # query on a full-support hull takes
    rng = random.Random(14)
    seen = {True: 0, False: 0}
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(0, 40)
        columns = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.5 and n:
            weights = [rng.randint(0, 2) for _ in range(n)]
            rhs = [sum(w * col[r] for w, col in zip(weights, columns)) or 1 for r in range(m)]
        else:
            rhs = [rng.randint(1, 9) for _ in range(m)]
        before = ([col[:] for col in columns], rhs[:])
        want, want_pivots = _reference_simplex_feasible(columns, rhs)
        assert _counted(convexgeom._simplex_feasible, columns, rhs) == (want, (1, want_pivots))
        assert (columns, rhs) == before
        seen[want] += 1
    assert min(seen.values()) > 40, seen


def _crash_checks():
    """(checks, settled): the points the crash basis was asked about in the last `_counted` call,
    and how many of them it settled."""
    return stats.counts["crash_checks"], stats.counts["crash_settled"]


def test_law_suite_lp_counts_are_pinned():
    # the crash basis settles all 11 points it is asked about, `member` and
    # `in_hull` queries that took 11 LPs and 38 pivots before it (567, 1941);
    # its own pivots are not simplex pivots and are not counted
    _, counts = _counted(check_all, GenConfig(trials=10, seed=42))
    assert counts == (556, 1903)
    assert _crash_checks() == (11, 11)


def _random_dist(rng, d):
    w = [rng.randint(1, 12) for _ in range(d)]
    return from_pairs((k, Fraction(x, sum(w))) for k, x in enumerate(w))


def test_member_lp_counts_on_a_seeded_hull_are_pinned():
    rng = random.Random(5)
    hull, counts = _counted(from_generators, [_random_dist(rng, 8) for _ in range(32)])
    assert (len(hull.generators), counts) == (31, (13, 114))
    gens = hull.generators
    queries = []
    for q in range(40):
        if q % 2:
            queries.append(_random_dist(rng, 8))
        else:
            picked = rng.sample(gens, rng.randint(2, 4))
            w = [rng.randint(1, 6) for _ in picked]
            queries.append(from_pairs(
                (k, Fraction(wi, sum(w)) * p) for g, wi in zip(picked, w) for k, p in g.entries
            ))
    answers, counts = _counted(lambda: [member(x, hull) for x in queries])
    assert all(answers[::2]) and sum(answers) == 21
    # every query past the LP-free answers has full support, so the crash
    # basis is asked about each of the 32, and settles none
    assert counts == (32, 286)
    assert _crash_checks() == (32, 0)


def _beyond(rng, gens):
    """A point past a vertex g of `gens`, away from a mixture c of others: g + t (g - c), t > 0."""
    g = rng.choice(gens)
    c = _mixture(rng, rng.sample([h for h in gens if h is not g], min(len(gens) - 1, rng.randint(1, 3))))
    gw, cw = dict(g.entries), dict(c.entries)
    t = min([Fraction(1)] + [gw[k] / (cw[k] - gw[k]) for k in gw if cw[k] > gw[k]]) / 2
    return from_pairs((k, gw[k] + t * (gw[k] - cw[k])) for k in gw)


def _mixture(rng, picked):
    w = [rng.randint(1, 6) for _ in picked]
    return from_pairs((k, Fraction(wi, sum(w)) * p) for g, wi in zip(picked, w) for k, p in g.entries)


def _pivots_per_lp(monkeypatch):
    """The pivots of each `_pivot_feasible` call from now on, appended to the list returned."""
    pivot_feasible, per_lp = convexgeom._pivot_feasible, []

    def counted(tab, n):
        before = stats.counts["pivots"]
        try:
            return pivot_feasible(tab, n)
        finally:
            per_lp.append(stats.counts["pivots"] - before)

    monkeypatch.setattr(convexgeom, "_pivot_feasible", counted)
    return per_lp


def test_member_lp_counts_on_a_hull_grid_are_pinned(monkeypatch):
    # the shape of the benchmark's hull queries: full-support hulls of n
    # points over d outcomes, half the queries mixtures and half past a vertex
    rng = random.Random(20)
    queries = []
    build = [0, 0]
    per_lp = _pivots_per_lp(monkeypatch)
    for n in (8, 16, 32, 64):
        for d in (4, 8):
            hull, counts = _counted(from_generators, [_random_dist(rng, d) for _ in range(n)])
            build = [*map(sum, zip(build, counts))]
            gens = hull.generators
            for q in range(8):
                inside = q % 2 == 0
                if inside:
                    x = _mixture(rng, rng.sample(gens, min(len(gens), rng.randint(2, 4))))
                else:
                    x = _beyond(rng, gens)
                queries.append((x, hull, inside))
    # with Bland's rule from the first degenerate pivot on, the build took
    # 956 pivots, and its largest LP 28
    assert (build, max(per_lp)) == ([134, 904], 17)
    answers, counts = _counted(lambda: [member(x, hull) for x, hull, _ in queries])
    assert answers == [inside for _, _, inside in queries]
    # the crash basis settles 11 of the 33 queries that reached the simplex
    # before it (33, 224), all of them mixtures
    assert counts == (22, 173)
    assert _crash_checks() == (33, 11)
