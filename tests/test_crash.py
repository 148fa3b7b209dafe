"""The crash basis of a hull form, its integer inverse, and the membership answers it settles with no LP.

`HullForm.crash` picks d generators whose columns B span the form, once per
form, and keeps the integer inverse |det B| B^-1 that its integer-preserving
pivots leave on an identity block.  A point with positive weight on every
outcome is inside, with no simplex, when each row of the inverse has a
nonnegative dot product with the point's row; otherwise the simplex runs as
before.  So every answer must stay that of the enumeration oracle and of the
unchanged simplex, the inverse must solve B as `Fraction` elimination written
here does, and every settled point must carry a certificate: its
coefficients, over |det B|, rebuild it exactly from the basis columns.
"""

import random
from fractions import Fraction
from operator import mul

from convexchoice import convexgeom, stats
from convexchoice.convexgeom import HullForm, in_hull, in_hull_oracle
from convexchoice.dist import from_pairs, point
from convexchoice.necset import from_generators, member
from test_pivot import _beyond, _mixture

# The oracle solves every generator subset of up to d members that could
# carry the point, so it stays on forms of at most this many generators.
_ORACLE_GENERATORS = {1: 12, 2: 12, 3: 9, 4: 6, 5: 6, 6: 6}


def _small_dist(rng, d, low=0):
    w = [rng.randint(low, 6) for _ in range(d)]
    if not any(w):
        w[rng.randrange(d)] = 1
    return from_pairs((k, Fraction(x, sum(w))) for k, x in enumerate(w) if x)


def _simplex_answer(form, x, simplex=convexgeom._simplex_feasible):
    """The answer of the simplex on every column of `form`, with no shortcut before it."""
    row = convexgeom._int_coords(x, form.index)
    return row is not None and simplex(form.columns, row)


def _times_inverse(form, row):
    """The crash inverse times `row`: |det B| times the coefficients of the basis columns that sum to it."""
    return [sum(map(mul, inverse_row, row)) for inverse_row in form.crash[1]]


def _settled(form, x):
    """Whether `contains` settles x by the crash basis: positive weights, and no negative coefficient."""
    row = convexgeom._int_coords(x, form.index)
    if row is None or not all(row) or form.crash is None:
        return False
    return min(_times_inverse(form, row)) >= 0


def _check_certificate(form, row):
    """The coefficients the inverse gives `row`, over |den|, rebuild it from the basis columns."""
    basis, _, den = form.crash
    coefficients = _times_inverse(form, row)
    rebuilt = [sum(c * form.columns[j][i] for c, j in zip(coefficients, basis)) for i in range(len(row))]
    assert rebuilt == [abs(den) * v for v in row], (form.generators, row)
    return coefficients


def _fraction_solve(matrix, rhs):
    """(solutions, det): the solution of matrix lambda = r for each r in `rhs`, and
    det(matrix), by Gauss-Jordan over `Fraction` with the first nonzero entry as
    pivot; (None, 0) when the square matrix is singular."""
    rows = [[*map(Fraction, row), *map(Fraction, r)] for row, r in zip(matrix, zip(*rhs))]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return None, 0
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[c])]
    return [list(solution) for solution in zip(*(row[len(rows):] for row in rows))], det


def _fraction_rank(matrix):
    """The rank of a matrix, by row reduction over `Fraction`."""
    rows, rank = [[*map(Fraction, row)] for row in matrix], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is not None:
            rows[rank], rows[p] = rows[p], rows[rank]
            for i in range(rank + 1, len(rows)):
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
    return rank


def test_member_matches_the_oracle_on_small_forms():
    # 3000 seeded forms over 1-6 outcomes of 1-12 generators, zero weights
    # allowed, a quarter of them mixtures of fewer than d base points (rank
    # below d); each queried by a random point and a mixture of its
    # generators, through `member` on the canonical set and `in_hull` on the
    # list as drawn
    rng = random.Random(30)
    seen = {"settled": 0, "no_crash": 0, "oracle": 0, "inside": 0, "queries": 0}
    for t in range(3000):
        d, n = rng.randint(1, 6), rng.randint(1, 12)
        if d > 1 and rng.random() < 0.25:
            base = [_small_dist(rng, d) for _ in range(rng.randint(1, d - 1))]
            gens = [_mixture(rng, rng.sample(base, rng.randint(1, len(base)))) for _ in range(n)]
        else:
            gens = [_small_dist(rng, d) for _ in range(n)]
        hull = from_generators(gens)
        for q, x in enumerate([_small_dist(rng, d), _mixture(rng, rng.sample(gens, rng.randint(1, n)))]):
            # the oracle on one query per form, alternating kinds; the unchanged
            # simplex on every query
            if q == t % 2 and len(hull.generators) <= _ORACLE_GENERATORS[d]:
                want = in_hull_oracle(x, hull.generators)
                seen["oracle"] += 1
            else:
                want = _simplex_answer(HullForm(gens), x)
            assert member(x, hull) == want, (x, gens)
            assert in_hull(x, gens) == want, (x, gens)
            assert q == 0 or want, (x, gens)
            form = hull.hull_form
            row = convexgeom._int_coords(x, form.index)
            if row is not None and all(row):
                if form.crash is None:
                    seen["no_crash"] += 1
                elif row not in form.column_set and _settled(form, x):
                    seen["settled"] += 1
            seen["inside"] += want
            seen["queries"] += 1
    assert seen["oracle"] > 2000 and seen["settled"] > 500 and seen["no_crash"] > 300, seen
    assert 3000 < seen["inside"] < 5000, seen


def test_member_matches_the_simplex_on_hull_grid_shapes(monkeypatch):
    # full-support hulls of 8-64 points over 4 and 8 outcomes, as in the
    # benchmark's hull queries, queried by mixtures of 2-4 generators, the
    # mixture of all of them, random points and points past a vertex
    rng = random.Random(61)
    simplex, runs = convexgeom._simplex_feasible, []
    monkeypatch.setattr(convexgeom, "_simplex_feasible", lambda *a: runs.append(a) or simplex(*a))
    settled = {"few": 0, "all": 0, "random": 0, "beyond": 0}
    for n in (8, 16, 32, 64):
        for d in (4, 8):
            hull = from_generators([_small_dist(rng, d, low=1) for _ in range(n)])
            gens = hull.generators
            for _ in range(6):
                queries = [
                    ("few", _mixture(rng, rng.sample(gens, min(len(gens), rng.randint(2, 4)))), True),
                    ("all", _mixture(rng, gens), True),
                    ("random", _small_dist(rng, d, low=1), None),
                    ("beyond", _beyond(rng, gens), False),
                ]
                for kind, x, known in queries:
                    want = _simplex_answer(hull.hull_form, x)
                    assert known in (None, want), (kind, x)
                    del runs[:]
                    assert member(x, hull) == want, (kind, x)
                    if _settled(hull.hull_form, x):
                        assert want and runs == [], (kind, x)
                        settled[kind] += 1
                    else:
                        assert len(runs) <= 1, (kind, x)
    assert settled["few"] > 5 and settled["all"] > 15 and settled["random"] > 0, settled
    assert settled["beyond"] == 0, settled


def test_every_carried_row_rebuilds_from_the_basis_columns():
    # the certificate: over |den|, the entries of the inverse times the row are
    # the coefficients of the basis columns that sum to the row, for settled
    # points (all >= 0) and for every other row alike
    rng = random.Random(62)
    signs = {"settled": 0, "negative_entry": 0, "negative_den": 0}
    for _ in range(400):
        d = rng.randint(2, 6)
        gens = [_small_dist(rng, d) for _ in range(rng.randint(d, 10))]
        form = HullForm(gens)
        if form.crash is None:
            continue
        signs["negative_den"] += form.crash[2] < 0
        for x in (_mixture(rng, rng.sample(gens, rng.randint(1, len(gens)))), _small_dist(rng, d, low=1)):
            row = convexgeom._int_coords(x, form.index)
            if row is None or not all(row):
                continue
            # columns and rows sum to their own scale, so nonnegative
            # coefficients that rebuild the row make it a mixture: inside
            if min(_check_certificate(form, row)) >= 0:
                signs["settled"] += 1
            else:
                signs["negative_entry"] += 1
    assert min(signs.values()) > 20, signs


def test_inverse_solves_the_basis_as_fraction_elimination_does():
    # seeded hulls over 1-8 outcomes, weights 0-6, a quarter of them mixtures
    # of fewer than d base points (rank below d); for each crash basis B, the
    # inverse times a row must be |det B| times the solution of B lambda = row
    # that `_fraction_solve` finds, entry by entry, for the basis columns,
    # random integer rows of either sign, and two query points; every point the
    # inverse settles is inside by `member`, with no LP, and by the oracle on
    # the basis generators alone
    rng = random.Random(33)
    seen = {"forms": 0, "negative_den": 0, "no_crash": 0, "rows": 0, "settled": 0, "settled_negative_den": 0}
    sizes = set()  # the sizes d of the crash bases checked
    for _ in range(500):
        d = rng.randint(1, 8)
        n = rng.randint(max(1, d - 1), d + 2)
        if d > 1 and rng.random() < 0.25:
            base = [_small_dist(rng, d) for _ in range(rng.randint(1, d - 1))]
            gens = [_mixture(rng, rng.sample(base, rng.randint(1, len(base)))) for _ in range(n)]
        else:
            gens = [_small_dist(rng, d) for _ in range(n)]
        hull = from_generators(gens)
        form = hull.hull_form
        columns, size = form.columns, len(form.index)
        seen["forms"] += 1
        if form.crash is None:
            assert _fraction_rank(columns) < size, gens
            seen["no_crash"] += 1
            continue
        basis, inverse, den = form.crash
        assert len(basis) == len(set(basis)) == len(inverse) == size
        matrix = [[columns[j][i] for j in basis] for i in range(size)]
        sizes.add(size)
        seen["negative_den"] += den < 0
        points = [_mixture(rng, rng.sample(hull.generators, rng.randint(1, len(hull.generators)))),
                  _small_dist(rng, d, low=1)]
        rows = [columns[j] for j in basis] + [[rng.randint(-9, 9) for _ in range(size)] for _ in range(2)]
        rows += [r for r in (convexgeom._int_coords(x, form.index) for x in points) if r is not None]
        solutions, det = _fraction_solve(matrix, rows)
        assert det == den, gens
        for row, solution in zip(rows, solutions):
            assert [sum(map(mul, inverse_row, row)) for inverse_row in inverse] == [
                abs(den) * v for v in solution
            ], (gens, row)
            seen["rows"] += 1
        for x in points:
            if _settled(form, x):
                stats.start()
                try:
                    assert member(x, hull), (gens, x)
                finally:
                    stats.stop()
                checks = stats.counts["crash_checks"], stats.counts["crash_settled"], stats.counts["lp_calls"]
                # a generator is answered before the crash basis is asked
                assert checks == ((0, 0, 0) if x in hull.generators else (1, 1, 0)), (gens, x)
                # the certificate's claim: x is in the hull of the basis generators
                assert in_hull_oracle(x, [hull.generators[j] for j in basis]), (gens, x)
                seen["settled"] += 1
                seen["settled_negative_den"] += den < 0
    assert seen["negative_den"] > 40 and seen["no_crash"] > 100 and seen["rows"] > 2000, seen
    assert seen["settled"] > 250 and seen["settled_negative_den"] > 25, seen
    assert sizes == set(range(1, 9)), sizes


def test_crash_basis_with_a_negative_last_pivot_settles_with_no_lp(monkeypatch):
    gens = [from_pairs([(0, Fraction(2, 5)), (1, Fraction(3, 10)), (2, Fraction(3, 10))]),
            point(0), from_pairs([(0, Fraction(3, 4)), (1, Fraction(1, 4))])]
    form = HullForm(gens)
    # outcome 0 takes point(0), outcome 1 the first generator, and outcome 2
    # the last, pivoted in at -3: B has columns (1, 0, 0), (4, 3, 3) and
    # (3, 1, 0), det(B) = -3, and the inverse is -den B^-1 = 3 B^-1
    assert form.columns == ((4, 3, 3), (1, 0, 0), (3, 1, 0))
    assert form.crash == ((1, 0, 2), [[3, -9, 5], [0, 0, 1], [0, 3, -3]], -3)
    runs = []
    monkeypatch.setattr(convexgeom, "_simplex_feasible", lambda *a: runs.append(a) or True)
    centre = _mixture(random.Random(0), gens)
    row = convexgeom._int_coords(centre, form.index)
    assert all(row) and row not in form.column_set
    assert min(_check_certificate(form, row)) > 0
    assert form.contains(centre) and runs == []
    assert member(centre, from_generators(gens)) and runs == []


def test_a_point_with_a_zero_weight_goes_to_the_simplex(monkeypatch):
    # (1/2, 1/2, 0) is the midpoint of two crash columns, but its zero weight
    # sends it to the simplex, whose presolve drops the row: the crash basis
    # is not built for it
    gens = [point("a"), point("b"), point("c")]
    form = HullForm(gens)
    runs = []
    simplex = convexgeom._simplex_feasible
    monkeypatch.setattr(convexgeom, "_simplex_feasible", lambda *a: runs.append(a) or simplex(*a))
    half = from_pairs([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
    assert form.contains(half) and len(runs) == 1
    assert "crash" not in form.__dict__
    third = from_pairs([("a", Fraction(1, 3)), ("b", Fraction(1, 3)), ("c", Fraction(1, 3))])
    assert form.contains(third) and len(runs) == 1
    assert form.crash == ((0, 1, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


def test_a_form_of_rank_below_d_has_no_crash_basis():
    # three points on one line across three outcomes span a plane of rank 2
    ends = [from_pairs([("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))]),
            from_pairs([("a", Fraction(1, 4)), ("b", Fraction(1, 4)), ("c", Fraction(1, 2))])]
    gens = ends + [_mixture(random.Random(1), ends)]
    form = HullForm(gens)
    assert form.crash is None
    inside = _mixture(random.Random(2), ends)
    outside = from_pairs([("a", Fraction(1, 3)), ("b", Fraction(1, 3)), ("c", Fraction(1, 3))])
    for x in (inside, outside):
        assert form.contains(x) == in_hull_oracle(x, gens) == (x is inside)
