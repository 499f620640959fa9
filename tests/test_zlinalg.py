import itertools
import math
import random
import re
from collections import defaultdict
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from regionchoice import zlinalg
from regionchoice.catalog import catalog_entry, names
from regionchoice.diagram import apply_r1, random_diagram
from regionchoice.incidence import DOUBLE, SINGLE
from regionchoice.solvers import solve
from regionchoice.zlinalg import (EchelonForm, InternalInvariantError,
                                  NotE00Error, SolutionFamily, Vector,
                                  _linf, _round_div, _within_l2,
                                  _within_linf, minimize_in_family,
                                  reduce_to_e00, replay, rref_rational,
                                  solve_pinned)
from test_sparse import solve_gf2


def determinant(matrix):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss);
    the unimodularity check on the P and Q of the (I | 0 0) tests."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


CURL = ((2, 1, 1),)
TREFOIL = ((1, 1, 1, 1, 0),
           (1, 1, 0, 1, 1),
           (0, 1, 1, 1, 1))


def trefoil_family(b):
    """The solution family of ``TREFOIL u + b = o``, pinned on (3, 4)."""
    (family,) = solve_pinned(TREFOIL, (3, 4), [b])
    return family


def test_curl_reduces_to_e00():
    d = reduce_to_e00(CURL)
    assert d.s == ((1, 0, 0),)
    assert d.is_e00


def test_reduction_self_consistency():
    d = reduce_to_e00(TREFOIL)
    assert d.is_e00
    # P A Q must equal S when recomputed by hand
    pa = [[sum(d.p[i][k] * d.matrix[k][j] for k in range(3))
           for j in range(5)] for i in range(3)]
    paq = [[sum(pa[i][k] * d.q[k][j] for k in range(5))
            for j in range(5)] for i in range(3)]
    assert tuple(tuple(r) for r in paq) == d.s


def test_operation_log_replays_to_s():
    d = reduce_to_e00(TREFOIL)
    assert replay(d.matrix, d.log) == d.s


def test_unimodular_transforms():
    for m in (CURL, TREFOIL):
        d = reduce_to_e00(m)
        assert abs(determinant(d.p)) == 1
        assert abs(determinant(d.q)) == 1


def test_determinant_values():
    assert determinant(((2, 1), (1, 2))) == 3
    assert determinant(((1, 2), (3, 4))) == -2
    assert determinant(((5,),)) == 5
    # integer result even when intermediate fractions would appear
    assert determinant(((2, 4, 2), (4, 2, 0), (0, 2, 2))) == -8


def test_solve_pinned_residual_and_kernel():
    b = (3, -7, 11)
    fam = trefoil_family(b)
    for u in (fam.particular, fam.member(2, -3), fam.member(-1, 5)):
        assert all(isinstance(x, int) for x in u)
        out = [sum(r * x for r, x in zip(row, u)) + bv
               for row, bv in zip(TREFOIL, b)]
        assert out == [0, 0, 0]


def test_kernel_basis_spans_lattice():
    k1, k2 = trefoil_family((0, 0, 0)).kernel
    for k in (k1, k2):
        assert all(sum(r * x for r, x in zip(row, k)) == 0 for row in TREFOIL)
    # some 2x2 minor of the basis matrix is +-1, so the lattice is primitive
    minors = [k1[i] * k2[j] - k2[i] * k1[j]
              for i in range(5) for j in range(i + 1, 5)]
    assert any(m in (1, -1) for m in minors)


def test_wrong_shape_rejected():
    # reduce_to_e00 takes only an n x (n+2) matrix with n >= 1
    for matrix in ((), ((1, 0, 0),) * 2, ((1, 0, 0, 1),),
                   tuple(zip(*TREFOIL))):
        with pytest.raises(NotE00Error):
            reduce_to_e00(matrix)


def test_bad_b_length():
    with pytest.raises(ValueError):
        solve_pinned(TREFOIL, (3, 4), [(1, 2)])


def test_minimize_improves_or_matches():
    rng = random.Random(3)
    for _ in range(25):
        b = tuple(rng.randint(-50, 50) for _ in range(3))
        fam = trefoil_family(b)
        for norm in ("Linf", "L2"):
            best = minimize_in_family(fam, norm)
            if norm == "Linf":
                measure = lambda u: max(abs(x) for x in u)
            else:
                measure = lambda u: sum(x * x for x in u)
            assert measure(best) <= measure(fam.particular)
            # at least as good as everything in a coefficient window
            window = [(a, c) for a in range(-8, 9) for c in range(-8, 9)]
            assert measure(best) <= min(
                measure(fam.member(a, c)) for a, c in window)
            # and the least (norm, vector) in that window around itself, so
            # ties go to the lexicographically smaller vector
            around = type(fam)(fam.matrix, fam.b, best, fam.kernel)
            assert (measure(best), best) == min(
                (measure(u), u) for u in (around.member(a, c)
                                          for a, c in window))


# ---------------------------------------------------------------------------
# the row walk on full vectors, which minimize_in_family ran before it read
# one group per distinct kernel column; kept as the oracle for that walk


def _norm(u: Vector, which: str):
    if which == "Linf":
        return max(abs(x) for x in u)
    return sum(x * x for x in u)


def _gauss_reduce(k1: Vector, k2: Vector) -> tuple[Vector, Vector]:
    """Two-dimensional lattice (Gaussian) reduction under L2."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    u, v = list(k1), list(k2)
    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        m = round(Fraction(dot(u, v), dot(u, u)))
        v = [b - m * a for a, b in zip(u, v)]
        if dot(v, v) >= dot(u, u):
            return tuple(u), tuple(v)
        u, v = v, u


def minimize_by_rows(family: SolutionFamily, norm: str = "Linf") -> Vector:
    """The member of the family with the least norm and, among those, the
    lexicographically smallest vector: the walk over the rows a of the
    reduced basis, every member built as a vector of all n + 2 coordinates.
    """
    if norm not in ("Linf", "L2"):
        raise ValueError(f"norm must be 'Linf' or 'L2', got {norm!r}")

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # checked before the lattice reduction, which divides by zero on a
    # degenerate basis; the reduction leaves the Gram determinant unchanged
    k1, k2 = family.kernel
    if dot(k1, k1) * dot(k2, k2) - dot(k1, k2) ** 2 == 0:
        raise InternalInvariantError(
            "minimize_in_family: kernel basis is degenerate")
    k1, k2 = _gauss_reduce(k1, k2)

    # real least-squares for u0 + a k1 + b k2 = 0
    u0 = family.particular
    g11, g12, g22 = dot(k1, k1), dot(k1, k2), dot(k2, k2)
    r1, r2 = dot(u0, k1), dot(u0, k2)
    det = g11 * g22 - g12 * g12
    a0 = Fraction(r2 * g12 - r1 * g22, det)
    b0 = Fraction(r1 * g12 - r2 * g11, det)

    def key_at(a: int, b: int):
        u = tuple(x + a * y + b * z for x, y, z in zip(u0, k1, k2))
        return (_norm(u, norm), u)

    # Start from the member at the rounded least-squares coefficients and
    # walk the rows a outward, up from start and then down from start - 1.
    # The rows holding a real member no larger than the best are an
    # interval (the projection of a convex set) around the best's row, which
    # lies behind the walk; so each direction stops at its first row with no
    # such member, and the best only shrinking keeps that stop exact.
    # The members of one row are w + b k2: convex in b under either norm,
    # and lexicographically monotone in b, rising with b when k2's first
    # nonzero entry is positive.  Scanned in lexicographic order, the row's
    # least key is where its norm stops falling, and only that member is
    # built and compared with the best.
    start = round(a0)
    best = key_at(start, round(b0))
    rising = next(x for x in k2 if x) > 0
    for rows in (itertools.count(start), itertools.count(start - 1, -1)):
        for a in rows:
            w = [x + a * y for x, y in zip(u0, k1)]
            window = _coefficients_within(w, k2, best[0], norm)
            if window is None:
                break
            row = None
            for b in window if rising else reversed(window):
                size = (max(abs(x + b * y) for x, y in zip(w, k2))
                        if norm == "Linf"
                        else sum((x + b * y) ** 2 for x, y in zip(w, k2)))
                if row is not None and size >= row[0]:
                    break
                row = (size, b)
            if row is not None and row[0] <= best[0]:
                best = min(best, key_at(a, row[1]))
    return best[1]


def _coefficients_within(w: list[int], k: Vector, limit: int,
                         norm: str) -> range | None:
    """A range of integers b holding every b with norm(w + b k) <= limit,
    or None when no real b has it; ``k`` is not zero."""
    if norm == "L2":
        # |k|^2 b^2 + 2 (w.k) b + |w|^2 - limit <= 0
        g = sum(x * x for x in k)
        p = sum(x * y for x, y in zip(w, k))
        disc = p * p - g * (sum(x * x for x in w) - limit)
        if disc < 0:
            return None
        s = math.isqrt(disc) + 1
        return range((-p - s) // g, (-p + s) // g + 1)
    # Each coordinate bounds b to [(-limit - c) / d, (limit - c) / d]; the
    # rational bounds are kept as (numerator, positive denominator) pairs and
    # compared exactly by cross-multiplication.
    lo = hi = None
    for c, d in zip(w, k):
        if d == 0:
            if abs(c) > limit:
                return None
            continue
        if d < 0:
            c, d = -c, -d       # |c + b d| = |-c - b d|
        if lo is None or (-limit - c) * lo[1] > lo[0] * d:
            lo = (-limit - c, d)
        if hi is None or (limit - c) * hi[1] < hi[0] * d:
            hi = (limit - c, d)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return range(-(-lo[0] // lo[1]), hi[0] // hi[1] + 1)


def _integer_window(w, k, limit, norm):
    """A range of integers b holding every b with norm(w + b k) <= limit."""
    if norm == "L2":
        # |k|^2 b^2 + 2 (w.k) b + |w|^2 - limit <= 0
        g = sum(x * x for x in k)
        p = sum(x * y for x, y in zip(w, k))
        disc = p * p - g * (sum(x * x for x in w) - limit)
        if disc < 0:
            return range(0)
        s = math.isqrt(disc) + 1
        return range((-p - s) // g, (-p + s) // g + 1)
    lo, hi = None, None
    for c, d in zip(w, k):
        if d == 0:
            if abs(c) > limit:
                return range(0)
            continue
        # |c + b d| <= limit: b d lies in [-limit - c, limit - c]
        x, y = (-limit - c, limit - c) if d > 0 else (limit - c, -limit - c)
        b_lo, b_hi = -(-x // d), y // d
        lo = b_lo if lo is None else max(lo, b_lo)
        hi = b_hi if hi is None else min(hi, b_hi)
        if lo > hi:
            return range(0)
    return range(lo, hi + 1)


def _ellipse_scan(family, norm):
    """Least (norm, member) over every a in the L2 ellipse's projection.

    The scan minimize_in_family ran before it walked the rows outward and
    stopped at the first with no real member; kept as an oracle for that
    walk, with its own integer window.
    """
    k1, k2 = _gauss_reduce(*family.kernel)
    u0 = family.particular

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    g11, g12, g22 = dot(k1, k1), dot(k1, k2), dot(k2, k2)
    r1, r2 = dot(u0, k1), dot(u0, k2)
    det = g11 * g22 - g12 * g12
    a0 = Fraction(r2 * g12 - r1 * g22, det)
    b0 = Fraction(r1 * g12 - r2 * g11, det)

    def key_at(a, b):
        u = tuple(x + a * y + b * z for x, y, z in zip(u0, k1, k2))
        return (_norm(u, norm), u)

    best = key_at(round(a0), round(b0))
    bound = best[0] if norm == "L2" else len(u0) * best[0] ** 2
    least = dot(u0, u0) + a0 * r1 + b0 * r2
    reach = math.isqrt(math.floor((bound - least) * g22 / det)) + 1
    for a in range(math.floor(a0) - reach, math.ceil(a0) + reach + 1):
        w = [x + a * y for x, y in zip(u0, k1)]
        for b in _integer_window(w, k2, best[0], norm):
            best = min(best, key_at(a, b))
    return best[1]


def test_minimize_matches_the_full_ellipse_scan():
    rng = random.Random(17)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 12)
        u0 = tuple(rng.randint(-60, 60) for _ in range(n))
        k1 = tuple(rng.randint(-5, 5) for _ in range(n))
        k2 = tuple(rng.randint(-5, 5) for _ in range(n))
        if (sum(x * x for x in k1) * sum(y * y for y in k2)
                == sum(x * y for x, y in zip(k1, k2)) ** 2):
            continue
        fam = SolutionFamily((), (), u0, (k1, k2))
        for norm in ("Linf", "L2"):
            assert minimize_in_family(fam, norm) == _ellipse_scan(fam, norm)
        checked += 1


def assert_as_the_row_walk(family):
    for norm in ("Linf", "L2"):
        assert (minimize_in_family(family, norm)
                == minimize_by_rows(family, norm)), norm


def distinct_columns(family):
    return len(set(zip(*family.kernel)))


def test_grouped_walk_matches_the_row_walk_on_the_catalog():
    rng = random.Random(5)
    for name in names():
        D = catalog_entry(name).diagram
        for rule in (SINGLE, DOUBLE):
            for _ in range(20):
                b = [rng.randint(-20, 20) for _ in range(D.crossing_count)]
                assert_as_the_row_walk(solve(D, rule, b))


def test_grouped_walk_matches_the_row_walk_on_random_diagrams():
    repeated = 0
    for s in range(300):
        D = random_diagram(s, 3 + s % 40)
        rng = random.Random(s)
        b = tuple(rng.randint(-9, 9) for _ in range(D.crossing_count))
        for rule in (SINGLE, DOUBLE):
            family = solve(D, rule, b)
            assert_as_the_row_walk(family)
            repeated += distinct_columns(family) < D.region_count
    assert repeated == 600


@pytest.mark.parametrize("seed, moves, n", [(5, 500, 741), (9, 2000, 3021)])
def test_grouped_walk_matches_the_row_walk_at_large_n(seed, moves, n):
    D = random_diagram(seed, moves)
    assert D.crossing_count == n
    b = tuple((7 * i) % 19 - 9 for i in range(n))
    family = solve(D, SINGLE, b)
    assert distinct_columns(family) <= 20
    assert_as_the_row_walk(family)


def unit_families(rng, count, zero_columns=False):
    """Families whose kernel entries lie in {-1, 0, 1}, so columns repeat
    and norms tie; with ``zero_columns``, some coordinates have the kernel
    column (0, 0) and never move."""
    families = []
    while len(families) < count:
        n = rng.randint(2, 20)
        k1 = [rng.randint(-1, 1) for _ in range(n)]
        k2 = [rng.randint(-1, 1) for _ in range(n)]
        if zero_columns:
            for i in rng.sample(range(n), rng.randint(1, n - 1)):
                k1[i] = k2[i] = 0
        if (sum(x * x for x in k1) * sum(y * y for y in k2)
                == sum(x * y for x, y in zip(k1, k2)) ** 2):
            continue
        u0 = tuple(rng.randint(-4, 4) for _ in range(n))
        families.append(SolutionFamily((), (), u0, (tuple(k1), tuple(k2))))
    return families


def least_members(family, norm):
    """How many members near the answer share its norm."""
    best = minimize_by_rows(family, norm)
    around = SolutionFamily((), (), best, family.kernel)
    return len({u for u in (around.member(a, c) for a in range(-3, 4)
                            for c in range(-3, 4))
                if _norm(u, norm) == _norm(best, norm)})


@pytest.mark.parametrize("zero_columns", [False, True])
def test_grouped_walk_matches_the_row_walk_on_unit_kernels(zero_columns):
    rng = random.Random(61 + zero_columns)
    families = unit_families(rng, 800, zero_columns)
    for family in families:
        assert_as_the_row_walk(family)
    assert sum(distinct_columns(f) < len(f.particular) for f in families) > 600
    ties = sum(least_members(f, norm) > 1
               for f in families[:200] for norm in ("Linf", "L2"))
    assert ties > 100
    if zero_columns:
        assert all((0, 0) in set(zip(*f.kernel)) for f in families)


def test_window_is_none_exactly_when_no_real_coefficient_qualifies():
    rng = random.Random(29)
    nones = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        w = [rng.randint(-40, 40) for _ in range(n)]
        k = [rng.randint(-4, 4) for _ in range(n)]
        if not any(k):
            continue
        limit = rng.randint(0, 60)
        # whether some real b has norm(w + b k) <= limit, in exact rationals
        norm = rng.choice(("Linf", "L2"))
        if norm == "L2":
            g = sum(x * x for x in k)
            p = sum(x * y for x, y in zip(w, k))
            real = sum(x * x for x in w) - Fraction(p * p, g) <= limit
        else:
            lo = max(Fraction(-limit - c, d) if d > 0
                     else Fraction(limit - c, d) for c, d in zip(w, k) if d)
            hi = min(Fraction(limit - c, d) if d > 0
                     else Fraction(-limit - c, d) for c, d in zip(w, k) if d)
            real = lo <= hi and all(abs(c) <= limit
                                    for c, d in zip(w, k) if d == 0)
        window = _coefficients_within(w, k, limit, norm)
        assert (window is None) == (not real)
        nones += window is None
        within = [b for b in _integer_window(w, k, limit, norm)
                  if _norm([x + b * y for x, y in zip(w, k)], norm) <= limit]
        if window is None:
            assert within == []
        else:
            assert set(within) <= set(window)
    assert 0 < nones < 2000


# ---------------------------------------------------------------------------
# the grouped walk as it read each row before the rows became integer loops
# over normalised groups: every row rebuilt the Linf bounds and the norm as
# closures; kept verbatim as the oracle for the rows and windows the walk
# reads


def minimize_by_groups(family: SolutionFamily, norm: str = "Linf") -> Vector:
    """The member of the family with the least norm and, among those, the
    lexicographically smallest vector.

    The answer depends only on the set of solutions, not on the particular
    solution or the kernel basis that describe it.

    Coordinates that share a kernel column ``(k1[i], k2[i])`` move
    together, so the search reads one group per distinct column, in the
    order of its first coordinate: O(n) to group, then O(d) per row.  Their
    counts and sums of ``u0[i]`` give the Gram matrix, the least-squares
    point and, with ``|u0|^2``, the L2 norm as a quadratic form; their least
    and greatest ``u0[i]`` give the Linf norm; and the first group that
    moves between two members settles a tie.  Only the answer is built as
    a vector.
    """
    if norm not in ("Linf", "L2"):
        raise ValueError(f"norm must be 'Linf' or 'L2', got {norm!r}")
    u0 = family.particular
    groups = defaultdict(list)
    for column, x in zip(zip(*family.kernel), u0):
        groups[column].append(x)
    values = list(groups.values())
    count, total = list(map(len, values)), list(map(sum, values))
    p, q = [c[0] for c in groups], [c[1] for c in groups]
    # checked before the lattice reduction, which divides by zero on a
    # degenerate basis; the reduction leaves the Gram determinant unchanged
    g11, g12, g22 = (sum(map(mul, map(mul, x, y), count))
                     for x, y in ((p, p), (p, q), (q, q)))
    if g11 * g22 - g12 * g12 == 0:
        raise InternalInvariantError(
            "minimize_in_family: kernel basis is degenerate")
    # two-dimensional lattice (Gaussian) reduction under L2, on the Gram
    # matrix; t1 and t2 write the reduced basis in the given one
    t1, t2 = (1, 0), (0, 1)
    if g11 > g22:
        g11, g22, t1, t2 = g22, g11, t2, t1
    while True:
        m = _round_div(g12, g11)
        g12, g22 = g12 - m * g11, g22 - m * (2 * g12 - m * g11)
        t2 = (t2[0] - m * t1[0], t2[1] - m * t1[1])
        if g22 >= g11:
            break
        g11, g22, t1, t2 = g22, g11, t2, t1
    p, q = ([s * x + t * y for x, y in groups] for s, t in (t1, t2))

    # real least-squares for u0 + a k1 + b k2 = 0
    r1, r2 = sum(map(mul, total, p)), sum(map(mul, total, q))
    det = g11 * g22 - g12 * g12
    squares = sum(map(mul, u0, u0))
    low, high = list(map(min, values)), list(map(max, values))

    def line(a: int):
        """The norm of the member (a, b) as a function of b, and the window
        of b under a limit (``_grouped_within_l2``, ``_grouped_within_linf``)."""
        if norm == "L2":
            # |w + b k2|^2 for w = u0 + a k1
            ww, wk = squares + a * (2 * r1 + a * g11), r2 + a * g12
            return (lambda b: ww + b * (2 * wk + b * g22),
                    lambda limit: _grouped_within_l2(ww - limit, wk, g22))
        lo = [x + a * y for x, y in zip(low, p)]
        hi = [x + a * y for x, y in zip(high, p)]
        return (lambda b: max(max(x + b * y for x, y in zip(hi, q)),
                              -min(x + b * y for x, y in zip(lo, q))),
                lambda limit: _grouped_within_linf(lo, hi, q, limit))

    def before(a: int, b: int, c: int, d: int) -> bool:
        """Whether the member (a, b) is lexicographically before (c, d)."""
        return next((s < 0 for s in ((a - c) * x + (b - d) * y
                                     for x, y in zip(p, q)) if s), False)

    # Start from the member at the rounded least-squares coefficients and
    # walk the rows a outward, up from start and then down from start - 1.
    # The rows holding a real member no larger than the best are an
    # interval (the projection of a convex set) around the best's row, which
    # lies behind the walk; so each direction stops at its first row with no
    # such member, and the best only shrinking keeps that stop exact.
    # The members of one row are w + b k2: convex in b under either norm,
    # and lexicographically monotone in b, rising with b when k2's first
    # nonzero entry is positive.  Scanned in lexicographic order, the row's
    # least member is where its norm stops falling, and only that member is
    # compared with the best.
    start = _round_div(r2 * g12 - r1 * g22, det)
    b = _round_div(r1 * g12 - r2 * g11, det)
    best = (line(start)[0](b), start, b)
    rising = next(y for y in q if y) > 0
    for rows in (itertools.count(start), itertools.count(start - 1, -1)):
        for a in rows:
            size_at, within = line(a)
            window = within(best[0])
            if window is None:
                break
            row = None
            for b in window if rising else reversed(window):
                size = size_at(b)
                if row is not None and size >= row[0]:
                    break
                row = (size, b)
            if row is not None and (row[0] < best[0] or row[0] == best[0]
                                    and before(a, row[1], *best[1:])):
                best = (row[0], a, row[1])
    _, a, b = best
    return family.member(a * t1[0] + b * t2[0], a * t1[1] + b * t2[1])


def _grouped_within_l2(c: int, p: int, g: int) -> range | None:
    """A range of integers b holding every b with g b^2 + 2 p b + c <= 0,
    or None when no real b has it; ``g`` is positive."""
    disc = p * p - g * c
    if disc < 0:
        return None
    s = math.isqrt(disc) + 1
    return range((-p - s) // g, (-p + s) // g + 1)


def _grouped_within_linf(low, high, k, limit: int) -> range | None:
    """A range of integers b holding every b with |c + b k[i]| <= limit for
    every c in [low[i], high[i]] and every i, or None when no real b has
    it; ``k`` is not zero."""
    # Each i bounds b to [(-limit - low) / d, (limit - high) / d] for d > 0;
    # the rational bounds are kept as (numerator, positive denominator)
    # pairs and compared exactly by cross-multiplication.
    lo = hi = None
    for c, e, d in zip(low, high, k):
        if d == 0:
            if max(e, -c) > limit:
                return None
            continue
        if d < 0:
            c, e, d = -e, -c, -d    # |c + b d| = |-c - b d|
        if lo is None or (-limit - c) * lo[1] > lo[0] * d:
            lo = (-limit - c, d)
        if hi is None or (limit - e) * hi[1] < hi[0] * d:
            hi = (limit - e, d)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return range(-(-lo[0] // lo[1]), hi[0] // hi[1] + 1)


def windows_read(monkeypatch, walk, where, names, family, norm):
    """The answer of ``walk`` on the family and every window its rows read,
    in order, through the window functions ``names`` of the namespace
    ``where``."""
    log = []

    def recording(window):
        def read(*args):
            log.append(window(*args))
            return log[-1]
        return read

    with monkeypatch.context() as m:
        for name in names:
            m.setitem(where, name, recording(where[name]))
        answer = walk(family, norm)
    return answer, log


def top_up(diagram, n, rng):
    """``diagram`` with curls added, on random arcs and sides, until it has
    ``n`` crossings."""
    while diagram.crossing_count < n:
        label = rng.randint(1, 2 * diagram.crossing_count)
        diagram = apply_r1(diagram, label, rng.choice(("left", "right")))
    return diagram


@pytest.mark.parametrize("n", [17, 34, 65])
def test_walk_reads_the_rows_and_windows_of_the_grouped_walk(monkeypatch, n):
    """Families shaped as the benchmark's fresh solves: a grown diagram of
    fewer than n crossings topped up with curls to n, b in [-9, 9]."""
    rng = random.Random(f"fresh-{n}")
    walked_past_empty = stopped = 0
    for _ in range(40):
        D = top_up(random_diagram(rng.randrange(2 ** 31), (n - 2) // 2), n,
                   rng)
        b = tuple(rng.randint(-9, 9) for _ in range(n))
        for rule in (SINGLE, DOUBLE):
            family = solve(D, rule, b)
            for norm in ("Linf", "L2"):
                got, windows = windows_read(
                    monkeypatch, minimize_in_family, vars(zlinalg),
                    ("_within_l2", "_within_linf"), family, norm)
                want, oracle = windows_read(
                    monkeypatch, minimize_by_groups, globals(),
                    ("_grouped_within_l2", "_grouped_within_linf"), family,
                    norm)
                assert got == want, (rule, norm)
                assert windows == oracle, (rule, norm)
                # the walk goes on past a row with no integer member under
                # the limit when a real one exists
                walked_past_empty += sum(w is not None and not w
                                         for w in windows)
                stopped += windows.count(None)
    assert stopped == 40 * 2 * 2 * 2
    assert walked_past_empty > 0


def linf_arguments(groups, multiple):
    """``_within_linf``'s groups for groups ``(lo, hi, x, y)``: those with
    y = 0, and the others as ``(lo, hi, x, scale // y)`` with signs flipped
    to make y > 0, for ``scale`` a multiple of every y."""
    scale = math.lcm(*(y for *_, y in groups if y)) * multiple
    moving = [(lo, hi, x, scale // y) if y > 0 else (-hi, -lo, -x, scale // -y)
              for lo, hi, x, y in groups if y]
    return moving, [g for g in groups if not g[3]], scale


def test_linf_window_is_the_integer_window_of_its_exact_real_bounds():
    rng = random.Random(41)
    counts = dict.fromkeys(("none", "still", "empty", "found"), 0)
    for trial in range(3000):
        groups = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.randint(-30, 30)
            groups.append((lo, lo + rng.randint(0, 8), rng.randint(-4, 4),
                           rng.choice((0, 0, 1, 2, 3, -1, -2, -4))))
        if not any(y for *_, y in groups):
            continue
        a = rng.randint(-5, 5)

        def size(b):
            return max(abs(c + a * x + b * y)
                       for lo, hi, x, y in groups for c in (lo, hi))

        sizes = {b: size(b) for b in range(-120, 121)}
        assert all(_linf(groups, a, b) == sizes[b] for b in range(-3, 4))
        # every other limit sits just below the least integer member's norm,
        # where a real window may hold no integer
        limit = (rng.randint(0, 40) if trial % 2
                 else max(0, min(sizes.values()) - rng.randint(0, 2)))
        window = _within_linf(*linf_arguments(groups, rng.randint(1, 3)), a,
                              limit)
        held = all(max(hi + a * x, -lo - a * x) <= limit
                   for lo, hi, x, y in groups if y == 0)
        # b y lies in [-limit - lo - a x, limit - hi - a x]
        bounds = [(Fraction(-limit - lo - a * x, y),
                   Fraction(limit - hi - a * x, y))[::1 if y > 0 else -1]
                  for lo, hi, x, y in groups if y]
        low = max(lower for lower, _ in bounds)
        high = min(upper for _, upper in bounds)
        if not held or low > high:
            assert window is None
            counts["none"] += 1
            counts["still"] += not held and low <= high
            continue
        assert window == range(math.ceil(low), math.floor(high) + 1)
        assert list(window) == [b for b in sizes if sizes[b] <= limit]
        counts["empty" if not window else "found"] += 1
    assert min(counts.values()) > 20, counts


def test_l2_window_holds_every_qualifying_b_and_is_none_without_a_real_one():
    rng = random.Random(43)
    nones = 0
    for _ in range(3000):
        g, p, c = (rng.randint(1, 30), rng.randint(-200, 200),
                   rng.randint(-600, 600))
        window = _within_l2(c, p, g)
        # g b^2 + 2 p b + c is least at b = -p / g
        if c - Fraction(p * p, g) > 0:
            assert window is None
            nones += 1
            continue
        # the b that qualify are an interval, so none lies further out
        exact = [b for b in range(window.start - 3, window.stop + 3)
                 if g * b * b + 2 * p * b + c <= 0]
        assert set(exact) <= set(window)
        # at most two integers past each real root
        assert len(window) <= len(exact) + 4
    assert 0 < nones < 3000


def test_minimize_rejects_unknown_norm():
    fam = trefoil_family((0, 0, 0))
    with pytest.raises(ValueError):
        minimize_in_family(fam, "L1")


def test_solve_gf2_basic():
    # the mod-2 oracle: bit j of a row is column j, bit 3 the right-hand side
    sol = solve_gf2([0b1011, 0b0110], 3)
    assert sol is not None
    assert [(sum(r * x for r, x in zip(row, sol)) % 2)
            for row in ((1, 1, 0), (0, 1, 1))] == [1, 0]


def test_solve_gf2_unsolvable_returns_none():
    assert solve_gf2([0b011, 0b111], 2) is None


def test_rref_of_trefoil_matrix():
    e = rref_rational(TREFOIL)
    assert e.pivot_cols == (0, 1, 2)
    assert e.coeffs == (
        (1, 0, 0, 0, -1),
        (0, 1, 0, 1, 2),
        (0, 0, 1, 0, -1))
    assert e.b_coeffs == (
        (1, 0, -1),
        (-1, 1, 1),
        (1, -1, 0))


def test_rref_evaluate_solves():
    e = rref_rational(TREFOIL)
    rng = random.Random(9)
    for _ in range(20):
        b = tuple(rng.randint(-30, 30) for _ in range(3))
        free = (rng.randint(-5, 5), rng.randint(-5, 5))
        u = e.evaluate(b, free)
        for row, bv in zip(TREFOIL, b):
            assert sum(Fraction(r) * x for r, x in zip(row, u)) == bv


def test_rref_wrong_free_count():
    e = rref_rational(TREFOIL)
    with pytest.raises(ValueError):
        e.evaluate((0, 0, 0), (1,))


def product(matrix, u):
    return tuple(sum(a * x for a, x in zip(row, u)) for row in matrix)


def test_solve_pinned_trefoil_is_canonical():
    (fam,) = solve_pinned(TREFOIL, (3, 4), [(1, 0, 0)])
    assert fam.particular == (-1, 1, -1, 0, 0)
    assert fam.kernel == ((0, -1, 0, 1, 0), (1, -2, 1, 0, 1))


def test_solve_pinned_families_carry_the_callers_matrix():
    fams = solve_pinned(TREFOIL, (3, 4), [(1, 0, 0), (0, 2, -1)])
    for fam in fams:
        assert fam.matrix == TREFOIL
        assert all(row is own for row, own in zip(fam.matrix, TREFOIL))
    (fam,) = solve_pinned([list(row) for row in TREFOIL], (3, 4), [(1, 0, 0)])
    assert fam == fams[0] and type(fam.matrix) is tuple
    assert all(type(row) is tuple for row in fam.matrix)


def test_solve_pinned_makes_a_unit_pivot_by_euclid_steps():
    # the pinned block [[2, 3], [3, 5]] has det 1 but no +-1 entry
    a = ((2, 3, 1, 0), (3, 5, 0, 1))
    b1, b2 = (1, 1), (-4, 7)
    f1, f2 = solve_pinned(a, (2, 3), [b1, b2])
    # [[2, 3], [3, 5]]^-1 = [[5, -3], [-3, 2]]
    assert f1.particular == (-2, 1, 0, 0)
    assert f2.particular == (41, -26, 0, 0)
    assert f1.kernel == f2.kernel == ((-5, 3, 1, 0), (3, -2, 0, 1))
    for fam in (f1, f2):
        assert product(a, fam.particular) == tuple(-x for x in fam.b)
        assert product(a, fam.kernel[0]) == product(a, fam.kernel[1]) == (0, 0)


PINNED_REFUSAL = ("pinned solve, elimination: no live column has gcd 1, "
                  "so no unimodular column basis is reachable")


def test_solve_pinned_refuses_a_block_with_det_2():
    with pytest.raises(InternalInvariantError,
                       match=f"^{re.escape(PINNED_REFUSAL)}$"):
        solve_pinned(((2, 0, 1, 0), (1, 1, 0, 1)), (2, 3), [(1, 1)])


def test_solve_pinned_refuses_a_singular_block():
    with pytest.raises(InternalInvariantError,
                       match=f"^{re.escape(PINNED_REFUSAL)}$"):
        solve_pinned(((1, 1, 1, 0), (1, 1, 0, 1)), (2, 3), [(0, 0)])


def test_solve_pinned_answers_exactly_when_the_pinned_block_is_unimodular():
    # the determinant of the block left by deleting the pins is the oracle
    rng = random.Random(2012)
    answered = refused = 0
    for _ in range(5000):
        n = rng.randint(1, 5)
        density = rng.choice((0.3, 0.5, 0.7, 1.0))
        top = rng.choice((1, 2, 5))
        a = tuple(tuple(rng.randint(-top, top) if rng.random() < density
                        else 0 for _ in range(n + 2)) for _ in range(n))
        pins = tuple(rng.sample(range(n + 2), 2))
        b = tuple(rng.randint(-9, 9) for _ in range(n))
        block = [[x for j, x in enumerate(row) if j not in pins] for row in a]
        if determinant(block) in (1, -1):
            (fam,) = solve_pinned(a, pins, [b])
            k1, k2 = fam.kernel
            assert product(a, fam.particular) == tuple(-x for x in b)
            assert product(a, k1) == product(a, k2) == (0,) * n
            assert [fam.particular[p] for p in pins] == [0, 0]
            assert [(k1[p], k2[p]) for p in pins] == [(1, 0), (0, 1)]
            answered += 1
        else:
            with pytest.raises(InternalInvariantError) as exc:
                solve_pinned(a, pins, [b])
            assert str(exc.value) == PINNED_REFUSAL
            refused += 1
    assert answered > 500 and refused > 500


@pytest.mark.parametrize("matrix, pins, b", [
    (TREFOIL, (0, 5), (0, 0, 0)),
    (TREFOIL, (2, 2), (0, 0, 0)),
    (TREFOIL, (0, 1), (0, 0)),
    (((1, 0), (0, 1)), (0, 1), (0, 0)),
])
def test_solve_pinned_rejects_bad_arguments(matrix, pins, b):
    with pytest.raises(ValueError):
        solve_pinned(matrix, pins, [b])


def test_degenerate_kernel_is_an_invariant_violation():
    fam = trefoil_family((0, 0, 0))
    k1, _ = fam.kernel
    for kernel in ((k1, k1), (k1, (0,) * 5)):
        with pytest.raises(InternalInvariantError, match="degenerate"):
            minimize_in_family(type(fam)(TREFOIL, fam.b, fam.particular,
                                         kernel))


def test_bad_decomposition_is_an_invariant_violation(monkeypatch):
    from regionchoice import zlinalg
    replay_log = zlinalg.replay

    def corrupted(matrix, log):
        first, *rest = replay_log(matrix, log)
        return (tuple(2 * x for x in first), *rest)

    monkeypatch.setattr(zlinalg, "replay", corrupted)
    with pytest.raises(InternalInvariantError, match="^E00, certificate: "):
        reduce_to_e00(TREFOIL)


def test_e00_refuses_a_matrix_without_a_unit_pivot_factorisation():
    # Z-equivalent to (1 0 0), but no column has gcd 1, so no +-1 pivot
    with pytest.raises(InternalInvariantError, match="^E00, elimination: "):
        reduce_to_e00(((2, 3, 0),))


NONZERO = st.integers(-10 ** 30, 10 ** 30).filter(bool)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(p=st.integers(-10 ** 40, 10 ** 40), q=NONZERO)
def test_round_div_is_round_of_the_fraction(p, q):
    assert _round_div(p, q) == round(Fraction(p, q))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(k=st.integers(-10 ** 20, 10 ** 20), m=NONZERO)
def test_round_div_rounds_halves_to_even(k, m):
    # (2k + 1) m / 2m is k + 1/2, in either sign of m
    assert _round_div((2 * k + 1) * m, 2 * m) == round(Fraction(2 * k + 1, 2))
    assert _round_div((2 * k + 1) * m, 2 * m) % 2 == 0


def test_round_div_on_small_halves_and_signs():
    for p in range(-9, 10):
        for q in (-4, -2, -1, 1, 2, 4):
            assert _round_div(p, q) == round(Fraction(p, q)), (p, q)
    assert [_round_div(p, 2) for p in (-5, -3, -1, 1, 3, 5)] == [
        -2, -2, 0, 0, 2, 2]
    with pytest.raises(ZeroDivisionError):
        _round_div(1, 0)
