"""Exact integer linear algebra: unimodular factorisation, solving, kernels.

Everything here is plain Python arbitrary-precision arithmetic.  One
elimination engine, ``_UnitFactorisation``, serves the three entry points on
a caller's dense matrix: sparse elimination with +-1 pivots of an n x (n+2)
matrix, leaving two columns unpivoted so that the square rest is
unimodular.  ``solve_pinned`` names those two columns and solves every
right-hand side from one factorisation; ``rref_rational`` reads the exact
echelon form of ``[A | I]`` off it and ``reduce_to_e00`` the ``(I | 0 0)``
certificate ``P A Q = S`` with a replayable operation log, both letting the
elimination pick the two columns.  The solvers of a diagram run no
elimination (``solvers``); they share ``_family``, the kernel helpers and
``minimize_in_family`` with this module.
Region choice matrices of valid knot projections always factor, which
certifies integral solvability for every right-hand side.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict
from operator import add, mul, neg, sub

from .diagram import InternalInvariantError, _Record

TYPE_CHECKING = False  # type checkers read it as True; no typing import
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import NoReturn

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class NotE00Error(ValueError):
    """The matrix is not equivalent to (I | 0 0); no solvability guarantee."""


class Operation(_Record):
    """One elementary operation: kind, target indices, optional multiplier."""

    kind: str          # swap_rows/swap_cols/negate_row/negate_col/add_row/add_col
    i: int
    j: int = -1
    multiplier: int = 0


class E00Decomposition(_Record):
    """Unimodular P, Q and diagonal S with ``P A Q = S`` exactly."""

    matrix: Matrix
    p: Matrix
    q: Matrix
    s: Matrix
    log: tuple[Operation, ...]

    @property
    def is_e00(self) -> bool:
        rows = len(self.s)
        cols = len(self.s[0]) if rows else 0
        return all(self.s[i][j] == (1 if i == j else 0)
                   for i in range(rows) for j in range(cols))


class SolutionFamily(_Record):
    """All integral solutions of ``A u + b = o``: particular + rank-2 kernel.
    A solver's ``matrix`` is a read-only view that builds rows on access."""

    matrix: Matrix
    b: Vector
    particular: Vector
    kernel: tuple[Vector, Vector]

    def member(self, alpha: int, beta: int) -> Vector:
        k1, k2 = self.kernel
        return tuple(u + alpha * x + beta * y
                     for u, x, y in zip(self.particular, k1, k2))


# ---------------------------------------------------------------------------
# elementary operation bookkeeping


def _swap_rows(m: list[list[int]], i: int, j: int, mult: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int, mult: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _negate_row(m: list[list[int]], i: int, j: int, mult: int) -> None:
    m[i] = [-x for x in m[i]]


def _negate_col(m: list[list[int]], i: int, j: int, mult: int) -> None:
    for row in m:
        row[i] = -row[i]


def _add_row(m: list[list[int]], i: int, j: int, mult: int) -> None:
    m[i] = [a + mult * b for a, b in zip(m[i], m[j])]


def _add_col(m: list[list[int]], i: int, j: int, mult: int) -> None:
    for row in m:
        row[i] += mult * row[j]


# every kind of Operation, applied in place with the signature (m, i, j, mult)
_APPLY = {"swap_rows": _swap_rows, "swap_cols": _swap_cols,
          "negate_row": _negate_row, "negate_col": _negate_col,
          "add_row": _add_row, "add_col": _add_col}


def replay(matrix: Matrix, log) -> Matrix:
    """Apply a log of ``Operation``s to a fresh copy of the matrix."""
    work = [list(row) for row in matrix]
    for op in log:
        if op.kind not in _APPLY:
            raise ValueError(f"unknown operation kind {op.kind!r}")
        _APPLY[op.kind](work, op.i, op.j, op.multiplier)
    return tuple(tuple(row) for row in work)


# ---------------------------------------------------------------------------
# the (I | 0 0) decomposition


def reduce_to_e00(matrix: Matrix) -> E00Decomposition:
    """``P A Q = (I | 0 0)`` with a replayable log, for an n x (n+2) matrix
    ``A`` (``n >= 1``) with a unit-pivot factorisation.

    Everything is read off one ``_UnitFactorisation`` over all columns, in
    four groups of operations: its row operations; one ``negate_row`` per
    -1 pivot; for each pivot ``(i, j)`` in elimination order, the
    ``add_col`` steps that clear row ``i`` with column ``j``, which is
    ``e_i`` by then and so touches nothing else; and the ``swap_cols`` that
    move row ``i``'s pivot column to position ``i`` and the two unpivoted
    columns to ``n`` and ``n + 1``.  ``P`` and ``Q`` are the log applied to
    identities and ``S`` its replay on ``A``.  The call checks
    ``S = (I | 0 0)`` and raises ``InternalInvariantError`` naming the stage
    otherwise; another shape raises ``NotE00Error``.
    """
    rows, cols = _shape(matrix, NotE00Error)
    f = _UnitFactorisation(_sparse(matrix), cols, None, "E00")
    log = [Operation("add_row", t, s, m) for t, s, m in f.ops]
    log += [Operation("negate_row", i)
            for i, _, pivot, _ in f.pivots if pivot == -1]
    log += [Operation("add_col", c, j, -pivot * x)
            for _, j, pivot, rest in f.pivots
            for c, x in rest.items()]
    order = [j for _, j in sorted((i, j) for i, j, _, _ in f.pivots)]
    at = list(range(cols))      # at[k]: the column now in position k
    for k, j in enumerate(order + list(f.pins)):
        where = at.index(j, k)
        if where != k:
            log.append(Operation("swap_cols", k, where))
            at[k], at[where] = at[where], at[k]

    def on_identity(size: int, kind: str) -> Matrix:
        """The log's ``kind`` operations applied to the identity."""
        return replay([[int(i == j) for j in range(size)]
                       for i in range(size)],
                      [op for op in log if kind in op.kind])

    decomp = E00Decomposition(tuple(tuple(row) for row in matrix),
                              on_identity(rows, "row"),
                              on_identity(cols, "col"),
                              replay(matrix, log), tuple(log))
    if not decomp.is_e00:
        f.fail("the replayed log does not give (I | 0 0)")
    return decomp


# ---------------------------------------------------------------------------
# pinned solving: sparse elimination of a unimodular square block


def solve_pinned(matrix: Matrix, pins: tuple[int, int],
                 rhs) -> list[SolutionFamily]:
    """The solution family of ``A u + b = o`` for each b in ``rhs``, all from
    one factorisation of the square matrix ``B`` left when the two ``pins``
    columns of the n x (n+2) matrix ``A`` are deleted.

    Every particular solution is zero on ``pins`` and the kernel basis is
    (1, 0) and (0, 1) there, so the answer does not depend on the
    elimination order.  The kernel vectors solve ``B x = -A[:, pin]``.
    ``B`` must be unimodular; each call checks the certificate (pivot
    product +-1, zero residuals, both kernel vectors in the kernel, unit
    kernel minor on ``pins``) and raises ``InternalInvariantError``, naming
    the failed stage, if any part of it fails.
    """
    _, cols = _shape(matrix)
    r1, r2 = pins
    if r1 == r2 or not (0 <= r1 < cols and 0 <= r2 < cols):
        raise ValueError(f"pins must be two distinct columns, got {pins!r}")
    f = _UnitFactorisation(_sparse(matrix), cols, pins, "pinned solve")
    dense = tuple(map(tuple, matrix))
    return [_family(f, dense, b) for b in rhs]


def _family(route, matrix: Matrix, b) -> SolutionFamily:
    """The solution family of ``A u + b = o`` off a solve route for ``A``:
    its ``particular(b)``, zero on the pins, and its pinned ``kernel``.  The
    particular's residual is checked by the route's ``image``."""
    b = tuple(b)
    if len(b) != len(matrix):
        raise ValueError(f"b has length {len(b)}, expected {len(matrix)}")
    u = route.particular(b)
    if any(map(add, route.image(u), b)):
        route.fail("particular solution has nonzero residual")
    return SolutionFamily(matrix, b, u, route.kernel)


def _shape(matrix: Matrix, error=ValueError) -> tuple[int, int]:
    """The shape ``(n, n + 2)`` of an n x (n+2) matrix with n >= 1; any
    other shape raises ``error``."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols != rows + 2:
        raise error(f"expected an n x (n+2) matrix with n >= 1, got "
                    f"{rows} x {cols}")
    return rows, cols


def _sparse(matrix: Matrix) -> list[dict[int, int]]:
    """The rows of a dense matrix as ``{column: entry}`` over the nonzero
    entries, in increasing column order."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


class _UnitFactorisation:
    """An n x (n+2) matrix ``A``, given as sparse rows (as ``_sparse`` makes
    them) and its column count, factored once by ``_factor_unit``, leaving
    two columns, the pins, unpivoted: the square rest ``B`` is unimodular.

    The rows and each pivot's rest are kept as the ``{column: entry}``
    dicts they are given and ``_factor_unit`` returns; the pivot signs the
    certificate multiplies are the ones the back-substitution reads.
    ``solve`` and ``product`` take a block of r right-hand sides or vectors,
    one list of r ints per row or column, so each row step is one C-level
    map over r entries.  ``particular``, ``kernel``, ``image`` and ``fail``
    are the solve route that ``_family`` reads; ``particular`` and ``image``
    are blocks with r = 1, and the kernel is one solve with r = 2.

    One ``_factor_unit`` call makes it: with ``pins`` given those two
    columns are left out of the elimination; with ``pins=None`` the two
    columns the elimination leaves become the pins.  Construction checks the
    certificate shared by every caller (pivot product +-1, both kernel
    vectors in the kernel, kernel minor 1 on the pins); ``stage`` names the
    caller in every ``InternalInvariantError``.  No caller keeps a
    factorisation, so the certificate is checked once, here.
    """

    def __init__(self, rows: list[dict[int, int]], cols: int,
                 pins: tuple[int, int] | None, stage: str) -> None:
        self.stage, self.cols, self.rows = stage, cols, rows
        skip = pins or ()
        # copied and popped in C: a filtering comprehension per row took
        # about 3x as long
        work = [row.copy() for row in rows]
        for j in skip:
            for row in work:
                row.pop(j, None)
        self.ops, self.pivots, left = _factor_unit(
            work, [j for j in range(cols) if j not in skip], stage)
        self.pins = r1, r2 = pins or tuple(sorted(left))
        x = self.solve([[-row.get(r1, 0), -row.get(r2, 0)] for row in rows])
        x[r1], x[r2] = [1, 0], [0, 1]
        self.kernel = k1, k2 = tuple(zip(*x))
        product = 1
        for _, _, p, _ in self.pivots:
            product *= p
        if product not in (1, -1):
            self.fail(f"pivot product is {product}")
        if any(map(any, self.product(x))):
            self.fail("kernel vector outside the kernel")
        if _minor(k1, k2, r1, r2) != 1:
            self.fail("kernel minor on the pins is not 1")

    def particular(self, b) -> tuple[int, ...]:
        """The solution of ``A u + b = o`` that is zero on the pins."""
        return tuple(v for v, in self.solve([[-v] for v in b]))

    def image(self, u) -> list[int]:
        """``A u``."""
        return [v for v, in self.product([[v] for v in u])]

    def solve(self, y: list[list[int]]) -> list[list[int]]:
        """The block ``X`` with ``A X = Y`` and zero rows on the pins: ``Y``
        has one list of r ints per row of ``A``, ``X`` one per column.  One
        pass over the row operations, one back over the pivots; no row of
        ``Y`` or ``X`` is changed in place, so rows may be shared."""
        y = list(y)
        for target, source, m in self.ops:
            y[target] = list(_plus(y[target], m, y[source]))
        x = [[0] * len(y[0])] * self.cols
        for i, j, p, rest in reversed(self.pivots):
            # p is +-1, so dividing by it is multiplying by it
            row = y[i] if p == 1 else map(neg, y[i])
            for c, v in rest.items():
                row = _plus(row, -p * v, x[c])
            x[j] = list(row)
        return x

    def product(self, x: list[list[int]]):
        """The rows of the block ``A X``, one at a time, for ``X`` with one
        list of r ints per column of ``A``."""
        for entries in self.rows:
            row = itertools.repeat(0, len(x[0]))
            for c, v in entries.items():
                row = _plus(row, v, x[c])
            yield list(row)

    def fail(self, what: str) -> NoReturn:
        raise InternalInvariantError(f"{self.stage}, certificate: {what}")


def _plus(row, v: int, other: list[int]):
    """``row + v other`` entry by entry, as a lazy iterator that runs in C;
    a weight of +-1 costs no multiplication."""
    if v == 1:
        return map(add, row, other)
    if v == -1:
        return map(sub, row, other)
    return map(add, row, map(mul, other, itertools.repeat(v)))


def _factor_unit(rows: list[dict[int, int]], columns, stage: str):
    """Eliminate a sparse integer matrix in place with +-1 pivots, one per
    row.

    ``rows`` maps column index to nonzero entry; ``columns`` are the column
    indices that may be pivoted.  A pivot is the +-1 entry of a live row
    with the least Markowitz cost (other entries in its row times other live
    entries in its column), ties going to the lower row and then to the
    first such entry in the row's dict order (Markowitz's rule, with queues
    as in Duff, Erisman & Reid, *Direct Methods for Sparse Matrices*,
    ch. 10).  Two queues find it without a scan of the live rows:

    - ``zero`` is a heap of row indices holding every row with a cost-0
      pivot (a singleton row, or the one live row of a column): a row is
      pushed when it becomes a singleton and when a column falls to it.
    - ``queue`` is a heap of ``(cost, row)``, filled at the first pivot of
      positive cost and checked on pop: an entry whose row is dead or
      whose cost rose is dropped or re-keyed.  A row whose cost may have
      fallen (it changed, or a column count in it fell) is ``dirty`` and
      re-pushed before the next pop.

    When no +-1 entry is live, ``_make_unit`` makes one.  Returns the row
    operations ``(target, source, m)``, meaning ``row[target] += m *
    row[source]``, the pivots in order as ``(row, column, pivot, rest of the
    pivot row)``, and the set of columns left unpivoted.
    """
    live_rows = set(range(len(rows)))
    live_cols = set(columns)
    col_rows: dict[int, set[int]] = {j: set() for j in columns}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    zero = [i for i, row in enumerate(rows) if len(row) == 1]
    zero += [min(held) for held in col_rows.values() if len(held) == 1]
    heapq.heapify(zero)
    queue: list[tuple[int, int]] = []
    dirty = set(live_rows)      # to (re)queue at the next positive-cost pick
    ops: list[tuple[int, int, int]] = []
    pivots: list[tuple[int, int, int, dict[int, int]]] = []

    def fell(held: set[int]) -> None:
        """``held``, the live rows of a column, just lost one: each may
        now cost less, and a lone one may hold a cost-0 pivot."""
        if len(held) == 1:
            heapq.heappush(zero, min(held))
        dirty.update(held)

    def add_row(target: int, source: int, m: int) -> None:
        ops.append((target, source, m))
        row = rows[target]
        for j, x in rows[source].items():
            new = row.get(j, 0) + m * x
            if new:
                if j not in row:
                    col_rows[j].add(target)
                row[j] = new
            else:
                del row[j]
                col_rows[j].discard(target)
                fell(col_rows[j])
        if len(row) == 1:
            heapq.heappush(zero, target)
        dirty.add(target)

    def best(i: int) -> tuple[int, int] | None:
        """Row ``i``'s least Markowitz cost and the column of its first
        +-1 entry of that cost, or None without a +-1 entry."""
        count = j = None
        for c, x in rows[i].items():
            if x == 1 or x == -1:
                held = len(col_rows[c])
                if count is None or held < count:
                    count, j = held, c
        return None if j is None else ((len(rows[i]) - 1) * (count - 1), j)

    def pick() -> tuple[int, int] | None:
        # most pivots cost 0; their test stops at the first hit, where
        # best() would read the whole row (measured a few % slower)
        while zero:
            i = heapq.heappop(zero)
            if i in live_rows:
                row = rows[i]
                for j, x in row.items():
                    if (x == 1 or x == -1) and (len(row) == 1
                                                or len(col_rows[j]) == 1):
                        return i, j
        for i in dirty:
            if i in live_rows and (b := best(i)):
                heapq.heappush(queue, (b[0], i))
        dirty.clear()
        while queue:
            cost, i = queue[0]
            b = i in live_rows and best(i)
            if not b:
                heapq.heappop(queue)
            elif b[0] != cost:
                heapq.heapreplace(queue, (b[0], i))
            else:
                return i, b[1]
        return None

    while live_rows:
        got = pick()
        if got is None:
            _make_unit(rows, col_rows, live_cols, add_row, stage)
            continue
        i, j = got
        p = rows[i][j]
        for k in sorted(col_rows[j] - {i}):
            add_row(k, i, -p * rows[k][j])
        live_rows.discard(i)
        live_cols.discard(j)
        for c in rows[i]:
            col_rows[c].discard(i)
            fell(col_rows[c])
        pivots.append((i, j, p, {c: x for c, x in rows[i].items() if c != j}))
    return ops, pivots, live_cols


def _make_unit(rows, col_rows, live_cols, add_row, stage: str) -> None:
    """Euclid row steps on the sparsest live column whose live entries have
    gcd 1, until one of them is +-1.

    A unimodular square block stays unimodular under +-1 pivots and row
    steps, and each of its columns has gcd 1, so it is never refused; any
    other block is, here, since n pivots of +-1 would make its det +-1.
    """
    order = sorted(live_cols, key=lambda c: (len(col_rows[c]), c))
    j = next((c for c in order
              if math.gcd(*(rows[k][c] for k in col_rows[c])) == 1), None)
    if j is None:
        raise InternalInvariantError(
            f"{stage}, elimination: no live column has gcd 1, so no "
            "unimodular column basis is reachable")
    while True:
        holders = sorted(col_rows[j], key=lambda k: (abs(rows[k][j]), k))
        e = rows[holders[0]][j]
        if e in (1, -1):
            return
        for k in holders[1:]:
            add_row(k, holders[0], -(rows[k][j] // e))


def _minor(k1, k2, r1: int, r2: int) -> int:
    """Determinant of the kernel basis restricted to columns r1, r2."""
    return k1[r1] * k2[r2] - k2[r1] * k1[r2]


def _pair_basis(kernel, r1: int, r2: int) -> tuple[int, list[int], list[int]]:
    """The kernel minor ``d`` on columns ``(r1, r2)`` and the kernel vectors
    ``z1``, ``z2`` that are ``(d, 0)`` and ``(0, d)`` there: the kernel
    basis times the adjugate of its 2x2 block on the pair."""
    k1, k2 = kernel
    z1 = [k2[r2] * a - k1[r2] * b for a, b in zip(k1, k2)]
    z2 = [k1[r1] * b - k2[r1] * a for a, b in zip(k1, k2)]
    return _minor(k1, k2, r1, r2), z1, z2


def _last_pair(kernel, fail) -> tuple[int, int]:
    """The lexicographically last pair of columns ``f1 < f2`` on which the
    kernel basis has a nonzero minor: ``f2`` is the last column where the
    kernel is not zero and ``f1`` the last before it with a nonzero minor.
    By matroid duality (Oxley, *Matroid Theory*) this pair is the
    complement of the matrix's lexicographically first column basis, the
    pivot columns of its echelon form.  ``fail``, a route's, is called
    when no minor is nonzero."""
    k1, k2 = kernel
    f2 = max(j for j in range(len(k1)) if k1[j] or k2[j])
    f1 = next((j for j in range(f2 - 1, -1, -1) if _minor(k1, k2, j, f2)),
              None)
    if f1 is None:
        fail("the kernel basis has no nonzero minor")
    return f1, f2


# ---------------------------------------------------------------------------
# norm minimization over a solution family


def minimize_in_family(family: SolutionFamily, norm: str = "Linf") -> Vector:
    """The member of the family with the least norm and, among those, the
    lexicographically smallest vector: it depends only on the set of
    solutions, not on the particular solution or kernel basis given.

    Coordinates that share a kernel column ``(k1[i], k2[i])`` move together,
    so the search reads one group per distinct column, in the order of its
    first coordinate: O(n) to group, then a few integer loops over the d
    groups per row.  Their counts and sums of ``u0[i]`` give the Gram matrix,
    the least-squares point and the L2 norm; their least and greatest
    ``u0[i]`` the Linf norm; the first group that moves settles a tie.
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
    l2 = norm == "L2"
    squares = sum(map(mul, u0, u0)) if l2 else 0
    # group i of the member (a, b) holds c + a x + b y for c in [lo, hi]
    groups = list(zip(map(min, values), map(max, values), p, q))
    scale = math.lcm(*filter(None, q))
    moving = [(lo, hi, x, scale // y) if y > 0 else (-hi, -lo, -x, scale // -y)
              for lo, hi, x, y in groups if y]
    still = [group for group in groups if not group[3]]
    # Walk the rows a outward from the rounded least-squares member: up
    # from its row, then down from the row below.  The rows holding a real
    # member no larger than the best are an interval (the projection of a
    # convex set) around the best's row, behind the walk, so each direction
    # stops at its first row with none; the best only shrinks, which keeps
    # the stop exact.  A row's members w + b k2, for w = u0 + a k1, are
    # convex in b under either norm and lexicographically monotone in b,
    # rising with b when k2's first nonzero entry is positive: scanned in
    # that order, the row's least member is where its norm stops falling,
    # and only it is compared with the best.
    a = _round_div(r2 * g12 - r1 * g22, det)
    b = _round_div(r1 * g12 - r2 * g11, det)
    ww, wk = squares + a * (2 * r1 + a * g11), r2 + a * g12
    best = (ww + b * (2 * wk + b * g22) if l2 else _linf(groups, a, b), a, b)
    rising = next(y for y in q if y) > 0
    for rows in (itertools.count(a), itertools.count(a - 1, -1)):
        for a in rows:
            limit = best[0]
            if l2:      # |w + b k2|^2 = ww + b (2 wk + b g22)
                ww, wk = squares + a * (2 * r1 + a * g11), r2 + a * g12
            window = (_within_l2(ww - limit, wk, g22) if l2
                      else _within_linf(moving, still, scale, a, limit))
            if window is None:
                break
            least = math.inf
            for b in window if rising else reversed(window):
                size = (ww + b * (2 * wk + b * g22) if l2
                        else _linf(groups, a, b))
                if size >= least:
                    break
                least, at = size, b
            if least < limit or least == limit and _first_sign(
                    p, q, a - best[1], at - best[2]) < 0:
                best = (least, a, at)
    _, a, b = best
    return family.member(a * t1[0] + b * t2[0], a * t1[1] + b * t2[1])


def _round_div(p: int, q: int) -> int:
    """The integer nearest ``p / q``, ties to even: ``round(Fraction(p,
    q))`` by one exact division."""
    if q < 0:
        p, q = -p, -q
    m, r = divmod(p, q)
    return m + (2 * r > q or 2 * r == q and m & 1)


def _first_sign(p, q, da: int, db: int) -> int:
    """The first nonzero ``da x + db y`` over the ``(x, y)``, or 0."""
    for x, y in zip(p, q):
        if s := da * x + db * y:
            return s
    return 0


def _linf(groups, a: int, b: int) -> int:
    """The greatest |c + a x + b y| for c in [lo, hi] over the groups."""
    top = 0
    for lo, hi, x, y in groups:
        s = a * x + b * y
        if hi + s > top:
            top = hi + s
        if -lo - s > top:
            top = -lo - s
    return top


def _within_l2(c: int, p: int, g: int) -> range | None:
    """A range of integers b holding every b with g b^2 + 2 p b + c <= 0,
    or None when no real b has it; ``g`` is positive."""
    disc = p * p - g * c
    if disc < 0:
        return None
    s = math.isqrt(disc) + 1
    return range((-p - s) // g, (-p + s) // g + 1)


def _within_linf(moving, still, scale, a: int, limit: int) -> range | None:
    """The integers b with every |c + a x + b y| <= limit, or None when no
    real b has it: ``still`` holds the groups with y = 0, ``moving`` the rest
    as (lo, hi, x, scale // y), signs flipped (|c| = |-c|) to make y > 0."""
    if _linf(still, a, 0) > limit:
        return None
    # scale b lies in scale / y times [-limit - lo - a x, limit - hi - a x]
    bottom, top = -math.inf, math.inf
    for lo, hi, x, m in moving:
        s = a * x
        low, high = (-limit - lo - s) * m, (limit - hi - s) * m
        if low > bottom:
            bottom = low
        if high < top:
            top = high
    return (range(-(-bottom // scale), top // scale + 1) if bottom <= top
            else None)


# ---------------------------------------------------------------------------
# rational echelon with symbolic right-hand side


class EchelonForm(_Record):
    """RREF of A with the right-hand side carried symbolically.

    Row i reads: sum_j coeffs[i][j] * u_j = sum_k b_coeffs[i][k] * b_{k+1},
    i.e. the presentation of the solved system ``A u = b``.
    """

    pivot_cols: tuple[int, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]
    b_coeffs: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, b: Vector, free_values) -> tuple[Fraction, ...]:
        """Solve ``A u = b`` with the non-pivot variables fixed."""
        from fractions import Fraction
        cols = len(self.coeffs[0]) if self.coeffs else 0
        free_cols = [j for j in range(cols) if j not in self.pivot_cols]
        if len(free_values) != len(free_cols):
            raise ValueError("wrong number of free values")
        u = [Fraction(0)] * cols
        for j, val in zip(free_cols, free_values):
            u[j] = Fraction(val)
        for pivot, crow, brow in zip(self.pivot_cols, self.coeffs,
                                     self.b_coeffs):
            rhs = sum((c * bv for c, bv in zip(brow, b)), Fraction(0))
            rhs -= sum((crow[j] * u[j] for j in free_cols), Fraction(0))
            u[pivot] = rhs / crow[pivot]
        return tuple(u)


def rref_rational(matrix: Matrix) -> EchelonForm:
    """Reduced row echelon form of ``[A | I]`` over the rationals, for an
    n x (n+2) matrix ``A`` with a unit-pivot factorisation.

    The RREF is unique, so it is read off one ``_UnitFactorisation`` over
    all columns.  Its two non-pivot columns ``f1 < f2`` are the
    lexicographically last pair on which the kernel basis has a nonzero
    minor ``D`` (``_last_pair``).  The ``b`` coefficients are ``A_S^-1``,
    the solution of ``A X = I`` that is zero on ``(f1, f2)``: one block
    solve of the identity, moved along the kernel in one step to
    ``D X - z1 X[f1] - z2 X[f2]`` with ``z1``, ``z2`` from ``_pair_basis``,
    and divided by ``D``; its rows at the pivot columns are the ``b_coeffs``
    rows.  A free column's coefficients are the negated kernel vector that
    is 1 there and 0 on the other.  The call checks, by one block product,
    that every column solves ``A x = e_k`` exactly and is zero on the pair,
    and raises ``InternalInvariantError`` naming the stage otherwise.
    """
    rows, cols = _shape(matrix)
    f = _UnitFactorisation(_sparse(matrix), cols, None, "echelon")
    f1, f2 = _last_pair(f.kernel, f.fail)
    d, z1, z2 = _pair_basis(f.kernel, f1, f2)
    pivot_cols = tuple(j for j in range(cols) if j != f1 and j != f2)
    x = f.solve([[0] * i + [1] + [0] * (rows - 1 - i) for i in range(rows)])
    x1, x2 = x[f1], x[f2]
    for j, (s, t) in enumerate(zip(z1, z2)):
        moved = map(mul, x[j], itertools.repeat(d))
        x[j] = list(_plus(_plus(moved, -s, x1), -t, x2))
    # A X = D I: row i of A X is D at i and 0 elsewhere
    if (any(x[f1]) or any(x[f2])
            or any(row[i] != d or row.count(0) != rows - 1
                   for i, row in enumerate(f.product(x)))):
        ax = list(f.product(x))     # again, to name the first bad column
        k = next(k for k in range(rows) if x[f1][k] or x[f2][k] or any(
            row[k] != d * (i == k) for i, row in enumerate(ax)))
        f.fail(f"A_S^-1 e_{k + 1} does not solve A x = e_{k + 1}")
    # each distinct value over D built once
    from fractions import Fraction
    table = {v: Fraction(v, d) for v in set(itertools.chain(
        *(x[j] for j in pivot_cols), map(neg, z1), map(neg, z2)))}
    zero, one = Fraction(0), Fraction(1)
    coeffs = []
    for p in pivot_cols:
        row = [zero] * cols
        row[p] = one
        row[f1], row[f2] = table[-z1[p]], table[-z2[p]]
        coeffs.append(tuple(row))
    return EchelonForm(pivot_cols, tuple(coeffs),
                       tuple(tuple(map(table.__getitem__, x[j]))
                             for j in pivot_cols))
