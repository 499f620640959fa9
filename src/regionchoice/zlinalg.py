"""Exact integer linear algebra: unimodular reduction, solving, kernels.

Everything here is plain Python arbitrary-precision arithmetic.  The
reduction drives an n x (n+2) matrix to a Smith-style diagonal by elementary
row/column operations while tracking the unimodular factors P and Q and a
replayable operation log.  Region choice matrices of valid projections reduce
to the identity block followed by two zero columns, which certifies integral
solvability for every right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class NotE00Error(ValueError):
    """The matrix is not equivalent to (I | 0 0); no solvability guarantee."""


@dataclass(frozen=True)
class Operation:
    """One elementary operation: kind, target indices, optional multiplier."""

    kind: str          # swap_rows/swap_cols/negate_row/negate_col/add_row/add_col
    i: int
    j: int = -1
    multiplier: int = 0

    def as_record(self) -> tuple:
        return (self.kind, self.i, self.j, self.multiplier)


@dataclass(frozen=True)
class E00Decomposition:
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

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i][i] for i in range(min(len(self.s),
                                                     len(self.s[0]))))


@dataclass(frozen=True)
class SolutionFamily:
    """All integral solutions of ``A u + b = o``: particular + rank-2 kernel."""

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
    """Apply an operation log to a fresh copy of the matrix."""
    work = [list(row) for row in matrix]
    for op in log:
        kind, i, j, mult = (op.as_record() if isinstance(op, Operation)
                            else tuple(op))
        if kind not in _APPLY:
            raise ValueError(f"unknown operation kind {kind!r}")
        _APPLY[kind](work, i, j, mult)
    return tuple(tuple(row) for row in work)


# ---------------------------------------------------------------------------
# reduction


def reduce_to_e00(matrix: Matrix) -> E00Decomposition:
    """Diagonalize by unimodular row/column operations (Smith-style).

    Pivots are chosen as the smallest nonzero entry in magnitude and cleared
    by Euclidean remainder steps, which keeps intermediate growth modest.
    The diagonal is made nonnegative with divisibility down the chain.
    """
    rows = len(matrix)
    if rows == 0 or len(matrix[0]) == 0:
        raise ValueError("cannot reduce an empty matrix")
    cols = len(matrix[0])
    a = [list(row) for row in matrix]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]
    log: list[Operation] = []

    def step(kind: str, i: int, j: int = -1, mult: int = 0) -> None:
        log.append(Operation(kind, i, j, mult))
        _APPLY[kind](a, i, j, mult)
        _APPLY[kind](p if "row" in kind else q, i, j, mult)

    def pivot_position(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        while True:
            pos = pivot_position(t)
            if pos is None:
                break
            if pos[0] != t:
                step("swap_rows", t, pos[0])
            if pos[1] != t:
                step("swap_cols", t, pos[1])
            if a[t][t] < 0:
                step("negate_row", t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    step("add_row", i, t, -(a[i][t] // pivot))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    step("add_col", j, t, -(a[t][j] // pivot))
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # divisibility: fold in any entry the pivot does not divide
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            step("add_row", t, offender, 1)

    decomp = E00Decomposition(
        tuple(tuple(row) for row in matrix),
        tuple(tuple(row) for row in p),
        tuple(tuple(row) for row in q),
        tuple(tuple(row) for row in a),
        tuple(log))
    _check_decomposition(decomp)
    return decomp


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _check_decomposition(d: E00Decomposition) -> None:
    if _mat_mul(_mat_mul(d.p, d.matrix), d.q) != d.s:
        raise AssertionError("P A Q != S")


def determinant(matrix: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
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


# ---------------------------------------------------------------------------
# solving over Z


def solve_integral(matrix: Matrix, b: Vector) -> SolutionFamily:
    """All integral u with ``A u + b = o``; requires equivalence to E00."""
    decomp = reduce_to_e00(matrix)
    return solve_with_decomposition(decomp, b)


def solve_with_decomposition(decomp: E00Decomposition, b: Vector) -> SolutionFamily:
    rows = len(decomp.matrix)
    cols = len(decomp.matrix[0])
    if len(b) != rows:
        raise ValueError(f"b has length {len(b)}, expected {rows}")
    if cols != rows + 2 or not decomp.is_e00:
        raise NotE00Error("matrix is not Z-equivalent to (I | 0 0)")
    pb = [sum(x * y for x, y in zip(row, b)) for row in decomp.p]
    y = [-v for v in pb] + [0, 0]
    particular = tuple(sum(qrow[j] * y[j] for j in range(cols))
                       for qrow in decomp.q)
    k1 = tuple(row[cols - 2] for row in decomp.q)
    k2 = tuple(row[cols - 1] for row in decomp.q)
    family = SolutionFamily(decomp.matrix, tuple(b), particular, (k1, k2))
    res = [sum(x * y for x, y in zip(row, particular)) + bv
           for row, bv in zip(decomp.matrix, b)]
    if any(res):
        raise AssertionError("particular solution has nonzero residual")
    return family


def kernel_basis(matrix: Matrix) -> tuple[Vector, Vector]:
    """Two vectors generating the full integer kernel lattice."""
    return solve_integral(matrix, (0,) * len(matrix)).kernel


# ---------------------------------------------------------------------------
# norm minimization over a solution family


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


def minimize_in_family(family: SolutionFamily, norm: str = "Linf") -> Vector:
    """Member of the family with minimal norm (deterministic tie-break)."""
    if norm not in ("Linf", "L2"):
        raise ValueError(f"norm must be 'Linf' or 'L2', got {norm!r}")
    k1, k2 = _gauss_reduce(*family.kernel)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # real least-squares for u0 + a k1 + b k2 = 0, then a bounded search
    g11, g12, g22 = dot(k1, k1), dot(k1, k2), dot(k2, k2)
    r1, r2 = dot(family.particular, k1), dot(family.particular, k2)
    det = g11 * g22 - g12 * g12
    if det == 0:
        raise AssertionError("kernel basis is degenerate")
    a0 = Fraction(r2 * g12 - r1 * g22, det)
    b0 = Fraction(r1 * g12 - r2 * g11, det)
    ca, cb = round(a0), round(b0)

    def key_at(a: int, b: int):
        u = tuple(x + a * y + b * z
                  for x, y, z in zip(family.particular, k1, k2))
        return (_norm(u, norm), u)

    # the norm is convex in the real coefficients, so grow square rings
    # around the least-squares point until a whole ring stops helping
    best = key_at(ca, cb)
    stale = 0
    radius = 1
    while stale < 2:
        ring_best = None
        for da in range(-radius, radius + 1):
            for db in range(-radius, radius + 1):
                if max(abs(da), abs(db)) != radius:
                    continue
                key = key_at(ca + da, cb + db)
                if ring_best is None or key < ring_best:
                    ring_best = key
        if ring_best[0] < best[0]:
            stale = 0
        else:
            stale += 1
        if ring_best < best:
            best = ring_best
        radius += 1
    return best[1]


# ---------------------------------------------------------------------------
# GF(2)


def solve_gf2(matrix, b):
    """Solve ``A u = b`` over GF(2); returns a 0/1 tuple or None.

    Rows are carried as int bitmasks; standard Gaussian elimination.
    """
    rows = [list(r) for r in matrix]
    if len(b) != len(rows):
        raise ValueError(f"b has length {len(b)}, expected {len(rows)}")
    if not rows:
        return ()
    cols = len(rows[0])
    masks = []
    for row, bit in zip(rows, b):
        if len(row) != cols:
            raise ValueError("ragged matrix")
        m = 0
        for j, x in enumerate(row):
            if x % 2:
                m |= 1 << j
        masks.append(m | ((bit % 2) << cols))
    pivots = []  # (column, mask)
    for m in masks:
        for col, pm in pivots:
            if (m >> col) & 1:
                m ^= pm
        for col in range(cols):
            if (m >> col) & 1:
                pivots.append((col, m))
                break
        else:
            if (m >> cols) & 1:
                return None
    u = [0] * cols
    # back-substitute: pivots were fully reduced against earlier pivots only,
    # so resolve from the last pivot upwards
    for col, pm in reversed(pivots):
        acc = (pm >> cols) & 1
        for j in range(cols):
            if j != col and (pm >> j) & 1:
                acc ^= u[j]
        u[col] = acc
    return tuple(u)


# ---------------------------------------------------------------------------
# rational echelon with symbolic right-hand side


@dataclass(frozen=True)
class EchelonForm:
    """RREF of A with the right-hand side carried symbolically.

    Row i reads: sum_j coeffs[i][j] * u_j = sum_k b_coeffs[i][k] * b_{k+1},
    i.e. the presentation of the solved system ``A u = b``.
    """

    pivot_cols: tuple[int, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]
    b_coeffs: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, b: Vector, free_values) -> tuple[Fraction, ...]:
        """Solve ``A u = b`` with the non-pivot variables fixed."""
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
    """Reduced row echelon form of ``[A | I]`` over the rationals."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    work = [[Fraction(x) for x in row] + [Fraction(int(i == k))
                                          for k in range(rows)]
            for i, row in enumerate(matrix)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if any(work[i][:cols]):
            raise AssertionError("rows below rank are not zero")
    return EchelonForm(
        tuple(pivot_cols),
        tuple(tuple(row[:cols]) for row in work[:r]),
        tuple(tuple(row[cols:]) for row in work[:r]))
