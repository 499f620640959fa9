"""Independent reference used to check every answer the benchmark gets.

Built from the flat-PD conventions alone (slot ``s`` continues to ``s + 2``;
faces follow "traverse the arc, then turn to slot ``s + 3``"; regions are
numbered by their smallest dart), so a check never trusts the library code it
is checking.  Nothing here imports ``regionchoice``.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(AssertionError):
    """An answer from the library disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Reference:
    """Faces, arc sides and both region choice matrices of a flat PD code."""

    def __init__(self, crossings) -> None:
        self.crossings = tuple(tuple(c) for c in crossings)
        self.n = len(self.crossings)
        darts: dict[int, list[tuple[int, int]]] = {}
        for c, tup in enumerate(self.crossings):
            for s, label in enumerate(tup):
                darts.setdefault(label, []).append((c, s))
        mate = {}
        for d1, d2 in darts.values():
            mate[d1], mate[d2] = d2, d1
        face_of: dict[tuple[int, int], int] = {}
        faces = []
        for start in sorted(mate):
            if start in face_of:
                continue
            orbit = []
            d = start
            while d not in face_of:
                face_of[d] = len(faces)
                orbit.append(d)
                c, s = mate[d]
                d = (c, (s + 3) % 4)
            faces.append(tuple(orbit))
        self.faces = tuple(faces)
        self.sides = {label: (face_of[min(ds)], face_of[max(ds)])
                      for label, ds in sorted(darts.items())}
        double = [[0] * len(faces) for _ in range(self.n)]
        for r, orbit in enumerate(faces):
            for c, _ in orbit:
                double[c][r] += 1
        self.double = tuple(tuple(row) for row in double)
        self.single = tuple(tuple(min(x, 1) for x in row) for row in double)
        self.reducible = tuple(v for v, row in enumerate(double) if 2 in row)

    def matrix(self, rule: str):
        return self.single if rule == "single" else self.double


def product(matrix, u) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, u)) for row in matrix)


def unit(n: int, v: int) -> tuple[int, ...]:
    return tuple(int(i == v) for i in range(n))


def check_solution(matrix, u, b, what: str) -> None:
    """``A u + b`` recomputed from the matrix entries is zero."""
    expect(len(u) == len(matrix[0]), f"{what}: length {len(u)}")
    res = tuple(x + y for x, y in zip(product(matrix, u), b))
    expect(not any(res), f"{what}: residual {res}")


def check_kernel(matrix, k1, k2) -> None:
    """Both vectors lie in the kernel and some 2x2 minor of them is +-1."""
    expect(not any(product(matrix, k1)) and not any(product(matrix, k2)),
           "kernel vector outside the kernel")
    m = len(k1)
    expect(any(k1[i] * k2[j] - k1[j] * k2[i] in (1, -1)
               for i in range(m) for j in range(i + 1, m)),
           "kernel basis has no unimodular 2x2 minor")


def check_add1(matrix, u, v: int) -> None:
    expect(product(matrix, u) == unit(len(matrix), v),
           f"add-1 residual at v{v + 1} is not the unit vector")


def check_mod2(matrix, chosen, b) -> None:
    u = [0] * len(matrix[0])
    for r in chosen:
        u[r] = 1
    res = tuple(x + y for x, y in zip(product(matrix, u), b))
    expect(all(x % 2 == 0 for x in res), f"mod-2 residual {res} is odd")


def check_minimized(matrix, best, particular, b) -> None:
    """``best`` is in the family and no larger in Linf than the particular."""
    check_solution(matrix, best, b, "minimized member")
    expect(max(map(abs, best)) <= max(map(abs, particular)),
           "minimized member has a larger norm than the particular solution")


def check_echelon(matrix, pivot_cols, coeffs, b_coeffs, b) -> None:
    """Full row rank RREF whose symbolic right-hand side solves ``A u = b``."""
    n, m = len(matrix), len(matrix[0])
    expect(len(pivot_cols) == n, f"rank {len(pivot_cols)}, expected {n}")
    u = [Fraction(0)] * m
    for row, (p, crow, brow) in enumerate(zip(pivot_cols, coeffs, b_coeffs)):
        expect(all(coeffs[i][p] == (i == row) for i in range(n)),
               f"pivot column {p} is not a unit column")
        u[p] = sum((Fraction(c) * x for c, x in zip(brow, b)), Fraction(0))
    expect(product(matrix, u) == tuple(Fraction(x) for x in b),
           "echelon form does not solve A u = b")


def check_coloring(ref: Reference, signs) -> None:
    expect(len(signs) == ref.n + 2 and signs[0] == 1
           and set(signs) <= {1, -1}, f"bad coloring {signs}")
    expect(all(signs[a] == -signs[b] for a, b in ref.sides.values()),
           "coloring is not proper across some arc")
