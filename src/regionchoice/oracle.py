"""Brute-force cross-checks for the solvers on small instances."""

from __future__ import annotations

from itertools import product

from .diagram import _Record
from .zlinalg import SolutionFamily

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(ValueError):
    """The enumeration box is larger than the configured budget."""


class OracleMismatch(AssertionError):
    """Brute force and the solution family disagree."""


class SearchBox(_Record):
    """Exhaustive search over assignments with entries in [-radius, radius]."""

    matrix: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    radius: int
    budget: int = DEFAULT_BUDGET

    @property
    def width(self) -> int:
        return len(self.matrix[0])

    def size(self) -> int:
        return (2 * self.radius + 1) ** self.width


def brute_solutions(box: SearchBox) -> list[tuple[int, ...]]:
    """All assignments in the box with ``A u = target``, lexicographic."""
    if box.radius < 0:
        raise ValueError("radius must be non-negative")
    if box.size() > box.budget:
        raise BudgetExceeded(
            f"box holds {box.size()} points, budget is {box.budget}")
    values = range(-box.radius, box.radius + 1)
    hits = []
    for u in product(values, repeat=box.width):
        if all(sum(a * x for a, x in zip(row, u)) == t
               for row, t in zip(box.matrix, box.target)):
            hits.append(u)
    return hits


def _recover_coefficients(family: SolutionFamily, u) -> tuple[int, int]:
    """Integer (alpha, beta) with u = particular + alpha k1 + beta k2."""
    k1, k2 = family.kernel
    diff = [x - y for x, y in zip(u, family.particular)]
    for i in range(len(k1)):
        for j in range(i + 1, len(k1)):
            det = k1[i] * k2[j] - k2[i] * k1[j]
            if det in (1, -1):
                alpha = (diff[i] * k2[j] - diff[j] * k2[i]) // det
                beta = (diff[j] * k1[i] - diff[i] * k1[j]) // det
                if family.member(alpha, beta) == tuple(u):
                    return alpha, beta
                raise OracleMismatch(
                    f"{tuple(u)} is not a member of the family")
    raise OracleMismatch("kernel basis has no unimodular coordinate pair")


class CrossCheckReport(_Record):
    brute_count: int
    coefficients: tuple[tuple[int, int], ...]


def cross_check(matrix, b, family: SolutionFamily, radius: int,
                budget: int = DEFAULT_BUDGET) -> CrossCheckReport:
    """Verify the family against exhaustive search in a box.

    Every brute-force solution of ``A u = -b`` must be a family member with
    integer coefficients, and every family member landing in the box must be
    found by the enumeration.
    """
    target = tuple(-x for x in b)
    box = SearchBox(tuple(tuple(r) for r in matrix), target, radius, budget)
    hits = brute_solutions(box)
    coeffs = tuple(_recover_coefficients(family, u) for u in hits)
    hit_set = set(hits)
    span = max((max(abs(a), abs(bb)) for a, bb in coeffs), default=0) + 2
    for alpha in range(-span, span + 1):
        for beta in range(-span, span + 1):
            member = family.member(alpha, beta)
            if max(abs(x) for x in member) <= radius and member not in hit_set:
                raise OracleMismatch(
                    f"family member {member} missed by brute force")
    return CrossCheckReport(len(hits), coeffs)
