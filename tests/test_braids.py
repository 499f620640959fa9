"""Reduced projections from 3-strand braid closures.

R1 and R2 growth from the curl leaves a monogon or a bigon in practice, so
the grown diagrams never reach a reduced projection, one with no face of
fewer than 3 corners.  The closure of (σ1 σ2⁻¹)^k is one for k ≥ 3: a knot
when 3 does not divide k, and for k = 3 the Borromean rings, a link.  A
flat projection forgets the signs, so the builder reads only which pair
of strand positions each letter crosses.
"""

from itertools import chain

import pytest

from regionchoice.diagram import (FlatDiagram, _doubled_crossings,
                                  component_count, is_knot, regions)
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix
from regionchoice.solvers import solve, verify


def braid_closure(word, strands: int = 3) -> FlatDiagram:
    """The flat PD code of the closure of a braid word.

    Letter ``i`` (or ``-i``) crosses the strands at positions ``i`` and
    ``i + 1``, counted from 1.  The strands run upwards: a crossing reads
    its four arcs counterclockwise from the lower left, so the strand in
    from the lower left leaves at the upper right, opposite it.  The
    closure joins each position's last arc to its first.
    """
    first = list(range(1, strands + 1))
    at = first[:]
    fresh = strands
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        low_left, low_right = at[i], at[i + 1]
        up_left, up_right = fresh + 1, fresh + 2
        fresh += 2
        crossings.append([low_left, low_right, up_right, up_left])
        at[i], at[i + 1] = up_left, up_right
    closing = dict(zip(at, first))
    crossings = [[closing.get(x, x) for x in tup] for tup in crossings]
    # renumber 1..2n in order of first appearance
    new = {x: i for i, x in enumerate(dict.fromkeys(chain(*crossings)), 1)}
    return FlatDiagram([[new[x] for x in tup] for tup in crossings],
                       f"closure {list(word)}")


def sigma1_sigma2_inverse(k: int) -> FlatDiagram:
    return braid_closure([1, -2] * k)


@pytest.mark.parametrize("k", [4, 5, 7])
def test_closures_are_reduced_knots(k):
    D = sigma1_sigma2_inverse(k)
    assert D.crossing_count == 2 * k
    assert D.region_count == 2 * k + 2
    assert is_knot(D)
    assert min(len(r.corners) for r in regions(D)) >= 3


@pytest.mark.parametrize("k", [4, 5, 7])
def test_both_rules_solve_a_reduced_knot(k):
    D = sigma1_sigma2_inverse(k)
    n = D.crossing_count
    for rule in (SINGLE, DOUBLE):
        for b in ((1,) + (0,) * (n - 1), tuple(range(-3, n - 3)),
                  tuple((7 * i) % 5 - 2 for i in range(n))):
            family = solve(D, rule, b)
            for u in (family.particular,
                      [p + x - 2 * y for p, x, y in zip(family.particular,
                                                        *family.kernel)]):
                report = verify(D, rule, u, b)
                assert report.passed
                assert not any(report.residual)


@pytest.mark.parametrize("k", [4, 5, 7])
def test_no_region_doubles_a_corner_so_the_rules_agree(k):
    D = sigma1_sigma2_inverse(k)
    assert not any(_doubled_crossings(D))
    assert (build_matrix(D, SINGLE).entries
            == build_matrix(D, DOUBLE).entries)


def test_the_borromean_rings_are_refused():
    D = sigma1_sigma2_inverse(3)
    assert D.crossing_count == 6
    assert component_count(D) == 3
    assert min(len(r.corners) for r in regions(D)) >= 3
    for rule in (SINGLE, DOUBLE):
        with pytest.raises(ValueError, match="requires a knot projection"):
            solve(D, rule, (1, 0, 0, 0, 0, 0))
