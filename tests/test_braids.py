"""Reduced projections from 3-strand braid closures.

R1 and R2 growth from the curl leaves a monogon or a bigon in practice, so
the grown diagrams never reach a reduced projection, one with no face of
fewer than 3 corners.  The closure of (σ1 σ2⁻¹)^k is one for k ≥ 3: a knot
when 3 does not divide k, and a 3-component link when it does (for k = 3
the Borromean rings).  A flat projection forgets the signs, so the builder
reads only which pair of strand positions each letter crosses.  Each knot
is solved against the dense ``zlinalg.solve_pinned`` and, mod 2, against
the GF(2) elimination of ``tests/test_sparse.py``.
"""

from itertools import chain

import pytest

from regionchoice import zlinalg
from regionchoice.diagram import (FlatDiagram, _doubled_crossings,
                                  component_count, is_knot, regions)
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix
from regionchoice.solvers import _pin_pair, solve, solve_mod2, verify
from test_sparse import bit_elimination_mod2


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


# (σ1 σ2⁻¹)^k closes to a knot unless 3 divides k: n = 2k up to 32
KNOTS = [k for k in range(4, 17) if k % 3]
LINKS = range(3, 17, 3)


def right_hand_sides(n):
    return ((1,) + (0,) * (n - 1), tuple(range(-3, n - 3)),
            tuple((7 * i) % 5 - 2 for i in range(n)))


@pytest.mark.parametrize("k", KNOTS)
def test_closures_are_reduced_knots(k):
    D = sigma1_sigma2_inverse(k)
    assert D.crossing_count == 2 * k
    assert D.region_count == 2 * k + 2
    assert is_knot(D)
    assert min(len(r.corners) for r in regions(D)) >= 3


@pytest.mark.parametrize("k", KNOTS)
def test_both_rules_solve_a_reduced_knot(k):
    D = sigma1_sigma2_inverse(k)
    n = D.crossing_count
    for rule in (SINGLE, DOUBLE):
        for b in right_hand_sides(n):
            family = solve(D, rule, b)
            for u in (family.particular,
                      [p + x - 2 * y for p, x, y in zip(family.particular,
                                                        *family.kernel)]):
                report = verify(D, rule, u, b)
                assert report.passed
                assert not any(report.residual)


@pytest.mark.parametrize("k", KNOTS)
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


@pytest.mark.parametrize("k", KNOTS)
def test_a_reduced_knot_solves_as_the_dense_oracle_does(k):
    D = sigma1_sigma2_inverse(k)
    for rule in (SINGLE, DOUBLE):
        for b in right_hand_sides(D.crossing_count):
            (family,) = zlinalg.solve_pinned(build_matrix(D, rule).entries,
                                             _pin_pair(D), [b])
            assert solve(D, rule, b) == family


@pytest.mark.parametrize("k", KNOTS)
def test_a_reduced_knot_solves_mod_2_as_the_elimination_does(k):
    D = sigma1_sigma2_inverse(k)
    for b in right_hand_sides(D.crossing_count):
        assert solve_mod2(D, b) == bit_elimination_mod2(D, b)


@pytest.mark.parametrize("k", LINKS)
def test_every_third_closure_is_a_three_component_link(k):
    D = sigma1_sigma2_inverse(k)
    assert component_count(D) == 3
    assert not is_knot(D)
    for rule in (SINGLE, DOUBLE):
        with pytest.raises(ValueError, match="requires a knot projection"):
            solve(D, rule, (1,) + (0,) * (D.crossing_count - 1))
