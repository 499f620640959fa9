"""The echelon form from the sparse unit-pivot factorisation, against the
dense rational row reduction it replaced.

``dense_rref`` is that reduction: Gauss-Jordan elimination of ``[A | I]``
over ``Fraction``.  The RREF is unique, so ``zlinalg.rref_rational`` must
return exactly the same pivot columns, coefficients and ``b`` coefficients.
"""

import io
import json
import pathlib
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regionchoice.catalog import catalog_entry, names
from regionchoice.cli import main
from regionchoice.diagram import random_diagram
from regionchoice.incidence import DOUBLE, SINGLE, build_matrix
from regionchoice.zlinalg import (EchelonForm, InternalInvariantError,
                                  rref_rational)

GOLDEN = pathlib.Path(__file__).with_name("rref_cli_golden.json")


def dense_rref(matrix) -> EchelonForm:
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
    assert all(not any(work[i][:cols]) for i in range(r, rows))
    return EchelonForm(
        tuple(pivot_cols),
        tuple(tuple(row[:cols]) for row in work[:r]),
        tuple(tuple(row[cols:]) for row in work[:r]))


def shuffled(matrix, rng: random.Random):
    """The matrix with its rows and its columns permuted."""
    rows = list(matrix)
    rng.shuffle(rows)
    perm = list(range(len(matrix[0])))
    rng.shuffle(perm)
    return tuple(tuple(row[j] for j in perm) for row in rows)


def catalog_matrices():
    for name in names():
        for rule in (SINGLE, DOUBLE):
            yield build_matrix(catalog_entry(name).diagram, rule).entries
            yield catalog_entry(name).matrix(rule).entries


def random_matrices():
    for seed in range(64):
        D = random_diagram(seed, seed % 12)
        for rule in (SINGLE, DOUBLE):
            yield build_matrix(D, rule).entries


def test_rref_matches_the_dense_oracle():
    rng = random.Random(6)
    count = 0
    for matrix in [*catalog_matrices(), *random_matrices()]:
        for m in (matrix, shuffled(matrix, rng)):
            assert rref_rational(m) == dense_rref(m)
            count += 1
    assert count == 2 * (4 * len(names()) + 128)


def test_rref_entries_are_fractions():
    D = catalog_entry("5_2").diagram
    e = rref_rational(build_matrix(D, SINGLE).entries)
    assert any(x.denominator != 1 for row in e.coeffs for x in row)
    for table in (e.coeffs, e.b_coeffs):
        assert all(type(x) is Fraction for row in table for x in row)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), moves=st.integers(0, 10),
       rule=st.sampled_from((SINGLE, DOUBLE)), shuffle=st.booleans())
def test_rref_property_matches_the_oracle_and_solves(seed, moves, rule,
                                                     shuffle):
    rng = random.Random(seed)
    matrix = build_matrix(random_diagram(seed, moves), rule).entries
    if shuffle:
        matrix = shuffled(matrix, rng)
    e = rref_rational(matrix)
    assert e == dense_rref(matrix)
    b = tuple(rng.randint(-20, 20) for _ in matrix)
    u = e.evaluate(b, (rng.randint(-5, 5), rng.randint(-5, 5)))
    assert all(sum(a * x for a, x in zip(row, u)) == v
               for row, v in zip(matrix, b))


def test_rref_passes_over_columns_whose_gcd_is_not_1():
    # no +-1 entry; the sparsest columns, 2 and 3, have gcd 2 and 4, so the
    # Euclid steps run on column 0 (gcd 1) and columns 2 and 3 stay free
    matrix = ((2, 3, 2, 0), (3, 5, 0, 4))
    e = rref_rational(matrix)
    assert e == dense_rref(matrix)
    assert e.pivot_cols == (0, 1)
    assert e.b_coeffs == ((5, -3), (-3, 2))


def test_rref_refuses_a_matrix_without_a_unit_pivot_column():
    # no column has gcd 1, so no +-1 pivot can be made
    with pytest.raises(InternalInvariantError,
                       match="^echelon, elimination: no live column has "
                             "gcd 1"):
        rref_rational(((2, 3, 5),))


@pytest.mark.parametrize("matrix", [
    (),
    ((1, 0, 0),) * 2,
    ((1, 0), (0, 1)),
    ((1, 0, 0, 1),),
])
def test_rref_refuses_a_matrix_that_is_not_n_by_n_plus_2(matrix):
    with pytest.raises(ValueError):
        rref_rational(matrix)


def cli_rref(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["rref", *argv]) == 0
    return out.getvalue()


# stdout of `regionchoice rref` captured from the dense implementation, for
# every catalog name, both formats, with and without --reference-labels
def test_cli_rref_output_matches_the_golden_capture():
    golden = json.loads(GOLDEN.read_text())
    cases = [(name, fmt, labels) for name in names()
             for labels in ((), ("--reference-labels",))
             for fmt in ("text", "json")]
    assert len(golden) == len(cases) == 36
    for name, fmt, labels in cases:
        key = " ".join((name, fmt, *labels))
        assert cli_rref("--diagram", name, *labels, "--format", fmt) \
            == golden[key], key
