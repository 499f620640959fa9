"""End-to-end acceptance checks.

Each test covers one documented guarantee and prints a one-line verdict,
so a full run doubles as a conformance report.
"""

import random

from regionchoice.catalog import (REFERENCE_DOUBLE, REFERENCE_SINGLE,
                                  catalog_entry, names)
from regionchoice.diagram import (D0, apply_r2, arcs, checkerboard,
                                  random_diagram, reducible_crossings)
from regionchoice.incidence import (DOUBLE, SINGLE, apply, build_matrix,
                                    mod2, residual)
from regionchoice.oracle import cross_check
from regionchoice.solvers import (add1_algebraic, add1_geometric,
                                  arc_unimodularity_report, solve, solve_mod2,
                                  solve_single_via_double)
from regionchoice.zlinalg import reduce_to_e00, rref_rational
from test_zlinalg import determinant

MINIMAL = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3")


def report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_01_catalog_matrix_reproduction():
    ok = all(catalog_entry(n).matrix(SINGLE).entries == REFERENCE_SINGLE[n]
             for n in MINIMAL)
    report(1, "reference single-rule matrices reproduced bit-exact", ok)


def test_02_four_crossing_example_values():
    e = catalog_entry("example2_4")
    a1 = e.matrix(SINGLE)
    a2 = e.matrix(DOUBLE)
    ok = (a1.entries == REFERENCE_SINGLE["example2_4"]
          and a2.entries == REFERENCE_DOUBLE["example2_4"])
    u = (1, -2, 1, 1, 0, 1)
    ok = ok and apply(a1, u) == (0, 0, 0, 0)
    ok = ok and apply(a2, u) == (-2, 0, 0, 0)
    report(2, "four-crossing example matrices and witness vector", ok)


def test_03_curl_reduction():
    a2 = build_matrix(D0, DOUBLE)
    d = reduce_to_e00(a2.entries)
    ok = a2.entries == ((2, 1, 1),) and d.s == ((1, 0, 0),)
    report(3, "one-crossing curl: (2 1 1) reduces to (1 0 0)", ok)


def test_04_solver_totality():
    rng = random.Random(1)
    ok = True
    for name in names():
        D = catalog_entry(name).diagram
        n = D.crossing_count
        for rule in (SINGLE, DOUBLE):
            M = build_matrix(D, rule)
            for _ in range(100):
                b = tuple(rng.randint(-99, 99) for _ in range(n))
                fam = solve(D, rule, b)
                ok = ok and all(isinstance(x, int) for x in fam.particular)
                ok = ok and not any(residual(M, fam.particular, b))
    report(4, "100 random targets per diagram and rule all solved exactly", ok)


def test_05_e00_property():
    diagrams = [catalog_entry(n).diagram for n in names()]
    diagrams += [random_diagram(seed, 8) for seed in range(1, 51)]
    ok = True
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            d = reduce_to_e00(build_matrix(D, rule).entries)
            ok = ok and d.is_e00
            ok = ok and abs(determinant(d.p)) == 1
            ok = ok and abs(determinant(d.q)) == 1
    report(5, "identity-block form with unimodular transforms everywhere", ok)


def test_06_arc_unimodularity():
    diagrams = [catalog_entry(n).diagram for n in names()]
    diagrams += [random_diagram(seed, 8) for seed in range(1, 21)]
    ok = True
    for D in diagrams:
        for rule in (SINGLE, DOUBLE):
            ok = ok and set(arc_unimodularity_report(D, rule).values()) == {1}
    report(6, "kernel restricted to any arc's two sides is unimodular", ok)


def test_07_add1_coherence():
    diagrams = [catalog_entry(name).diagram for name in ("3_1", "example2_4")]
    diagrams += [random_diagram(seed, 6) for seed in range(1, 11)]
    ok = True
    for D in diagrams:
        n = D.crossing_count
        M = build_matrix(D, DOUBLE)
        for v in range(n):
            g = add1_geometric(D, v)
            a = add1_algebraic(D, DOUBLE, v)
            target = tuple(1 if i == v else 0 for i in range(n))
            ok = ok and g.residual == target
            diff = tuple(x - y for x, y in zip(g.assignment, a.assignment))
            ok = ok and apply(M, diff) == (0,) * n
    report(7, "geometric and algebraic add-1 agree up to kernel", ok)


def _diagrams_with_reducible(count):
    found = []
    seed = 1
    while len(found) < count:
        D = random_diagram(seed, 6)
        if reducible_crossings(D):
            found.append(D)
        seed += 1
    return found


def test_08_two_path_single_rule():
    diagrams = ([catalog_entry("example2_4").diagram]
                + _diagrams_with_reducible(10))
    rng = random.Random(8)
    ok = True
    for D in diagrams:
        n = D.crossing_count
        M = build_matrix(D, SINGLE)
        for _ in range(3):
            b = tuple(rng.randint(-30, 30) for _ in range(n))
            via = solve_single_via_double(D, b)
            direct = solve(D, SINGLE, b).particular
            ok = ok and not any(residual(M, via, b))
            ok = ok and not any(residual(M, direct, b))
            diff = tuple(x - y for x, y in zip(via, direct))
            ok = ok and apply(M, diff) == (0,) * n
    report(8, "double-rule detour and direct single-rule solve agree", ok)


def test_09_mod2_solvability():
    rng = random.Random(9)
    ok = True
    for name in names():
        D = catalog_entry(name).diagram
        M = build_matrix(D, SINGLE)
        bits = mod2(M)
        n = D.crossing_count
        for _ in range(100):
            b = tuple(rng.randint(0, 1) for _ in range(n))
            chosen = solve_mod2(D, b)
            u = tuple(1 if r in chosen else 0 for r in range(D.region_count))
            ok = ok and all(x % 2 == 0 for x in residual(M, u, b))
            integral = solve(D, SINGLE, b).particular
            red = tuple(x % 2 for x in integral)
            ok = ok and all(x % 2 == 0 for x in residual(M, red, b))
    report(9, "mod-2 problem always solvable; integral solutions reduce", ok)


def test_10_checkerboard_kernel_membership():
    diagrams = [catalog_entry(n).diagram for n in names()]
    diagrams += [random_diagram(seed, 8) for seed in range(1, 51)]
    ok = True
    for D in diagrams:
        M = build_matrix(D, DOUBLE)
        ok = ok and apply(M, checkerboard(D).signs) == (0,) * D.crossing_count
    report(10, "checkerboard sign vector lies in the double-rule kernel", ok)


def _random_r2_cases(count):
    cases = []
    rng = random.Random(11)
    seed = 1
    while len(cases) < count:
        D = random_diagram(seed, 4)
        seed += 1
        pairs = [(a.label, b.label) for a in arcs(D) for b in arcs(D)
                 if a.label < b.label and set(a.sides) & set(b.sides)]
        if pairs:
            cases.append((D, rng.choice(pairs)))
    return cases


def test_11_r2_column_identity():
    ok = True
    for D, (l1, l2) in _random_r2_cases(20):
        n = D.crossing_count
        grown = apply_r2(D, l1, l2)
        ok = ok and grown.crossing_count == n + 2
        old = build_matrix(D, DOUBLE).entries
        new = build_matrix(grown, DOUBLE).entries
        old_cols = [tuple(old[i][j] for i in range(n))
                    for j in range(n + 2)]
        new_cols = [tuple(new[i][j] for i in range(n))
                    for j in range(n + 4)]
        a1 = next(a for a in arcs(D) if a.label == l1)
        a2 = next(a for a in arcs(D) if a.label == l2)
        split = min(set(a1.sides) & set(a2.sides))
        # every untouched region's column survives; the split region's
        # column is the sum of its two children; one new column is zero
        pool = list(new_cols)
        matched = True
        for j, col in enumerate(old_cols):
            if j == split:
                continue
            if col in pool:
                pool.remove(col)
            else:
                matched = False
        pair_found = any(
            tuple(x + y for x, y in zip(pool[i], pool[j])) == old_cols[split]
            for i in range(len(pool)) for j in range(len(pool)) if i != j)
        ok = ok and matched and pair_found and (0,) * n in pool
    report(11, "strand-push move splits a column into two summands", ok)


def test_12_echelon_reproduction():
    printed = {
        "3_1": ((0, 1, 2),
                ((1, 0, 0, 1, 2), (0, 1, 0, 0, -1), (0, 0, 1, 0, -1)),
                ((-1, 1, 1), (1, 0, -1), (1, -1, 0))),
        "4_1": ((0, 1, 2, 3),
                ((1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 2, 1),
                 (0, 0, 1, 0, -3, -2), (0, 0, 0, 1, 2, 1)),
                ((1, -1, 0, 0), (-1, 1, 1, 0), (2, -1, -1, -1),
                 (-1, 1, 0, 1))),
    }
    rng = random.Random(12)
    ok = True
    for name, (pivots, coeffs, b_coeffs) in printed.items():
        M = catalog_entry(name).matrix(SINGLE)
        e = rref_rational(M.entries)
        ok = ok and e.pivot_cols == pivots
        ok = ok and e.coeffs == coeffs
        ok = ok and e.b_coeffs == b_coeffs
        n = len(M.entries)
        for _ in range(50):
            b = tuple(rng.randint(-99, 99) for _ in range(n))
            free = tuple(rng.randint(-9, 9) for _ in range(2))
            u = e.evaluate(b, free)
            ok = ok and all(
                sum(r * x for r, x in zip(row, u)) == bv
                for row, bv in zip(M.entries, b))
    report(12, "published echelon formulas reproduced and evaluated", ok)


def test_13_oracle_agreement():
    rng = random.Random(13)
    ok = True
    for name in ("d0", "3_1"):
        D = catalog_entry(name).diagram
        n = D.crossing_count
        targets = [(0,) * n] + [tuple(rng.randint(-2, 2) for _ in range(n))
                                for _ in range(3)]
        for rule in (SINGLE, DOUBLE):
            M = build_matrix(D, rule)
            for b in targets:
                fam = solve(D, rule, b)
                cross_check(M.entries, b, fam, radius=2)
    report(13, "brute force within radius 2 matches the solution family", ok)
