"""The elimination oracle of the tests, checked against sympy."""

import random
from fractions import Fraction

import sympy

from exact_linalg import (Echelon, as_dense, as_sparse, kernel_basis_sparse,
                          span_echelon, spans_equal)


def random_matrix(rng, nrows, ncols, density=0.5, span=6):
    rows = []
    for _ in range(nrows):
        rows.append([
            Fraction(rng.randint(-span, span), rng.randint(1, 3))
            if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ])
    return rows


def to_sympy(rows, ncols):
    return sympy.Matrix([
        [sympy.Rational(c.numerator, c.denominator) for c in row]
        for row in rows
    ]) if rows else sympy.zeros(0, ncols)


def test_rank_matches_sympy():
    rng = random.Random(2024)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_matrix(rng, nrows, ncols)
        ech = Echelon(ncols)
        ech.add_rows(rows)
        assert ech.rank == to_sympy(rows, ncols).rank()


def test_kernel_matches_sympy():
    rng = random.Random(31415)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        kb = [as_dense(v, ncols) for v in kernel_basis_sparse(rows, ncols)]
        null = to_sympy(rows, ncols).nullspace()
        assert len(kb) == len(null)
        # every kernel vector annihilates every row, exactly
        for vec in kb:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        # and conversely sympy's null vectors lie in our kernel span
        ours = span_echelon([as_sparse(v) for v in kb], ncols)
        for nv in null:
            sv = {i: Fraction(int(nv[i].p), int(nv[i].q))
                  for i in range(ncols) if nv[i] != 0}
            assert ours.contains(sv)


def test_echelon_incremental_rank_and_contains():
    ech = Echelon(3)
    assert ech.add_row({0: Fraction(1), 1: Fraction(1)})
    assert not ech.add_row({0: Fraction(2), 1: Fraction(2)})
    assert ech.add_row({2: Fraction(5)})
    assert ech.rank == 2
    assert sorted(ech.pivot_rows) == [0, 2]
    assert ech.free_columns() == [1]
    assert ech.contains({0: Fraction(3), 1: Fraction(3), 2: Fraction(7)})
    assert not ech.contains({0: Fraction(1)})


def test_kernel_basis_sparse_annihilates_rows():
    rng = random.Random(11)
    for _ in range(40):
        ncols = rng.randint(2, 8)
        nrows = rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {
                j: Fraction(rng.randint(-3, 3))
                for j in rng.sample(range(ncols), rng.randint(1, ncols))
            }
            rows.append({j: v for j, v in row.items() if v})
        basis = kernel_basis_sparse(rows, ncols)
        ech = Echelon(ncols)
        ech.add_rows(rows)
        assert len(basis) == ncols - ech.rank
        for vec in basis:
            for row in rows:
                assert sum(row[j] * vec.get(j, 0) for j in row) == 0


def test_spans_equal():
    a = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    b = [{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}]
    assert spans_equal(a, b, 2)
    c = [{0: Fraction(1)}]
    assert not spans_equal(a, c, 2)
    assert spans_equal([], [], 3)


def test_sparse_dense_round_trip():
    vec = {0: Fraction(1, 2), 3: Fraction(-2)}
    assert as_sparse(as_dense(vec, 5)) == vec
    assert as_dense({}, 3) == [0, 0, 0]
