"""The sparse eliminator in ``solve_raw`` against dense Bareiss elimination.

``bareiss_solve_raw`` is the dense fraction-free solver that ``solve_raw``
replaced, kept here as the oracle: with the same pivot rule both must give
the same status, particular solution, kernel basis and witness.  The oracle
takes dense rows and ``solve_raw`` the same rows through ``dense_to_sparse``.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from poissonflow.cohomsolve import (AnsatzSpec, RawSolution, assemble,
                                    monomials, solve_raw, trivialize)
from poissonflow.errors import DimensionError
from poissonflow.multivec import Multivector, schouten
from poissonflow.ratpoly import Poly


# -- oracle: dense Bareiss elimination -----------------------------------------


def dense_to_sparse(matrix):
    """Dense rows as the ``{col: coeff}`` rows that ``solve_raw`` takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def _integerize(row, b):
    dens = [x.denominator for x in row if isinstance(x, Fraction)]
    if isinstance(b, Fraction):
        dens.append(b.denominator)
    if not dens:
        return list(row), b
    m = lcm(*dens)
    return [int(x * m) for x in row], int(b * m)


def bareiss_solve_raw(matrix, rhs, row_labels=None, ncols=None):
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if row_labels is None:
        row_labels = list(range(len(matrix)))
    rows = []
    labels = []
    for k, (row, b) in enumerate(zip(matrix, rhs)):
        irow, ib = _integerize(row, b)
        if any(irow) or ib:
            rows.append(irow + [ib])
            labels.append(row_labels[k])
    nrows = len(rows)

    piv_cols = []
    piv_row = 0
    prev = 1
    for col in range(ncols):
        sel = None
        for rw in range(piv_row, nrows):
            if rows[rw][col]:
                sel = rw
                break
        if sel is None:
            continue
        if sel != piv_row:
            rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
            labels[piv_row], labels[sel] = labels[sel], labels[piv_row]
        piv = rows[piv_row][col]
        base = rows[piv_row]
        for rw in range(piv_row + 1, nrows):
            rk = rows[rw]
            factor = rk[col]
            for cc in range(col, ncols + 1):
                rk[cc] = (rk[cc] * piv - factor * base[cc]) // prev
        prev = piv
        piv_cols.append(col)
        piv_row += 1
        if piv_row == nrows:
            break

    for rw in range(piv_row, nrows):
        if rows[rw][ncols]:
            return RawSolution(status="infeasible", witness=labels[rw])

    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]

    def back_substitute(with_rhs, fixed):
        x = [Fraction(0)] * ncols
        for c, val in fixed.items():
            x[c] = Fraction(val)
        for k in range(len(piv_cols) - 1, -1, -1):
            col = piv_cols[k]
            row = rows[k]
            s = Fraction(row[ncols]) if with_rhs else Fraction(0)
            for cc in range(col + 1, ncols):
                if row[cc] and x[cc]:
                    s -= row[cc] * x[cc]
            x[col] = s / row[col]
        return x

    particular = back_substitute(True, {c: 0 for c in free_cols})
    kernel = [back_substitute(False, {c: (1 if c == fc else 0) for c in free_cols})
              for fc in free_cols]
    return RawSolution(status="solved", particular=particular, kernel=kernel)


def assert_same(got, want):
    assert got == want
    for vec in [got.particular or []] + got.kernel:
        assert all(type(x) is Fraction for x in vec)


# -- seeded systems -------------------------------------------------------------


def _entry(rng, fractional):
    if rng.random() < 0.55:
        return 0
    a = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    return Fraction(a, rng.choice([1, 2, 3, 4])) if fractional else a


def random_case(rng):
    """A system of random shape, rank, sparsity and entry type."""
    shape = rng.choice(("tall", "wide", "square"))
    if shape == "tall":
        nrows, ncols = rng.randint(4, 14), rng.randint(1, 6)
    elif shape == "wide":
        nrows, ncols = rng.randint(1, 5), rng.randint(4, 12)
    else:
        nrows = ncols = rng.randint(0, 8)
    fractional = rng.random() < 0.4
    rank = rng.randint(0, min(nrows, ncols))
    basis = [[_entry(rng, fractional) for _ in range(ncols)] for _ in range(rank)]
    matrix = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not basis:
            matrix.append([0] * ncols)                        # zero row
        elif kind < 0.25 and matrix:
            matrix.append(list(rng.choice(matrix)))           # duplicate row
        else:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            matrix.append([sum(c * row[j] for c, row in zip(coeffs, basis))
                           for j in range(ncols)])
    if rng.random() < 0.5:                                    # consistent
        x0 = [_entry(rng, fractional) for _ in range(ncols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
    else:                                                     # often not
        rhs = [_entry(rng, fractional) for _ in range(nrows)]
    labels = ["r%d" % k for k in range(nrows)] if rng.random() < 0.5 else None
    return matrix, rhs, labels, ncols


def test_sparse_matches_bareiss_on_seeded_systems():
    rng = random.Random(90)
    statuses = {"solved": 0, "infeasible": 0}
    for _ in range(400):
        matrix, rhs, labels, ncols = random_case(rng)
        got = solve_raw(dense_to_sparse(matrix), rhs, labels, ncols)
        assert_same(got, bareiss_solve_raw(matrix, rhs, labels, ncols))
        statuses[got.status] += 1
    assert min(statuses.values()) > 50


def test_sparse_matches_bareiss_and_requires_ncols():
    rng = random.Random(91)
    for _ in range(100):
        matrix, rhs, _, ncols = random_case(rng)
        if not matrix:
            continue
        want = bareiss_solve_raw(matrix, rhs)    # ncols defaults to the width
        assert_same(solve_raw(dense_to_sparse(matrix), rhs, None, ncols), want)
        # stored zeros are dropped, never taken as pivots
        with_zeros = [dict(enumerate(row)) for row in matrix]
        assert_same(solve_raw(with_zeros, rhs, None, ncols), want)
        with pytest.raises(DimensionError):
            solve_raw(dense_to_sparse(matrix), rhs)


@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_no_rows_with_ncols_given(ncols):
    got = solve_raw([], [], ncols=ncols)
    assert_same(got, bareiss_solve_raw([], [], ncols=ncols))
    assert len(got.kernel) == ncols


def test_labelled_infeasible_system_names_the_same_row():
    # the third row is the sum of the first two, up to its right-hand side
    matrix = [[0, 2, 1, 0], [1, 0, 0, 3], [1, 2, 1, 3], [0, 0, 0, 0]]
    rhs = [1, Fraction(1, 2), 2, 0]
    labels = ["a", "b", "c", "d"]
    got = solve_raw(dense_to_sparse(matrix), rhs, labels, 4)
    assert got.status == "infeasible" and got.witness == "c"
    assert_same(got, bareiss_solve_raw(matrix, rhs, labels))


def test_rows_with_fractions_and_duplicates():
    matrix = [[Fraction(1, 2), 0, Fraction(1, 3)], [Fraction(1, 2), 0, Fraction(1, 3)],
              [0, Fraction(2, 5), 1], [0, 0, 0]]
    rhs = [Fraction(5, 6), Fraction(5, 6), Fraction(7, 5), 0]
    got = solve_raw(dense_to_sparse(matrix), rhs, None, 3)
    assert got.status == "solved"
    assert got.particular == [Fraction(5, 3), Fraction(7, 2), 0]
    assert got.kernel == [[Fraction(-2, 3), Fraction(-5, 2), 1]]
    assert_same(got, bareiss_solve_raw(matrix, rhs))


# -- assembled coboundary systems -------------------------------------------------


def _random_field(rng, degree):
    monos = monomials(4, degree)
    return Multivector(4, {(i,): Poly(4, {m: rng.randint(-2, 2) for m in monos})
                           for i in range(1, 5)})


@pytest.mark.parametrize("degree, kernel_dim", [(3, 4), (4, 10), (5, 20), (6, 35)])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_trivialize_kernel_dimensions(name, degree, kernel_dim, request):
    p = request.getfixturevalue(name)
    rng = random.Random(degree)
    y = _random_field(rng, degree)
    sol = trivialize(schouten(y, p), p, degree)
    assert sol.status == "solved"
    assert sol.kernel_dim == kernel_dim
    for k in sol.kernel_basis:
        assert schouten(k, p).is_zero()
    assert sol.contains(y)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_assembled_systems_match_bareiss(name, degree, request):
    p = request.getfixturevalue(name)
    q = schouten(_random_field(random.Random(10 + degree), degree), p)
    system = assemble(q, p, AnsatzSpec(4, degree))
    ncols = system.n_cols
    dense = [[row.get(c, 0) for c in range(ncols)] for row in system.matrix]
    assert dense_to_sparse(dense) == system.matrix
    assert_same(solve_raw(system.matrix, system.rhs, system.row_labels, ncols),
                bareiss_solve_raw(dense, system.rhs, system.row_labels, ncols))
