"""The row-at-a-time eliminator in ``solve_raw`` against earlier solvers.

``bareiss_solve_raw`` is a dense fraction-free solver with the pivot rule
"first row at or below the pivot row, swapped in"; it takes dense rows and
``solve_raw`` the same rows through ``dense_to_sparse``.
``rational_solve_raw`` is a sparse solver with that pivot rule that scans
every row for each pivot and back-substitutes each solution vector on its
own in Fractions.  The pivot columns are those of the reduced echelon form
of the row space, whatever rows hold them, so all three must give the same
status, particular solution and kernel basis.  The witness of an
infeasible system is checked against ``prefix_witness``: the first row, in
the given order, that contradicts the rows before it.  The oracles answer
in dense vectors, ``solve_raw`` in ``{col: value}`` maps; ``sparse`` turns
the one into the other.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from poissonflow import catalog
from poissonflow.cohomsolve import (AnsatzSpec, RawSolution, assemble,
                                    monomials, solve_raw, trivialize)
from poissonflow.errors import DimensionError
from poissonflow.multivec import Multivector, schouten
from poissonflow.ratpoly import Poly, ratnorm


# -- oracle: dense Bareiss elimination -----------------------------------------


def dense_to_sparse(matrix):
    """Dense rows as the ``{col: coeff}`` rows that ``solve_raw`` takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def sparse(vec):
    """A dense solution vector as the ``{col: value}`` map ``solve_raw``
    returns: its nonzero values only, each an int wherever it is integral."""
    return {c: ratnorm(x) for c, x in enumerate(vec) if x}


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


# -- oracle: row scans and rational back-substitution ----------------------------


def rational_solve_raw(matrix, rhs, row_labels=None, ncols=0):
    """Sparse elimination that scans the rows below the pivot row for each
    column, then one rational back-substitution per solution vector."""
    if row_labels is None:
        row_labels = range(len(matrix))
    rows = []
    labels = []
    for row, b, label in zip(matrix, rhs, row_labels):
        entries = {c: x for c, x in row.items() if x}
        if b:
            entries[ncols] = b
        if entries:
            m = lcm(*[x.denominator for x in entries.values()])
            rows.append({c: int(x * m) for c, x in entries.items()})
            labels.append(label)
    nrows = len(rows)

    piv_cols = []
    piv_row = 0
    for col in range(ncols):
        if piv_row == nrows:
            break
        hits = [rw for rw in range(piv_row, nrows) if col in rows[rw]]
        if not hits:
            continue
        sel = hits[0]
        if sel != piv_row:
            rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
            labels[piv_row], labels[sel] = labels[sel], labels[piv_row]
        base = rows[piv_row]
        piv = base[col]
        for rw in hits[1:]:
            row = rows[rw]
            factor = row[col]
            g = gcd(piv, factor)
            a, f = piv // g, factor // g
            new = {c: a * v for c, v in row.items()}
            for c, v in base.items():
                v = new.get(c, 0) - f * v
                if v:
                    new[c] = v
                else:
                    del new[c]
            content = gcd(*new.values())
            if content > 1:
                new = {c: v // content for c, v in new.items()}
            rows[rw] = new
        piv_cols.append(col)
        piv_row += 1

    for rw in range(piv_row, nrows):
        if ncols in rows[rw]:
            return RawSolution(status="infeasible", witness=labels[rw])

    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]
    echelon = list(zip(piv_cols, rows))[::-1]
    zero, one = Fraction(0), Fraction(1)

    def back_substitute(x):
        # x holds the nonzero unknowns fixed so far, and -1 at key ncols
        # when the right-hand side takes part
        for col, row in echelon:
            s = 0
            for c, a in row.items():
                v = x.get(c)
                if v is not None:
                    s += a * v
            if s:
                x[col] = -s / row[col]
        return [x.get(c, zero) for c in range(ncols)]

    particular = back_substitute({ncols: -one})
    kernel = [back_substitute({fc: one}) for fc in free_cols]
    return RawSolution(status="solved", particular=particular, kernel=kernel)


def assert_clean_maps(raw, ncols):
    """Every map of a solved ``raw`` holds columns in range(ncols), in
    order, and nonzero reduced values only, an int wherever integral."""
    for vec in [raw.particular] + raw.kernel:
        assert type(vec) is dict and list(vec) == sorted(vec)
        assert set(vec) <= set(range(ncols))
        for x in vec.values():
            assert type(x) is int or type(x) is Fraction and x.denominator > 1
            assert x != 0


def prefix_witness(matrix, rhs, labels=None, ncols=None):
    """The label of the first dense row that contradicts the rows before
    it: row k for the least k at which ``bareiss_solve_raw`` finds rows
    0..k infeasible; None for a solvable system."""
    if labels is None:
        labels = range(len(matrix))
    if bareiss_solve_raw(matrix, rhs, labels, ncols).status == "solved":
        return None
    return next(labels[k] for k in range(len(matrix))
                if bareiss_solve_raw(matrix[:k + 1], rhs[:k + 1], labels[:k + 1],
                                     ncols).status == "infeasible")


def assert_same(got, want, witness):
    """``solve_raw``'s answer ``got`` against an oracle's dense ``want``
    in status, particular solution and kernel, and against ``witness``,
    the ``prefix_witness`` of the system, in its witness."""
    assert (witness is None) == (want.status == "solved")
    if want.status == "solved":
        assert_clean_maps(got, len(want.particular))
        want = dataclasses.replace(want, particular=sparse(want.particular),
                                   kernel=[sparse(v) for v in want.kernel])
    assert got == dataclasses.replace(want, witness=witness)


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


def assert_matches_oracles(matrix, rhs, labels, ncols):
    """``solve_raw`` on the dense rows ``matrix``, checked against both
    oracles; returns its solution."""
    sparse = dense_to_sparse(matrix)
    got = solve_raw(sparse, rhs, labels, ncols)
    witness = prefix_witness(matrix, rhs, labels, ncols)
    assert_same(got, bareiss_solve_raw(matrix, rhs, labels, ncols), witness)
    assert_same(got, rational_solve_raw(sparse, rhs, labels, ncols), witness)
    return got


def test_sparse_matches_bareiss_on_seeded_systems():
    rng = random.Random(90)
    statuses = {"solved": 0, "infeasible": 0}
    for _ in range(400):
        got = assert_matches_oracles(*random_case(rng))
        statuses[got.status] += 1
    assert min(statuses.values()) > 50


def test_answers_are_clean_maps_on_seeded_systems():
    rng = random.Random(95)
    kinds = set()
    for _ in range(300):
        matrix, rhs, labels, ncols = random_case(rng)
        got = solve_raw(dense_to_sparse(matrix), rhs, labels, ncols)
        if got.status == "solved":
            assert_clean_maps(got, ncols)
            # kernel vector k is 1 at its free column, the last it holds,
            # where the particular solution and every other vector are 0
            free = [max(vec) for vec in got.kernel]
            assert all(vec[c] == 1 for vec, c in zip(got.kernel, free))
            assert free == sorted(set(free))
            assert not set(free) & set(got.particular)
            assert all(vec.keys() & set(free) == {c}
                       for vec, c in zip(got.kernel, free))
            kinds |= {type(x) for vec in [got.particular] + got.kernel
                      for x in vec.values()}
    assert kinds == {int, Fraction}


def combination_rows(rng, nrows, ncols, rank, fractional):
    """``nrows`` rows in the span of ``rank`` random rows, the first ``rank``
    of them those rows themselves."""
    basis = [[_entry(rng, fractional) for _ in range(ncols)] for _ in range(rank)]
    rows = [list(row) for row in basis]
    for _ in range(nrows - rank):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, basis))
                     for j in range(ncols)])
    return rows


def consistent_rhs(rng, matrix, ncols, fractional):
    x0 = [_entry(rng, fractional) for _ in range(ncols)]
    return [sum(a * x for a, x in zip(row, x0)) for row in matrix]


def leading_column(row):
    return next((c for c, x in enumerate(row) if x), len(row))


def test_wide_kernels_match_both_oracles():
    # 40 unknowns at rank 5: every row update of the back-substitution
    # reaches the particular solution and up to 35 kernel vectors at once
    rng = random.Random(92)
    for k in range(12):
        fractional = k % 2 == 1
        matrix = combination_rows(rng, rng.randint(5, 9), 40, 5, fractional)
        rng.shuffle(matrix)
        rhs = consistent_rhs(rng, matrix, 40, fractional)
        got = assert_matches_oracles(matrix, rhs, None, 40)
        assert got.status == "solved" and len(got.kernel) == 35
        assert sum(len(vec) for vec in got.kernel) > 35 * 3


def test_pivot_swaps_match_both_oracles():
    # rows sorted by descending leading column: the oracles swap a later
    # row up for most pivots, while solve_raw takes the rows as they come
    rng = random.Random(93)
    swapped = 0
    for k in range(150):
        ncols = rng.randint(3, 12)
        rank = rng.randint(1, ncols)
        fractional = k % 3 == 0
        matrix = combination_rows(rng, rank + rng.randint(0, 4), ncols, rank,
                                  fractional)
        matrix.sort(key=leading_column, reverse=True)
        if rng.random() < 0.5:
            rhs = consistent_rhs(rng, matrix, ncols, fractional)
        else:
            rhs = [_entry(rng, fractional) for _ in matrix]
        labels = ["r%d" % j for j in range(len(matrix))]
        assert_matches_oracles(matrix, rhs, labels, ncols)
        swapped += leading_column(matrix[0]) > min(map(leading_column, matrix))
    assert swapped > 100


def test_infeasible_row_after_swaps_is_the_oracles_witness():
    # two inserted rows each copy a row up to their right-hand side: "top"
    # on top, with the latest leading column, and "inner" anywhere below.
    # The witness is the first row that contradicts the rows before it:
    # "inner" when it comes after the row it copies, else a later row
    # ("top" only when it copies a zero row and reads 0 = b).  Shorter rows
    # arriving at a column swap out the pivot stored there, so the row that
    # reduces to 0 = b may be an old pivot; the witness is still the
    # arriving row.
    rng = random.Random(94)
    kinds = set()
    for k in range(120):
        ncols = rng.randint(3, 10)
        rank = rng.randint(1, ncols)
        fractional = k % 2 == 0
        matrix = combination_rows(rng, rank + rng.randint(0, 3), ncols, rank,
                                  fractional)
        matrix.sort(key=leading_column, reverse=True)
        rhs = consistent_rhs(rng, matrix, ncols, fractional)
        labels = ["r%d" % j for j in range(len(matrix))]
        for label, at in (("top", 0), ("inner", rng.randint(1, len(matrix)))):
            j = rng.randrange(len(matrix))
            scale = rng.choice([1, -2, Fraction(1, 3)])
            matrix.insert(at, [scale * x for x in matrix[j]])
            rhs.insert(at, scale * rhs[j] + rng.choice([1, -1, Fraction(1, 2)]))
            labels.insert(at, label)
        got = assert_matches_oracles(matrix, rhs, labels, ncols)
        assert got.status == "infeasible"
        kinds.add(got.witness if got.witness in ("top", "inner") else "later")
    assert {"inner", "later"} <= kinds


def test_sparse_matches_bareiss_and_requires_ncols():
    rng = random.Random(91)
    for _ in range(100):
        matrix, rhs, _, ncols = random_case(rng)
        if not matrix:
            continue
        want = bareiss_solve_raw(matrix, rhs)    # ncols defaults to the width
        witness = prefix_witness(matrix, rhs)
        assert_same(solve_raw(dense_to_sparse(matrix), rhs, None, ncols), want,
                    witness)
        # stored zeros are dropped, never taken as pivots
        with_zeros = [dict(enumerate(row)) for row in matrix]
        assert_same(solve_raw(with_zeros, rhs, None, ncols), want, witness)
        with pytest.raises(DimensionError):
            solve_raw(dense_to_sparse(matrix), rhs)


@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_no_rows_with_ncols_given(ncols):
    got = solve_raw([], [], ncols=ncols)
    assert_same(got, bareiss_solve_raw([], [], ncols=ncols), None)
    assert len(got.kernel) == ncols


def test_labelled_infeasible_system_names_the_same_row():
    # the third row is the sum of the first two, up to its right-hand side
    matrix = [[0, 2, 1, 0], [1, 0, 0, 3], [1, 2, 1, 3], [0, 0, 0, 0]]
    rhs = [1, Fraction(1, 2), 2, 0]
    labels = ["a", "b", "c", "d"]
    got = solve_raw(dense_to_sparse(matrix), rhs, labels, 4)
    assert got.status == "infeasible" and got.witness == "c"
    assert_same(got, bareiss_solve_raw(matrix, rhs, labels),
                prefix_witness(matrix, rhs, labels))


def test_rows_with_fractions_and_duplicates():
    matrix = [[Fraction(1, 2), 0, Fraction(1, 3)], [Fraction(1, 2), 0, Fraction(1, 3)],
              [0, Fraction(2, 5), 1], [0, 0, 0]]
    rhs = [Fraction(5, 6), Fraction(5, 6), Fraction(7, 5), 0]
    got = solve_raw(dense_to_sparse(matrix), rhs, None, 3)
    assert got.status == "solved"
    assert got.particular == sparse([Fraction(5, 3), Fraction(7, 2), 0])
    assert got.kernel == [sparse([Fraction(-2, 3), Fraction(-5, 2), 1])]
    assert_same(got, bareiss_solve_raw(matrix, rhs), None)


def test_shorter_arriving_row_takes_the_pivot():
    # every row leads at column 0 and the first, with every entry and its
    # right-hand side nonzero, is the longest: each shorter row arriving
    # there is kept as the pivot and the old pivot is reduced in its place
    rng = random.Random(96)
    statuses = {"solved": 0, "infeasible": 0}
    for k in range(150):
        ncols = rng.randint(2, 9)
        fractional = k % 2 == 1
        nonzero = filter(None, iter(lambda: _entry(rng, fractional), None))
        matrix = [[next(nonzero) for _ in range(ncols)]]
        for _ in range(rng.randint(1, 5)):
            matrix.append([next(nonzero)] + [_entry(rng, fractional)
                                             for _ in range(ncols - 1)])
        if rng.random() < 0.5:
            rhs = consistent_rhs(rng, matrix, ncols, fractional)
        else:
            rhs = [_entry(rng, fractional) for _ in matrix]
        rhs[0] = rhs[0] or 1
        assert len(matrix[0]) == ncols and all(matrix[0])
        got = assert_matches_oracles(matrix, rhs, None, ncols)
        statuses[got.status] += 1
    assert min(statuses.values()) > 20


def test_swapped_out_pivot_that_reads_0_equals_b_names_the_arriving_row():
    # "short" (2 entries) swaps out "long" (3), which then reduces to 0 = 1
    matrix = [[1, 1], [2, 2]]
    rhs = [1, 0]
    labels = ["long", "short"]
    got = solve_raw(dense_to_sparse(matrix), rhs, labels, 2)
    assert got.witness == "short"
    assert_same(got, bareiss_solve_raw(matrix, rhs, labels), "short")
    # on a tie the stored pivot stays, and the arriving row reads 0 = b
    rhs = [1, 3]
    assert solve_raw(dense_to_sparse(matrix), rhs, labels, 2).witness == "short"


def test_zero_equals_b_row_is_its_own_witness():
    # "z" reads 0 = 2 before "c" contradicts "a"; a stored zero is no entry
    for z in ({}, {1: 0}):
        got = solve_raw([{0: 1, 1: 1}, z, {0: 1, 1: 1}], [1, 2, 3],
                        ["a", "z", "c"], 2)
        assert got.status == "infeasible" and got.witness == "z"
    matrix = [[1, 1], [0, 0], [1, 1]]
    assert prefix_witness(matrix, [1, 2, 3], ["a", "z", "c"]) == "z"


def test_every_row_is_checked_before_elimination():
    # the second row is the witness, and the third is still checked
    with pytest.raises(DimensionError, match="column 2"):
        solve_raw([{0: 1}, {0: 1}, {2: 1}], [0, 1, 0], ncols=2)
    with pytest.raises(TypeError, match="coefficient of type float"):
        solve_raw([{0: 1}, {0: 1}, {1: 0.5}], [0, 1, 0], ncols=2)
    # True == 1 and 0.0 == 0, yet a bool or float key is no column; the
    # first row, 0 = 1, is not eliminated before the second is checked
    for key, ncols in ((True, 2), (False, 1), (0.0, 1), (1.0, 2)):
        with pytest.raises(DimensionError, match=r"column %r in a system of %d "
                           "unknowns" % (key, ncols)):
            solve_raw([{}, {key: 1}], [1, 1], ncols=ncols)


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


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_zero_target_gives_the_kernel_of_the_bracket(name, degree, request):
    # the kernel of Y -> [[Y, P]] at degree D: dimension 4, 10 (frozen in
    # derived_constants.json), 20 and 35 for D = 3..6
    p = request.getfixturevalue(name)
    frozen = catalog.derived_constants()["kernel_dim_%s_d4" % name.lower()]
    kernel_dim = {3: 4, 4: frozen, 5: 20, 6: 35}[degree]
    zero = Multivector.zero(4)
    sol = trivialize(zero, p, degree)
    assert sol.status == "solved" and sol.particular.is_zero()
    assert sol.kernel_dim == kernel_dim
    for k in sol.kernel_basis:
        assert not k.is_zero() and schouten(k, p).is_zero()
    system = assemble(zero, p, AnsatzSpec(4, degree))
    args = (system.matrix, system.rhs, system.row_labels, system.n_cols)
    assert_same(solve_raw(*args), rational_solve_raw(*args), None)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_assembled_systems_match_bareiss(name, degree, request):
    p = request.getfixturevalue(name)
    q = schouten(_random_field(random.Random(10 + degree), degree), p)
    system = assemble(q, p, AnsatzSpec(4, degree))
    ncols = system.n_cols
    dense = [[row.get(c, 0) for c in range(ncols)] for row in system.matrix]
    assert dense_to_sparse(dense) == system.matrix
    args = (system.matrix, system.rhs, system.row_labels, ncols)
    got = solve_raw(*args)
    assert_same(got, bareiss_solve_raw(dense, system.rhs, system.row_labels, ncols),
                None)
    assert_same(got, rational_solve_raw(*args), None)
