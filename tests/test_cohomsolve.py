"""Exact coboundary solver: assembly counts, elimination, gauge structure."""

import random
from fractions import Fraction
from math import comb

import pytest

from poissonflow.cohomsolve import (AnsatzSpec, assemble, default_degree,
                                    monomials, solve_raw, trivialize)
from poissonflow.errors import DimensionError, PreconditionError
from poissonflow.multivec import Multivector, hamiltonian_field, schouten
from poissonflow.ratpoly import Poly, parse_poly
from test_solve_sparse import dense_to_sparse, sparse


def mv(nvars, **components):
    comps = {}
    for key, text in components.items():
        idx = tuple(int(ch) for ch in key[1:])
        comps[idx] = parse_poly(text, nvars)
    return Multivector(nvars, comps)


# -- independent oracle: plain rational Gauss-Jordan ------------------------


def rref_rank_and_solution(matrix, rhs):
    """Fraction-arithmetic reduced row echelon; returns (rank, solution|None)."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    rank = 0
    piv_cols = []
    for col in range(ncols):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        piv = rows[rank][col]
        rows[rank] = [x / piv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        piv_cols.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][ncols]:
            return rank, None
    x = [Fraction(0)] * ncols
    for k, col in enumerate(piv_cols):
        x[col] = rows[k][ncols]
    return rank, x


def random_system(rng, nrows, ncols):
    matrix = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
               for _ in range(ncols)] for _ in range(nrows)]
    rhs = [rng.randint(-6, 6) for _ in range(nrows)]
    return matrix, rhs


def test_solve_raw_against_rational_elimination():
    rng = random.Random(40)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        matrix, rhs = random_system(rng, nrows, ncols)
        raw = solve_raw(dense_to_sparse(matrix), rhs, None, ncols)
        rank, oracle = rref_rank_and_solution(matrix, rhs)
        if oracle is None:
            assert raw.status == "infeasible"
            continue
        assert raw.status == "solved"
        # the particular solution satisfies every equation exactly
        for row, b in zip(matrix, rhs):
            assert sum(row[c] * x for c, x in raw.particular.items()) == b
        # kernel dimension matches rank, kernel vectors annihilate A
        assert len(raw.kernel) == ncols - rank
        for k in raw.kernel:
            for row in matrix:
                assert sum(row[c] * x for c, x in k.items()) == 0


def test_solve_raw_fractional_rows():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [0, 1]]
    rhs = [Fraction(5, 6), 1]
    raw = solve_raw(dense_to_sparse(matrix), rhs, None, 2)
    assert raw.status == "solved"
    assert raw.particular == sparse([Fraction(1), Fraction(1)])


def test_solve_raw_infeasible_names_witness():
    matrix = [[1, 1], [1, 1]]
    rhs = [0, 1]
    raw = solve_raw(dense_to_sparse(matrix), rhs, ["first", "second"], 2)
    assert raw.status == "infeasible"
    assert raw.witness == "second"


# -- ansatz bookkeeping -------------------------------------------------------


def test_default_degree_examples(P1, QP1):
    assert default_degree(QP1, P1) == 4
    # equal coefficient degrees force linear fields
    p = mv(3, i12="x1^2, ".replace(",", ""))
    q = mv(3, i13="x2^2")
    assert default_degree(q, p) == 1
    # degree-6 target over a cubic bracket on R^3
    q6 = mv(3, i12="x1^6")
    p3 = mv(3, i12="x3^3")
    assert default_degree(q6, p3) == 4
    with pytest.raises(PreconditionError):
        default_degree(mv(3, i12="x1 + x1^2"), p)


def test_unknown_count_formula():
    for r in (2, 3, 4):
        for d in (0, 1, 3, 4):
            spec = AnsatzSpec(r, d)
            assert spec.unknown_count == r * comb(d + r - 1, r - 1)
            assert len(spec.basis()) == spec.unknown_count
            assert len(monomials(r, d)) == comb(d + r - 1, r - 1)


def test_assemble_row_and_column_counts(P1, QP1):
    spec = AnsatzSpec(4, 4)
    sys = assemble(QP1, P1, spec)
    assert sys.n_cols == 4 * comb(4 + 3, 3) == 140
    assert sys.n_rows == comb(4, 2) * comb(6 + 3, 3) == 504
    assert len(sys.rhs) == sys.n_rows
    # sparse rows over the unknowns, with no stored zero; grid rows without
    # terms are empty
    assert all(row.keys() <= set(range(140)) and all(row.values())
               for row in sys.matrix)
    assert any(not row for row in sys.matrix)


def test_assemble_structural_degree_mismatch(P1, QP1):
    with pytest.raises(PreconditionError):
        assemble(QP1, P1, AnsatzSpec(4, 3))


@pytest.mark.parametrize("call, error, match", [
    (lambda p1, q: assemble(mv(3, i12="x1"), p1, AnsatzSpec(4, 2)),
     DimensionError, "dimension mismatch"),
    (lambda p1, q: assemble(q, mv(4, i1="x1"), AnsatzSpec(4, 2)),
     PreconditionError, "P must be a bivector"),
    (lambda p1, q: assemble(mv(4, i1="x1"), p1, AnsatzSpec(4, 2)),
     PreconditionError, "Q must be a bivector"),
    (lambda p1, q: AnsatzSpec(4, -1), PreconditionError, "nonnegative"),
    (lambda p1, q: AnsatzSpec(4, 1).field_from_coefficients([1] * 15),
     DimensionError, "wrong length"),
], ids=["dimension-mismatch", "p-not-bivector", "q-not-bivector",
        "negative-degree", "coefficient-count"])
def test_malformed_systems_rejected(call, error, match, P1, QP1):
    with pytest.raises(error, match=match):
        call(P1, QP1)


# -- trivialization -----------------------------------------------------------


def test_trivialize_catalog_p1(P1, QP1, Y1):
    sol = trivialize(QP1, P1)
    assert sol.status == "solved"
    assert (schouten(sol.particular, P1) - QP1).is_zero()
    for k in sol.kernel_basis:
        assert schouten(k, P1).is_zero()
    assert sol.contains(Y1)
    assert not sol.contains(Y1.scale(2))


def test_trivialize_catalog_p2(P2, QP2, Y2):
    sol = trivialize(QP2, P2)
    assert sol.status == "solved"
    assert sol.contains(Y2)


def test_gauge_coset(P1, QP1):
    rng = random.Random(41)
    sol = trivialize(QP1, P1)
    combo = sol.particular
    for k in sol.kernel_basis:
        combo = combo + k.scale(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
    # any kernel shift is again a solution, and differences lie in the kernel
    assert schouten(combo, P1) == QP1
    assert sol.contains(combo)


def test_trivialize_zero_target(P1):
    sol = trivialize(Multivector.zero(4), P1, 4)
    assert sol.status == "solved"
    assert sol.particular.is_zero()
    assert sol.kernel_dim == 10
    with pytest.raises(PreconditionError):
        trivialize(Multivector.zero(4), P1)  # degree required for zero target


def test_hamiltonian_fields_lie_in_the_kernel_space(P1):
    # [[P1,h]] has coefficient degree deg(h) + deg(P1) - 1, so scalars of
    # degree D + 1 - deg(P1) = 2 generate kernel elements at D = 4
    rng = random.Random(42)
    sol = trivialize(Multivector.zero(4), P1, 4)
    for _ in range(5):
        terms = {}
        for _ in range(3):
            exps = [0, 0, 0, 0]
            for _ in range(2):
                exps[rng.randrange(4)] += 1
            terms[tuple(exps)] = rng.randint(-3, 3)
        h = Poly(4, terms)
        xh = hamiltonian_field(P1, h)
        degs = {p.is_homogeneous() for p in xh.components.values()}
        assert degs <= {4}
        assert sol.contains(xh)


def test_trivialize_rejects_non_cocycles(P1):
    bad = mv(4, i12="x1^6")
    with pytest.raises(PreconditionError):
        trivialize(bad, P1)


def test_trivialize_infeasible_cubic_casimir():
    # the quadratic determinant bracket of a cubic Casimir admits no
    # polynomial field with [[V,P]] = P; the homogeneity-forced degree is 1
    from poissonflow.nambu import nambu_bivector

    p = nambu_bivector(parse_poly("1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3", 3))
    sol = trivialize(p, p, 1)
    assert sol.status == "infeasible"
    assert sol.witness is not None
    assert not sol.contains(Multivector.zero(3))
    # contrast: a cubic-coefficient bracket is homogenized by the Euler field
    pq = nambu_bivector(parse_poly("x1^4 + x2^4 + x3^4", 3))
    sol2 = trivialize(pq, pq, 1)
    assert sol2.status == "solved"
    assert schouten(sol2.particular, pq) == pq
