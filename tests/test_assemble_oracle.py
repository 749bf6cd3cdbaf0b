"""``assemble`` against the system built from one bracket per unknown.

``bracket_system`` is the assembly that the derivative table replaced: column
k is ``schouten(e_k, P)`` for the k-th ansatz unknown e_k, fed through
``multivector_columns_system`` over the same row grid.  The two must agree
field by field (rows, right-hand side, row labels, column labels), and no
row may store a zero.
"""

import random
from fractions import Fraction

import pytest

from poissonflow import catalog
from poissonflow.cohomsolve import (AnsatzSpec, assemble, monomials,
                                    multivector_columns_system, solve)
from poissonflow.multivec import Multivector, parse_multivector, schouten
from poissonflow.ratpoly import Poly


def bracket_system(q, p, spec):
    r = spec.nvars
    if p.is_zero():
        grid = None
    else:
        deg_p = next(iter(p.components.values())).is_homogeneous()
        comps = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        grid = [(c, m) for c in comps for m in monomials(r, spec.degree + deg_p - 1)]
    basis = spec.basis()
    columns = [schouten(Multivector(r, {(i,): Poly.monomial(r, exps)}), p)
               for (i, exps) in basis]
    rows, rhs, labels, ncols = multivector_columns_system(columns, q, grid)
    return rows, rhs, labels, basis, ncols


def seeded_field(rng, spec):
    coeffs = [rng.randint(-3, 3) if rng.random() < 0.3 else 0
              for _ in range(spec.unknown_count)]
    return spec.field_from_coefficients(coeffs)


def assert_same_system(q, p, spec):
    got = assemble(q, p, spec)
    rows, rhs, labels, basis, ncols = bracket_system(q, p, spec)
    assert got.row_labels == labels
    assert got.col_labels == basis and got.n_cols == ncols
    assert got.rhs == rhs
    assert got.matrix == rows
    for row in got.matrix:
        assert all(row.values()), "stored zero in an assembled row"
        assert all(0 <= c < ncols for c in row)
        assert not any(isinstance(x, Fraction) and x.denominator == 1
                       for x in row.values())
    return got


CASES = [pytest.param(name, d, id="%s-D%d" % (name, d))
         for name, top in (("P1", 6), ("P2", 6), ("gl2kk", 3),
                           ("nambu-cubic", 4), ("nambu-quartic", 4))
         for d in range(top + 1)]


@pytest.mark.parametrize("name, degree", CASES)
def test_assemble_matches_one_bracket_per_unknown(name, degree):
    p = catalog.get(name).payload
    spec = AnsatzSpec(p.nvars, degree)
    rng = random.Random(degree)
    q = schouten(seeded_field(rng, spec), p)
    assert_same_system(q, p, spec)
    assert_same_system(Multivector.zero(p.nvars), p, spec)


def test_assemble_with_fraction_coefficients(P1):
    p = P1.scale(Fraction(2, 3))
    for degree in range(4):
        spec = AnsatzSpec(4, degree)
        q = schouten(seeded_field(random.Random(degree), spec), p)
        assert_same_system(q, p, spec)


def test_assemble_over_the_zero_bivector_with_zero_target():
    for r, degree in ((1, 0), (2, 1), (3, 1), (3, 2), (4, 3)):
        spec = AnsatzSpec(r, degree)
        zero = Multivector.zero(r)
        got = assert_same_system(zero, zero, spec)
        assert got.matrix == [] and got.n_cols == spec.unknown_count
        sol = solve(got)
        assert sol.status == "solved"
        assert sol.kernel_dim == spec.unknown_count


def test_assemble_over_the_zero_bivector_with_nonzero_target():
    q = parse_multivector("(x1^2) xi1 xi2 + (-2*x2*x3) xi2 xi3", 3)
    spec = AnsatzSpec(3, 1)
    got = assert_same_system(q, Multivector.zero(3), spec)
    assert got.row_labels == [((1, 2), (2, 0, 0)), ((2, 3), (0, 1, 1))]
    assert all(row == {} for row in got.matrix)
    sol = solve(got)
    assert sol.status == "infeasible"
    idx, exps = sol.witness
    assert q.component(idx).terms[exps]
