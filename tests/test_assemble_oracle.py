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


# -- the edges of the packed codes' field width ---------------------------------
#
# ``assemble`` packs each exponent into a field of out_deg.bit_length() bits
# (at least one), so the widest exponents and the output degrees next to a
# power of two are where a field one bit too narrow would carry into its
# neighbour.  Over two variables the codes of one total degree stay distinct
# at any width, so only the cases over three can catch a narrow field.


@pytest.mark.parametrize("r, text", [
    pytest.param(2, "(x1^300*x2) xi1 xi2", id="R2"),
    pytest.param(3, "(x1^300*x2) xi1 xi2", id="R3"),
    pytest.param(3, "(x1*x3^300) xi1 xi2 + (x2^299*x3^2) xi2 xi3", id="R3-x3"),
])
@pytest.mark.parametrize("degree", [0, 1])
def test_assemble_with_an_exponent_past_a_byte(r, text, degree):
    p = parse_multivector(text, r)
    spec = AnsatzSpec(r, degree)
    q = schouten(seeded_field(random.Random(degree), spec), p)
    got = assert_same_system(q, p, spec)
    assert max(max(exps) for _, exps in got.row_labels) >= 300
    assert any(got.matrix)


WIDTH_EDGE_BRACKETS = {
    2: ("(3) xi1 xi2", "(x1 - 2*x2) xi1 xi2", "(x1*x2 + x2^2) xi1 xi2"),
    3: ("(1) xi1 xi2 + (2) xi2 xi3",
        "(x3) xi1 xi2 + (x1 - x2) xi1 xi3 + (x2) xi2 xi3",
        "(x1*x2) xi1 xi2 + (-x3^2) xi1 xi3 + (x1*x3 + x2^2) xi2 xi3"),
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("out_deg", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_assemble_at_output_degrees_next_to_a_power_of_two(r, out_deg):
    for text in WIDTH_EDGE_BRACKETS[r]:
        p = parse_multivector(text, r)
        deg_p = next(iter(p.components.values())).is_homogeneous()
        degree = out_deg - deg_p + 1
        if degree < 0:
            continue
        spec = AnsatzSpec(r, degree)
        q = schouten(seeded_field(random.Random(out_deg), spec), p)
        got = assert_same_system(q, p, spec)
        if out_deg:
            assert ((1, 2), (out_deg,) + (0,) * (r - 1)) in got.row_labels
        assert any(got.matrix)
