"""Schouten calculus against independent classical-tensor oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from poissonflow.errors import DimensionError, ParseError, PreconditionError
from poissonflow.multivec import (Multivector, euler_field, hamiltonian_field,
                                  homogeneity_scale, jacobiator,
                                  lie_derivative, parse_multivector,
                                  poisson_bracket, render_multivector,
                                  schouten, schouten_sym)
from poissonflow.ratpoly import ANY_DEGREE, Poly, parse_poly


def mv(nvars, **components):
    """mv(3, i12="x1", i="x2") builds from keys like i12 (xi1 xi2) or i (scalar)."""
    comps = {}
    for key, text in components.items():
        idx = tuple(int(ch) for ch in key[1:])
        comps[idx] = parse_poly(text, nvars)
    return Multivector(nvars, comps)


def rand_poly(rng, nvars, maxdeg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.randint(-3, 3)
    return Poly(nvars, terms)


def rand_grade(rng, nvars, grade, maxdeg=2):
    comps = {}
    for idx in combinations(range(1, nvars + 1), grade):
        if rng.random() < 0.75:
            comps[idx] = rand_poly(rng, nvars, maxdeg)
    return Multivector(nvars, comps)


# -- independent oracle: classical tensor Lie derivative -------------------


def _signed_component(omega, idx):
    """Antisymmetric extension of the stored components."""
    if len(set(idx)) != len(idx):
        return Poly.zero(omega.nvars)
    order = tuple(sorted(idx))
    inv = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
              if idx[a] > idx[b])
    p = omega.components.get(order)
    if p is None:
        return Poly.zero(omega.nvars)
    return -p if inv % 2 else p


def lie_oracle(v, omega):
    """(L_V W)^I = V^m d_m W^I - sum_slots d_m V^{I_a} W^{I|a->m}.

    Classical contravariant-tensor transport formula, built on polynomial
    calculus only -- no odd variables involved.
    """
    r = omega.nvars
    out = {}
    grades = {len(i) for i in omega.components} or {0}
    for k in grades:
        for idx in combinations(range(1, r + 1), k):
            acc = Poly.zero(r)
            for m in range(1, r + 1):
                vm = v.components.get((m,))
                if vm is not None:
                    acc = acc + vm * _signed_component(omega, idx).partial(m)
                for slot in range(k):
                    repl = idx[:slot] + (m,) + idx[slot + 1:]
                    w = _signed_component(omega, repl)
                    if w:
                        via = v.components.get((idx[slot],))
                        if via is not None:
                            acc = acc - w * via.partial(m)
            if acc:
                out[idx] = acc
    return Multivector(r, out)


def test_lie_derivative_matches_tensor_transport():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 3)
        v = rand_grade(rng, r, 1)
        omega = rand_grade(rng, r, rng.randint(0, r))
        assert lie_derivative(v, omega) == lie_oracle(v, omega)


def test_lie_derivative_composition_law():
    rng = random.Random(12)
    for _ in range(25):
        r = rng.randint(2, 3)
        v, w = rand_grade(rng, r, 1), rand_grade(rng, r, 1)
        omega = rand_grade(rng, r, rng.randint(0, r))
        lhs = lie_derivative(schouten(v, w), omega)
        rhs = (lie_derivative(v, lie_derivative(w, omega))
               - lie_derivative(w, lie_derivative(v, omega)))
        assert lhs == rhs


def test_lie_derivative_of_scalar_is_directional_derivative():
    v = mv(2, i1="x2", i2="x1^2")
    f = mv(2, i="x1*x2")
    expect = mv(2, i="x2^2 + x1^3")
    assert lie_derivative(v, f) == expect
    with pytest.raises(PreconditionError):
        lie_derivative(f, v)


# -- independent oracle: S3 triple sum for the Jacobi identity --------------


def bracket_of(p, f, g):
    """{f,g} = sum d_a f P^{ab} d_b g via polynomial calculus only."""
    r = p.nvars
    acc = Poly.zero(r)
    for (a, b), coeff in p.components.items():
        acc = acc + f.partial(a) * coeff * g.partial(b)
        acc = acc - f.partial(b) * coeff * g.partial(a)
    return acc


def jacobi_defect_oracle(p, i, j, k):
    r = p.nvars
    x = [None] + [Poly.variable(r, m) for m in range(1, r + 1)]
    acc = Poly.zero(r)
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        acc = acc + bracket_of(p, bracket_of(p, x[a], x[b]), x[c])
    return acc


def test_jacobiator_matches_triple_sum_oracle():
    rng = random.Random(13)
    for _ in range(40):
        r = 3
        p = rand_grade(rng, r, 2)
        jac = jacobiator(p)
        for (i, j, k) in combinations(range(1, r + 1), 3):
            got = jac.components.get((i, j, k), Poly.zero(r))
            assert got == -jacobi_defect_oracle(p, i, j, k)


def test_jacobiator_zero_and_nonzero_cases(P1, P2):
    assert jacobiator(P1).is_zero()
    assert jacobiator(P2).is_zero()
    # decomposable with commuting factors: Poisson
    assert jacobiator(mv(3, i12="x1", i23="x3")).is_zero()
    # generic non-Poisson bivector
    bad = mv(3, i12="x1", i13="x3")
    jac = jacobiator(bad)
    assert not jac.is_zero()
    assert jac.components[(1, 2, 3)] == -jacobi_defect_oracle(bad, 1, 2, 3)
    with pytest.raises(PreconditionError):
        jacobiator(mv(2, i1="x1"))


# -- bracket identities ------------------------------------------------------


def test_self_bracket_of_vector_fields_vanishes():
    rng = random.Random(14)
    for _ in range(20):
        r = rng.randint(1, 3)
        x = rand_grade(rng, r, 1)
        assert schouten(x, x).is_zero()


def test_commutator_reduction():
    v = mv(2, i1="x2")
    w = mv(2, i2="x1")
    # [x2 d1, x1 d2] = x2 d2 - x1 d1
    assert schouten(v, w) == mv(2, i2="x2", i1="-x1")


def test_euler_scale_on_catalog(P1, euler4):
    assert schouten(euler4, P1) == P1


def test_coboundary_identity(P1, Y1, QP1):
    assert schouten(Y1, P1) == QP1


def test_graded_skew_and_jacobi_small():
    rng = random.Random(15)
    for _ in range(60):
        r = rng.randint(1, 3)
        ka, kb, kc = (rng.randint(0, r) for _ in range(3))
        a, b, c = rand_grade(rng, r, ka), rand_grade(rng, r, kb), rand_grade(rng, r, kc)
        sign = -1 if ((ka - 1) * (kb - 1)) % 2 else 1
        assert schouten(b, a) == schouten(a, b).scale(-sign)
        lhs = (schouten(a, schouten(b, c))
               - schouten(b, schouten(a, c)).scale(sign))
        assert lhs == schouten(schouten(a, b), c)


def test_xi_degree_bookkeeping():
    rng = random.Random(16)
    for _ in range(40):
        r = 3
        ka, kb = rng.randint(0, r), rng.randint(0, r)
        a, b = rand_grade(rng, r, ka), rand_grade(rng, r, kb)
        out = schouten(a, b)
        if out:
            assert out.degree() == ka + kb - 1


def test_poisson_differential_squares_to_zero(P1):
    rng = random.Random(17)
    for _ in range(10):
        omega = Multivector.zero(4)
        for grade in range(5):
            if rng.random() < 0.6:
                omega = omega + rand_grade(rng, 4, grade, maxdeg=2)
        assert schouten(P1, schouten(P1, omega)).is_zero()


def test_hamiltonian_fields_are_cocycles(P1):
    rng = random.Random(18)
    for _ in range(10):
        h = rand_poly(rng, 4, maxdeg=3)
        xh = hamiltonian_field(P1, h)
        assert schouten(xh, P1).is_zero()


def test_poisson_bracket_composition(P1):
    f = parse_poly("x1", 4)
    g = parse_poly("x2", 4)
    # the composed bracket carries the opposite orientation to the component
    assert poisson_bracket(f, g, P1) == -P1.components[(1, 2)]
    assert poisson_bracket(g, f, P1) == P1.components[(1, 2)]
    # skew symmetry and Leibniz rule in the first slot
    h = parse_poly("x1*x4", 4)
    lhs = poisson_bracket(f * h, g, P1)
    assert lhs == poisson_bracket(f, g, P1) * h + poisson_bracket(h, g, P1) * f


# -- graded-symmetric wrapper -------------------------------------------------


def test_schouten_sym_signs(P1, euler4):
    assert schouten_sym(euler4, P1) == schouten(euler4, P1)
    assert schouten_sym(P1, P1) == -schouten(P1, P1)
    assert schouten_sym(P1, P1).is_zero()  # Poisson
    with pytest.raises(PreconditionError):
        schouten_sym(mv(2, i1="x1", i="1"), mv(2, i1="x1"))


# -- homogeneity -----------------------------------------------------------


def test_homogeneity_scale_cases(P1, QP1, euler4):
    assert homogeneity_scale(euler4, P1) == 1
    assert homogeneity_scale(euler4, QP1) == 4
    assert homogeneity_scale(euler_field(2), mv(2, i1="x1", i2="1")) is None
    assert homogeneity_scale(euler4, Multivector.zero(4)) == ANY_DEGREE
    # fractional scale via quadratic field
    v = mv(1, i1="1/2*x1")
    p = mv(1, i="x1^3")
    assert homogeneity_scale(v, p) == Fraction(3, 2)
    with pytest.raises(PreconditionError, match="must be a 1-vector"):
        homogeneity_scale(P1, P1)


def test_euler_field_values():
    assert euler_field(1) == mv(1, i1="x1")
    assert euler_field(4) == mv(4, i1="x1", i2="x2", i3="x3", i4="x4")
    with pytest.raises(ValueError):
        euler_field(0)
    f = mv(3, i="x1^2*x2")
    assert schouten(euler_field(3), f) == f.scale(3)


# -- text format -------------------------------------------------------------


def test_render_example_form():
    m = mv(3, i12="x1^2*x2 + x2^2*x3")
    assert render_multivector(m) == "(x1^2*x2 + x2^2*x3) xi1 xi2"


def test_round_trip_catalog(P1, P2, QP1, QP2, Y1, Y2):
    for m in (P1, P2, QP1, QP2, Y1, Y2):
        text = render_multivector(m)
        assert parse_multivector(text, nvars=4) == m
        assert render_multivector(parse_multivector(text, nvars=4)) == text


def test_round_trip_random():
    rng = random.Random(19)
    for _ in range(30):
        r = rng.randint(1, 4)
        m = Multivector.zero(r)
        for grade in range(r + 1):
            if rng.random() < 0.5:
                m = m + rand_grade(rng, r, grade)
        assert parse_multivector(render_multivector(m), nvars=r) == m


def test_parse_rejects_bad_input():
    from poissonflow.errors import ParseError
    with pytest.raises(ParseError):
        parse_multivector("(x1) xi2 xi1")   # decreasing indices
    with pytest.raises(ParseError):
        parse_multivector("")
    assert parse_multivector("0", nvars=3).is_zero()


@pytest.mark.parametrize("text, nvars, expected", [
    ("x1*x2 - 3", None, mv(2, i="x1*x2 - 3")),           # bare polynomial
    ("x1", 3, mv(3, i="x1")),
    ("(x1) xi1 - (x2) xi2", None, mv(2, i1="x1", i2="-x2")),
    ("(x1) xi1 + x2", None, ParseError),    # expected '(poly) xi...'
    ("(x1) xi1 (x2) xi2", None, ParseError),  # missing '+' or '-'
    ("(1) xi0 xi1", None, ParseError),      # xi indices start at 1
    ("(1) xi0", 2, ParseError),
    ("(x3) xi1", 2, ParseError),            # index beyond nvars
])
def test_parse_multivector_cases(text, nvars, expected):
    if isinstance(expected, Multivector):
        assert parse_multivector(text, nvars) == expected
    else:
        with pytest.raises(expected):
            parse_multivector(text, nvars)


def test_xi_index_below_one_reported_at_its_position():
    text = "(x1) xi1 + (1) xi0 xi2"
    with pytest.raises(ParseError) as exc:
        parse_multivector(text)
    assert exc.value.position == text.index("xi0") == 15


@pytest.mark.parametrize("components, error, match", [
    ({(3,): Poly.variable(2, 1)}, IndexError, "xi index out of range"),
    ({(0, 1): Poly.variable(2, 1)}, IndexError, "xi index out of range"),
    ({(2, 1): Poly.variable(2, 1)}, ValueError, "strictly increasing"),
    ({(1, 1): Poly.variable(2, 1)}, ValueError, "strictly increasing"),
    ({(1,): 1}, TypeError, "component must be a Poly"),
    ({(1,): Poly.variable(3, 1)}, DimensionError, "over 3 variables, expected 2"),
], ids=["index-past-nvars", "index-zero", "decreasing", "repeated", "not-a-poly",
        "other-dimension"])
def test_multivector_rejects_malformed_components(components, error, match):
    with pytest.raises(error, match=match):
        Multivector(2, components)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        schouten(mv(2, i1="x1"), mv(3, i1="x1"))
