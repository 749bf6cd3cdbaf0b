"""Exact polynomial arithmetic: examples, oracles, ring axioms."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonflow.errors import DimensionError, ParseError
from poissonflow.ratpoly import ANY_DEGREE, Poly, parse_poly, render_poly


def P(text, nvars=None):
    return parse_poly(text, nvars)


# -- addition ------------------------------------------------------------


def test_add_cancellation():
    assert P("x1 + x2") + P("x1 - x2") == P("2*x1", 2)


def test_add_identity():
    p = P("3*x1^2*x2 - 1/2*x3")
    assert p + Poly.zero(3) == p


def test_add_bracket_components():
    # sums of the cubic bracket components stay termwise exact
    lhs = P("x1^2*x2 + x2^2*x3") + P("x1^2*x3 + x2*x3^2")
    assert lhs == P("x1^2*x2 + x2^2*x3 + x1^2*x3 + x2*x3^2")


def test_add_dimension_error():
    with pytest.raises(DimensionError):
        P("x1", 1) + P("x1", 2)


def test_constructors_reject_malformed_exponents_and_indices():
    with pytest.raises(DimensionError, match="does not have length 2"):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(2, {(1, -1): 1})
    for i in (0, 3):
        with pytest.raises(IndexError, match="out of range 1..2"):
            Poly.variable(2, i)


# -- multiplication ------------------------------------------------------


def test_mul_basic():
    assert P("x1") * P("x1") == P("x1^2")
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def mul_oracle(p, q):
    """Naive list-based expansion, no dict merging on the way."""
    pairs = []
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            pairs.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
    out = Poly.zero(p.nvars)
    for exps, c in pairs:
        out = out + Poly(p.nvars, {exps: c})
    return out


def random_homogeneous(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.randint(-5, 5)
    return Poly(nvars, terms)


def test_mul_degree_additivity_against_oracle():
    rng = random.Random(42)
    for _ in range(50):
        nvars = rng.randint(1, 4)
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        p = random_homogeneous(rng, nvars, d1)
        q = random_homogeneous(rng, nvars, d2)
        prod = p * q
        assert prod == mul_oracle(p, q)
        if p and q and prod:
            assert prod.degree() == d1 + d2
            assert prod.is_homogeneous() == d1 + d2


# -- differentiation ------------------------------------------------------


def test_partial_basic():
    assert P("x1^2*x2", 3).partial(1) == P("2*x1*x2", 3)
    assert P("x1^2*x2", 3).partial(3) == Poly.zero(3)
    with pytest.raises(IndexError):
        P("x1", 1).partial(2)


def test_euler_identity_on_catalog_polynomials():
    # sum_i x^i d_i p = d*p for homogeneous p
    for text, d in [("x1^2*x2", 3), ("x1^2*x2 + x2^2*x3", 3),
                    ("-48*x1^5*x2 - 288*x1^3*x2^2*x3", 6)]:
        p = P(text, 4)
        acc = Poly.zero(4)
        for i in range(1, 5):
            acc = acc + Poly.variable(4, i) * p.partial(i)
        assert acc == p.scale(d)


# -- homogeneity ----------------------------------------------------------


def test_is_homogeneous():
    assert P("x1^2*x2 + x2^2*x3").is_homogeneous() == 3
    assert P("x1 + x1^2").is_homogeneous() is None
    assert Poly.zero(2).is_homogeneous() == ANY_DEGREE


# -- ring axioms (property-based) -----------------------------------------


@st.composite
def polys(draw, nvars=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        num = draw(st.integers(-9, 9))
        den = draw(st.sampled_from([1, 1, 2, 3]))
        terms[exps] = terms.get(exps, 0) + Fraction(num, den)
    return Poly(nvars, terms)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_coefficients_stay_reduced(p, q):
    for poly in (p + q, p * q, p - q):
        for c in poly.terms.values():
            assert c != 0
            assert c.denominator > 0
            if isinstance(c, Fraction):
                assert c.denominator > 1  # unit denominators collapse to int


def test_no_overflow_in_high_powers():
    p = P("x1 + 1", 1)
    acc = Poly.constant(1, 1)
    for _ in range(50):
        acc = acc * p
    # binomial coefficients appear exactly
    assert acc.terms[(25,)] == comb(50, 25)
    assert acc.terms[(0,)] == 1


# -- rendering and parsing -------------------------------------------------


def test_render_leading_term_first():
    text = "-48*x1^5*x2 - 288*x1^3*x2^2*x3"
    assert render_poly(P(text, 4)) == text


def test_render_omits_unit_denominator_and_exponent_one():
    assert render_poly(P("1/2*x1 + x2^1", 2)) == "1/2*x1 + x2"
    assert render_poly(Poly.zero(3)) == "0"
    assert render_poly(P("-x1", 1)) == "-x1"


def test_parse_whitespace_and_fractions():
    assert P("  - 48*x1^5 *x2  + 1/2 * x3 ") == P("-48*x1^5*x2 + 1/2*x3")


NINES = "9" * 5000  # 10**5000 - 1


@pytest.mark.parametrize("text, value", [
    (NINES, 10 ** 5000 - 1),
    ("-" + NINES, 1 - 10 ** 5000),
    ("2/" + NINES, Fraction(2, 10 ** 5000 - 1)),
    ("-" + NINES + "/2", Fraction(1 - 10 ** 5000, 2)),
    ("1" + "0" * 8000, 10 ** 8000),
], ids=["int", "negative", "denominator", "numerator", "three-chunks"])
def test_long_coefficients_round_trip(text, value):
    # past the interpreter's default int <-> str digit limit of 4300
    p = Poly.constant(0, value)
    assert parse_poly(text) == p
    assert render_poly(p) == text
    q = Poly.monomial(2, (1, 2), value)
    assert parse_poly(render_poly(q), 2) == q


def test_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        p = random_homogeneous(rng, nvars, rng.randint(0, 4))
        assert parse_poly(render_poly(p), nvars) == p


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + @")
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x1^")
    with pytest.raises(ParseError):
        parse_poly("x1 + x5", nvars=2)
