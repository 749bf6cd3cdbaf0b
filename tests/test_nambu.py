"""Determinant brackets: construction, homogenizing criterion, tangent fits."""

import pytest

from poissonflow.cli import main
from poissonflow.errors import PreconditionError
from poissonflow.multivec import (Multivector, euler_field, homogeneity_scale,
                                  jacobiator, schouten)
from poissonflow.nambu import (homogenizing_field_exists, nambu_bivector,
                               tangent_fit, weight_degree)
from poissonflow.orient import flow
from poissonflow.cohomsolve import trivialize
from poissonflow.ratpoly import ANY_DEGREE, Poly, parse_poly


def poly3(text):
    return parse_poly(text, 3)


def test_constant_leaf_structure():
    p = nambu_bivector(poly3("x3"))
    assert p.components == {(1, 2): Poly.constant(3, 1)}


def test_quartic_casimir_bracket(nambu_quartic):
    p = nambu_bivector(poly3("x1^4 + x2^4 + x3^4"))
    assert p == nambu_quartic
    assert jacobiator(p).is_zero()
    assert {c.is_homogeneous() for c in p.components.values()} == {3}
    assert homogeneity_scale(euler_field(3), p) == 1


def test_brackets_are_poisson_for_random_casimirs():
    import random
    rng = random.Random(50)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0, 0, 0]
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(3)] += 1
            terms[tuple(exps)] = rng.randint(-3, 3)
        a = Poly(3, terms)
        rho_terms = {(0, 0, 0): 1}
        if rng.random() < 0.5:
            rho_terms = {(1, 0, 0): rng.randint(1, 2)}
        rho = Poly(3, rho_terms)
        assert jacobiator(nambu_bivector(a, rho)).is_zero()


def test_dimension_guard():
    with pytest.raises(PreconditionError):
        nambu_bivector(parse_poly("x1^2", 2))


def test_weight_degree():
    assert weight_degree(poly3("x1^2*x2"), (1, 1, 1)) == 3
    assert weight_degree(poly3("x1^2 + x2"), (1, 2, 1)) == 2
    assert weight_degree(poly3("x1 + x2^2"), (1, 1, 1)) is None
    assert weight_degree(Poly.zero(3), (1, 1, 1)) == "any"


def test_zero_casimir_has_a_homogenizing_field(capsys):
    # P = 0, so every V solves [[V, P]] = P
    assert homogenizing_field_exists(Poly.zero(3)) == (ANY_DEGREE, True)
    assert main(["nambu", "--casimir", "0"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_homogenizing_field_criterion():
    # cubic Casimir: weight degree equals the weight sum, no polynomial field
    wa, exists = homogenizing_field_exists(poly3("1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3"))
    assert (wa, exists) == (3, False)
    wa, exists = homogenizing_field_exists(poly3("x1^4 + x2^4 + x3^4"))
    assert (wa, exists) == (4, True)
    with pytest.raises(PreconditionError):
        homogenizing_field_exists(poly3("x1 + x2^2"))


def test_flow_value_recorded_zero(gamma3, nambu_quartic):
    assert flow(gamma3, nambu_quartic).is_zero()


def test_trivialize_flow_run_and_record(gamma3, nambu_quartic):
    # the flow value vanishes here, so the solver sees the zero target:
    # recorded outcome is solved with trivial particular and kernel dim 6
    q = flow(gamma3, nambu_quartic)
    sol = trivialize(q, nambu_quartic, 4)
    assert sol.status == "solved"
    assert sol.particular.is_zero()
    assert sol.kernel_dim == 6


def test_tangent_fit_reconstructs_nonzero_flow(gamma3):
    from poissonflow.nambu import _bivector

    a = poly3("x1^4 + x2^4 + x3^4")
    rho = poly3("x1")
    p = nambu_bivector(a, rho)
    q = flow(gamma3, p)
    assert not q.is_zero()
    assert schouten(p, q).is_zero()
    status, adot, rhodot = tangent_fit(q, a, rho)
    assert status == "solved"
    assert _bivector(a, rhodot) + _bivector(adot, rho) == q


@pytest.mark.parametrize("a, rho, adot, rhodot", [
    ("0", "1", "x1^3", "0"),
    ("x1^3", "0", "0", "1"),
], ids=["zero-casimir", "zero-density"])
def test_tangent_fit_with_a_zero_factor(a, rho, adot, rhodot):
    # only the nonzero factor has columns: P(0, .) = P(., 0) = 0
    from poissonflow.nambu import _bivector

    q = nambu_bivector(poly3("x1^3"))
    a, rho = poly3(a), poly3(rho)
    fit = tangent_fit(q, a, rho)
    assert fit == ("solved", poly3(adot), poly3(rhodot))
    assert _bivector(a, fit[2]) + _bivector(fit[1], rho) == q


@pytest.mark.parametrize("call, expected", [
    (lambda: nambu_bivector(poly3("x3"), Poly.constant(2, 1)),
     (PreconditionError, "density")),
    (lambda: tangent_fit(Multivector(4, {(1, 2): Poly.variable(4, 1)}),
                         poly3("x3")), (PreconditionError, "R\\^3")),
    (lambda: tangent_fit(Multivector(3, {(1, 2): poly3("x1 + x2^2")}),
                         poly3("x3")), (PreconditionError, "non-homogeneous")),
    (lambda: tangent_fit(Multivector(3, {(1, 2): poly3("x1"),
                                         (1, 3): poly3("x2^2")}),
                         poly3("x3")), (PreconditionError, "mixed")),
    (lambda: tangent_fit(Multivector(3, {(1, 2): poly3("x1")}),
                         poly3("x1^3 + x2^3 + x3^3")), "infeasible"),
], ids=["density-not-on-r3", "target-not-on-r3",
        "non-homogeneous-target", "mixed-degree-target", "infeasible"])
def test_nambu_preconditions_and_statuses(call, expected):
    if isinstance(expected, str):
        assert call()[0] == expected
    else:
        with pytest.raises(expected[0], match=expected[1]):
            call()


def test_tangent_fit_zero_target():
    status, adot, rhodot = tangent_fit(
        nambu_bivector(poly3("x3")).scale(0), poly3("x3"))
    assert status == "solved"
    assert adot.is_zero() and rhodot.is_zero()


def test_tangent_fit_infeasible_outside_family():
    # a bivector that is no infinitesimal motion of (a, rho) at those degrees
    from poissonflow.multivec import Multivector

    a = poly3("x3")
    q = Multivector(3, {(2, 3): poly3("x1")})
    status, adot, rhodot = tangent_fit(q, a)
    # d(adot)/dz-free component (2,3) would need da/dx-type terms; with
    # Casimir z the column space misses it or fits it -- assert exactness
    if status == "solved":
        from poissonflow.nambu import _bivector
        assert _bivector(a, rhodot) + _bivector(adot, Poly.constant(3, 1)) == q
    else:
        assert (adot, rhodot) == (None, None)
