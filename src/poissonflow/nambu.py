"""Determinant-type Poisson brackets on R^3 and their tangent directions.

{f,g} = rho * det d(a,f,g)/d(x,y,z) defines a Poisson bivector for every
Casimir a and density rho; componentwise P^{ij} = eps^{ijk} rho d_k a.
These brackets are always Poisson and supply arbitrarily high coefficient
degrees, which makes them the standard probe family for graph flows.
"""

from __future__ import annotations

from .cohomsolve import _homdeg, monomials, multivector_columns_system, solve_raw
from .errors import DimensionError, PreconditionError
from .multivec import Multivector, jacobiator
from .ratpoly import Poly, _number_text, common_degree

_EPS = {(1, 2): 3, (1, 3): 2, (2, 3): 1}
_EPS_SIGN = {(1, 2): 1, (1, 3): -1, (2, 3): 1}


def _bivector(a: Poly, rho: Poly) -> Multivector:
    comps = {}
    for (i, j), k in _EPS.items():
        c = rho * a.partial(k)
        if _EPS_SIGN[(i, j)] < 0:
            c = -c
        if c:
            comps[(i, j)] = c
    return Multivector(3, comps)


def nambu_bivector(a: Poly, rho: Poly | None = None) -> Multivector:
    """P with P^{12} = rho*da/dz, P^{13} = -rho*da/dy, P^{23} = rho*da/dx."""
    if a.nvars != 3:
        raise PreconditionError("Casimir must be a polynomial on R^3")
    if rho is None:
        rho = Poly.constant(3, 1)
    if rho.nvars != 3:
        raise PreconditionError("density must be a polynomial on R^3")
    p = _bivector(a, rho)
    # structurally guaranteed; kept as a cheap load-time invariant
    if not jacobiator(p).is_zero():
        raise AssertionError("determinant bracket failed the Jacobi identity")
    return p


def weight_degree(p: Poly, weights):
    """Common weighted degree of all terms, None if mixed, ANY_DEGREE for 0.

    Takes one weight per variable of p."""
    if len(weights) != p.nvars:
        raise DimensionError("%d weights for a polynomial in %d variables"
                             % (len(weights), p.nvars))
    return common_degree(sum(w * e for w, e in zip(weights, exps))
                         for exps in p.terms)


def homogenizing_field_exists(a: Poly, weights=(1, 1, 1)):
    """Whether some polynomial vector field V solves P = [[V, P]] for the
    density-one bracket of a weight-homogeneous Casimir a.

    Returns (weight degree of a, flag); the solvability criterion is that
    the weight degree differs from the sum of the coordinate weights, which
    holds for a = 0, where P = 0 and every V solves.
    Raises when a is not weight-homogeneous for the given weights.
    """
    wa = weight_degree(a, weights)
    if wa is None:
        raise PreconditionError(
            "Casimir is not weight-homogeneous for weights (%s)"
            % ", ".join(_number_text(w) for w in weights))
    return wa, wa != sum(weights)


def tangent_fit(q: Multivector, a: Poly, rho: Poly | None = None):
    """Fit a bivector as a tangent direction of the bracket family at (a, rho):

        Q = P(a, rho_dot) + P(a_dot, rho)

    with homogeneous polynomial unknowns (a_dot, rho_dot) of the degrees
    forced by the target (no columns for a zero factor: P(0,.) = P(.,0) = 0).
    Returns (status, a_dot, rho_dot): "solved" exhibits Q as an
    infinitesimal motion of Casimir and density, "infeasible" means no fit
    exists at those degrees.
    """
    if rho is None:
        rho = Poly.constant(3, 1)
    if q.nvars != 3:
        raise PreconditionError("tangent fit lives on R^3")
    if q.is_zero():
        return "solved", Poly.zero(3), Poly.zero(3)
    dq = _homdeg(q, "target bivector")

    columns, kinds = [], []
    if a:
        for exps in monomials(3, dq + 1 - a.degree()):
            columns.append(_bivector(a, Poly.monomial(3, exps)))
            kinds.append(("rho", exps))
    if rho and dq + 1 > rho.degree():  # a constant a_dot moves nothing
        for exps in monomials(3, dq + 1 - rho.degree()):
            columns.append(_bivector(Poly.monomial(3, exps), rho))
            kinds.append(("a", exps))
    raw = solve_raw(*multivector_columns_system(columns, q))
    if raw.status != "solved":
        return "infeasible", None, None
    adot_terms, rhodot_terms = {}, {}
    for k, c in raw.particular.items():
        kind, exps = kinds[k]
        (adot_terms if kind == "a" else rhodot_terms)[exps] = c
    return "solved", Poly._raw(3, adot_terms), Poly._raw(3, rhodot_terms)
