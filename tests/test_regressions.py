"""Regression tests for representation limits, degenerate systems and CLI
failure exits."""

import random
import sys
import warnings
from fractions import Fraction

import pytest

import poissonflow.cohomsolve as cohomsolve
from poissonflow.cli import main
from poissonflow.cohomsolve import (AnsatzSpec, default_degree, monomials,
                                    multivector_columns_system, solve_raw,
                                    trivialize)
from poissonflow.errors import (DimensionError, MalformedGraphError,
                               PreconditionError)
from poissonflow.gracomplex import Graph, GraphSum, stick
from poissonflow.multivec import (Multivector, euler_field, hamiltonian_field,
                                  homogeneity_scale, parse_multivector,
                                  render_multivector, schouten)
from poissonflow.nambu import nambu_bivector, weight_degree
from poissonflow.orient import (cocycle1, directional_flow, evaluate, flow,
                                lift, merge)
from poissonflow.ratpoly import ANY_DEGREE, Poly, parse_poly
from poissonflow.verify import uniform_ratio
from test_solve_sparse import dense_to_sparse


# -- orient: exponents past eight bits -------------------------------------------


def test_lift_and_merge_keep_exponents_past_eight_bits():
    p = Multivector(2, {(1, 2): parse_poly("x1^256", 2)})
    assert render_multivector(merge(lift([p]))) == "(x1^256) xi1 xi2"


@pytest.mark.parametrize("e", [255, 256, 300])
def test_stick_flow_with_large_exponents(e):
    p = parse_multivector("(x1^%d*x3) xi1 xi2 + (x2) xi2 xi3" % e, 3)
    assert flow(stick(), p) == -schouten(p, p)


# -- orient: one vertex-count check for every placement sum ----------------------


def test_placement_sums_reject_mixed_vertex_counts(gamma3, gl2kk):
    wheel5 = Graph(6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                       (3, 5), (4, 6), (5, 6)))
    mixed = gamma3 + GraphSum.single(wheel5)
    with pytest.raises(PreconditionError, match="differing vertex counts"):
        flow(mixed, gl2kk)
    with pytest.raises(PreconditionError, match="differing vertex counts"):
        directional_flow(mixed, gl2kk, gl2kk)
    minus_euler = euler_field(4).scale(-1)  # [[-E, gl2kk]] = gl2kk
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mixed sum is not a cocycle
        with pytest.raises(PreconditionError, match="differing vertex counts"):
            cocycle1(mixed, minus_euler, gl2kk)


def test_cocycle1_over_the_zero_bivector(gamma3, euler4):
    # [[V,0]] = 0 = 0: the scale is "any", 0 is Poisson, and X = 0
    zero = Multivector.zero(4)
    assert cocycle1(gamma3, euler4, zero) == Multivector.zero(4)
    k4_minus_edge = GraphSum.single(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    assert not k4_minus_edge.is_zero()
    with pytest.raises(PreconditionError, match="has 5 edges, expected 6"):
        cocycle1(k4_minus_edge, euler4, zero)


def test_cli_cocycle1_over_the_zero_bivector(capsys):
    argv = ["cocycle1", "--graph", "tetrahedron", "--field", "euler",
            "--poisson", "0", "--nvars", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "0\n"


# -- orient: the theorem's second hypothesis, [[V,Q]] = nQ ------------------------


def sheared_determinant_bracket():
    """The image of the (x1^3 + x2^3 + x3^3, density x1) bracket and its
    Euler field under x3 -> x3 + x1^2: [[V,P]] = P, but [[V,Q]] != 4Q."""
    x = lambda text: parse_poly(text, 3)
    w = x("x3") - x("x1^2")
    p = nambu_bivector(x("x1^3 + x2^3") + w * w * w, x("x1"))
    v = parse_multivector("(x1) xi1 + (x2) xi2 + (x3 + x1^2) xi3", 3)
    return v, p


def test_cocycle1_checks_the_flow_hypothesis(gamma3, P1, euler4):
    # E plus the Hamiltonian field of x1 has scale 1 on P1 and cubic
    # coefficients; the flow of P1 is not homogeneous of scale 4 along it
    v = euler4 + hamiltonian_field(P1, parse_poly("x1", 4))
    assert homogeneity_scale(v, P1) == 1
    cases = [(v, P1), sheared_determinant_bracket()]
    for v, p in cases:
        assert homogeneity_scale(v, p) == 1
        with pytest.raises(PreconditionError, match="flow of the graph sum is "
                           "not homogeneous of scale 4 along the field"):
            cocycle1(gamma3, v, p)


def test_cli_cocycle1_with_the_flow_hypothesis_failing_exits_2(tmp_path, capsys):
    v, p = sheared_determinant_bracket()
    field, poisson = tmp_path / "field.txt", tmp_path / "poisson.txt"
    field.write_text(render_multivector(v))
    poisson.write_text(render_multivector(p))
    code = main(["cocycle1", "--graph", "tetrahedron", "--field", str(field),
                 "--poisson", str(poisson), "--nvars", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "not homogeneous of scale 4" in err


def random_affine_field(rng, r):
    comps = {}
    for i in range(1, r + 1):
        terms = {(0,) * r: rng.randint(-3, 3)}
        for j in range(r):
            terms[tuple(int(k == j) for k in range(r))] = rng.randint(-3, 3)
        comps[(i,)] = Poly(r, terms)
    return Multivector(r, comps)


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_affine_fields_move_the_flow_by_its_directional_flow(request, gamma3, name):
    # why cocycle1 evaluates the flow only for fields of degree >= 2: for
    # affine V, [[V, flow(P)]] = directional_flow(P, [[V,P]]), which is n flow(P)
    # once [[V,P]] = P
    p = request.getfixturevalue(name)
    q = flow(gamma3, p)
    rng = random.Random(1300 + int(name[1]))
    for _ in range(2):
        v = random_affine_field(rng, 4)
        lhs = schouten(v, q)
        assert not lhs.is_zero()
        assert lhs == directional_flow(gamma3, p, schouten(v, p))


def test_directional_flow_requires_two_bivectors(gamma3, P1, euler4):
    # both orders returned 0 silently
    with pytest.raises(PreconditionError, match="two bivectors"):
        directional_flow(gamma3, euler4, P1)
    with pytest.raises(PreconditionError, match="two bivectors"):
        directional_flow(gamma3, P1, euler4)
    with pytest.raises(PreconditionError, match="two bivectors"):
        directional_flow(GraphSum.zero(), P1, euler4)
    other = parse_multivector("(x1) xi1 xi2", 3)
    with pytest.raises(DimensionError):
        directional_flow(gamma3, P1, other)
    with pytest.raises(DimensionError):
        directional_flow(GraphSum.zero(), other, P1)
    assert directional_flow(gamma3, P1, Multivector.zero(4)).is_zero()


# -- orient: a bare Graph keeps its own labels -----------------------------------


def test_evaluate_bare_graph_keeps_its_vertex_labels():
    entries = [parse_multivector(t, nvars=2)
               for t in ("(1)", "(x1) xi2", "(x2^2) xi1")]
    got = evaluate(Graph(3, [(2, 3)]), entries)
    assert render_multivector(got) == "(2*x1*x2) xi1 + (-x2^2) xi2"
    # the sum over the canonical relabelling differs: slot 1 is a scalar there
    assert evaluate(GraphSum.single(Graph(3, [(2, 3)])), entries).is_zero()


# -- negative dimensions ------------------------------------------------------------


def test_negative_dimensions_raise_dimension_error():
    # Multivector.zero(-3) and parse_multivector("0", nvars=-1) built values,
    # and Poly(-1) raised a bare ValueError
    for build in (lambda: Poly(-1), lambda: Poly.zero(-2),
                  lambda: Multivector(-1), lambda: Multivector.zero(-3),
                  lambda: parse_multivector("0", nvars=-1)):
        with pytest.raises(DimensionError, match="nonnegative"):
            build()
    assert Multivector.zero(0).nvars == 0 and Poly(0).nvars == 0


def test_cli_negative_nvars_exits_2(capsys):
    # printed 0 and exited 0
    assert main(["jacobi", "--poisson", "0", "--nvars", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: nvars must be nonnegative, got -1\n"


# -- cohomsolve: the ansatz shape ---------------------------------------------------


def test_monomials_reject_a_negative_variable_count():
    # recursed until RecursionError
    for nvars in (-1, -3):
        with pytest.raises(DimensionError):
            monomials(nvars, 2)


def test_monomials_of_negative_degree_are_none():
    # one variable gave [(-1,)], a monomial with a negative exponent
    for nvars in (0, 1, 2, 4):
        assert monomials(nvars, -1) == []


def test_ansatz_spec_needs_a_variable():
    # AnsatzSpec(0, 1).unknown_count raised a bare ValueError from math.comb,
    # while AnsatzSpec(0, 2).basis() returned []
    for nvars, degree in ((0, 0), (0, 1), (0, 2), (-1, 1)):
        with pytest.raises(PreconditionError, match="at least one variable"):
            AnsatzSpec(nvars, degree)


def test_cli_trivialize_without_variables_exits_2(capsys):
    argv = ["trivialize", "--target", "0", "--poisson", "0", "--nvars", "0",
            "--degree", "1"]
    assert main(argv) == 2
    assert "at least one variable" in capsys.readouterr().err


def test_unknown_count_is_the_basis_length():
    for nvars in range(1, 6):
        for degree in range(6):
            spec = AnsatzSpec(nvars, degree)
            assert spec.unknown_count == len(spec.basis())


# -- cohomsolve: systems without equations and membership ------------------------


def test_system_without_equations_keeps_its_unknowns():
    zero = Multivector.zero(2)
    raw = solve_raw(*multivector_columns_system([zero, zero], zero))
    assert raw.status == "solved"
    assert raw.particular == [0, 0]
    assert sorted(raw.kernel) == [[0, 1], [1, 0]]


def test_solve_raw_rejects_a_row_wider_than_its_unknowns():
    # key ncols holds the right-hand side inside solve_raw: {2: 5} in a
    # system of 2 unknowns must not be read as x0 = 5
    with pytest.raises(DimensionError):
        solve_raw([{0: 1, 2: 5}], [2], ncols=2)
    with pytest.raises(DimensionError):
        solve_raw([{0: 1}, {3: 1}], [2, 1], ncols=2)
    with pytest.raises(DimensionError):
        solve_raw([{-1: 1}], [2], ncols=2)
    with pytest.raises(DimensionError):
        solve_raw([], [], ncols=-1)
    with pytest.raises(DimensionError):
        solve_raw([{0: 1}], [2])    # ncols is not guessed from the rows
    assert solve_raw([{0: 1}], [2], ncols=2).particular == [2, 0]


def test_solve_raw_drops_stored_zeros():
    # a stored 0 in column 0 must not become its pivot
    raw = solve_raw([{0: 0, 1: 1}, {0: 0}], [1, 0], ncols=2)
    assert raw.status == "solved"
    assert raw.particular == [0, 1] and raw.kernel == [[1, 0]]
    raw = solve_raw([{0: 0, 1: 0}], [Fraction(1, 2)], ["zero row"], 2)
    assert raw.status == "infeasible" and raw.witness == "zero row"


def test_solve_raw_rejects_a_missing_right_hand_side_or_label():
    # zip used to drop the second equation and report x1 as free
    with pytest.raises(DimensionError):
        solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2], ncols=2)
    with pytest.raises(DimensionError):
        solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2, 3], ["first"], 2)
    raw = solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2, 3], ncols=2)
    assert raw.particular == [2, 3] and raw.kernel == []


# -- cohomsolve: the zero bivector -------------------------------------------------


def test_trivialize_over_the_zero_bivector():
    # [[Y,0]] = 0: every field solves Q = 0, and no field solves Q != 0
    zero = Multivector.zero(3)
    sol = trivialize(zero, zero, 1)
    assert sol.status == "solved" and sol.particular.is_zero()
    assert sol.kernel_dim == AnsatzSpec(3, 1).unknown_count == 9
    q = parse_multivector("(x1^2) xi1 xi2 + (x2*x3) xi2 xi3", 3)
    sol = trivialize(q, zero, 1)
    assert sol.status == "infeasible"
    idx, exps = sol.witness
    assert q.component(idx).terms[exps]


def test_cli_trivialize_over_the_zero_bivector(capsys):
    argv = ["--poisson", "0", "--nvars", "3", "--degree", "1"]
    assert main(["trivialize", "--target", "(x1^2) xi1 xi2"] + argv) == 0
    assert capsys.readouterr().out == ("status: infeasible\ninconsistent "
                                       "equation at row ((1, 2), (2, 0, 0))\n")
    assert main(["trivialize", "--target", "0"] + argv) == 0
    assert "kernel dimension: 9\n" in capsys.readouterr().out


def test_default_degree_of_a_zero_multivector():
    p = parse_multivector("(x1) xi1 xi2", 3)
    with pytest.raises(PreconditionError, match="target bivector is zero"):
        default_degree(Multivector.zero(3), p)
    with pytest.raises(PreconditionError, match="Poisson bivector is zero"):
        default_degree(p, Multivector.zero(3))


def _in_coset_oracle(y, p, q, degree):
    """y is a 1-vector of homogeneous degree-D components with [[y,p]] = q."""
    if not y.is_grade(1):
        return False
    if any(c.is_homogeneous() != degree for c in y.components.values()):
        return False
    return schouten(y, p) == q


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_contains_agrees_with_the_coboundary_equation(degree, nambu_quartic):
    rng = random.Random(degree)
    p = nambu_quartic
    monos = monomials(3, degree)
    y0 = Multivector(3, {(i,): Poly(3, {m: rng.randint(-2, 2) for m in monos})
                         for i in (1, 2, 3)})
    q = schouten(y0, p)
    sol = trivialize(q, p, degree)
    assert sol.status == "solved"
    shifted = sol.particular
    for k in sol.kernel_basis:
        shifted = shifted + k.scale(rng.randint(-3, 3))
    candidates = [
        y0, shifted, sol.particular, Multivector.zero(3),
        shifted + Multivector(3, {(1,): Poly.monomial(3, monos[0])}),
        shifted + Multivector(3, {(1, 2): Poly.variable(3, 1)}),
        shifted + Multivector(3, {(2,): Poly.monomial(3, (degree + 1, 0, 0))}),
    ]
    for y in candidates:
        assert sol.contains(y) == _in_coset_oracle(y, p, q, degree)


# -- cli: exit codes of failures ---------------------------------------------------


def test_cli_self_check_failure_exits_3(monkeypatch, capsys):
    real_solve = cohomsolve.solve

    def wrong_solve(system):
        sol = real_solve(system)
        sol.particular = sol.particular.scale(2)
        return sol

    monkeypatch.setattr(cohomsolve, "solve", wrong_solve)
    code = main(["trivialize", "--target", "gl2kk", "--poisson", "gl2kk"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "internal error: solver returned a non-solution\n"


def test_cli_nambu_lets_unexpected_errors_propagate(monkeypatch):
    import poissonflow.cli as cli

    def broken(a, weights):
        raise RuntimeError("broken criterion")

    monkeypatch.setattr(cli, "homogenizing_field_exists", broken)
    with pytest.raises(RuntimeError, match="broken criterion"):
        main(["nambu", "--casimir", "x1^4 + x2^4 + x3^4"])


def test_cli_jacobi_self_check_failure_exits_3(monkeypatch, capsys):
    import poissonflow.nambu as nambu

    monkeypatch.setattr(nambu, "jacobiator", lambda p: p)
    code = main(["nambu", "--casimir", "x3^2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == ("internal error: determinant bracket failed the Jacobi "
                   "identity\n")


@pytest.mark.parametrize("argv, message", [
    (["flow", "--graph", "P1", "--poisson", "P1"],
     "catalog entry 'P1' is not a graph sum"),
    (["scale", "--field", "euler", "--poisson", "tetrahedron"],
     "catalog entry 'tetrahedron' is a graph sum, not a multivector"),
])
def test_cli_catalog_entry_of_the_wrong_kind_exits_2(argv, message, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


# -- nambu: one weight per variable -------------------------------------------------


def test_weight_degree_needs_one_weight_per_variable():
    p = parse_poly("x1^3 + x2^3 + x3^3", 3)
    for weights in ((1, 1, 1, 1), (1, 1)):
        with pytest.raises(DimensionError, match="%d weights" % len(weights)):
            weight_degree(p, weights)
        with pytest.raises(DimensionError):
            weight_degree(Poly.zero(3), weights)


@pytest.mark.parametrize("weights", ["1,1,1,1", "1,1"])
def test_cli_nambu_with_the_wrong_weight_count_exits_2(weights, capsys):
    code = main(["nambu", "--casimir", "x1^3+x2^3+x3^3", "--weights", weights])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: %d weights for a polynomial in 3 variables\n" % (
        weights.count(",") + 1)


def test_cli_nambu_checks_the_weight_count_with_a_density(capsys):
    code = main(["nambu", "--casimir", "x1^3+x2^3+x3^3", "--density", "x1",
                 "--weights", "1,1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: 2 weights for a polynomial in 3 variables\n"


# -- multivec: one ratio routine ----------------------------------------------------


def test_ratio_edge_cases(P1, QP1, euler4):
    zero = Multivector.zero(4)
    assert uniform_ratio(QP1.scale(Fraction(-2, 3)), QP1) == Fraction(-2, 3)
    assert uniform_ratio(zero, QP1) is None  # lam = 0
    assert uniform_ratio(QP1, zero) is None  # zero reference
    assert uniform_ratio(QP1 + P1, QP1) is None
    assert homogeneity_scale(hamiltonian_field(P1, parse_poly("x1", 4)), P1) == 0
    assert homogeneity_scale(euler4, zero) == ANY_DEGREE
    with pytest.raises(DimensionError):
        homogeneity_scale(euler_field(3), zero)


# -- gracomplex: isolated vertices -------------------------------------------------


def test_cli_graph_d_with_many_isolated_vertices(capsys):
    # the raw terms of d carry up to 13 isolated vertices; canonicalize sets
    # them aside instead of trying their orders
    assert main(["graph-d", "--graph", "graph{n=14; edges=(1,2); c=1}"]) == 0
    assert capsys.readouterr().out == "0\n"


# -- gracomplex: vertex counts past sys.maxsize ------------------------------------


def test_graph_rejects_a_vertex_count_past_maxsize():
    with pytest.raises(MalformedGraphError, match="vertex count"):
        Graph(sys.maxsize + 1, ((1, 2),))


HUGE_GRAPH = "graph{n=99999999999999999999; edges=(1,2); c=1}"


@pytest.mark.parametrize("argv", [["graph-d", "--graph", HUGE_GRAPH],
                                  ["graph-bracket", "--left", HUGE_GRAPH,
                                   "--right", "graph{n=2; edges=(1,2); c=1}"],
                                  ["graph-bracket", "--left", "graph{n=1; edges=; c=1}",
                                   "--right", HUGE_GRAPH]],
                         ids=["graph-d", "bracket-left", "bracket-right"])
def test_cli_graph_with_a_vertex_count_past_maxsize_exits_2(argv, capsys):
    assert 99999999999999999999 > sys.maxsize
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: vertex count 99999999999999999999 exceeds %d\n" % sys.maxsize
