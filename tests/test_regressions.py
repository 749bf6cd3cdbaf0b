"""Regression tests for representation limits, degenerate systems and CLI
failure exits."""

import random
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

import poissonflow.cohomsolve as cohomsolve
from poissonflow.cli import main
from poissonflow.cohomsolve import (AnsatzSpec, default_degree, monomials,
                                    multivector_columns_system, solve_raw,
                                    trivialize)
from poissonflow.errors import (DimensionError, MalformedGraphError,
                               ParseError, PreconditionError)
from poissonflow.gracomplex import (MAX_VERTICES, Graph, GraphSum,
                                   canonicalize, insert_terms, parse_graph,
                                   simple_graph, stick)
from poissonflow.multivec import (Multivector, euler_field, hamiltonian_field,
                                  homogeneity_scale, parse_multivector,
                                  render_multivector, schouten, schouten_sym)
from poissonflow.nambu import (homogenizing_field_exists, nambu_bivector,
                               weight_degree)
from poissonflow.orient import (cocycle1, directional_flow, evaluate, flow,
                                lift, merge)
from poissonflow.ratpoly import ANY_DEGREE, Poly, parse_poly, render_poly
from poissonflow.verify import uniform_ratio
from test_solve_sparse import dense_to_sparse, sparse


# -- orient: exponents past eight bits -------------------------------------------


def test_lift_and_merge_keep_exponents_past_eight_bits():
    p = Multivector(2, {(1, 2): parse_poly("x1^256", 2)})
    assert render_multivector(merge(lift([p]))) == "(x1^256) xi1 xi2"


@pytest.mark.parametrize("e", [255, 256, 300])
def test_stick_flow_with_large_exponents(e):
    p = parse_multivector("(x1^%d*x3) xi1 xi2 + (x2) xi2 xi3" % e, 3)
    assert flow(stick(), p) == -schouten(p, p)


@pytest.mark.parametrize("edges, want", [
    ([(1, 3)], "(4*x1^257 + 8*x1^10)"),
    ([], "(x1^258 + 2*x1^11) xi1"),
])
def test_large_exponent_in_the_last_entry_alone(edges, want):
    # entry n is multiplied into slot 1 with the others: a width counting
    # only entries 1..n-1 (8 bits here) carried x1^257 into x2's field
    g = Graph(3, edges)
    entries = [parse_multivector("(x1^4)", 2)] * 2 + [
        parse_multivector("(x1^250 + 2*x1^3) xi1", 2)]
    assert render_multivector(evaluate(g, entries)) == want


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


def test_monomials_past_the_bound_raise_before_building(monkeypatch):
    # a zero target skips assemble's degree check, so monomials(4, 10**6)
    # set out to build C(10**6 + 3, 3) tuples and filled memory
    with pytest.raises(DimensionError, match="more than 1000000 monomials"):
        monomials(4, 10 ** 6)
    with pytest.raises(DimensionError):
        AnsatzSpec(4, 10 ** 6).basis()
    monkeypatch.setattr(cohomsolve, "MAX_MONOMIALS", 10)
    assert len(monomials(2, 9)) == 10
    assert len(monomials(30, 0)) == len(monomials(1, 10 ** 9)) == 1
    for nvars, degree in ((2, 10), (3, 4), (30, 1), (30, 10 ** 9), (10 ** 9, 2)):
        with pytest.raises(DimensionError, match="more than 10 monomials"):
            monomials(nvars, degree)


def test_cli_trivialize_of_a_huge_degree_exits_2(tmp_path, capsys):
    target = tmp_path / "zero.txt"
    target.write_text("0\n")
    argv = ["trivialize", "--nvars", "4", "--degree", "1000000",
            "--target", str(target), "--poisson", "P1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # the row grid of [[Y, P1]] comes first, at degree D + 2
    assert err == ("error: more than 1000000 monomials of degree 1000002 "
                   "in 4 variables\n")


def test_monomials_in_thousands_of_variables():
    # recursed once per variable: monomials(2000, 1) raised RecursionError
    assert monomials(2000, 1) == [(0,) * mu + (1,) + (0,) * (1999 - mu)
                                  for mu in range(2000)]
    assert monomials(2000, 0) == [(0,) * 2000]
    # descending grlex order within one degree is descending lex order
    for nvars in range(6):
        for degree in range(6):
            want = sorted((e for e in product(range(degree + 1), repeat=nvars)
                           if sum(e) == degree), reverse=True)
            assert monomials(nvars, degree) == want


def test_cli_trivialize_in_thousands_of_variables_exits_2(tmp_path, capsys):
    # exited 1 with a RecursionError traceback; with the recursion lifted
    # alone it would set out to solve for 4 000 000 unknowns
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n")
    argv = ["trivialize", "--nvars", "2000", "--degree", "1",
            "--target", str(zero), "--poisson", str(zero)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 4000000 unknowns in a degree-1 ansatz over 2000 "
                   "variables, more than 1000000\n")


def test_row_grid_past_the_bound_raises_before_building():
    # a constant bivector over 1500 variables: [[Y, P]] for linear Y has
    # C(1500, 2) constant coefficients, each a row
    p = Multivector(1500, {(1, 2): Poly.constant(1500, 1)})
    with pytest.raises(DimensionError, match="1124250 coefficients of a "
                       "degree-0 bivector over 1500 variables, more than 1000000"):
        cohomsolve.assemble(Multivector.zero(1500), p, AnsatzSpec(1500, 1))


# -- cohomsolve: systems without equations and membership ------------------------


def test_system_without_equations_keeps_its_unknowns():
    zero = Multivector.zero(2)
    raw = solve_raw(*multivector_columns_system([zero, zero], zero))
    assert raw.status == "solved"
    assert raw.particular == sparse([0, 0])
    assert raw.kernel == [sparse([1, 0]), sparse([0, 1])]


def test_row_labels_that_miss_a_term_name_it():
    # the labels must cover every term of the columns and of the target
    column = parse_multivector("(x1^2) xi1 xi2 + (x1*x2) xi1 xi2", 2)
    target = parse_multivector("(x1*x2) xi1 xi2 + (3*x2^2) xi1 xi2", 2)
    labels = [((1, 2), (2, 0)), ((1, 2), (0, 2))]
    with pytest.raises(DimensionError,
                       match=r"miss the term \(\(1, 2\), \(1, 1\)\)"):
        multivector_columns_system([column], Multivector.zero(2), labels)
    with pytest.raises(DimensionError,
                       match=r"miss the term \(\(1, 2\), \(1, 1\)\)"):
        multivector_columns_system([], target, labels)
    rows, rhs, _, _ = multivector_columns_system(
        [column], target, labels + [((1, 2), (1, 1))])
    assert rows == [{0: 1}, {}, {0: 1}] and rhs == [0, 3, 1]


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
    assert solve_raw([{0: 1}], [2], ncols=2).particular == sparse([2, 0])


def test_solve_raw_drops_stored_zeros():
    # a stored 0 in column 0 must not become its pivot
    raw = solve_raw([{0: 0, 1: 1}, {0: 0}], [1, 0], ncols=2)
    assert raw.status == "solved"
    assert raw.particular == sparse([0, 1]) and raw.kernel == [sparse([1, 0])]
    raw = solve_raw([{0: 0, 1: 0}], [Fraction(1, 2)], ["zero row"], 2)
    assert raw.status == "infeasible" and raw.witness == "zero row"


def test_solve_raw_rejects_a_missing_right_hand_side_or_label():
    # zip used to drop the second equation and report x1 as free
    with pytest.raises(DimensionError):
        solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2], ncols=2)
    with pytest.raises(DimensionError):
        solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2, 3], ["first"], 2)
    raw = solve_raw(dense_to_sparse([[1, 0], [0, 1]]), [2, 3], ncols=2)
    assert raw.particular == sparse([2, 3]) and raw.kernel == []


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


def traced_peak_mb(run):
    """``run()``'s result and the peak of memory traced while it ran, in MB."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_all_free_system_costs_no_dense_vectors():
    # [[Y,0]] = 0 at degree 16 on R^4: 3 876 unknowns, all free; dense
    # answers of 3 876 entries each peaked at about 118 MB traced
    zero = Multivector.zero(4)
    sol, peak = traced_peak_mb(lambda: trivialize(zero, zero, 16))
    assert sol.status == "solved" and sol.particular.is_zero()
    assert sol.kernel_dim == AnsatzSpec(4, 16).unknown_count == 3876
    assert all(len(k.components) == 1 for k in sol.kernel_basis)
    assert peak < 20


def test_field_from_coefficients_drops_zeros_and_reduces():
    spec = AnsatzSpec(2, 1)      # unknowns x1 xi1, x2 xi1, x1 xi2, x2 xi2
    field = spec.field_from_coefficients([0, Fraction(4, 2), 0, Fraction(1, 2)])
    assert field == parse_multivector("(2*x2) xi1 + (1/2*x2) xi2", 2)
    assert type(field.component((1,)).terms[(0, 1)]) is int
    assert spec.field_from_coefficients([0] * 4).is_zero()
    with pytest.raises(DimensionError):
        spec.field_from_coefficients([1] * 3)


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


def test_cli_nambu_reads_5000_digit_weights(capsys):
    # int() on a weight exited 2 with the interpreter's digit-limit message
    huge = "9" * 5000
    bracket = "(3*x3^2) xi1 xi2 + (-3*x2^2) xi1 xi3 + (3*x1^2) xi2 xi3\n"
    argv = ["nambu", "--casimir", "x1^3+x2^3+x3^3", "--weights"]
    assert main(argv + ["1,1," + huge]) == 0
    assert capsys.readouterr() == (bracket, "")
    # equal weights w: the weight degree 3w equals the weight sum 3w
    assert main(argv + [",".join([huge] * 3)]) == 0
    three_w = "2" + "9" * 4999 + "7"
    assert capsys.readouterr() == (bracket, (
        "note: no polynomial homogenizing field exists (weight degree %s "
        "equals the weight sum %s)\n" % (three_w, three_w)))


@pytest.mark.parametrize("weights, err", [
    ("1,1x,1", "weight '1x' is not an integer (at position 2)"),
    ("1,1,", "weight '' is not an integer (at position 4)"),
    ("1,--1,1", "weight '--1' is not an integer (at position 2)"),
])
def test_cli_nambu_rejects_malformed_weights(weights, err, capsys):
    code = main(["nambu", "--casimir", "x1^3+x2^3+x3^3", "--weights", weights])
    assert (code,) + capsys.readouterr() == (2, "", "parse error: %s\n" % err)


def test_weight_homogeneity_error_prints_a_5000_digit_weight():
    a = parse_poly("x1^3 + x2^3 + x3^3", 3)
    with pytest.raises(PreconditionError) as exc:
        homogenizing_field_exists(a, (1, -1, 10 ** 5000))
    assert str(exc.value) == ("Casimir is not weight-homogeneous for weights "
                              "(1, -1, 1%s)" % ("0" * 5000))


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


def test_canonicalize_builds_no_automorphism_list():
    # K6 has 720 automorphisms; each used to be built as a list over all
    # n + 1 vertices, about 22 MB traced at n = 1000
    k6 = simple_graph(6, 2**15 - 1).edges
    for n in (6, 1000):
        (canon, sign), peak = traced_peak_mb(lambda: canonicalize(Graph(n, k6)))
        assert canon == Graph(n, k6) and sign == 1
        assert peak < 2


# -- gracomplex: vertex counts past the bound --------------------------------------


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
    assert err == "error: vertex count 99999999999999999999 exceeds %d\n" % MAX_VERTICES


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10 ** 12])
@pytest.mark.parametrize("command", ["graph-d", "graph-bracket"])
def test_cli_graph_past_the_vertex_bound_exits_2_at_once(command, n, capsys):
    # counts far below sys.maxsize: Graph.degrees allocates a slot per
    # vertex and a bracket visits every vertex, so these must fail up front
    graph = "graph{n=%d; edges=(1,2); c=1}" % n
    argv = ([command, "--graph", graph] if command == "graph-d" else
            [command, "--left", graph, "--right", "graph{n=2; edges=(1,2); c=1}"])
    code = main(argv)
    assert (code,) + capsys.readouterr() == (
        2, "", "error: vertex count %d exceeds %d\n" % (n, MAX_VERTICES))


@pytest.mark.parametrize("command", ["graph-d", "graph-bracket"])
def test_cli_terms_past_the_vertex_bound_name_the_input(command, capsys):
    # a graph on the bound is accepted, but its d and its bracket with the
    # stick have one vertex more: the error names the count that was given
    graph = "graph{n=%d; edges=(1,2); c=1}" % MAX_VERTICES
    argv = ([command, "--graph", graph] if command == "graph-d" else
            [command, "--left", graph, "--right", "graph{n=2; edges=(1,2); c=1}"])
    message = ("d of a graph on 10000 vertices has terms on 10001 vertices"
               if command == "graph-d" else
               "inserting a graph on 2 vertices into one on 10000 gives graphs "
               "on 10001 vertices")
    code = main(argv)
    assert (code,) + capsys.readouterr() == (
        2, "", "error: %s, past the bound of 10000\n" % message)


def test_insertion_past_the_vertex_bound_builds_no_term():
    big = Graph(MAX_VERTICES, ((1, 2),))
    for g1, g2 in ((big, stick()), (stick(), big)):
        with pytest.raises(MalformedGraphError, match="on 10001 vertices"):
            next(insert_terms(g1, g2))
    assert next(insert_terms(big, Graph(1, ()))).n == MAX_VERTICES


def test_graph_vertex_bound_is_inclusive():
    assert Graph(MAX_VERTICES, ((1, MAX_VERTICES),)).n == MAX_VERTICES
    with pytest.raises(MalformedGraphError, match="exceeds 10000"):
        Graph(MAX_VERTICES + 1, ())


# -- gracomplex: counts, endpoints and masks are integers --------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(3, [(1, 2.5)]), "edge 1 has an endpoint of type float"),
    (lambda: Graph(3, [(1, 2), ("1", 3)]), "edge 2 has an endpoint of type str"),
    (lambda: Graph(3, [(True, 2)]), "edge 1 has an endpoint of type bool"),
    (lambda: Graph(2.0, [(1, 2)]), "vertex count of type float"),
    (lambda: Graph(True, []), "vertex count of type bool"),
    (lambda: Graph(3, [(1, 2, 3)]), "edge 1 is not a pair of vertices"),
    (lambda: Graph(3, [5]), "edge 1 is not a pair of vertices"),
    (lambda: simple_graph(3, -1), "mask -1 outside 0..2^3-1"),
    (lambda: simple_graph(3, 8), "mask 8 outside 0..2^3-1"),
    (lambda: simple_graph(1, 1), "mask 1 outside 0..2^0-1"),
    (lambda: simple_graph(3, 7.0), "mask of type float"),
    (lambda: simple_graph(2.0, 1), "vertex count of type float"),
], ids=["float-endpoint", "str-endpoint", "bool-endpoint", "float-count",
        "bool-count", "triple", "not-a-sequence", "negative-mask",
        "mask-past-the-pairs", "mask-on-one-vertex", "float-mask", "float-n"])
def test_graph_inputs_must_be_integers(build, message):
    # a float endpoint was truncated by the renderer into a different graph,
    # a float count accepted, a triple or a str endpoint raised a bare
    # ValueError or TypeError, and a mask out of range was read modulo the
    # pairs, -1 as K3 and 8 as the empty graph
    with pytest.raises(MalformedGraphError) as exc:
        build()
    assert str(exc.value).startswith(message)


def test_simple_graph_accepts_every_mask_in_range():
    assert simple_graph(3, 7) == Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert simple_graph(3, 0) == Graph(3, [])
    assert simple_graph(1, 0) == Graph(1, [])


# -- multivec: xi indices start at 1 -------------------------------------------------


def test_cli_xi_index_zero_is_a_parse_error(capsys):
    code = main(["jacobi", "--poisson", "(1) xi0 xi1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "parse error: xi index must be >= 1 (at position 4)\n"


# -- ratpoly: coefficients past the interpreter's int <-> str digit limit -----------


DIGITS = "1234567890" * 500


def test_cli_schouten_prints_a_5000_digit_coefficient(capsys):
    code = main(["schouten", "--left", "(%s) xi1" % DIGITS,
                 "--right", "(x1) xi1", "--nvars", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == "(%s) xi1\n" % DIGITS


def test_cli_graph_d_negates_a_5000_digit_coefficient(capsys):
    code = main(["graph-d", "--graph", "graph{n=1; edges=; c=%s}" % DIGITS])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "graph{n=2; edges=(1,2); c=-%s}\n" % DIGITS


def test_cli_scale_prints_a_5000_digit_ratio(capsys):
    field = "(%s*x1) xi1 + (%s*x2) xi2" % (DIGITS, DIGITS)
    code = main(["scale", "--field", field, "--poisson", "(x1^3) xi1 xi2"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == "%s\n" % DIGITS


# -- cli: the scale of the zero bivector ----------------------------------------------


@pytest.mark.parametrize("fmt, printed", [("text", "any"),
                                          ("machine", '{"scale": "any"}')])
def test_cli_scale_of_the_zero_bivector_is_any(fmt, printed, capsys):
    code = main(["scale", "--field", "euler", "--poisson", "0", "--nvars", "4",
                 "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == printed + "\n"


# -- multivec: zero through the general path ----------------------------------------


def test_parse_multivector_zero_takes_the_polynomial_path():
    assert parse_multivector("0", nvars=3) == Multivector.zero(3)
    assert parse_multivector(" 0 ") == Multivector.zero(0)
    for text in ("0", "(1) xi1"):
        with pytest.raises(DimensionError, match="nonnegative"):
            parse_multivector(text, nvars=-1)
    with pytest.raises(DimensionError, match="nonnegative"):
        parse_poly("1", -1)


def test_schouten_sym_of_zero_checks_the_dimension(P1):
    assert schouten_sym(Multivector.zero(4), P1) == Multivector.zero(4)
    with pytest.raises(DimensionError):
        schouten_sym(Multivector.zero(3), P1)


# -- multivec: parse positions count from the given text ------------------------------


@pytest.mark.parametrize("text, message, position", [
    ("   (1) xi0", "xi index must be >= 1", 7),
    ("(x1@) xi1 xi2", "unexpected character '@'", 3),
    ("  (x1) xi1 + (x1 @) xi2", "unexpected character '@'", 17),
    ("  (x1) xi1 (1) xi2", "missing '+' or '-' between terms", 11),
    ("  (x1) xi1 + x1", "expected '(poly) xi...' term", 11),
    ("  x1 + ", "expected a term", 7),
    ("(x1 +) xi1", "expected a term", 5),
])
def test_parse_multivector_positions_count_from_the_given_text(text, message,
                                                               position):
    with pytest.raises(ParseError) as exc:
        parse_multivector(text)
    assert exc.value.position == position
    assert str(exc.value) == "%s (at position %d)" % (message, position)


# -- cli: --nvars only where multivector text is parsed -------------------------------


@pytest.mark.parametrize("argv", [
    ["graph-d", "--graph", "tetrahedron"],
    ["graph-bracket", "--left", "tetrahedron", "--right", "tetrahedron"],
    ["nambu", "--casimir", "x3"],
    ["catalog"],
    ["verify-paper"],
], ids=lambda argv: argv[0])
def test_cli_nvars_rejected_where_no_multivector_is_parsed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--nvars", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nvars" in capsys.readouterr().err


# -- one dimension bound; indices and labels past the int <-> str digit limit -------


HUGE = "9" * 5000


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_poly("x" + HUGE), DimensionError,
     "nvars must be at most 10000, got " + HUGE),
    (lambda: parse_multivector("(1) xi" + HUGE), DimensionError,
     "nvars must be at most 10000, got " + HUGE),
    (lambda: parse_multivector("(x%s) xi1" % HUGE), DimensionError,
     "nvars must be at most 10000, got " + HUGE),
    (lambda: parse_poly("x" + HUGE, 3), ParseError,
     "variable x%s exceeds declared dimension 3" % HUGE),
    (lambda: parse_multivector("(1) xi" + HUGE, 3), ParseError,
     "index %s exceeds declared dimension 3" % HUGE),
    (lambda: Poly(10 ** 5000), DimensionError,
     "nvars must be at most 10000, got 1" + "0" * 5000),
    (lambda: Multivector.zero(-10 ** 5000), DimensionError,
     "nvars must be nonnegative, got -1" + "0" * 5000),
    (lambda: parse_graph("graph{n=%s; edges=; c=1}" % HUGE), MalformedGraphError,
     "vertex count %s exceeds %d" % (HUGE, MAX_VERTICES)),
    (lambda: parse_graph("graph{n=2; edges=(1,%s); c=1}" % HUGE), MalformedGraphError,
     "edge (1,%s) outside 1..2" % HUGE),
    (lambda: parse_graph("graph{n=2; edges=(%s,%s); c=1}" % (HUGE, HUGE)),
     MalformedGraphError, "loop edge (%s,%s)" % (HUGE, HUGE)),
    (lambda: Graph(10 ** 5000, ()), MalformedGraphError,
     "vertex count 1%s exceeds %d" % ("0" * 5000, MAX_VERTICES)),
], ids=["poly-x", "mv-xi", "mv-x", "poly-x-declared", "mv-xi-declared", "Poly",
        "Multivector-negative", "graph-n", "graph-edge", "graph-loop", "Graph"])
def test_5000_digit_indices_raise_named_errors(build, error, message):
    # a bare ValueError from int/str conversion; the omitted dimension was
    # inferred from the index and an exponent tuple that long was built
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value).split(" (at position")[0] == message


def test_dimension_bound_is_inclusive():
    assert parse_poly("x10000").nvars == 10000
    assert Multivector.zero(10000).nvars == 10000
    with pytest.raises(DimensionError, match="at most 10000, got 10001"):
        parse_poly("x10001")


def test_poly_constant_and_variable_check_the_dimension():
    # Poly.constant(-1, 5) built a value with nvars = -1
    for build in (lambda: Poly.constant(-1, 5), lambda: Poly.constant(-1, 0),
                  lambda: Poly.variable(-1, 1)):
        with pytest.raises(DimensionError, match="nonnegative"):
            build()
    with pytest.raises(DimensionError, match="at most 10000"):
        Poly.variable(10 ** 5000, 1)


def test_render_poly_prints_a_5000_digit_exponent():
    assert render_poly(parse_poly("x1^" + HUGE)) == "x1^" + HUGE


@pytest.mark.parametrize("argv, err", [
    (["jacobi", "--poisson", "(1) xi" + HUGE],
     "error: nvars must be at most 10000, got %s\n" % HUGE),
    (["graph-d", "--graph", "graph{n=%s; edges=; c=1}" % HUGE],
     "error: vertex count %s exceeds %d\n" % (HUGE, MAX_VERTICES)),
    (["graph-d", "--graph", "graph{n=2; edges=(1,%s); c=1}" % HUGE],
     "error: edge (1,%s) outside 1..2\n" % HUGE),
], ids=["jacobi-xi", "graph-d-n", "graph-d-edge"])
def test_cli_5000_digit_indices_exit_2(argv, err, capsys):
    code = main(argv)
    assert (code,) + capsys.readouterr() == (2, "", err)


# -- ratpoly: coefficients are ints or Fractions, exponents ints ---------------------


@pytest.mark.parametrize("build, message", [
    (lambda: Poly(2, {(1, 0): 0.5}), "coefficient of type float"),
    (lambda: Poly(2, {(2.0, 0): 3}), "exponent of type float"),
    (lambda: Poly(2, {(True, 0): 3}), "exponent of type bool"),
    (lambda: Poly(2, {(1, 0): Decimal("0.5")}), "coefficient of type Decimal"),
    (lambda: Poly(2, {(1, 0): Decimal(2)}), "coefficient of type Decimal"),
    (lambda: Poly(2, {(1, 0): True}), "coefficient of type bool"),
    (lambda: Poly.constant(2, 0.25), "coefficient of type float"),
    (lambda: Poly.variable(2, 1).scale(0.5), "coefficient of type float"),
    (lambda: Poly.variable(2, 1).scale(0.0), "coefficient of type float"),
    (lambda: euler_field(2).scale(1e-3), "coefficient of type float"),
    (lambda: Multivector.zero(2).scale(0.0), "coefficient of type float"),
    (lambda: GraphSum({stick(): 0.5}), "coefficient of type float"),
    (lambda: GraphSum.single(stick()).scale(0.5), "coefficient of type float"),
    (lambda: GraphSum.zero().scale(0.0), "coefficient of type float"),
], ids=["poly-float", "poly-float-exponent", "poly-bool-exponent",
        "poly-decimal", "poly-integral-decimal", "poly-bool", "constant-float",
        "poly-scale-float", "poly-scale-float-zero", "multivector-scale-float",
        "multivector-scale-float-zero", "graphsum-float", "graphsum-scale-float",
        "graphsum-scale-float-zero"])
def test_inexact_coefficients_raise_type_error(build, message):
    # floats and Decimals were stored as given and rendered (0.5*x1,
    # x1^2.0), and a scale by 0.0 took the zero shortcut unchecked
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value).startswith(message)


def test_trivialize_of_a_float_scaled_target_raises_type_error(P1, QP1):
    # the float reached solve_raw, which failed on c.denominator
    with pytest.raises(TypeError, match="coefficient of type float"):
        trivialize(QP1.scale(0.5), P1, 4)


# -- dimensions, degrees and indices are ints -------------------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: Poly(2.0, {(1, 0): 1}), "nvars of type float"),
    (lambda: Poly(True, {(1,): 1}), "nvars of type bool"),
    (lambda: Poly.zero(2.0), "nvars of type float"),
    (lambda: Poly.constant(2.0, 1), "nvars of type float"),
    (lambda: Poly.variable(2.0, 1), "nvars of type float"),
    (lambda: Poly.variable(2, 1.0), "variable index of type float"),
    (lambda: Poly.variable(2, True), "variable index of type bool"),
    (lambda: Multivector(True, {}), "nvars of type bool"),
    (lambda: Multivector.zero(Decimal(2)), "nvars of type Decimal"),
    (lambda: parse_poly("x1", nvars=2.0), "nvars of type float"),
    (lambda: AnsatzSpec(4.0, 1), "ansatz nvars of type float"),
    (lambda: AnsatzSpec(4, True), "ansatz degree of type bool"),
    (lambda: AnsatzSpec(4, 2.0), "ansatz degree of type float"),
], ids=["poly-float", "poly-bool", "zero-float", "constant-float",
        "variable-float-nvars", "variable-float-index", "variable-bool-index",
        "multivector-bool", "multivector-decimal", "parse-float", "ansatz-float-nvars",
        "ansatz-bool-degree", "ansatz-float-degree"])
def test_inexact_dimensions_raise_type_error(build, message):
    # Poly(2.0, ...) had nvars == 2.0, Poly.constant(2.0, 1) failed on
    # tuple repetition, Poly.variable(2, 1.0) built x1 and AnsatzSpec(4,
    # True) an ansatz of degree 1
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value).startswith(message)


def test_trivialize_at_a_bool_degree_raises_type_error(P1, QP1):
    # solved at degree 1 and reported the system infeasible
    with pytest.raises(TypeError, match="ansatz degree of type bool"):
        trivialize(QP1, P1, True)


# -- cohomsolve: solve_raw takes ints and Fractions --------------------------------


@pytest.mark.parametrize("matrix, rhs", [
    ([{0: 0.5}], [1]),
    ([{0: 1}], [0.5]),
    ([{0: 1, 1: Fraction(1, 2)}], [Decimal(1)]),
    ([{0: 0.0, 1: 1}], [1]),
    ([{0: 1}], [0.0]),
    ([{0: True}], [1]),
], ids=["float-entry", "float-rhs", "decimal-rhs", "float-zero-entry",
        "float-zero-rhs", "bool-entry"])
def test_solve_raw_rejects_inexact_entries(matrix, rhs):
    # a float raised AttributeError on .denominator, and a float zero or
    # a bool was taken as it was
    with pytest.raises(TypeError, match="coefficient of type"):
        solve_raw(matrix, rhs, ncols=2)


# -- multivec: parsing adds no Poly per piece ----------------------------------------


def test_parse_multivector_adds_no_poly_per_piece(monkeypatch):
    # each piece was added to its component with Poly.__add__, which copies
    # the terms so far: 999 calls for 1 000 pieces, quadratic time in all
    calls = []
    poly_add = Poly.__add__

    def counting_add(self, other):
        calls.append(None)
        return poly_add(self, other)

    monkeypatch.setattr(Poly, "__add__", counting_add)
    counts = []
    for n in (1000, 2000):
        calls.clear()
        mv = parse_multivector(" + ".join("(x1^%d) xi1" % k for k in range(n)))
        assert len(mv.components[(1,)].terms) == n
        counts.append(len(calls))
    assert counts[0] == counts[1]
