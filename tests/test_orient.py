"""Graph evaluation on multivectors: lift, edge operators, merge, flows."""

import random
import warnings
from itertools import combinations

import pytest

from poissonflow.errors import DimensionError, PreconditionError
from poissonflow.gracomplex import Graph, bracket, stick, tetrahedron
from poissonflow.multivec import Multivector, euler_field, schouten
from poissonflow.nambu import nambu_bivector
from poissonflow.orient import (apply_edge, cocycle1, directional_flow,
                                evaluate, flow, lift, merge)
from poissonflow.ratpoly import Poly, parse_poly


def mv(nvars, **components):
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
        if rng.random() < 0.8:
            comps[idx] = rand_poly(rng, nvars, maxdeg)
    return Multivector(nvars, comps)


# -- lift ---------------------------------------------------------------


def test_lift_single_scalar():
    f = mv(2, i="x1^2 + 3*x2")
    s = lift((f,))
    assert s.terms == {((2 << 0), 0): 1, ((1 << s.width), 0): 3}


def test_lift_total_odd_degree():
    rng = random.Random(31)
    for _ in range(30):
        r = rng.randint(1, 3)
        grades = [rng.randint(0, r) for _ in range(rng.randint(1, 4))]
        entries = [rand_grade(rng, r, k) for k in grades]
        if any(e.is_zero() for e in entries):
            continue
        s = lift(entries)
        assert {om.bit_count() for om in s.groups} == {sum(grades)}


def test_lift_of_vector_and_bivector_has_odd_degree_three():
    v = mv(2, i1="x1", i2="x2")
    p = mv(2, i12="x1*x2")
    assert {om.bit_count() for om in lift((v, p)).groups} == {3}


# -- apply_edge -----------------------------------------------------------


def test_apply_edge_kills_xi_free_states():
    f = mv(2, i="x1^2*x2")
    g = mv(2, i="x2^3")
    s = lift((f, g))
    assert apply_edge(s, 1, 2).is_zero()


def test_apply_edge_drops_odd_degree_by_one():
    rng = random.Random(32)
    for _ in range(20):
        r = rng.randint(2, 3)
        a = rand_grade(rng, r, rng.randint(1, r))
        b = rand_grade(rng, r, rng.randint(1, r))
        if a.is_zero() or b.is_zero():
            continue
        s = lift((a, b))
        (d,) = {om.bit_count() for om in s.groups}
        out = apply_edge(s, 1, 2)
        assert {om.bit_count() for om in out.groups} <= {d - 1}


def test_apply_edge_hand_expanded_case():
    # P = x1 xi1 xi2 on R^2, two sheets; the four summands of the edge
    # operator expand by hand to exactly two surviving terms:
    #   x_(1) xi^(1)_2 xi^(2)_1 xi^(2)_2  +  x_(2) xi^(1)_1 xi^(1)_2 xi^(2)_2
    p = mv(2, i12="x1")
    s = apply_edge(lift((p, p)), 1, 2)
    expected = {
        (1, 0b1110): 1,
        (1 << (2 * s.width), 0b1011): 1,
    }
    assert s.terms == expected


def test_apply_edge_rejects_loops_and_range():
    s = lift((mv(2, i12="x1"),))
    with pytest.raises(PreconditionError):
        apply_edge(s, 1, 1)
    with pytest.raises(PreconditionError):
        apply_edge(s, 1, 2)


# -- merge ------------------------------------------------------------------


def test_merge_of_scalar_lift_is_the_product():
    f = mv(3, i="x1 + x2^2")
    g = mv(3, i="x3 - 2")
    got = merge(lift((f, g)))
    want = mv(3, i="x1*x3 + x2^2*x3 - 2*x1 - 2*x2^2")
    assert got == want


def test_merge_preserves_odd_degree():
    v = mv(2, i1="x1")
    w = mv(2, i2="x2")
    out = merge(lift((v, w)))
    assert out.degree() == 2


def test_merge_collision_of_equal_indices_is_zero():
    v = mv(2, i1="x1")
    w = mv(2, i1="x2")
    # both sheets hold xi_1: the merged term retains xi_1 twice
    assert merge(lift((v, w))).is_zero()


def test_merge_koszul_sort_sign():
    # sheet 1 holds xi_2, sheet 2 holds xi_1: sorting swaps one odd pair
    v = mv(2, i2="1")
    w = mv(2, i1="1")
    assert merge(lift((v, w))) == mv(2, i12="-1")
    assert merge(lift((w, v))) == mv(2, i12="1")


# -- evaluate -----------------------------------------------------------------


def commutator_oracle(v, w):
    """[V,W]^j = V^m d_m W^j - W^m d_m V^j via polynomial calculus only."""
    r = v.nvars
    out = {}
    for j in range(1, r + 1):
        acc = Poly.zero(r)
        for m in range(1, r + 1):
            vm = v.components.get((m,))
            wm = w.components.get((m,))
            wj = w.components.get((j,))
            vj = v.components.get((j,))
            if vm is not None and wj is not None:
                acc = acc + vm * wj.partial(m)
            if wm is not None and vj is not None:
                acc = acc - wm * vj.partial(m)
        if acc:
            out[(j,)] = acc
    return Multivector(r, out)


def test_single_edge_graph_is_the_commutator():
    rng = random.Random(33)
    for _ in range(30):
        r = rng.randint(1, 3)
        v, w = rand_grade(rng, r, 1), rand_grade(rng, r, 1)
        assert evaluate(stick(), (v, w)) == commutator_oracle(v, w)


def test_single_edge_graph_against_schouten_bracket():
    rng = random.Random(34)
    for _ in range(20):
        r = rng.randint(2, 3)
        v = rand_grade(rng, r, 1)
        p = rand_grade(rng, r, 2)
        assert evaluate(stick(), (v, p)) == schouten(v, p)


def test_evaluate_scalars_with_edges_vanishes():
    f = mv(2, i="x1^5")
    assert evaluate(stick(), (f, f)).is_zero()


def test_evaluate_degree_bookkeeping():
    rng = random.Random(35)
    g = Graph(2, ((1, 2),))
    for _ in range(20):
        r = rng.randint(2, 3)
        ka, kb = rng.randint(1, r), rng.randint(1, r)
        a, b = rand_grade(rng, r, ka), rand_grade(rng, r, kb)
        out = evaluate(g, (a, b))
        if out:
            assert out.degree() == ka + kb - 1


def test_evaluate_arity_mismatch():
    with pytest.raises(PreconditionError):
        evaluate(tetrahedron(), (mv(2, i12="x1"),) * 3)


def test_evaluate_requires_pure_grades():
    mixed = mv(2, i1="x1", i="1")
    with pytest.raises(PreconditionError):
        evaluate(stick(), (mixed, mixed))


def test_edge_order_permutation_flips_sign():
    """Applying edges in permuted order scales the result by the parity."""
    rng = random.Random(36)
    base = tetrahedron()
    p = mv(2, i12="x1^2*x2")

    def run(edge_seq):
        state = lift((p, p, p, p))
        for (i, j) in edge_seq:
            state = apply_edge(state, i, j)
        return merge(state)

    reference = run(base.edges)
    assert not reference.is_zero()
    for _ in range(6):
        perm = list(range(6))
        rng.shuffle(perm)
        inv = sum(1 for a in range(6) for b in range(a + 1, 6)
                  if perm[a] > perm[b])
        got = run([base.edges[k] for k in perm])
        assert got == (reference if inv % 2 == 0 else -reference)


def test_flow_on_two_dimensional_density(P1=None):
    p = mv(2, i12="x1^2*x2")
    q = flow(tetrahedron(), p)
    assert not q.is_zero()
    assert schouten(p, q).is_zero()
    degs = {poly.is_homogeneous() for poly in q.components.values()}
    assert degs == {4 * 3 - 6}


def test_flow_requires_bivector():
    with pytest.raises(PreconditionError):
        flow(tetrahedron(), mv(2, i1="x1"))


def test_morphism_property_degenerate_instance():
    """flow([g3,g3], P) equals the antisymmetrised first variation: both
    sides vanish, the left in the graph complex, the right termwise."""
    g3 = tetrahedron()
    assert bracket(g3, g3).is_zero()
    p = mv(2, i12="x1^2*x2")
    q = flow(g3, p)
    lhs = flow(bracket(g3, g3), p)
    var = directional_flow(g3, p, q)
    assert not var.is_zero()
    rhs = var - var
    assert lhs.is_zero() and rhs.is_zero() and lhs == rhs


# -- cocycle1 ------------------------------------------------------------------


def test_cocycle1_preconditions(gamma3, P1, euler4):
    with pytest.raises(PreconditionError) as exc:
        cocycle1(gamma3, euler4.scale(2), P1)
    assert "computed scale: 2" in str(exc.value)
    non_poisson = mv(3, i12="x1", i13="x3")
    with pytest.raises(PreconditionError):
        cocycle1(tetrahedron(), euler_field(3), non_poisson.scale(1))
    with pytest.raises(PreconditionError):
        cocycle1(stick(), euler_field(3),
                 nambu_bivector(parse_poly("x1^4 + x2^4 + x3^4", 3)))


@pytest.mark.parametrize("call, error, match", [
    (lambda p1, e: evaluate(Graph(1, ()), ()), PreconditionError,
     "empty vertex tuple"),
    (lambda p1, e: evaluate(stick(), (euler_field(3), euler_field(4))),
     DimensionError, "different dimensions"),
    (lambda p1, e: cocycle1(tetrahedron(), p1, p1), PreconditionError,
     "1-vector"),
    (lambda p1, e: cocycle1(tetrahedron(), e, e), PreconditionError,
     "bivector"),
], ids=["empty-vertex-tuple", "mixed-dimensions", "field-not-1-vector",
        "poisson-not-bivector"])
def test_malformed_vertex_contents(call, error, match, P1, euler4):
    with pytest.raises(error, match=match):
        call(P1, euler4)


def test_cocycle1_warns_on_non_cocycle_input():
    # a single vertex with no edges sits in bi-grading (1,0) but d(.) != 0
    pn = nambu_bivector(parse_poly("x1^4 + x2^4 + x3^4", 3))
    e3 = euler_field(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = cocycle1(Graph(1, ()), e3, pn)
    assert any("not a cocycle" in str(w.message) for w in caught)
    assert out == e3  # evaluating the bare vertex returns its content


def test_cocycle1_nambu_quartic(gamma3, nambu_quartic):
    e3 = euler_field(3)
    x = cocycle1(gamma3, e3, nambu_quartic)
    assert schouten(x, nambu_quartic).is_zero()
    assert x.is_zero()  # recorded outcome for this Casimir


def test_cocycle1_vanishing_on_catalog(gamma3, P1, euler4):
    assert cocycle1(gamma3, euler4, P1).is_zero()


def test_evaluation_sign_matches_canonicalization_sign():
    """A graph presented with permuted edges evaluates to the
    canonicalization sign times the canonical evaluation."""
    from poissonflow.gracomplex import canonicalize

    rng = random.Random(37)
    base = tetrahedron()
    p = mv(2, i12="x1^2 + x2^2")

    def run(graph):
        state = lift((p,) * graph.n)
        for (i, j) in graph.edges:
            state = apply_edge(state, i, j)
        return merge(state)

    canon_value = run(base)
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        g = Graph(4, tuple(base.edges[k] for k in perm))
        canon, sign = canonicalize(g)
        assert canon == base
        assert run(g) == (canon_value if sign == 1 else -canon_value)
