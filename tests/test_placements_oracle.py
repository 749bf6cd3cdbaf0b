"""Placement classes against the per-slot placement loop.

``_sum_over_placements`` relabels each placement so that v's vertex comes
first, adds up the placements that become the same edge list, and evaluates
the classes as the terms of one sum on (v, p, ..., p), in one ``evaluate``
call.  ``placements_oracle`` is the loop it replaced: one ``evaluate`` per
slot k with v at vertex k, summed.
"""

import random

import pytest

from poissonflow import orient
from poissonflow.gracomplex import Graph
from poissonflow.multivec import Multivector
from poissonflow.orient import (_sum_over_placements, _vertex_count,
                                directional_flow, evaluate)

from test_orient_oracle import rand_grade, rand_poly


class RawSum:
    """Graph terms taken as given: own labels and edge order, zero graphs too."""

    def __init__(self, terms):
        self.terms = dict(terms)


# the two terms of the pentagon-wheel cocycle: the wheel, the other graph
NONZERO_6_10 = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)),
)


def cubic_bivector(rng):
    """A bivector on R^3 with one or two monomials of degree <= 3 each."""
    return Multivector(3, {idx: rand_poly(rng, 3, maxdeg=3)
                           for idx in ((1, 2), (1, 3), (2, 3))})


def placements_oracle(gamma, v, p):
    n = _vertex_count(gamma)
    out = Multivector.zero(p.nvars)
    for k in range(n):
        out = out + evaluate(gamma, tuple(v if t == k else p for t in range(n)))
    return out


def relabelled(graph, rng):
    """``graph`` under a random vertex permutation, edges in shuffled order."""
    perm = list(range(1, graph.n + 1))
    rng.shuffle(perm)
    edges = [(perm[i - 1], perm[j - 1]) for i, j in graph.edges]
    rng.shuffle(edges)
    return Graph(graph.n, edges)


def random_graph(rng, n, emax):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pairs)
    return Graph(n, pairs[:rng.randint(0, min(emax, len(pairs)))])


def random_sum(rng, n, emax, kind):
    """Two terms whose placement classes stay distinct, merge, or cancel."""
    g = random_graph(rng, n, emax)
    c = rng.choice([-3, -1, 1, 2, 5])
    if kind == "distinct":
        return RawSum({g: c, random_graph(rng, n, emax): rng.randint(1, 4)})
    if kind == "merge":
        return RawSum({g: c, relabelled(g, rng): rng.randint(-4, 4) or 1})
    # "cancel": swapping two edges negates the graph, so every class is 0
    while len(g.edges) < 2:
        g = random_graph(rng, n, emax)
    return RawSum({g: c, Graph(n, g.edges[1::-1] + g.edges[2:]): c})


def random_pure(rng, r, grade):
    while True:
        mv = rand_grade(rng, r, grade)
        if not mv.is_zero():
            return mv


def count_evaluations(monkeypatch):
    calls = []
    real = orient.evaluate

    def counted(gamma, entries):
        calls.append(gamma)
        return real(gamma, entries)

    monkeypatch.setattr(orient, "evaluate", counted)
    return calls


def test_odd_p_on_a_path_needs_the_koszul_sign():
    # v at vertex 2 moves past one odd p: a wrong sign doubles or cancels
    rng = random.Random(801)
    path = RawSum({Graph(3, [(1, 2), (2, 3)]): 1})
    nonzero = 0
    for _ in range(6):
        v = random_pure(rng, 3, 1)
        p = random_pure(rng, 3, 1)
        want = placements_oracle(path, v, p)
        assert _sum_over_placements(path, v, p) == want
        nonzero += not want.is_zero()
    assert nonzero >= 3


@pytest.mark.parametrize("kind", ["distinct", "merge", "cancel"])
def test_random_sums_match_the_per_slot_loop(kind):
    rng = random.Random({"distinct": 802, "merge": 803, "cancel": 804}[kind])
    nonzero = 0
    least = 2 if kind == "cancel" else 1  # two edges: 3+ vertices, odd p
    for _ in range(40):
        r = rng.randint(least, 3)
        n = rng.randint(2 * least - 1, 4)
        dv = rng.randint(0, min(3, r))
        dp = rng.randint(least - 1, min(3, r))
        v, p = random_pure(rng, r, dv), random_pure(rng, r, dp)
        gamma = random_sum(rng, n, max(2, dv + (n - 1) * dp), kind)
        want = placements_oracle(gamma, v, p)
        assert _sum_over_placements(gamma, v, p) == want
        if kind == "cancel":
            assert want.is_zero()
            g, c = next(iter(gamma.terms.items()))
            want = placements_oracle(RawSum({g: c}), v, p)
        nonzero += not want.is_zero()
    assert nonzero >= 8


def test_odd_degrees_with_merging_classes():
    # odd v and odd p on 3-4 vertices: the Koszul sign alternates with k
    rng = random.Random(805)
    nonzero = 0
    for _ in range(12):
        r = rng.randint(2, 3)
        n = rng.randint(3, 4)
        dv, dp = rng.choice([1, 3][:r - 1]), rng.choice([1, 3][:r - 1])
        v, p = random_pure(rng, r, dv), random_pure(rng, r, dp)
        g = random_graph(rng, n, dv + (n - 1) * dp)
        gamma = RawSum({g: 2, relabelled(g, rng): -1})
        want = placements_oracle(gamma, v, p)
        assert _sum_over_placements(gamma, v, p) == want
        nonzero += not want.is_zero()
    assert nonzero >= 3


def test_cancelling_classes_are_not_evaluated(monkeypatch):
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    gamma = RawSum({g: 1, Graph(3, [(2, 3), (1, 2), (1, 3)]): 1})
    rng = random.Random(806)
    v, p = random_pure(rng, 2, 1), random_pure(rng, 2, 2)
    calls = count_evaluations(monkeypatch)
    assert _sum_over_placements(gamma, v, p).is_zero()
    assert calls == []


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_gamma3_cocycle1_placements(request, gamma3, euler4, name):
    p = request.getfixturevalue(name)
    assert _sum_over_placements(gamma3, euler4, p) == placements_oracle(
        gamma3, euler4, p)
    # a field that is not an Euler field gives a nonzero sum
    v = random_pure(random.Random(807), 4, 1)
    want = placements_oracle(gamma3, v, p)
    assert not want.is_zero()
    assert _sum_over_placements(gamma3, v, p) == want


def test_gamma3_placements_on_gl2kk(gamma3, euler4, P1, gl2kk):
    # every single placement on the linear gl2kk vanishes, so vary at P1 too
    minus_euler = euler4.scale(-1)
    assert _sum_over_placements(gamma3, minus_euler, gl2kk) == placements_oracle(
        gamma3, minus_euler, gl2kk)
    want = placements_oracle(gamma3, gl2kk, P1)
    assert not want.is_zero()
    assert directional_flow(gamma3, P1, gl2kk) == want


def test_gamma3_placements_form_one_class(monkeypatch, gamma3, P1, euler4):
    # every automorphism of the tetrahedron is even: four placements, one class
    calls = count_evaluations(monkeypatch)
    _sum_over_placements(gamma3, euler4, P1)
    assert [gamma.terms for gamma in calls] == [
        {Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]): 4}]


def test_placement_classes_are_one_evaluation(monkeypatch):
    # the two (6,10) graphs of the pentagon-wheel cocycle, a 1-vector in one
    # slot: their placement classes are the terms of a single evaluate call
    rng = random.Random(808)
    calls = count_evaluations(monkeypatch)
    nonzero = 0
    for _ in range(4):
        gamma = RawSum({Graph(6, edges): rng.choice([-2, -1, 1, 3])
                        for edges in NONZERO_6_10})
        v = Multivector(3, {(mu,): rand_poly(rng, 3, maxdeg=3) for mu in (1, 2, 3)})
        p = cubic_bivector(rng)
        want = placements_oracle(gamma, v, p)
        calls.clear()
        assert _sum_over_placements(gamma, v, p) == want
        assert len(calls) == 1 and len(calls[0].terms) > 2
        nonzero += not want.is_zero()
    assert nonzero >= 2


@pytest.mark.parametrize("order", [("P1", "P2"), ("P2", "P1")])
def test_directional_flow_matches_the_per_slot_loop(request, gamma3, order):
    p, q = (request.getfixturevalue(name) for name in order)
    want = placements_oracle(gamma3, q, p)
    assert not want.is_zero()
    assert directional_flow(gamma3, p, q) == want
