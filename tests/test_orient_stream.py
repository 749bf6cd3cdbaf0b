"""The streaming evaluator against the listed-order pipeline and the oracle.

``evaluate`` closes the vertices k = 1..n in turn: the edges (i, k), i < k,
act by the Leibniz rule on a map from derivatives of entry k to states over
sheets 1..k-1, and each state is then multiplied by its derivative of entry
k.  At the last vertex the sheets fold into slot 1 as their edges finish,
and each one-slot state is multiplied by its derivative of entry n into one
packed accumulator, merged once; the value is corrected by the parity of
grouping the edges by their larger endpoint.  ``pipeline``
below lifts every sheet first and then applies the edges in their listed
order; ``evaluate_oracle`` re-derives the whole evaluation on the
multivector calculus over n*r variables.
"""

import random

import pytest

from poissonflow.gracomplex import Graph, GraphSum, tetrahedron
from poissonflow.multivec import Multivector, parse_multivector
from poissonflow.orient import apply_edge, evaluate, flow, lift, merge
from poissonflow.ratpoly import Poly

from test_orient_oracle import evaluate_oracle, rand_grade


def pipeline(graph, entries):
    state = lift(entries)
    for (i, j) in graph.edges:
        state = apply_edge(state, i, j)
    return merge(state)


def random_edges(rng, n, count):
    """``count`` edges in random order, orientation and with repeats."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return [rng.choice(pairs) for _ in range(count)] if pairs else []


def random_entries(rng, r, n):
    """Slots of mixed grades: 0-vectors, odd 1-vectors and bivectors."""
    while True:
        entries = [rand_grade(rng, r, rng.choice([g for g in (0, 1, 2) if g <= r]))
                   for _ in range(n)]
        if not any(e.is_zero() for e in entries):
            return entries


def test_stream_matches_listed_order_pipeline_random():
    rng = random.Random(80)
    nonzero = 0
    for _ in range(60):
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        g = Graph(n, random_edges(rng, n, rng.randint(0, 5)))
        entries = random_entries(rng, r, n)
        got = evaluate(g, entries)
        assert got == pipeline(g, entries), (g.edges, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 15  # the comparison is not only between zeros


def test_stream_matches_multivector_oracle_random():
    rng = random.Random(81)
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(1, 3)
        g = Graph(n, random_edges(rng, n, rng.randint(0, 4)))
        entries = random_entries(rng, r, n)
        assert evaluate(g, entries) == evaluate_oracle(g, entries)


def test_odd_edge_reordering_keeps_the_listed_order_sign():
    # (2,3) acts after sheet 3 and (1,2) after sheet 2: one inversion
    rng = random.Random(82)
    g = Graph(3, [(2, 3), (1, 2)])
    nonzero = 0
    for _ in range(10):
        entries = [rand_grade(rng, 2, k) for k in (1, 2, 1)]
        got = evaluate(g, entries)
        assert got == evaluate_oracle(g, entries)
        assert got == -evaluate(Graph(3, [(1, 2), (2, 3)]), entries)
        nonzero += not got.is_zero()
    assert nonzero


def test_shuffled_endpoints_and_repeated_edges():
    rng = random.Random(84)
    g = Graph(3, [(3, 1), (2, 1), (3, 2)])
    entries = [rand_grade(rng, 2, 2), rand_grade(rng, 2, 1), rand_grade(rng, 2, 2)]
    got = evaluate(g, entries)
    assert not got.is_zero()
    assert got == evaluate_oracle(g, entries)
    # an edge listed twice acts as the square of an odd operator: zero
    twice = Graph(3, [(1, 2), (3, 1), (2, 1), (3, 2)])
    assert evaluate(twice, entries).is_zero()
    assert evaluate_oracle(twice, entries).is_zero()


@pytest.mark.parametrize("graph, entries", [
    # no odd factor for the first edge to differentiate
    (Graph(2, [(1, 2)]), (Multivector(2, {(): Poly(2, {(1, 1): 2})}),) * 2),
    # constant 1-vectors: every x-derivative misses
    (Graph(2, [(1, 2)]), (Multivector(2, {(1,): Poly.constant(2, 1)}),
                          Multivector(2, {(2,): Poly.constant(2, 3)}))),
    # the last edge kills what the first one left
    (Graph(3, [(1, 2), (1, 3)]),
     (parse_multivector("(x1) xi1", nvars=2),) * 2
     + (parse_multivector("(1)", nvars=2),)),
])
def test_edges_that_kill_every_term(graph, entries):
    assert evaluate(graph, entries).is_zero()
    assert pipeline(graph, entries).is_zero()


# a second bivector for two of the four slots, so that the comparison is
# not only between zeros: the flows of gl2kk and nambu_quartic vanish
DIRECTIONS = {
    "P1": "P2",
    "P2": "P1",
    "gl2kk": "(x1^3 + x2*x4^2) xi1 xi2 + (x3^2*x4) xi3 xi4 + (x1*x2*x3) xi2 xi4",
    "nambu_quartic": "(x1^2*x2) xi1 xi2 + (x3^3) xi2 xi3 + (x1*x3) xi1 xi3",
}


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_tetrahedron_matches_pipeline(name, request):
    p = request.getfixturevalue(name)
    q = DIRECTIONS[name]
    q = (request.getfixturevalue(q) if q in DIRECTIONS
         else parse_multivector(q, nvars=p.nvars))
    g3 = tetrahedron()
    got = evaluate(g3, (p,) * 4)
    assert got == pipeline(g3, (p,) * 4)
    assert flow(GraphSum.single(g3), p) == got
    mixed = evaluate(g3, (p, q, p, q))
    assert not mixed.is_zero()
    assert mixed == pipeline(g3, (p, q, p, q))


def test_tetrahedron_vector_slot_matches_pipeline(euler4, P1):
    # Euler field in each slot of a relabelled tetrahedron, edges shuffled
    rng = random.Random(85)
    edges = list(tetrahedron().edges)
    rng.shuffle(edges)
    g = Graph(4, edges)
    for k in range(4):
        entries = tuple(euler4 if t == k else P1 for t in range(4))
        assert evaluate(g, entries) == pipeline(g, entries)


def test_graph_sum_is_the_sum_of_its_canonical_terms(P2):
    gamma = GraphSum.single(tetrahedron(), 3) + GraphSum.single(
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]), -1)
    want = Multivector.zero(4)
    assert len(gamma.terms) == 2
    for graph, c in gamma.terms.items():
        want = want + pipeline(graph, (P2,) * 4).scale(c)
    assert evaluate(gamma, (P2,) * 4) == want
    assert evaluate(GraphSum.zero(), (P2,) * 2).is_zero()


