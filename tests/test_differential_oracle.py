"""``differential`` against its definition ``-bracket(stick(), .)``.

``differential`` builds each vertex split that survives cancellation once,
in the graph's own labels: one of each mirror pair at twice the
coefficient, no leaf splits or stick leaves, and no split isolating an edge
between two vertices of valence >= 3.  The oracle sums the bracket raw:
every insertion term, built from its definition by ``insertion_edges``
and canonicalized on its own, with none of the orbit weighting or term
generator ``insert`` and ``bracket`` use.  They must give the same
GraphSum on graphs of every valence, isolated vertices and zero graphs
included, on the nonzero min-valence-3 classes and every term of their d,
and on sums mixing edge parities and rational coefficients.
``insert_terms`` must list exactly the oracle's edge lists, in order.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from poissonflow.gracomplex import (Graph, GraphSum, canonicalize, differential,
                                    insert_terms, point, simple_graph, stick,
                                    tetrahedron)


def insertion_edges(g1, g2):
    """The edge lists of the raw insertions of g2 into g1, straight from the
    definition: for each vertex v of g1 in turn, remove v and move the
    labels above it down by one, put g2's vertices at n1..n1+n2-1, send
    each end at v to a vertex of g2 (every choice, in lexicographic order
    over g1's edges), and list g1's edges in place, then g2's."""
    n1 = g1.n
    for v in range(1, n1 + 1):
        at_v = [k for k, e in enumerate(g1.edges) if v in e]
        for targets in product(range(1, g2.n + 1), repeat=len(at_v)):
            to = dict(zip(at_v, targets))
            edges = []
            for k, (a, b) in enumerate(g1.edges):
                if k in to:
                    other = b if a == v else a
                    edges.append((other - (other > v), n1 - 1 + to[k]))
                else:
                    edges.append((a - (a > v), b - (b > v)))
            edges += [(n1 - 1 + a, n1 - 1 + b) for a, b in g2.edges]
            yield edges


def summands(s):
    """(graph, coefficient) pairs of a GraphSum, or of a Graph at 1."""
    return ((s, 1),) if isinstance(s, Graph) else s.terms.items()


def raw_insert(s1, s2):
    """insert(s1, s2) as the plain sum of its raw terms, each canonicalized."""
    out = GraphSum.zero()
    for a, ca in summands(s1):
        for b, cb in summands(s2):
            for edges in insertion_edges(a, b):
                out.add_term(Graph(a.n + b.n - 1, edges), ca * cb)
    return out


def raw_bracket(s1, s2):
    """bracket(s1, s2) from raw insertion sums: insert(s1, s2) minus
    (-1)^(E_a*E_b) c_a c_b insert(b, a) over the terms of s1 and s2."""
    out = raw_insert(s1, s2)
    for b, cb in summands(s2):
        for a, ca in summands(s1):
            sign = 1 if a.n_edges * b.n_edges % 2 else -1
            out = out + raw_insert(b, a).scale(sign * ca * cb)
    return out


def oracle(s):
    return -raw_bracket(stick(), s)


def test_insert_terms_are_the_insertions_of_the_definition():
    # edges listed out of order, several ends at one vertex, isolated vertices
    small = (point(), stick(), Graph(3, ((2, 3), (1, 2))), tetrahedron(),
             Graph(3, ()), Graph(4, ((3, 4), (1, 3))), Graph(4, ((1, 2), (1, 3), (2, 3))))
    for g1 in small:
        for g2 in small:
            got = [(g.n, list(g.edges)) for g in insert_terms(g1, g2)]
            assert got == [(g1.n + g2.n - 1, edges)
                           for edges in insertion_edges(g1, g2)], (g1, g2)


def present(rng, n, edges):
    """The same graph under seeded vertex labels and edge order."""
    labels = rng.sample(range(1, n + 1), n)
    edges = [(labels[i - 1], labels[j - 1]) for (i, j) in edges]
    rng.shuffle(edges)
    return Graph(n, edges)


# Nonzero classes of connected graphs of minimum valence 3: both terms of
# the pentagon-wheel cocycle at (6,10), then one class each at (6,11),
# (7,12) and (7,13).
CLASSES = {
    "n6e10.wheel": (6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                        (3, 5), (4, 6), (5, 6))),
    "n6e10.other": (6, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6),
                        (3, 5), (4, 6), (5, 6))),
    "n6e11": (6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5),
                  (3, 4), (3, 6), (5, 6))),
    "n7e12": (7, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4),
                  (3, 4), (5, 6), (5, 7), (6, 7))),
    "n7e13": (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5),
                  (3, 7), (4, 6), (4, 7), (5, 6), (5, 7))),
}


# -- every edge subset of the complete graphs K1..K5 -------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_edge_subset_of_the_complete_graph(n):
    valences = set()
    zeros = 0
    for mask in range(1 << n * (n - 1) // 2):
        g = simple_graph(n, mask)
        assert differential(g) == oracle(g), g
        valences.update(g.degrees()[1:])
        zeros += canonicalize(g)[0] is None
    assert valences == set(range(n))
    if n >= 3:
        assert zeros > 0


def test_point_stick_and_tetrahedron():
    assert differential(point()) == GraphSum.single(stick(), -1) == oracle(point())
    assert differential(stick()) == oracle(stick())
    assert differential(tetrahedron()).is_zero()
    assert oracle(tetrahedron()).is_zero()


# -- the min-valence-3 classes and every term of their d ---------------------------


@pytest.mark.parametrize("label", sorted(CLASSES))
def test_classes_and_the_terms_of_their_d(label):
    n, edges = CLASSES[label]
    rng = random.Random(label)
    g = present(rng, n, edges)
    dg = differential(g)
    assert dg == oracle(g)
    assert not dg.is_zero()
    for term in dg.terms:
        assert differential(term) == oracle(term), term
    assert differential(dg) == oracle(dg)
    assert differential(dg).is_zero()


# -- sums mixing edge parities, valences and rational coefficients -----------------


def random_graph(rng, n):
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))


def test_mixed_graph_sums():
    rng = random.Random(91)
    for _ in range(40):
        s = GraphSum.zero()
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            s.add_term(random_graph(rng, rng.randint(1, 6)), c)
        assert differential(s) == oracle(s), s
    s = GraphSum.zero()
    for n, edges in CLASSES.values():
        s.add_term(Graph(n, edges), Fraction(len(edges), n))
    s.add_term(tetrahedron(), Fraction(-3, 7))
    s.add_term(Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3))), Fraction(5, 2))
    assert {g.n_edges % 2 for g in s.terms} == {0, 1}
    assert differential(s) == oracle(s)
