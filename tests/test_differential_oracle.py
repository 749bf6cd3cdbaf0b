"""``differential`` against its definition ``-bracket(stick(), .)``.

``differential`` builds each vertex split that survives cancellation once,
in the graph's own labels: one of each mirror pair at twice the
coefficient, no leaf splits or stick leaves, and no split isolating an edge
between two vertices of valence >= 3.  The oracle sums the bracket raw:
every term of ``insert_terms`` canonicalized on its own, with none of the
orbit weighting ``insert`` and ``bracket`` use.  They must give the same
GraphSum on graphs of every valence, isolated vertices and zero graphs
included, on the nonzero min-valence-3 classes and every term of their d,
and on sums mixing edge parities and rational coefficients.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from poissonflow.gracomplex import (Graph, GraphSum, as_graphsum, canonicalize,
                                    differential, insert_terms, point,
                                    simple_graph, stick, tetrahedron)


def raw_insert(s1, s2):
    """insert(s1, s2) as the plain sum of its raw terms, each canonicalized."""
    out = GraphSum.zero()
    for a, ca in as_graphsum(s1).terms.items():
        for b, cb in as_graphsum(s2).terms.items():
            for term in insert_terms(a, b):
                out.add_term(term, ca * cb)
    return out


def raw_bracket(s1, s2):
    """bracket(s1, s2) from raw insertion sums: insert(s1, s2) minus
    (-1)^(E_a*E_b) c_a c_b insert(b, a) over the terms of s1 and s2."""
    out = raw_insert(s1, s2)
    for b, cb in as_graphsum(s2).terms.items():
        for a, ca in as_graphsum(s1).terms.items():
            sign = 1 if a.n_edges * b.n_edges % 2 else -1
            out = out + raw_insert(b, a).scale(sign * ca * cb)
    return out


def oracle(s):
    return -raw_bracket(stick(), s)


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
