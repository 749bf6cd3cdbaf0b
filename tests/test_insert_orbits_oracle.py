"""``insert`` and ``bracket`` against the raw sum of their terms.

``insert`` and ``bracket`` build one insertion term per symmetry orbit,
weighted by the orbit's size, with the automorphisms the canonical-labeling
search finds (see the ``gracomplex`` module docstring).  The oracle sums
every raw term of ``insert_terms``, each canonicalized on its own, and
shares no orbit code with them.  They must agree on every simple graph on
at most 4 vertices paired both ways with small graphs, on graphs with
isolated vertices, on sums holding zero terms, on sums with rational
coefficients, and on the pairs the ``graph`` benchmark brackets.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import poissonflow.gracomplex as gracomplex
from poissonflow.gracomplex import (Graph, GraphSum, bracket, insert, point,
                                    simple_graph, stick, tetrahedron)

from test_differential_oracle import CLASSES, present, raw_bracket, raw_insert

K4_MINUS_EDGE = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))
PATH3 = Graph(3, ((1, 2), (2, 3)))

PARTNERS = {
    "point": point(),
    "stick": stick(),
    "path3": PATH3,
    "g3": tetrahedron(),
    "k4e": K4_MINUS_EDGE,
}


def check(s1, s2):
    """insert both ways and bracket of s1 and s2 against the raw sums."""
    assert insert(s1, s2) == raw_insert(s1, s2), (s1, s2)
    assert insert(s2, s1) == raw_insert(s2, s1), (s2, s1)
    assert bracket(s1, s2) == raw_bracket(s1, s2), (s1, s2)


@pytest.mark.parametrize("partner", sorted(PARTNERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_simple_graph_with_small_graphs(n, partner):
    h = PARTNERS[partner]
    for mask in range(1 << n * (n - 1) // 2):
        check(simple_graph(n, mask), h)


def test_graphs_with_isolated_vertices():
    triangle_and_three = Graph(6, ((2, 4), (4, 6), (2, 6)))
    stick_after_two = Graph(4, ((3, 4),))
    g3_and_one = Graph(5, ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    alone = Graph(3, ())
    for g in (triangle_and_three, stick_after_two, g3_and_one, alone):
        for h in (point(), stick(), tetrahedron(), K4_MINUS_EDGE, alone):
            check(g, h)


def test_zero_terms_of_a_raw_sum_contribute_nothing():
    doubled = Graph(2, ((1, 2), (1, 2)))
    s = GraphSum._raw({doubled: 3, PATH3: Fraction(1, 2), tetrahedron(): 2})
    alone = GraphSum.single(tetrahedron(), 2)
    for h in (stick(), tetrahedron(), K4_MINUS_EDGE):
        check(s, h)
        assert insert(s, h) == insert(alone, h)
        assert insert(h, s) == insert(h, alone)
        assert bracket(s, h) == bracket(alone, h)
    assert insert(GraphSum._raw({doubled: 1}), stick()).is_zero()
    assert bracket(PATH3, tetrahedron()).is_zero()


def test_sums_with_rational_coefficients():
    s1 = GraphSum({tetrahedron(): Fraction(1, 3), K4_MINUS_EDGE: Fraction(-5, 2),
                   stick(): 7})
    s2 = GraphSum({stick(): Fraction(2, 3), Graph(3, ((1, 2), (1, 3), (2, 3))):
                   Fraction(-1, 4), point(): Fraction(3, 5)})
    check(s1, s2)
    check(s1, s1)


@pytest.mark.parametrize("label", ["g3.k4e", "k4e.k4e", "n6e10.wheel.stick",
                                   "n6e10.other.stick"])
def test_benchmark_pairs(label):
    rng = random.Random(label)
    if label == "g3.k4e":
        a = present(rng, 4, tetrahedron().edges)
        b = present(rng, 4, K4_MINUS_EDGE.edges)
    elif label == "k4e.k4e":
        a = present(rng, 4, K4_MINUS_EDGE.edges)
        b = present(rng, 4, K4_MINUS_EDGE.edges)
    else:
        a = present(rng, *CLASSES[label[:-len(".stick")]])
        b = present(rng, 2, stick().edges)
    check(a, b)
    assert not bracket(a, b).is_zero()


def test_bracket_of_g3_and_k4e_searches_once_per_orbit(monkeypatch):
    # the two insertions have 416 raw terms but 27 orbits: one call per
    # orbit term, and one automorphism search per input graph
    calls = Counter()

    def counted(name):
        real = getattr(gracomplex, name)

        def wrapper(g):
            calls[name] += 1
            return real(g)
        return wrapper

    for name in ("canonicalize", "_canonical_form"):
        monkeypatch.setattr(gracomplex, name, counted(name))
    out = bracket(tetrahedron(), K4_MINUS_EDGE)
    monkeypatch.undo()
    assert len(out.terms) == 9
    assert calls["canonicalize"] <= 30
    # every search: the canonicalizations and the inputs' automorphisms
    assert calls["_canonical_form"] <= 30
