"""``insert`` and ``bracket`` against the raw sum of their terms.

``insert`` and ``bracket`` build one insertion term per symmetry orbit,
weighted by the orbit's size, with the automorphisms the canonical-labeling
search finds (see the ``gracomplex`` module docstring).  The oracle sums
every raw insertion term, built from the definition in
``test_differential_oracle`` and canonicalized on its own, and shares no
code with them.  They must agree on every simple graph on
at most 4 vertices paired both ways with small graphs, on graphs with
isolated vertices on either side (all of them one orbit), on sums holding
zero terms, on sums with rational coefficients, and on the pairs the
``graph`` benchmark brackets.
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


# nonzero graphs whose isolated vertices sit before, between and after the
# others, so that an orbit of isolated vertices is summed on either side
G3_AND_TWO = Graph(6, ((1, 3), (1, 4), (1, 6), (3, 4), (3, 6), (4, 6)))
K4E_AND_THREE = Graph(7, ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7)))
STICK_AND_FOUR = Graph(6, ((2, 5),))
TWO_ALONE = Graph(2, ())


@pytest.mark.parametrize("g", [G3_AND_TWO, K4E_AND_THREE, STICK_AND_FOUR, TWO_ALONE],
                         ids=["g3+2", "k4e+3", "stick+4", "two-alone"])
def test_isolated_vertices_on_both_sides(g):
    for h in (K4E_AND_THREE, STICK_AND_FOUR, TWO_ALONE, stick(), tetrahedron()):
        check(g, h)


def test_sums_with_isolated_vertices():
    check(GraphSum({G3_AND_TWO: Fraction(2, 3), STICK_AND_FOUR: -1}),
          GraphSum({K4E_AND_THREE: 5, TWO_ALONE: Fraction(1, 7)}))


def count_searches(monkeypatch):
    """Count every ``_canonical_form`` call, ``canonicalize``'s included."""
    calls = Counter()
    real = gracomplex._canonical_form

    def counted(g):
        calls["_canonical_form"] += 1
        return real(g)
    monkeypatch.setattr(gracomplex, "_canonical_form", counted)
    return calls


@pytest.mark.parametrize("edges, inserted, searches", [
    (((1, 2),), False, 2 + 2), (((1, 2),), True, 2 + 2),
    (K4_MINUS_EDGE.edges, False, 2 + 7), (K4_MINUS_EDGE.edges, True, 2 + 3),
], ids=["stick-into", "stick-inserted", "k4e-into", "k4e-inserted"])
def test_isolated_vertices_form_one_orbit(edges, inserted, searches, monkeypatch):
    # a graph with 1 998 or 1 996 isolated vertices, into which the stick is
    # inserted or which is inserted into it: its isolated vertices were that
    # many orbits on the g1 side, and that many reattachments on the g2 side
    def pair(n):
        g = Graph(n, edges)
        return (stick(), g) if inserted else (g, stick())

    calls = count_searches(monkeypatch)
    out = insert(*pair(2000))
    monkeypatch.undo()
    # the two inputs, then one term per orbit: the stick's vertices with
    # the two ends of the stick, and the isolated vertices; K4-e's vertices
    # of valence 3 and 2, with 4 and 2 reattachment orbits of the stick, or
    # as targets of its end, and the isolated vertices
    assert calls["_canonical_form"] == searches
    assert out.is_zero() == (edges == ((1, 2),))
    assert insert(*pair(40)) == raw_insert(*pair(40))
