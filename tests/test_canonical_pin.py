"""The canonical form pinned, and the automorphisms checked by brute force.

The canonical representative, its sign and the zero verdict of a graph are
part of every stored result (``derived_constants.json``, the CLI transcript,
the benchmark digests), so a faster search must reproduce them exactly.
One sha256 pins them over every ``simple_graph(n, mask)`` with n <= 5 and
over seeded relabelings of the nonzero classes the ``graph`` benchmark
runs; a second pins the automorphism lists of the same graphs, in order.
The digests were recorded from the breadth-first search that filtered each
level by its maximum key and signed every maximizing labeling by sorting.

The automorphisms ``_symmetric_terms`` builds from the labelings that
``_canonical_form`` returns are checked against every
vertex permutation of small graphs, and the terms ``differential`` and
``_insertions`` build through the trusted ``Graph._raw`` against the
checking constructor.
"""

import hashlib
import random
from itertools import permutations

import poissonflow.gracomplex as gracomplex
from poissonflow.gracomplex import (Graph, GraphSum, _canonical_form,
                                    _insertions, _symmetric_terms, canonicalize,
                                    differential, point, render_graph,
                                    simple_graph, stick, tetrahedron)

from test_canonicalize_oracle import random_graph
from test_differential_oracle import CLASSES, present
from test_gracomplex import perm_parity

# The nonzero classes of the ``graph`` benchmark at (6,10), (7,12), (7,13).
BENCHMARK_CLASSES = (
    (6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 6),
         (5, 6))),
    (6, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 6),
         (5, 6))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4),
         (5, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 7), (3, 4),
         (5, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 7),
         (4, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 4), (3, 7),
         (5, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 7),
         (5, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 6), (3, 7), (4, 6),
         (5, 6), (5, 7), (6, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7),
         (4, 6), (4, 7), (5, 6), (5, 7))),
    (7, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7),
         (4, 6), (5, 6), (5, 7), (6, 7))),
)

CANONICAL_SHA256 = (
    "9024aedf9f28f73cf9d244724649c20e02771f4ebfe7b1a9d04bc6315d3f4411")
AUTOMORPHISMS_SHA256 = (
    "2db3e4b56e32db51a805a1412594731d73357b62591e962d06a81a8ba41deb1b")


def automorphisms(g):
    """The automorphisms ``insert`` sums over for g; [] when g is zero."""
    terms = _symmetric_terms(g)
    return terms[0][2] if terms else []


def pinned_graphs():
    """Every simple graph on 1..5 vertices (1 099), then five seeded
    relabelings of each benchmark class."""
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            yield simple_graph(n, mask)
    rng = random.Random(29)
    for n, edges in BENCHMARK_CLASSES:
        for _ in range(5):
            yield present(rng, n, edges)


def digests():
    canon, autos = hashlib.sha256(), hashlib.sha256()
    for g in pinned_graphs():
        graph, sign, _ = _canonical_form(g)
        found = automorphisms(g)
        canon.update(b"zero\n" if graph is None else
                     (render_graph(graph, sign) + "\n").encode())
        autos.update(("%r\n" % [list(p)[1:] for p in found]).encode())
    return canon.hexdigest(), autos.hexdigest()


def test_canonical_forms_and_automorphisms_are_pinned():
    assert sum(1 for _ in pinned_graphs()) == 1099 + 5 * len(BENCHMARK_CLASSES)
    assert digests() == (CANONICAL_SHA256, AUTOMORPHISMS_SHA256)


# -- the automorphisms against every vertex permutation ----------------------------


def brute_automorphisms(g):
    """The vertex permutations that fix g's isolated vertices and map its
    edge multiset onto itself, each as the tuple of images of 1..n, and
    whether one of them permutes the edge positions oddly; a doubled edge
    counts as odd, since the identity may swap its two copies."""
    deg = g.degrees()
    edges = sorted(g.edges)
    odd = len(set(edges)) != len(edges)
    found = set()
    for p in permutations(range(1, g.n + 1)):
        if any(p[v - 1] != v for v in range(1, g.n + 1) if not deg[v]):
            continue
        image = [tuple(sorted((p[i - 1], p[j - 1]))) for (i, j) in g.edges]
        if sorted(image) != edges:
            continue
        found.add(p)
        if not odd:
            odd = perm_parity([g.edges.index(e) for e in image]) < 0
    return found, odd


def test_automorphisms_match_brute_force():
    rng = random.Random(291)
    kinds = set()
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6))
        graph, sign, _ = _canonical_form(g)
        autos = automorphisms(g)
        found, odd = brute_automorphisms(g)
        if odd:
            assert (graph, sign, autos) == (None, 0, []), g
        else:
            assert [p[0] for p in autos] == [0] * len(autos)
            assert sorted(tuple(p[1:]) for p in autos) == sorted(found), g
            assert list(autos[0]) == list(range(g.n + 1))
        kinds.add(("doubled" if len(set(g.edges)) < len(g.edges) else
                   "zero" if odd else "symmetric" if len(found) > 1 else "rigid",
                   0 in g.degrees()[1:]))
    assert len(kinds) == 8


# -- the terms built by Graph._raw pass the checking constructor -----------------


def assert_checked(t):
    assert type(t.edges) is tuple and t == Graph(t.n, t.edges), t


def test_unchecked_graphs_pass_the_checking_constructor(monkeypatch):
    graphs = [Graph(*CLASSES[name]) for name in sorted(CLASSES)]
    graphs += [point(), stick(), tetrahedron(), Graph(5, ((2, 4), (1, 4), (4, 5))),
               Graph(7, ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7)))]
    split = []

    def recorded(g):
        split.append(g)
        return canonicalize(g)

    monkeypatch.setattr(gracomplex, "canonicalize", recorded)
    for g in graphs:
        differential(GraphSum.single(g))
    monkeypatch.undo()
    assert len(split) > 40
    for t in split:
        assert_checked(t)
        canon = canonicalize(t)[0]
        if canon is not None:
            assert_checked(canon)
    for g1 in graphs[-4:]:
        for g2 in graphs[-4:]:
            autos1, autos2 = automorphisms(g1), automorphisms(g2)
            for _, t in _insertions(g1, g2, None, None):
                assert_checked(t)
            if autos1 and autos2:
                for _, t in _insertions(g1, g2, autos1, autos2):
                    assert_checked(t)


if __name__ == "__main__":
    print(digests())
