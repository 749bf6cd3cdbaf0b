"""The level-by-level search in ``canonicalize`` against the depth-first one.

``dfs_canonicalize`` is the recursive branch-and-bound search that
``canonicalize`` replaced, kept here as the oracle: both maximize the same
colex adjacency string over all labelings and enumerate every maximizing
labeling, so they must return the same canonical graph and sign, or both
report a zero graph.  ``brute_canonicalize`` (all n! labelings) checks both
on graphs of minimum valence 3 and on graphs with isolated vertices.
"""

import random
import time

import pytest

from poissonflow.gracomplex import (Graph, GraphSum, canonicalize, differential,
                                    insert_terms, stick)
from test_gracomplex import brute_canonicalize


# -- oracle: depth-first search --------------------------------------------------


def _sorted_with_parity(seq):
    order = sorted(range(len(seq)), key=seq.__getitem__)
    inversions = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
                     if order[a] > order[b])
    return tuple(seq[k] for k in order), -1 if inversions % 2 else 1


def dfs_canonicalize(g):
    edges = g.edges
    if len(set(edges)) != len(edges):
        return None, 0
    n = g.n
    if not edges:
        return Graph(n, ()), 1

    adj = [0] * (n + 1)
    for (i, j) in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    best = [None] * n       # best[k]: revealed bits when label k+1 is placed
    completions = []        # labelings (tuples old-vertex-per-new-label)
    assign = []
    used = [False] * (n + 1)

    def dfs(depth):
        if depth == n:
            completions.append(tuple(assign))
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            row = adj[v]
            bits = tuple((row >> assign[k]) & 1 for k in range(depth))
            cur = best[depth]
            if cur is not None:
                if bits < cur:
                    continue
                if bits > cur:
                    best[depth] = bits
                    for d in range(depth + 1, n):
                        best[d] = None
                    completions.clear()
            else:
                best[depth] = bits
            used[v] = True
            assign.append(v)
            dfs(depth + 1)
            assign.pop()
            used[v] = False

    dfs(0)

    canon_edges = None
    sign = 0
    for labeling in completions:
        newlabel = [0] * (n + 1)
        for k, v in enumerate(labeling):
            newlabel[v] = k + 1
        relabeled = []
        for (i, j) in edges:
            a, b = newlabel[i], newlabel[j]
            relabeled.append((a, b) if a < b else (b, a))
        key, s = _sorted_with_parity(relabeled)
        if canon_edges is None:
            canon_edges, sign = key, s
        elif s != sign:
            return None, 0
    return Graph(n, canon_edges), sign


# -- inputs ------------------------------------------------------------------------

# One nonzero class each at (6,10), (7,12) and (7,13), connected with
# minimum valence 3; the (6,10) one is the pentagon wheel.
WHEEL_6_10 = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 6),
              (5, 6))
CLASS_7_12 = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4),
              (5, 6), (5, 7), (6, 7))
CLASS_7_13 = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7),
              (4, 6), (4, 7), (5, 6), (5, 7))


def raw_terms_of_d_squared(n, edges):
    """Every graph d(d(g)) canonicalizes under its definition -[stick, .]:
    g and the stick themselves, then the raw insertion terms of the stick
    into g's canonical form and into each term of d(g), and of those into
    the stick.

    ``differential`` skips the terms that cancel in pairs, so these are
    built here rather than recorded from it; they include the leaf and
    bivalent graphs it no longer canonicalizes.
    """
    g = Graph(n, edges)
    dg = differential(g)
    assert differential(dg).is_zero()
    seen = [g, stick()]
    for x in list(GraphSum.single(g).terms) + list(dg.terms):
        seen.extend(insert_terms(stick(), x))
        seen.extend(insert_terms(x, stick()))
    return seen


def random_graph(rng, n):
    """Seeded graph on n vertices with at most 2n edges, sometimes with a
    doubled edge; isolated vertices and odd automorphisms are common."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
    if edges and rng.random() < 0.1:
        edges.append(rng.choice(edges))
    rng.shuffle(edges)
    return Graph(n, [(j, i) if rng.random() < 0.5 else (i, j) for (i, j) in edges])


def min_valence_3_graph(rng, n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        edges = rng.sample(pairs, rng.randint(3 * n // 2 + 1, len(pairs) - 2))
        if min(Graph(n, edges).degrees()[1:]) >= 3:
            return Graph(n, edges)


# -- the level-by-level search against the depth-first one -------------------------


@pytest.mark.parametrize("n, edges", [(6, WHEEL_6_10), (7, CLASS_7_12), (7, CLASS_7_13)],
                         ids=["n6e10", "n7e12", "n7e13"])
def test_raw_terms_of_d_squared_match_dfs(n, edges):
    terms = raw_terms_of_d_squared(n, edges)
    assert max(g.n for g in terms) == n + 2
    assert any(canonicalize(g)[0] is None for g in terms)
    assert any(canonicalize(g)[0] is not None for g in terms)
    for g in terms:
        assert canonicalize(g) == dfs_canonicalize(g), g


def test_random_graphs_match_dfs():
    rng = random.Random(71)
    zeros = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9))
        got = canonicalize(g)
        assert got == dfs_canonicalize(g), g
        zeros += got[0] is None
    assert 40 < zeros < 360


def test_zero_graphs_match_dfs():
    # parallel edges, and the odd automorphisms of a path, a cycle and a star
    for g in (Graph(4, ((1, 2), (3, 4), (2, 1))),
              Graph(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))),
              Graph(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1))),
              Graph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))):
        assert canonicalize(g) == dfs_canonicalize(g) == (None, 0)


@pytest.mark.parametrize("n, count", [(6, 12), (7, 10)])
def test_min_valence_3_graphs_match_brute_force(n, count):
    rng = random.Random(72 + n)
    for _ in range(count):
        g = min_valence_3_graph(rng, n)
        assert canonicalize(g) == brute_canonicalize(g), g


# -- isolated vertices -------------------------------------------------------------


def test_isolated_vertices_match_brute_force():
    rng = random.Random(74)
    for _ in range(60):
        n = rng.randint(3, 7)
        # at most n - 1 vertices carry edges, spread over labels 1..n
        g = random_graph(rng, rng.randint(1, n - 1))
        labels = rng.sample(range(1, n + 1), n)
        g = Graph(n, [(labels[i - 1], labels[j - 1]) for (i, j) in g.edges])
        assert canonicalize(g) == brute_canonicalize(g), g


@pytest.mark.parametrize("edges", [((3, 9),),
                                   ((2, 5), (5, 7), (2, 7), (7, 11), (11, 2), (11, 5))],
                         ids=["edge", "K4"])
def test_many_isolated_vertices_stay_fast(edges):
    # the same graph without its isolated vertices, relabeled in order
    index = {v: k for k, v in enumerate(sorted({v for e in edges for v in e}), 1)}
    small, sign = brute_canonicalize(Graph(len(index),
                                           [(index[i], index[j]) for i, j in edges]))
    start = time.perf_counter()
    assert canonicalize(Graph(16, edges)) == (Graph(16, small.edges), sign)
    assert time.perf_counter() - start < 0.5
