"""Graph complex: canonical forms, signs, insertion, differential."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

import poissonflow.gracomplex as gracomplex
from poissonflow.errors import MalformedGraphError, ParseError
from poissonflow.gracomplex import (Graph, GraphSum, bracket, canonicalize,
                                    differential, insert, insert_terms,
                                    is_cocycle, parse_graph, parse_graphsum,
                                    point, render_graph, render_graphsum,
                                    simple_graph, stick, tetrahedron)

from test_differential_oracle import CLASSES, oracle


def perm_parity(seq):
    """Parity of the pairs a < b with seq[a] > seq[b]: the sign of a
    permutation of 0..n-1, or of the stable sort of any sequence."""
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return -1 if inv % 2 else 1


def brute_canonicalize(g):
    """Full n!-search reference: maximize the colex adjacency bit string.

    Independent of the pruned search in the package; same canonical-form
    definition, exhaustively enumerated.
    """
    if len(set(g.edges)) != len(g.edges):
        return None, 0
    n = g.n
    if not g.edges:
        return Graph(n, ()), 1
    adjacent = set()
    for (i, j) in g.edges:
        adjacent.add((i, j))
        adjacent.add((j, i))
    positions = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    best_bits = None
    best = None
    is_zero = False
    for perm in permutations(range(1, n + 1)):
        # perm[k] = original vertex receiving new label k+1
        bits = tuple(1 if (perm[i - 1], perm[j - 1]) in adjacent else 0
                     for (i, j) in positions)
        if best_bits is not None and bits < best_bits:
            continue
        newlabel = {v: k + 1 for k, v in enumerate(perm)}
        relabeled = [tuple(sorted((newlabel[i], newlabel[j])))
                     for i, j in g.edges]
        order = sorted(range(len(relabeled)), key=relabeled.__getitem__)
        key = tuple(relabeled[k] for k in order)
        sign = perm_parity(order)
        if best_bits is None or bits > best_bits:
            best_bits, best, is_zero = bits, (key, sign), False
        elif sign != best[1]:
            is_zero = True
    if is_zero:
        return None, 0
    return Graph(n, best[0]), best[1]


K4_MINUS_EDGE = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))


def random_graph(rng, nmax=5, emax=7):
    n = rng.randint(1, nmax)
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(possible)
    edges = possible[:rng.randint(0, min(emax, len(possible)))]
    rng.shuffle(edges)
    return Graph(n, edges)


# -- canonicalization -------------------------------------------------------


def test_doubled_edge_is_zero():
    assert canonicalize(Graph(2, ((1, 2), (1, 2)))) == (None, 0)


def test_single_edge_fixed():
    g = stick()
    assert canonicalize(g) == (g, 1)


def test_loops_rejected():
    with pytest.raises(MalformedGraphError):
        Graph(3, ((1, 1),))
    with pytest.raises(MalformedGraphError):
        Graph(2, ((1, 3),))


def test_tetrahedron_sign_tracks_edge_permutation_parity():
    base = tetrahedron()
    canon, base_sign = canonicalize(base)
    assert canon == base and base_sign == 1
    for perm in permutations(range(6)):
        g = Graph(4, tuple(base.edges[k] for k in perm))
        got, sign = canonicalize(g)
        assert got == base
        assert sign == perm_parity(perm)


def test_sort_parity_counts_strict_inversions_with_repeats():
    # the sign of the stable sort: equal items never count as swapped
    rng = random.Random(41)
    for _ in range(200):
        seq = [rng.randint(0, 3) for _ in range(rng.randint(0, 7))]
        assert gracomplex._sort_parity(seq) == (tuple(sorted(seq)), perm_parity(seq))


def test_canonicalize_matches_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng)
        assert canonicalize(g) == brute_canonicalize(g)


def test_canonicalize_isomorphism_invariance():
    rng = random.Random(24)
    for _ in range(60):
        g = random_graph(rng, nmax=5)
        canon, sign = canonicalize(g)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = Graph(g.n, tuple((perm[i - 1], perm[j - 1]) for i, j in g.edges))
        canon2, sign2 = canonicalize(h)
        assert canon == canon2
        if canon is not None:
            # both presentations resolve to the same signed canonical graph
            assert sign in (-1, 1) and sign2 in (-1, 1)


def test_path_killed_by_odd_automorphism():
    assert canonicalize(Graph(3, ((1, 2), (2, 3)))) == (None, 0)
    # the 3-cycle has an edge-transposing automorphism as well
    assert canonicalize(Graph(3, ((1, 2), (2, 3), (1, 3)))) == (None, 0)


# -- insertion ----------------------------------------------------------------


def test_insert_point_into_graph_and_back(gamma3):
    g3 = tetrahedron()
    assert insert(point(), g3) == GraphSum.single(g3)
    assert insert(stick(), point()) == GraphSum.single(stick()).scale(2)


def test_insert_stick_into_stick_enumeration():
    raw = list(insert_terms(stick(), stick()))
    # one reattachment slot per endpoint, two targets each
    assert len(raw) == 4
    for term in raw:
        assert term.n == 3 and term.n_edges == 2
        # every raw term is a 2-path, killed by its odd automorphism
        assert canonicalize(term) == (None, 0)
    assert insert(stick(), stick()).is_zero()


def test_insert_reattachment_count_oracle():
    rng = random.Random(25)
    for _ in range(25):
        g1 = random_graph(rng, nmax=4, emax=4)
        g2 = random_graph(rng, nmax=3, emax=2)
        deg = g1.degrees()
        expected = sum(g2.n ** deg[v] for v in range(1, g1.n + 1))
        assert len(list(insert_terms(g1, g2))) == expected


def test_insert_bigrading():
    rng = random.Random(26)
    for _ in range(20):
        g1 = random_graph(rng, nmax=4, emax=4)
        g2 = random_graph(rng, nmax=3, emax=3)
        for term in insert_terms(g1, g2):
            assert term.n == g1.n + g2.n - 1
            assert term.n_edges == g1.n_edges + g2.n_edges


# -- bracket and differential ---------------------------------------------------


def test_bracket_point_with_itself():
    assert bracket(point(), point()).is_zero()


def test_differential_point_is_minus_stick():
    assert differential(point()) == GraphSum.single(stick()).scale(-1)
    # and agrees with the bracket normalization d = -[stick, .]
    assert differential(point()) == -bracket(stick(), point())


def test_differential_tetrahedron_zero(gamma3):
    assert differential(gamma3).is_zero()
    assert is_cocycle(gamma3)


def test_is_cocycle_cases(gamma3):
    assert not is_cocycle(point())
    assert is_cocycle(GraphSum.zero())


def test_tetrahedron_self_bracket_zero(gamma3):
    assert bracket(gamma3, gamma3).is_zero()


def test_differential_bigrading():
    rng = random.Random(27)
    for _ in range(15):
        g = random_graph(rng, nmax=4, emax=5)
        for term in differential(g).terms:
            assert term.n == g.n + 1
            assert term.n_edges == g.n_edges + 1


def test_simple_graph_reads_the_mask_in_pair_order():
    assert simple_graph(1, 0) == point()
    assert simple_graph(4, 0b100001) == Graph(4, ((1, 2), (3, 4)))
    assert simple_graph(4, (1 << 6) - 1) == tetrahedron()
    graphs = {simple_graph(5, mask) for mask in range(1 << 10)}
    assert len(graphs) == 1 << 10
    assert {g.n_edges for g in graphs} == set(range(11))


def test_d_squared_zero_exhaustive_small():
    for n in range(1, 4):
        for mask in range(1 << n * (n - 1) // 2):
            assert differential(differential(simple_graph(n, mask))).is_zero()


def test_d_squared_zero_random_n5():
    rng = random.Random(28)
    for _ in range(8):
        g = random_graph(rng, nmax=5, emax=8)
        assert differential(differential(g)).is_zero()


def graded_jacobi_rhs(a, b, c):
    """Check graded antisymmetry of [a, b] and the graded Jacobi identity
    on three graphs; returns its right-hand side [[a, b], c]."""
    sign = -1 if (a.n_edges * b.n_edges) % 2 else 1
    assert bracket(b, a) == bracket(a, b).scale(-sign)
    lhs = bracket(a, bracket(b, c)) - bracket(b, bracket(a, c)).scale(sign)
    rhs = bracket(bracket(a, b), c)
    assert lhs == rhs
    return rhs


def test_bracket_graded_jacobi():
    rng = random.Random(29)
    for _ in range(10):
        a, b, c = (random_graph(rng, nmax=3, emax=3) for _ in range(3))
        if None in (canonicalize(a)[0], canonicalize(b)[0], canonicalize(c)[0]):
            continue
        graded_jacobi_rhs(a, b, c)


@pytest.mark.parametrize("a, b, c, terms", [
    (stick(), K4_MINUS_EDGE, tetrahedron(), 21),
    (K4_MINUS_EDGE, stick(), K4_MINUS_EDGE, 59),
], ids=["stick-k4e-g3", "k4e-stick-k4e"])
def test_bracket_graded_jacobi_on_four_vertex_graphs(a, b, c, terms):
    assert len(graded_jacobi_rhs(a, b, c).terms) == terms


def test_bracket_bigrading():
    rng = random.Random(30)
    for _ in range(15):
        g1 = random_graph(rng, nmax=3, emax=3)
        g2 = random_graph(rng, nmax=3, emax=3)
        for term in bracket(g1, g2).terms:
            assert term.n == g1.n + g2.n - 1
            assert term.n_edges == g1.n_edges + g2.n_edges


# -- text format -----------------------------------------------------------------


def test_graph_format_round_trip(gamma3):
    text = "graph{n=4; edges=(1,2)(1,3)(1,4)(2,3)(2,4)(3,4); c=1}"
    g, c = parse_graph(text)
    assert (g, c) == (tetrahedron(), 1)
    assert render_graph(g, c) == text
    assert parse_graphsum(render_graphsum(gamma3)) == gamma3


def test_graphsum_format_cases():
    assert parse_graphsum("graph{n=1; edges=; c=1}") == GraphSum.single(point())
    assert parse_graphsum("0").is_zero()
    assert render_graphsum(GraphSum.zero()) == "0"
    two_line = ("graph{n=1; edges=; c=-1/2}\n"
                "graph{n=2; edges=(1,2); c=3}")
    s = parse_graphsum(two_line)
    assert render_graphsum(s) == two_line
    assert parse_graphsum(two_line.replace("\n", "\n\n  \n")) == s
    with pytest.raises(ParseError):
        parse_graph("graph{n=2; edges=(1,2)}")


def test_graph_repr_and_comparison_with_other_types():
    assert repr(stick()) == "Graph(2, [(1, 2)])"
    assert stick() != (2, ((1, 2),))
    assert GraphSum.single(stick()) != stick()
    assert GraphSum.zero() != 0


def test_graphsum_constructor_canonicalizes_and_adds_its_terms():
    # one transposition of the tetrahedron's edges, a zero path, and a stick
    # beside an isolated vertex in labels that are not canonical
    swapped = Graph(4, ((1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)))
    s = GraphSum({tetrahedron(): 3, swapped: 1, Graph(3, ((1, 2), (2, 3))): 5,
                  Graph(3, ((2, 3),)): Fraction(2, 4)})
    assert s.terms == {tetrahedron(): 2, Graph(3, ((1, 2),)): Fraction(1, 2)}
    assert GraphSum({swapped: 1, tetrahedron(): 1}).is_zero()


def test_graphsum_sums_and_scales_to_zero():
    s = GraphSum.single(stick(), Fraction(1, 3)) + GraphSum.single(tetrahedron())
    assert (s + GraphSum.single(stick(), Fraction(-1, 3))).terms == {tetrahedron(): 1}
    assert (s - s).terms == {}
    assert s.scale(0).terms == {}


def test_parse_graph_coefficient_uses_polynomial_numbers():
    _, c = parse_graph("graph{n=1; edges=; c=-3/6}")
    assert c == Fraction(-1, 2)
    _, c = parse_graph("graph{n=1; edges=; c=4/2}")
    assert c == 2 and type(c) is int
    with pytest.raises(ParseError):
        parse_graph("graph{n=1; edges=; c=1/0}")


@pytest.mark.parametrize("make, error", [
    (lambda: Graph(0, ()), MalformedGraphError),
    (lambda: parse_graph("graph{n=1; edges=; c=1/2/3}"), ParseError),
    (lambda: parse_graph("graph{n=1; edges=; c=x1}"), ParseError),
], ids=["no-vertices", "double-slash", "variable-coefficient"])
def test_malformed_graphs_rejected(make, error):
    with pytest.raises(error):
        make()


def test_edge_order_is_the_file_order():
    g, _ = parse_graph("graph{n=3; edges=(2,3)(1,2); c=1}")
    assert g.edges == ((2, 3), (1, 2))


def test_canonicalize_idempotent():
    rng = random.Random(60)
    for _ in range(40):
        g = random_graph(rng)
        canon, sign = canonicalize(g)
        if canon is None:
            continue
        again, s2 = canonicalize(canon)
        assert again == canon and s2 == 1


# -- differential: one canonicalization per surviving split ------------------------


@pytest.mark.parametrize("graph, calls", [
    (Graph(*CLASSES["n6e10.wheel"]), 10),
    (Graph(*CLASSES["n6e10.other"]), 6),
    (tetrahedron(), 0),
    (point(), 1),
    (K4_MINUS_EDGE, 6),
], ids=["pentagon-wheel", "n6e10-other", "tetrahedron", "point", "K4-minus-edge"])
def test_differential_canonicalizes_each_surviving_split_once(graph, calls,
                                                              monkeypatch):
    # on graphs of minimum valence 3, one call per unordered split of a
    # vertex into two parts of >= 2 edge ends; each mirror pair was two
    s = GraphSum.single(graph)
    seen = []

    def counted(g):
        seen.append(g)
        return canonicalize(g)

    monkeypatch.setattr(gracomplex, "canonicalize", counted)
    d = differential(s)
    assert len(seen) == calls
    monkeypatch.undo()
    assert d == oracle(s)
