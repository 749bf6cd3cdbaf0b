"""The Leibniz-rule last vertex against the streaming evaluator it replaced.

``evaluate`` never multiplies in the last sheet: the edges (i, n) act on
pairs (A, derivative descriptor of entry n), in ascending order of i, and
each sheet folds into slot 1 once no edge is left to act on it; every A_d
then lives in one slot and is multiplied by d(entry n) into one
accumulator.  ``streaming_oracle`` is the evaluator it replaced, kept as
written: it multiplies every sheet in, the last one included, applies
each edge right after its larger endpoint's sheet and merges at the end.
The fold tests also check ``evaluate_oracle``, which shares nothing with
the bit-packed representation.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from poissonflow import orient
from poissonflow.errors import PreconditionError
from poissonflow.gracomplex import Graph, GraphSum, tetrahedron
from poissonflow.multivec import Multivector
from poissonflow.orient import (_sum_over_placements, _times_sheet, _vertex_count,
                                apply_edge, cocycle1, directional_flow, evaluate,
                                merge)
from poissonflow.ratpoly import Poly

from test_orient_oracle import evaluate_oracle, rand_grade, rand_poly
from test_placements_oracle import NONZERO_6_10, RawSum, cubic_bivector


def streaming_oracle(gamma, entries) -> Multivector:
    terms = ((gamma, 1),) if isinstance(gamma, Graph) else gamma.terms.items()
    entries = tuple(entries)
    for mv in entries:
        if mv.degree() is None:
            raise PreconditionError("vertex contents must have pure xi-degree")
    unit = orient._unit(entries)
    n = len(entries)
    result = Multivector.zero(unit.nvars)
    for graph, c in terms:
        if graph.n != n:
            raise PreconditionError(
                "graph on %d vertices fed %d multivectors" % (graph.n, n))
        # edges are stored (i, j) with i < j: edge (i, j) acts after sheet j
        closing = [[] for _ in range(n + 1)]
        for edge in graph.edges:
            closing[edge[1]].append(edge)
        swaps = sum(1 for s, t in combinations(graph.edges, 2) if s[1] > t[1])
        state = unit
        for k, mv in enumerate(entries, 1):
            state = _times_sheet(state, mv)
            for (i, j) in closing[k]:
                state = apply_edge(state, i, j)
            if state.is_zero():
                break
        result = result + merge(state).scale(-c if swaps & 1 else c)
    return result


def placements_oracle(gamma, v, p):
    n = _vertex_count(gamma)
    out = Multivector.zero(p.nvars)
    for k in range(n):
        out = out + streaming_oracle(gamma, tuple(v if t == k else p for t in range(n)))
    return out


def random_edges(rng, n, count, repeat):
    """``count`` distinct edges, each reversed at random, plus one repeat."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = rng.sample(pairs, min(count, len(pairs)))
    if repeat and edges:
        edges.append(rng.choice(edges))
    return [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]


def nonzero_grade(rng, r, grade):
    while True:
        mv = rand_grade(rng, r, grade)
        if not mv.is_zero():
            return mv


def test_random_graphs_with_repeats_reversals_and_zero_entries():
    rng = random.Random(1201)
    nonzero = repeated = 0
    for trial in range(120):
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        g = Graph(n, random_edges(rng, n, rng.randint(0, 5), trial % 7 == 0))
        entries = [rand_grade(rng, r, rng.randint(0, r)) for _ in range(n)]
        if trial % 10 == 0:
            entries[rng.randrange(n)] = Multivector.zero(r)
        got = evaluate(g, entries)
        assert got == streaming_oracle(g, entries), (g.edges, entries)
        nonzero += not got.is_zero()
        repeated += len(set(g.edges)) < len(g.edges)
    assert nonzero >= 30
    assert repeated >= 10


def test_single_vertex_and_isolated_last_vertex():
    rng = random.Random(1202)
    nonzero = 0
    for _ in range(40):
        r = rng.randint(1, 3)
        entry = rand_grade(rng, r, rng.randint(0, r))
        assert evaluate(Graph(1, []), [entry]) == entry
        assert streaming_oracle(Graph(1, []), [entry]) == entry
        entries = [nonzero_grade(rng, r, rng.randint(0, r)) for _ in range(3)]
        # vertex 3 has no edge
        g = Graph(3, random_edges(rng, 2, 1, False) if rng.random() < 0.8 else [])
        got = evaluate(g, entries)
        assert got == streaming_oracle(g, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 10


@pytest.mark.parametrize("grade", [0, 1, 2, 3])
def test_last_entries_of_every_grade(grade):
    rng = random.Random(1210 + grade)
    nonzero = 0
    for _ in range(25):
        n = rng.randint(2, 4)
        g = Graph(n, random_edges(rng, n, rng.randint(1, 4), False))
        entries = [nonzero_grade(rng, 3, rng.randint(1, 3)) for _ in range(n - 1)]
        entries.append(nonzero_grade(rng, 3, grade))
        got = evaluate(g, entries)
        assert got == streaming_oracle(g, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 4


def test_graph_sums_share_one_derivative_table(P1, P2):
    a = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    b = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])
    gamma = GraphSum.single(a, 3) + GraphSum.single(b, Fraction(-1, 2))
    assert len(gamma.terms) == 2
    v = nonzero_grade(random.Random(1221), 4, 1)
    for entries in ((P2, v, P2, P2), (P1, P1, P1, P1)):
        got = evaluate(gamma, entries)
        assert got == streaming_oracle(gamma, entries)
        assert not got.is_zero()


@pytest.mark.parametrize("which", [0, 1])
def test_pentagon_wheel_terms_on_low_degree_bivectors(which):
    rng = random.Random(1230 + which)
    g = Graph(6, NONZERO_6_10[which])
    nonzero = 0
    for _ in range(6):
        entries = [cubic_bivector(rng) for _ in range(6)]
        got = evaluate(g, entries)
        assert got == streaming_oracle(g, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 2


def test_cocycle1_placements(gamma3, P1, euler4):
    rng = random.Random(1240)
    assert _sum_over_placements(gamma3, euler4, P1) == placements_oracle(
        gamma3, euler4, P1)
    for _ in range(2):
        v = nonzero_grade(rng, 4, 1)
        want = placements_oracle(gamma3, v, P1)
        assert not want.is_zero()
        assert _sum_over_placements(gamma3, v, P1) == want


@pytest.mark.parametrize("order", [("P1", "P2"), ("P2", "P1")])
def test_directional_flow_placements(request, gamma3, order):
    p, q = (request.getfixturevalue(name) for name in order)
    want = placements_oracle(gamma3, q, p)
    assert not want.is_zero()
    assert directional_flow(gamma3, p, q) == want


def test_placements_with_odd_slots():
    # v and p of odd degree: the placement classes carry Koszul signs
    rng = random.Random(1250)
    path = RawSum({Graph(3, [(1, 2), (2, 3)]): 1})
    star = RawSum({Graph(4, [(1, 4), (2, 4), (3, 4), (1, 2)]): 1,
                   Graph(4, [(2, 4), (1, 3), (3, 4)]): -2})
    nonzero = 0
    for gamma in (path, star) * 3:
        v, p = nonzero_grade(rng, 3, 1), nonzero_grade(rng, 3, rng.choice([1, 3]))
        want = placements_oracle(gamma, v, p)
        assert _sum_over_placements(gamma, v, p) == want
        nonzero += not want.is_zero()
    assert nonzero >= 2


def test_tetrahedron_flows_match(P1, P2, gl2kk):
    g3 = tetrahedron()
    for p in (P1, P2, gl2kk):
        assert evaluate(g3, (p,) * 4) == streaming_oracle(g3, (p,) * 4)
    assert not evaluate(g3, (P2,) * 4).is_zero()
    scalar = Multivector(4, {(): Poly.constant(4, 1)})
    assert evaluate(g3, (P1, P1, P1, scalar)).is_zero()


# -- folding finished sheets into slot 1 at the last vertex ---------------------


def both_oracles(gamma, entries):
    """The streaming value, checked against the multivector calculus."""
    want = streaming_oracle(gamma, entries)
    terms = ((gamma, 1),) if isinstance(gamma, Graph) else gamma.terms.items()
    calc = Multivector.zero(entries[0].nvars)
    for g, c in terms:
        calc = calc + evaluate_oracle(g, entries).scale(c)
    assert calc == want
    return want


def with_last_vertex(rng, n, neighbours):
    """Random edges among 1..n-1, then (i, n) for the given i, all shuffled."""
    inner = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    edges = rng.sample(inner, rng.randint(0, len(inner)))
    edges += [(i, n) for i in neighbours]
    rng.shuffle(edges)
    return Graph(n, edges)


def entries_for(rng, r, n, n_edges):
    """n entries whose grades exceed the edge count by at most r in sum, so
    that the value can be nonzero."""
    while True:
        grades = [rng.randint(0, r) for _ in range(n)]
        if 0 <= sum(grades) - n_edges <= r:
            return [Multivector(r, {idx: rand_poly(rng, r, maxdeg=3)
                                    for idx in combinations(range(1, r + 1), k)})
                    for k in grades]


@pytest.mark.parametrize("n, neighbours", [
    (3, [2]), (4, [2, 3]), (4, [3]),  # sheet 1 has no edge to n
    (4, [1, 3]), (5, [1, 4]), (5, [2, 4]),  # a middle sheet has none
    (4, []),  # every sheet folds before the first edge
], ids=["skip-1-n3", "skip-1-n4", "skip-1-2", "skip-2", "skip-2-3", "skip-1-3",
        "no-edge"])
def test_sheets_without_an_edge_to_the_last_vertex(n, neighbours):
    rng = random.Random(1260 + 10 * n + len(neighbours))
    nonzero = 0
    for _ in range(12):
        g = with_last_vertex(rng, n, neighbours)
        entries = entries_for(rng, rng.randint(2, 3), n, g.n_edges)
        got = evaluate(g, entries)
        assert got == both_oracles(g, entries), (g.edges, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 2


def test_last_vertex_edges_listed_out_of_order():
    rng = random.Random(1270)
    orders = ([(3, 4), (1, 2), (1, 4), (2, 3), (2, 4), (1, 3)],
              [(2, 4), (1, 4), (3, 4), (1, 2), (1, 3), (2, 3)],
              [(4, 5), (1, 5), (3, 5), (1, 2), (2, 5), (3, 4), (1, 3)])
    nonzero = 0
    for edges in orders * 3:
        g = Graph(max(map(max, edges)), edges)
        entries = entries_for(rng, 3, g.n, g.n_edges)
        got = evaluate(g, entries)
        assert got == both_oracles(g, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 3


def test_graph_sums_with_rational_coefficients():
    rng = random.Random(1280)
    nonzero = 0
    for _ in range(6):
        # five edges each; 3, 2, 2 and 2 at the last vertex, the last two
        # terms listing theirs out of order
        gamma = RawSum({g: c for g, c in zip(
            (Graph(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]),
             Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
             Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4), (1, 4)]),
             Graph(4, [(2, 4), (1, 2), (1, 3), (2, 3), (1, 4)])),
            (Fraction(3, 2), Fraction(-2, 5), 7, Fraction(1, 3)))})
        entries = entries_for(rng, 3, 4, 5)
        got = evaluate(gamma, entries)
        assert got == both_oracles(gamma, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 2


def placements_calculus(gamma, v, p):
    n = _vertex_count(gamma)
    out = Multivector.zero(p.nvars)
    for k in range(n):
        entries = tuple(v if t == k else p for t in range(n))
        for g, c in gamma.terms.items():
            out = out + evaluate_oracle(g, entries).scale(c)
    return out


def test_cocycle1_placements_against_the_calculus(gamma3, P1, euler4):
    rng = random.Random(1290)
    assert cocycle1(gamma3, euler4, P1) == placements_calculus(gamma3, euler4, P1)
    v = nonzero_grade(rng, 4, 1)
    want = placements_calculus(gamma3, v, P1)
    assert not want.is_zero()
    assert want == placements_oracle(gamma3, v, P1)
    assert _sum_over_placements(gamma3, v, P1) == want


def test_directional_flow_placements_against_the_calculus(gamma3):
    rng = random.Random(1291)
    nonzero = 0
    for _ in range(3):
        p, q = (Multivector(2, {(1, 2): rand_poly(rng, 2, maxdeg=3)})
                for _ in range(2))
        want = placements_calculus(gamma3, q, p)
        assert want == placements_oracle(gamma3, q, p)
        assert directional_flow(gamma3, p, q) == want
        nonzero += not want.is_zero()
    assert nonzero >= 1


# -- the last vertex's neighbour sheets in one order ------------------------------
#
# While vertex n-1 is multiplied in, every product term is written with the
# sheets of n's distinct neighbours permuted so that their odd blocks ascend,
# at the sign of the permutation times the Koszul sign of moving the odd
# factors, those of non-neighbour sheets in between included.


def sparse_entry(rng, r, grade, top=3):
    """One or two components of the grade, each one or two monomials of
    degree 1..top."""
    idxs = list(combinations(range(1, r + 1), grade))
    comps = {}
    for idx in rng.sample(idxs, min(len(idxs), rng.randint(1, 2))):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * r
            for _ in range(rng.randint(1, top)):
                exps[rng.randrange(r)] += 1
            terms[tuple(exps)] = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
        comps[idx] = Poly(r, terms)
    return Multivector(r, comps)


def graded_entries(rng, r, n, n_edges, grades, ties):
    """n sparse entries of the given grades whose degrees exceed the edge
    count by at most r, so that the value can be nonzero, the last of
    degree up to 5 for the edges that differentiate it; with ``ties`` the
    others are one or two objects, so that many odd blocks are equal."""
    while True:
        picks = [rng.choice(grades) for _ in range(2 if ties else n - 1)]
        chosen = [rng.randrange(len(picks)) for _ in range(n - 1)]
        last = rng.choice(grades)
        if 0 <= sum(picks[t] for t in chosen) + last - n_edges <= r:
            made = [sparse_entry(rng, r, k) for k in picks]
            return [made[t] for t in chosen] + [sparse_entry(rng, r, last, 5)]


def last_vertex_graph(rng, n, neighbours):
    """Up to three random edges among 1..n-1, then (i, n) for the given i,
    all shuffled."""
    inner = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    edges = rng.sample(inner, rng.randint(0, min(3, len(inner))))
    edges += [(i, n) for i in neighbours]
    rng.shuffle(edges)
    return Graph(n, edges)


NEIGHBOURS = [
    (3, [1, 2]),            # valence 2, no gap
    (4, [1, 3]),            # sheet 2 lies between the neighbours
    (5, [1, 4]),            # sheets 2 and 3 lie between
    (5, [1, 2, 4]),
    (5, [2, 3, 4]),         # sheet 1 is no neighbour
    (5, [1, 2, 3, 4]),      # valence 4
    (6, [1, 3, 5]),         # a gap after every neighbour
    (6, [1, 2, 3, 4, 5]),   # valence 5
]


@pytest.mark.parametrize("n, neighbours", NEIGHBOURS, ids=[
    "-".join(map(str, nb)) + "-n%d" % n for n, nb in NEIGHBOURS])
def test_neighbour_order_with_odd_entries_and_ties(n, neighbours):
    rng = random.Random(1300 + 10 * n + sum(neighbours))
    nonzero = 0
    for trial in range(24):
        g = last_vertex_graph(rng, n, neighbours)
        entries = graded_entries(rng, 3, n, g.n_edges, (1, 2, 3, 3), trial % 2)
        got = evaluate(g, entries)
        assert got == both_oracles(g, entries), (g.edges, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 4


def test_neighbour_order_with_a_repeated_edge_to_the_last_vertex():
    # E_in E_in = 0, so both sides vanish, whatever sign the order picks
    rng = random.Random(1320)
    for n, neighbours in NEIGHBOURS:
        twice = neighbours + [rng.choice(neighbours)]
        g = last_vertex_graph(rng, n, twice)
        assert len(set(g.edges)) < len(g.edges)
        entries = graded_entries(rng, 3, n, g.n_edges, (1, 2, 3), True)
        got = evaluate(g, entries)
        assert got.is_zero()
        assert got == streaming_oracle(g, entries)


def test_neighbour_order_in_graph_sums_with_rational_coefficients():
    rng = random.Random(1330)
    nonzero = 0
    for _ in range(6):
        # 5 vertices, 6 edges: neighbours {1, 4}, {1, 2, 3}, {2, 4} and {1, 3}
        gamma = RawSum({g: c for g, c in zip(
            (Graph(5, [(1, 2), (2, 3), (3, 4), (1, 3), (1, 5), (4, 5)]),
             Graph(5, [(3, 5), (1, 4), (2, 4), (1, 5), (2, 5), (3, 4)]),
             Graph(5, [(1, 2), (1, 3), (3, 4), (2, 5), (4, 5), (1, 4)]),
             Graph(5, [(2, 3), (3, 5), (1, 2), (2, 4), (1, 5), (3, 4)])),
            (Fraction(3, 2), Fraction(-2, 5), 7, Fraction(1, 3)))})
        entries = graded_entries(rng, 3, 5, 6, (1, 2, 3), False)
        got = evaluate(gamma, entries)
        assert got == both_oracles(gamma, entries)
        nonzero += not got.is_zero()
    assert nonzero >= 2


def test_neighbour_order_in_placements_with_odd_slots():
    rng = random.Random(1340)
    star = RawSum({Graph(5, [(1, 5), (3, 5), (1, 2), (2, 4), (4, 5)]): 1,
                   Graph(5, [(2, 5), (4, 5), (1, 3), (3, 4), (1, 2)]): Fraction(-3, 2)})
    nonzero = 0
    for _ in range(4):
        v, p = sparse_entry(rng, 3, 1), sparse_entry(rng, 3, rng.choice([1, 3]))
        want = placements_oracle(star, v, p)
        assert want == placements_calculus(star, v, p)
        assert _sum_over_placements(star, v, p) == want
        nonzero += not want.is_zero()
    assert nonzero >= 1


def test_neighbour_order_in_directional_flows():
    rng = random.Random(1350)
    gamma = RawSum({Graph(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]): Fraction(5, 3),
                    Graph(4, [(1, 2), (2, 3), (1, 4), (3, 4), (1, 3)]): -1})
    nonzero = 0
    for _ in range(3):
        p, q = (Multivector(3, {idx: rand_poly(rng, 3, maxdeg=3)
                                for idx in ((1, 2), (1, 3), (2, 3))}) for _ in range(2))
        want = placements_calculus(gamma, q, p)
        assert want == placements_oracle(gamma, q, p)
        assert directional_flow(gamma, p, q) == want
        nonzero += not want.is_zero()
    assert nonzero >= 1


def test_hub_last_wheel_is_the_wheel_times_the_relabelling_sign(P1):
    # the wheel with its valence-5 hub moved from vertex 1 to vertex 6: every
    # sheet is a neighbour of the last vertex
    swap = {1: 6, 6: 1}
    edges = [tuple(sorted((swap.get(a, a), swap.get(b, b))))
             for a, b in NONZERO_6_10[0]]
    inversions = sum(1 for s, t in combinations(edges, 2) if s > t)
    hub_last = Graph(6, sorted(edges))
    want = evaluate(Graph(6, NONZERO_6_10[0]), (P1,) * 6)
    assert not want.is_zero()
    assert evaluate(hub_last, (P1,) * 6) == want.scale(-1 if inversions & 1 else 1)


def test_state_entering_the_last_vertex_of_a_tetrahedral_flow(monkeypatch, gamma3, P1):
    sizes = []
    close = orient._close_vertex

    def counted(state, k, edges, slots):
        if k == len(slots):
            sizes.append(sum(len(bucket) for bucket in state.groups.values()))
        return close(state, k, edges, slots)

    monkeypatch.setattr(orient, "_close_vertex", counted)
    orient.flow(gamma3, P1)
    # 2 720 terms when the neighbour sheets keep their labels
    assert len(sizes) == len(gamma3.terms)
    assert 0 < max(sizes) <= 700
