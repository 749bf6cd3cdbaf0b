"""Twin sheets at every vertex, the field width and the kept sheet-map
tables, against the multivector calculus.

As sheet k comes in, ``evaluate`` writes each product term with every class
of twin sheets, those with edges to the same set S of later vertices and
entries of one xi-degree, in the order its odd mask picks, at
sgn(sigma)^|S|, and folds the sheets with no edge left into one.  Twins
are sorted only there: the product with sheet n-1 sorts the last vertex's
neighbours, and its edge steps only fold, which keeps them sorted.
``evaluate_oracle`` shares nothing with that: it wedges every entry into
its own sheet of variables, applies each edge as a differential operator
and merges.  The graphs below have twins or finished sheets before vertex
n-1 under many of their relabellings.
"""

import random
from itertools import combinations

import pytest

from poissonflow import orient
from poissonflow.gracomplex import Graph, tetrahedron
from poissonflow.multivec import Multivector, euler_field, parse_multivector
from poissonflow.nambu import nambu_bivector
from poissonflow.orient import cocycle1, directional_flow, evaluate
from poissonflow.ratpoly import Poly, parse_poly

from test_last_vertex_oracle import (graded_entries, placements_calculus,
                                     sparse_entry, streaming_oracle)
from test_orient_oracle import evaluate_oracle
from test_placements_oracle import NONZERO_6_10, RawSum, relabelled

# the wheel with its valence-5 hub moved from vertex 1 to vertex 6
SWAP = {1: 6, 6: 1}
HUB_LAST = tuple(sorted(tuple(sorted((SWAP.get(a, a), SWAP.get(b, b))))
                        for a, b in NONZERO_6_10[0]))
K4_MINUS_E = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
REPEATED = ((1, 2), (1, 3), (1, 4), (2, 3), (1, 2), (3, 4))

GRAPHS = {"wheel": NONZERO_6_10[0], "other-6-10": NONZERO_6_10[1],
          "hub-last": HUB_LAST, "k4-e": K4_MINUS_E}


def early_twins(graph, entries):
    """Whether some sheet k < n-1 comes in with twins to sort or finished
    sheets to fold."""
    closing = [[] for _ in range(graph.n + 1)]
    for i, j in sorted(graph.edges, key=lambda e: (e[1], e[0])):
        closing[j].append((i, j))
    slots = orient._Slots(entries)
    return any(any(orient._twins(closing, k, slots)) for k in range(1, graph.n - 1))


@pytest.mark.parametrize("bracket", ["P1", "P2"])
def test_tetrahedral_flows_under_relabellings(request, bracket):
    p = request.getfixturevalue(bracket)
    rng = random.Random(1400 + len(bracket) + int(bracket[1]))
    for g in (tetrahedron(), relabelled(tetrahedron(), rng)):
        assert early_twins(g, (p,) * 4)
        want = evaluate_oracle(g, (p,) * 4)
        assert not want.is_zero()
        assert evaluate(g, (p,) * 4) == want


def shared_entries(rng, r, n, n_edges):
    """One sparse entry at vertices 1..n-1 and another at n, of degrees
    that exceed the edge count by at most r in sum."""
    while True:
        grade, last = rng.randint(1, r), rng.randint(1, r)
        if 0 <= (n - 1) * grade + last - n_edges <= r:
            return [sparse_entry(rng, r, grade)] * (n - 1) + [sparse_entry(rng, r, last, 5)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graphs_with_early_twins_under_relabellings(name):
    base = Graph(max(map(max, GRAPHS[name])), GRAPHS[name])
    rng = random.Random(1410 + len(name))
    nonzero = twins = 0
    for trial in range(14):
        g = base if trial < 2 else relabelled(base, rng)
        # one entry at vertices 1..n-1, or one or two objects of degrees 1 to
        # 3, so that twins often hold entries of one degree and odd blocks tie
        if trial % 2:
            entries = shared_entries(rng, 3, g.n, g.n_edges)
        else:
            entries = graded_entries(rng, 3, g.n, g.n_edges, (1, 2, 3), True)
        twins += early_twins(g, entries)
        got = evaluate(g, entries)
        assert got == evaluate_oracle(g, entries), (g.edges, entries)
        nonzero += not got.is_zero()
    assert twins >= 2
    assert nonzero >= 2


def test_a_repeated_edge_is_zero_under_relabellings():
    rng = random.Random(1420)
    base = Graph(4, REPEATED)
    for trial in range(6):
        g = base if trial == 0 else relabelled(base, rng)
        entries = graded_entries(rng, 3, 4, g.n_edges, (1, 2, 3), trial % 2)
        assert evaluate(g, entries).is_zero()
        assert evaluate_oracle(g, entries).is_zero()
        # the same graph without the repeat is evaluated in full
        once = Graph(4, list(dict.fromkeys(g.edges)))
        assert evaluate(once, entries) == evaluate_oracle(once, entries)


def test_pentagon_wheel_sum_in_directional_flows():
    rng = random.Random(1430)
    gamma = RawSum({Graph(6, NONZERO_6_10[0]): 2, Graph(6, NONZERO_6_10[1]): 5})
    nonzero = 0
    for _ in range(3):
        p, q = sparse_entry(rng, 3, 2), sparse_entry(rng, 3, 2)
        want = placements_calculus(gamma, q, p)
        assert directional_flow(gamma, p, q) == want
        nonzero += not want.is_zero()
    assert nonzero >= 1


def test_cocycle1_with_a_nonlinear_field():
    # the determinant bracket with Casimir x1^2 x2 + x1 x2^2 and density x3,
    # and the field E + x1 x3 xi3: v != p in every placement, X != 0
    p = nambu_bivector(parse_poly("x1^2*x2 + x1*x2^2", 3), parse_poly("x3", 3))
    v = euler_field(3) + parse_multivector("(x1*x3) xi3", 3)
    gamma3 = RawSum({tetrahedron(): 1})
    want = placements_calculus(gamma3, v, p)
    assert want == parse_multivector(
        "(48*x1^4*x3 - 288*x1^2*x2^2*x3 - 192*x1*x2^3*x3) xi3", 3)
    assert cocycle1(tetrahedron(), v, p) == want


def entering(monkeypatch):
    """{k: terms of the state entering vertex k}, refreshed by each
    evaluation."""
    sizes = {}
    close = orient._close_vertex

    def counted(state, k, edges, slots):
        sizes[k] = sum(len(bucket) for bucket in state.groups.values())
        return close(state, k, edges, slots)

    monkeypatch.setattr(orient, "_close_vertex", counted)
    return sizes


def test_state_entering_vertex_3_of_a_tetrahedral_flow(monkeypatch, gamma3, P1):
    # sheets 1 and 2 are twins with S = {3, 4} as sheet 2 comes in
    sizes = entering(monkeypatch)
    orient.flow(gamma3, P1)
    # 192 terms when only the last vertex's neighbours are sorted
    assert 0 < sizes[3] <= 100


def test_twins_are_sorted_when_their_entries_share_a_degree(monkeypatch, gamma3, P1,
                                                            P2, euler4):
    # gamma3 on (E, P1, P1, P1) for cocycle1 and on (P2, P1, P1, P1) for a
    # directional flow: as sheet 2 comes in, sheets 1 and 2 have the same
    # later neighbours, with entries of degrees 1 and 2, then 2 and 2
    sizes = entering(monkeypatch)
    orient._sum_over_placements(gamma3, euler4, P1)
    # 74 terms when the sheets of E and P1 are sorted as twins
    assert 0 < sizes[4] <= 46
    orient._sum_over_placements(gamma3, P2, P1)
    # 172 terms when only the last vertex's neighbours are sorted
    assert 0 < sizes[3] <= 140


def test_state_entering_the_last_vertex_of_the_pentagon_graphs(monkeypatch, P1):
    # the wheel's sheets 2 and 3, and the other graph's sheets 1 and 3, have
    # no edge to vertex 6 and fold into one as sheet 5 comes in; 61 908
    # terms each when only the last vertex's neighbours are sorted, 38 092
    # and 76 318 with twins sorted but finished sheets not folded
    sizes = entering(monkeypatch)
    for edges, most in zip(NONZERO_6_10, (25000, 40000)):
        evaluate(Graph(6, edges), (P1,) * 6)
        assert 0 < sizes[6] <= most


def test_neighbours_of_the_last_vertex_arrive_sorted(monkeypatch, gamma3, P1, P2,
                                                    euler4):
    # the product with sheet n-1 sorts n's neighbours whose entries share an
    # xi-degree, and no edge step at n sorts again: at vertex n every odd
    # mask of the incoming state has their odd blocks non-decreasing in
    # sheet order
    checked = 0
    close = orient._close_vertex

    def check(state, k, edges, slots):
        nonlocal checked
        if k == len(slots):
            r, mask_r = state.nvars, (1 << state.nvars) - 1
            classes = {}
            for i, _ in edges:
                classes.setdefault(slots.degrees[i - 1], []).append(i)
            for om in state.groups:
                for sheets in classes.values():
                    blocks = [(om >> ((s - 1) * r)) & mask_r for s in sheets]
                    assert blocks == sorted(blocks), (k, edges, sheets, om)
                checked += 1
        return close(state, k, edges, slots)

    monkeypatch.setattr(orient, "_close_vertex", check)
    orient.flow(gamma3, P1)
    orient.flow(gamma3, P2)
    for edges in NONZERO_6_10 + (HUB_LAST,):
        evaluate(Graph(6, edges), (P1,) * 6)
    directional_flow(gamma3, P1, P2)
    # the 1-vector's sheet and the bivectors' sheets differ in degree
    cocycle1(gamma3, euler4, P1)
    assert checked > 0


# -- the field width inside evaluate -----------------------------------------------


def widths(monkeypatch):
    """The width of every state ``merge`` receives."""
    seen = []
    merge = orient.merge

    def recorded(sp):
        seen.append(sp.width)
        return merge(sp)

    monkeypatch.setattr(orient, "merge", recorded)
    return seen


def top_entries(rng, n, top):
    """n entries on R^2, the largest exponent ``top``, each of degree 1 but
    the last of degree 2."""
    entries = []
    for k in range(n):
        exps = (top, 0) if k == n - 1 else (rng.randint(0, top), rng.randint(0, top))
        poly = Poly(2, {exps: rng.choice([-2, 1, 3]), (0, 0): 1})
        idx = (1, 2) if k == n - 1 else (rng.choice([1, 2]),)
        entries.append(Multivector(2, {idx: poly}))
    return entries


@pytest.mark.parametrize("n, top", [(3, 0), (2, 1), (4, 1), (5, 51), (3, 85),
                                    (4, 64), (2, 128)])
def test_evaluate_keys_are_as_wide_as_n_times_top(monkeypatch, n, top):
    # n*top = 0, 2, 4, 255, 255, 256, 256: widths 1, 2, 3, 8, 8, 9, 9
    rng = random.Random(1440 + n * top)
    seen = widths(monkeypatch)
    path = Graph(n, [(k, k + 1) for k in range(1, n)])
    nonzero = 0
    for _ in range(8):
        entries = top_entries(rng, n, top)
        got = evaluate(path, entries)
        assert got == evaluate_oracle(path, entries)
        nonzero += not got.is_zero()
    assert set(seen) == {max(1, (n * top).bit_length())}
    assert nonzero >= (top > 0)


def test_constant_entries_take_one_bit(monkeypatch):
    seen = widths(monkeypatch)
    c = [Multivector(3, {(): Poly.constant(3, a)}) for a in (2, -3, 5)]
    assert evaluate(Graph(3, []), c) == Multivector(3, {(): Poly.constant(3, -30)})
    xi = Multivector(3, {(1, 3): Poly.constant(3, 7)})
    assert evaluate(Graph(3, [(1, 2)]), [xi, c[0], c[1]]).is_zero()
    assert seen == [1, 1]


# -- sheet-map tables kept for the process -----------------------------------------


def table_size():
    return len(orient._TABLES) + sum(map(len, orient._TABLES.values()))


def cases(rng, count):
    """(graph, entries) over r = 1..3 and exponents up to 40, so that the
    widths and dimensions of the tables vary."""
    out = []
    for _ in range(count):
        r = rng.randint(1, 3)
        n = rng.randint(2, 5)
        pairs = list(combinations(range(1, n + 1), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(1, min(6, len(pairs)))))
        top = rng.choice([1, 2, 5, 40])
        entries = []
        for _ in range(n):
            grade = rng.randint(0, r)
            idx = rng.choice(list(combinations(range(1, r + 1), grade)))
            exps = tuple(rng.randint(0, top) for _ in range(r))
            entries.append(Multivector(r, {idx: Poly(r, {exps: rng.randint(1, 3),
                                                         (0,) * r: -1})}))
        out.append((g, entries))
    return out


def test_cold_and_warm_tables_give_one_value():
    rng = random.Random(1450)
    nonzero = 0
    for g, entries in cases(rng, 30):
        want = streaming_oracle(g, entries)
        orient._TABLES.clear()
        assert evaluate(g, entries) == want
        assert table_size() > 0
        assert evaluate(g, entries) == want   # warm
        nonzero += not want.is_zero()
    assert nonzero >= 5
    # warm tables of every earlier case, in a new order
    for g, entries in reversed(cases(random.Random(1450), 30)):
        assert evaluate(g, entries) == streaming_oracle(g, entries)


def test_identity_map_is_one_table(gamma3, euler4, P1):
    # the identity map was kept twice, under (r, width, ()) from the edge
    # steps and (r, width, (), ()) from the products with a new sheet
    orient._TABLES.clear()
    orient.flow(gamma3, P1)
    cocycle1(gamma3, euler4, P1)
    identity = [key[:2] for key in orient._TABLES if not any(key[2:])]
    assert identity and len(set(identity)) == len(identity)


def test_tables_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(orient, "_TABLE_BOUND", 100)
    orient._TABLES.clear()
    rng = random.Random(1460)
    dropped, last, pairs = 0, 0, set()
    for g, entries in cases(rng, 60):
        assert evaluate(g, entries) == streaming_oracle(g, entries)
        size = table_size()
        assert size <= 100
        dropped += size < last
        last = size
        pairs |= {key[:2] for key in orient._TABLES}   # (r, width)
    assert dropped >= 3
    assert len(pairs) >= 6
