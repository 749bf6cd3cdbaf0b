"""One product routine for every sheet in ``evaluate``.

``_add_times_sheet`` multiplies each sheet in under a ``_SheetMap``: the
twin order as sheet k < n comes in, and ``joining``, the second sheet into
slot 1, for the derivatives of entry n.  The product with sheet n-1 folds
every sheet with no edge to n into the lowest of them, so the sheets below
vertex n's first neighbour reach vertex n folded into sheet 1.  Values are
checked against ``evaluate_oracle`` and the entry-n product against
``wedge``, neither of which shares the bit-packed representation.
"""

import random
from fractions import Fraction

from poissonflow import orient
from poissonflow.gracomplex import Graph, GraphSum, tetrahedron
from poissonflow.multivec import Multivector, wedge
from poissonflow.orient import SheetedPoly, directional_flow, evaluate, merge
from poissonflow.ratpoly import Poly

from test_last_vertex_oracle import graded_entries, placements_calculus
from test_orient_oracle import evaluate_oracle, lift_oracle, merge_oracle
from test_placements_oracle import NONZERO_6_10, RawSum, cubic_bivector, relabelled


# -- a term with coefficient 0 ------------------------------------------------------


def test_a_zero_coefficient_term_is_zero(P1):
    assert evaluate(GraphSum._raw({tetrahedron(): 0}), (P1,) * 4).is_zero()


def test_a_zero_coefficient_term_leaves_the_others_alone(P1):
    rng = random.Random(1500)
    other = relabelled(tetrahedron(), rng)
    want = evaluate(GraphSum._raw({other: Fraction(-5, 2)}), (P1,) * 4)
    assert not want.is_zero()
    assert want == evaluate_oracle(other, (P1,) * 4).scale(Fraction(-5, 2))
    mixed = GraphSum._raw({tetrahedron(): 0, other: Fraction(-5, 2)})
    assert evaluate(mixed, (P1,) * 4) == want


# -- the sheets below vertex n's first neighbour ------------------------------------


def relabel(edges, perm):
    return tuple((perm[i], perm[j]) for i, j in edges)


# vertex n has its first neighbour at 3 or more, or no neighbour at all
LATE_FIRST_NEIGHBOUR = {
    # K4-e on 1..4, missing (3, 4), and vertex 5 on 3 and 4
    "k4-e-and-5": ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)),
    # a 5-cycle with the chord (1, 3): vertex 5 on 3 and 4
    "5-cycle-chord": ((1, 2), (2, 4), (4, 5), (3, 5), (1, 3), (2, 3)),
    # the wheel with its hub at 3 and the rim vertex 6 on 3, 4, 5
    "wheel": relabel(NONZERO_6_10[0], {1: 3, 2: 1, 3: 2, 4: 4, 5: 5, 6: 6}),
    # the other (6,10) graph with vertex 6 on 3, 4, 5
    "other-6-10": relabel(NONZERO_6_10[1], {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}),
    # a triangle and an isolated vertex 4
    "isolated-last": ((1, 2), (1, 3), (2, 3)),
}


def checked_last_vertex(monkeypatch):
    """Wrap ``_close_vertex``: at vertex n, assert that sheets 2 to the
    first neighbour's sheet - 1 hold no odd bit and no exponent.  Returns
    the list of (first neighbour, terms) it checked."""
    seen = []
    close = orient._close_vertex

    def checked(state, k, edges, slots):
        if k == len(slots):
            first = edges[0][0] if edges else k
            block = state.nvars * state.width
            odd = ((1 << ((first - 1) * state.nvars)) - 1) >> state.nvars << state.nvars
            even = ((1 << ((first - 1) * block)) - 1) >> block << block
            for om, bucket in state.groups.items():
                assert not om & odd, (k, edges, om)
                assert not any(ev & even for ev in bucket), (k, edges, om)
            seen.append((first, sum(map(len, state.groups.values()))))
        return close(state, k, edges, slots)

    monkeypatch.setattr(orient, "_close_vertex", checked)
    return seen


def test_sheets_below_the_first_neighbour_arrive_folded(monkeypatch):
    seen = checked_last_vertex(monkeypatch)
    rng = random.Random(1510)
    nonzero = 0
    for name, edges in sorted(LATE_FIRST_NEIGHBOUR.items()):
        n = max(map(max, edges)) + (name == "isolated-last")
        g = Graph(n, edges)
        for trial in range(4):
            entries = graded_entries(rng, 3, n, g.n_edges, (1, 2, 3), trial % 2)
            del seen[:]
            got = evaluate(g, entries)
            assert got == evaluate_oracle(g, entries), (name, entries)
            assert seen and seen[0][0] >= 3
            nonzero += not got.is_zero()
    assert nonzero >= 5


def test_sheets_below_the_first_neighbour_in_directional_flows(monkeypatch):
    # the placements with v at vertex 1 or 2 keep vertex 6 on 3, 4, 5
    seen = checked_last_vertex(monkeypatch)
    rng = random.Random(1522)
    gamma = RawSum({Graph(6, LATE_FIRST_NEIGHBOUR["wheel"]): 1,
                    Graph(6, LATE_FIRST_NEIGHBOUR["other-6-10"]): -3})
    p, q = cubic_bivector(rng), cubic_bivector(rng)
    want = placements_calculus(gamma, q, p)
    assert not want.is_zero()
    del seen[:]
    assert directional_flow(gamma, p, q) == want
    assert sum(first >= 3 and terms > 0 for first, terms in seen) >= 2


# -- the product with entry n ---------------------------------------------------------


def random_product(rng):
    """A one-slot state L, a multivector M over r = 1..3 and a nonzero
    rational c, with every exponent sum of L . M within the width."""
    r = rng.randint(1, 3)
    width = rng.choice([2, 3, 4, 8])
    half = ((1 << width) - 1) // 2
    coefficient = lambda: rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-4, 3)])
    groups = {}
    for _ in range(rng.randint(1, 4)):
        ev = sum(rng.randint(0, half) << (mu * width) for mu in range(r))
        groups.setdefault(rng.randrange(1 << r), {})[ev] = coefficient()
    comps = {}
    for _ in range(rng.randint(1, 3)):
        idx = tuple(mu for mu in range(1, r + 1) if rng.random() < 0.5)
        exps = tuple(rng.randint(0, half) for _ in range(r))
        comps[idx] = Poly(r, {exps: coefficient(), (0,) * r: coefficient()})
    return (SheetedPoly(r, 1, groups, width), Multivector(r, comps),
            rng.choice([1, -1, 3, Fraction(2, 5), Fraction(-7, 3)]))


def test_entry_n_product_against_the_wedge():
    rng = random.Random(1530)
    zero = shared = 0
    for _ in range(300):
        left, mv, c = random_product(rng)
        r, width = left.nvars, left.width
        joining = orient._table(r, width, ((2, 1),))
        acc = {}
        orient._add_times_sheet(acc, left.groups, mv, r, joining, c)
        got = merge(SheetedPoly(r, 1, acc, width))
        want = wedge(merge(left), mv).scale(c)
        assert got == want
        zero += want.is_zero()
        shared += any(om & sum(1 << (mu - 1) for mu in idx)
                      for om in left.groups for idx in mv.components)
    assert shared >= 100
    assert zero >= 50
    assert 300 - zero >= 100


def test_lift_keeps_its_identity_table_within_the_bound(monkeypatch, P1):
    # lift((P1,) * 3) meets 155 odd masks, more than the lowered bound
    monkeypatch.setattr(orient, "_TABLE_BOUND", 100)
    orient._TABLES.clear()
    state = orient.lift((P1,) * 3)
    assert len(orient._TABLES) + sum(map(len, orient._TABLES.values())) <= 100
    assert merge(state) == merge_oracle(lift_oracle((P1,) * 3), 3, P1.nvars)
