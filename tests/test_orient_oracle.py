"""Cross-implementation oracle for the evaluation pipeline.

Re-implements lift/apply_edge/merge on top of the multivector calculus over
n*r variables (sheet i, index mu -> variable (i-1)*r + mu), sharing nothing
with the bit-packed sheeted representation.  The multivector substrate is
itself validated against classical tensor oracles, so agreement here pins
the whole orientation data path.
"""

import random
from itertools import combinations

from poissonflow.gracomplex import Graph, tetrahedron
from poissonflow.multivec import Multivector, _x_partial, _xi_left, wedge
from poissonflow.orient import apply_edge, lift, merge
from poissonflow.ratpoly import Poly


def sheet_variable(i, mu, r):
    return (i - 1) * r + mu


def lift_oracle(entries):
    """Wedge of the per-sheet translated multivectors over n*r variables."""
    r = entries[0].nvars
    n = len(entries)
    big = Multivector(n * r, {(): Poly.constant(n * r, 1)})
    for sheet, mv in enumerate(entries, start=1):
        comps = {}
        for idx, poly in mv.components.items():
            new_idx = tuple(sheet_variable(sheet, mu, r) for mu in idx)
            terms = {}
            for exps, c in poly.terms.items():
                new_exps = [0] * (n * r)
                for mu, e in enumerate(exps, start=1):
                    new_exps[sheet_variable(sheet, mu, r) - 1] = e
                terms[tuple(new_exps)] = c
            comps[new_idx] = Poly(n * r, terms)
        big = wedge(big, Multivector(n * r, comps))
    return big


def apply_edge_oracle(state, i, j, r):
    """sum_mu d/dxi^(i)_mu d/dx^mu_(j) + d/dxi^(j)_mu d/dx^mu_(i)."""
    out = Multivector.zero(state.nvars)
    for mu in range(1, r + 1):
        for (a, b) in ((i, j), (j, i)):
            step = _xi_left(state, sheet_variable(a, mu, r))
            if step:
                step = _x_partial(step, sheet_variable(b, mu, r))
                out = out + step
    return out


def merge_oracle(state, n, r):
    """Collapse sheets; odd indices re-sort by mu with the permutation sign."""
    out = Multivector.zero(r)
    for idx, poly in state.components.items():
        mus = [((v - 1) % r) + 1 for v in idx]
        if len(set(mus)) != len(mus):
            continue
        inv = sum(1 for a in range(len(mus)) for b in range(a + 1, len(mus))
                  if mus[a] > mus[b])
        sign = -1 if inv % 2 else 1
        target = tuple(sorted(mus))
        terms = {}
        for exps, c in poly.terms.items():
            folded = [0] * r
            for v, e in enumerate(exps):
                folded[v % r] += e
            key = tuple(folded)
            terms[key] = terms.get(key, 0) + sign * c
        out = out + Multivector(r, {target: Poly(r, terms)})
    return out


def evaluate_oracle(graph, entries):
    r = entries[0].nvars
    state = lift_oracle(entries)
    for (i, j) in graph.edges:
        state = apply_edge_oracle(state, i, j, r)
    return merge_oracle(state, graph.n, r)


def pipeline(graph, entries):
    state = lift(entries)
    for (i, j) in graph.edges:
        state = apply_edge(state, i, j)
    return merge(state)


def rand_poly(rng, nvars, maxdeg=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.randint(-2, 3)
    return Poly(nvars, terms)


def rand_grade(rng, nvars, grade):
    comps = {}
    for idx in combinations(range(1, nvars + 1), grade):
        if rng.random() < 0.8:
            comps[idx] = rand_poly(rng, nvars)
    return Multivector(nvars, comps)


def random_graph(rng, n, emax):
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(possible)
    return Graph(n, possible[:rng.randint(0, emax)])


def test_pipeline_matches_multivector_oracle_random():
    rng = random.Random(70)
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(1, 3)
        g = random_graph(rng, n, emax=4)
        entries = [rand_grade(rng, r, rng.randint(0, r)) for _ in range(n)]
        if any(e.is_zero() for e in entries):
            continue
        assert pipeline(g, entries) == evaluate_oracle(g, entries)


def test_pipeline_matches_oracle_on_tetrahedron_r2():
    rng = random.Random(71)
    g = tetrahedron()
    for _ in range(3):
        p = Multivector(2, {(1, 2): rand_poly(rng, 2)})
        entries = (p, p, p, p)
        assert pipeline(g, entries) == evaluate_oracle(g, entries)


def test_pipeline_matches_oracle_mixed_slots():
    rng = random.Random(72)
    g = Graph(3, ((1, 2), (2, 3), (1, 3)))  # a repeated edge would make both sides 0
    r = 2
    v = rand_grade(rng, r, 1)
    p = rand_grade(rng, r, 2)
    q = rand_grade(rng, r, 2)
    got = pipeline(g, (v, p, q))
    assert not got.is_zero()
    assert got == evaluate_oracle(g, (v, p, q))
