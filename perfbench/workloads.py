"""Seeded op lists for the four benchmark workloads.

A workload is one *round*: a fixed list of ops built from the seed.  A run
executes a fixed number of whole rounds, ``round_count``: the requested
seconds divided by the round's nominal duration.  Every run of a workload
with the same seconds thus times the same number of ops of the same
composition, so the median and tail ranks always fall on the same ops.

The seed chooses coefficients, variable permutations, vertex labels and edge
orders; it never chooses the shape of an input (its monomial support, its
polynomial degree, its isomorphism class of graph).  The cost of a round
therefore does not depend on the seed, while the inputs handed to the
program do.

Every op calls the public API through module attributes looked up at call
time (``pf.flow``, ``pf.cli.main``), so the tracer can wrap them from
outside.  Each op carries an exact check of its output, run outside the
timed region, and a renderer whose text feeds the output digest.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import poissonflow as pf
import poissonflow.cli  # noqa: F401  (makes pf.cli available to the paper op)
from poissonflow import catalog

WORKLOADS = ("flow", "solve", "graph", "paper")

# Seconds one round takes on a 2-CPU x86-64 box with Python 3.11.
NOMINAL_ROUND_S = {"flow": 7.0, "solve": 11.0, "graph": 13.0, "paper": 2.5}


@dataclass
class Op:
    kind: str
    run: Callable      # outputs of the earlier ops of this round -> output
    check: Callable    # output -> bool, an exact identity; untimed
    render: Callable   # output -> deterministic text for the digest


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds a run of about ``seconds`` executes; at least one."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def build(workload: str, seed: int):
    """The round of ``workload`` for ``seed``: a list of Ops."""
    rng = random.Random("%s:%d" % (workload, seed))
    return _BUILDERS[workload](rng)


# -- shared helpers -----------------------------------------------------------


def _coef(rng):
    return rng.choice((1, 2, 3, 5)) * rng.choice((1, -1))


def _poly(rng, support, perm=(0, 1, 2)):
    """Polynomial on R^3 over a fixed support, seeded coefficients; the
    exponents are permuted by ``perm``."""
    return pf.Poly(3, {tuple(e[perm[k]] for k in range(3)): _coef(rng)
                       for e in support})


def _entries():
    get = catalog.get
    return {name: get(name).payload for name in
            ("P1", "P2", "QP1", "QP2", "euler", "tetrahedron")}


def _render_solution(sol):
    if sol.status != "solved":
        return "infeasible %r" % (sol.witness,)
    parts = ["particular: " + pf.render_multivector(sol.particular)]
    parts += ["kernel: " + pf.render_multivector(k) for k in sol.kernel_basis]
    return "\n".join(parts)


def _render_fit(fit):
    status, adot, rhodot = fit
    if status != "solved":
        return status
    return "%s a_dot=%s rho_dot=%s" % (status, pf.render_poly(adot),
                                       pf.render_poly(rhodot))


# -- flow: graph evaluation on bivectors --------------------------------------

# (name, Casimir support, density support or None for density 1, count)
# Support exponents are over (x, y, z); the seed permutes the variables.
# The counts place the median op among the flows on P1, P2 and the
# quartic-squares brackets (all about equally costly) and the tail op among
# the cubes brackets, so both are order statistics of like ops.
NAMBU_LINEAR = (
    ("quartic-squares", ((2, 2, 0), (0, 2, 2), (2, 0, 2)), ((0, 0, 1),), 2),
    ("cubes", ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 4),
)
NAMBU_CONSTANT = (
    ("cubic-xyz", ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)), None, 1),
    ("quartic", ((4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 1)), None, 1),
    ("quartic-squares", ((2, 2, 0), (0, 2, 2), (2, 0, 2)), None, 1),
)


def _build_flow(rng):
    o = _entries()
    g3, E = o["tetrahedron"], o["euler"]
    P1, P2, QP1 = o["P1"], o["P2"], o["QP1"]
    frozen = catalog.derived_constants()
    lam1 = Fraction(frozen["lambda1"])
    ops = []
    for i in (1, 2):
        P, Q = o["P%d" % i], o["QP%d" % i]
        lam = Fraction(frozen["lambda%d" % i])
        ops.append(Op("flow.P%d" % i,
                      lambda outs, P=P: pf.flow(g3, P),
                      lambda F, Q=Q, lam=lam: pf.verify.uniform_ratio(F, Q) == lam,
                      pf.render_multivector))
    for i in (1, 2):
        P = o["P%d" % i]
        ops.append(Op("cocycle1.P%d" % i,
                      lambda outs, P=P: pf.cocycle1(g3, E, P),
                      lambda X: X.is_zero(),
                      pf.render_multivector))

    # P1 + t*P2 is Poisson for every t ([[P1,P2]] = 0), so differentiating
    # [[P_t, flow(P_t)]] = 0 at t = 0 gives the identity checked here.
    def dirflow_check(D):
        cocycle = pf.schouten(P1, D) + pf.schouten(P2, QP1.scale(lam1))
        return cocycle.is_zero() and pf.schouten(E, D) == D.scale(4)

    ops.append(Op("dirflow.P1P2",
                  lambda outs: pf.directional_flow(g3, P1, P2),
                  dirflow_check, pf.render_multivector))

    for density, templates in (("linear", NAMBU_LINEAR),
                               ("constant", NAMBU_CONSTANT)):
        for name, casimir, rho_support, count in templates:
            for _ in range(count):
                perm = rng.sample((0, 1, 2), 3)
                a = _poly(rng, casimir, perm)
                rho = None if rho_support is None else _poly(rng, rho_support, perm)
                P = pf.nambu_bivector(a, rho)
                ops.append(Op("flow.nambu.%s.%s" % (density, name),
                              lambda outs, P=P: pf.flow(g3, P),
                              lambda F, P=P: pf.schouten(P, F).is_zero(),
                              pf.render_multivector))
    return ops


# -- solve: the exact coboundary solver ---------------------------------------

# Dimension of the kernel of Y -> [[Y, P]] on degree-D fields; the same for
# P1 and P2.  D = 4 is read from derived_constants.json where it is frozen.
KERNEL_DIM = {3: 4, 5: 20, 6: 35}

# (degree D, bracket) for the tall trivialize systems of one round.
TALL_PLAN = ((3, "P1"), (3, "P2"), (3, "P1"), (3, "P2"),
             (4, "P1"), (4, "P2"), (4, "P1"), (4, "P2"), (4, "P1"), (4, "P2"),
             (5, "P1"), (6, "P2"))
# As many cheap ops below the tangent fits as costlier ops above them, so
# the median op is a tangent fit.
TANGENT_FITS = 18
INFEASIBLE = 16


def _random_field(rng, degree, terms=3):
    monos = pf.monomials(4, degree)
    comps = {(i,): pf.Poly(4, {m: _coef(rng) for m in rng.sample(monos, terms)})
             for i in range(1, 5)}
    return pf.Multivector(4, comps)


def _nambu(a, rho):
    if a.is_zero() or rho.is_zero():
        return pf.Multivector.zero(3)
    return pf.nambu_bivector(a, rho)


def _build_solve(rng):
    o = _entries()
    frozen = catalog.derived_constants()
    ops = []
    for degree, name in TALL_PLAN:
        P = o[name]
        kdim = (frozen["kernel_dim_%s_d4" % name.lower()] if degree == 4
                else KERNEL_DIM[degree])
        Y = _random_field(rng, degree)
        Q = pf.schouten(Y, P)

        def check(sol, P=P, Q=Q, kdim=kdim):
            return (sol.status == "solved" and pf.schouten(sol.particular, P) == Q
                    and sol.kernel_dim == kdim)

        ops.append(Op("trivialize.D%d" % degree,
                      lambda outs, Q=Q, P=P, d=degree: pf.trivialize(Q, P, d),
                      check, _render_solution))
        j = len(ops) - 1
        ops.append(Op("contains.D%d" % degree,
                      lambda outs, j=j, Y=Y: outs[j].contains(Y),
                      lambda member: member is True, str))

    one = pf.Poly.constant(3, 1)
    cubic = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))
    for _ in range(TANGENT_FITS):
        a = _poly(rng, cubic)
        adot = pf.Poly(3, {m: _coef(rng) for m in rng.sample(pf.monomials(3, 4), 3)})
        rhodot = pf.Poly(3, {m: _coef(rng) for m in rng.sample(pf.monomials(3, 1), 2)})
        Q = _nambu(a, rhodot) + _nambu(adot, one)

        def check(fit, a=a, Q=Q):
            status, ad, rd = fit
            return status == "solved" and _nambu(a, rd) + _nambu(ad, one) == Q

        ops.append(Op("tangent_fit",
                      lambda outs, Q=Q, a=a: pf.tangent_fit(Q, a),
                      check, _render_fit))

    # A homogeneous cubic Casimir with density 1 admits no polynomial
    # homogenizing field, so [[Y, P]] = c*P has no linear solution Y.
    for _ in range(INFEASIBLE):
        P = pf.nambu_bivector(_poly(rng, cubic[:3]))
        Q = P.scale(Fraction(_coef(rng), rng.choice((1, 3))))
        ops.append(Op("trivialize.infeasible",
                      lambda outs, Q=Q, P=P: pf.trivialize(Q, P, 1),
                      lambda sol: sol.status == "infeasible", _render_solution))
    return ops


# -- graph: the edge-ordered graph complex ------------------------------------

# Nonzero isomorphism classes of connected graphs of minimum valence 3,
# as edge lists; (6,10) holds both terms of the pentagon-wheel cocycle.
NONZERO_6_10 = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)),
)
NONZERO_6_11 = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6),
     (5, 6)),
)
NONZERO_7_12 = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4), (5, 6),
     (5, 7), (6, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 7), (3, 4), (5, 6),
     (5, 7), (6, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 7), (4, 6),
     (5, 7), (6, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 4), (3, 7), (5, 6),
     (5, 7), (6, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 7), (5, 6),
     (5, 7), (6, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 6), (3, 7), (4, 6), (5, 6),
     (5, 7), (6, 7)),
)
# Two (7,13) classes whose d of d costs within 5% of each other: three
# presentations of each make the ops around the tail rank alike.
NONZERO_7_13 = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7), (4, 6),
     (4, 7), (5, 6), (5, 7)),
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7), (4, 6),
     (5, 6), (5, 7), (6, 7)),
)
K4_MINUS_EDGE = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
# Cells whose min-valence-3 graphs all have an odd automorphism.
ZERO_CELLS = ((5, 8), (5, 9), (5, 10), (6, 12))


def _present(rng, n, edges):
    """The same graph under seeded vertex labels and edge order."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [(labels[i - 1], labels[j - 1]) for (i, j) in edges]
    rng.shuffle(edges)
    return pf.Graph(n, edges)


def _random_zero_graph(rng, n, e):
    """Seeded connected graph of minimum valence 3 that is zero in the complex."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        edges = rng.sample(pairs, e)
        deg = [0] * (n + 1)
        adj = {v: set() for v in range(1, n + 1)}
        for (i, j) in edges:
            deg[i] += 1
            deg[j] += 1
            adj[i].add(j)
            adj[j].add(i)
        if min(deg[1:]) < 3:
            continue
        seen, stack = {1}, [1]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        g = pf.Graph(n, edges)
        if len(seen) == n and pf.canonicalize(g)[0] is None:
            return g


def _bracket_op(a, b, label):
    def check(out):
        sign = -1 if (a.n_edges * b.n_edges) % 2 == 0 else 1
        return pf.bracket(b, a) == out.scale(sign)
    return Op("bracket." + label, lambda outs: pf.bracket(a, b), check,
              pf.render_graphsum)


def _build_graph(rng):
    ops = []

    def d_op(g, label):
        ops.append(Op("d." + label, lambda outs: pf.differential(g),
                      lambda s: pf.differential(s).is_zero(), pf.render_graphsum))

    def dd_op(g, label):
        ops.append(Op("dd." + label,
                      lambda outs: pf.differential(pf.differential(g)),
                      lambda s: s.is_zero(), pf.render_graphsum))

    for (n, e), classes in (((6, 10), NONZERO_6_10), ((6, 11), NONZERO_6_11),
                            ((7, 12), NONZERO_7_12)):
        for edges in classes:
            g = _present(rng, n, edges)
            d_op(g, "n%de%d" % (n, e))
            dd_op(g, "n%de%d" % (n, e))
    for edges in NONZERO_7_13:
        for _ in range(3):
            dd_op(_present(rng, 7, edges), "n7e13")

    g3 = pf.tetrahedron()
    zeros = [_random_zero_graph(rng, n, e) for (n, e) in ZERO_CELLS]
    for z in zeros:
        d_op(z, "zero")
        dd_op(z, "zero")
    for z in zeros[:3]:
        ops.append(_bracket_op(z, _present(rng, 4, g3.edges), "zero.g3"))
    for _ in range(2):
        ops.append(_bracket_op(_present(rng, 4, g3.edges),
                               _present(rng, 4, K4_MINUS_EDGE), "g3.k4e"))
    ops.append(_bracket_op(_present(rng, 4, K4_MINUS_EDGE),
                           _present(rng, 4, K4_MINUS_EDGE), "k4e.k4e"))
    for edges in NONZERO_6_10:
        ops.append(_bracket_op(_present(rng, 6, edges), _present(rng, 2, ((1, 2),)),
                               "n6e10.stick"))
    return ops


# -- paper: verify-paper through the CLI --------------------------------------


def run_cli(argv):
    """``poissonflow.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pf.cli.main(argv)
    return code, out.getvalue()


def _paper_check(result):
    code, text = result
    lines = text.splitlines()
    table = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    return (code == 0 and len(table) > 0
            and all(ln.startswith("PASS") for ln in table)
            and "result: all checks passed" in lines)


def _build_paper(rng):
    return [Op("verify-paper", lambda outs: run_cli(["verify-paper"]),
               _paper_check, lambda result: "exit %d\n%s" % result)]


_BUILDERS = {"flow": _build_flow, "solve": _build_solve,
             "graph": _build_graph, "paper": _build_paper}
