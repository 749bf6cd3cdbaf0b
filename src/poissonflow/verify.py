"""One-shot verification of every identity the package is built to reproduce.

Each check is a named callable over a shared object table so that single
entries can be swapped out (fault injection in tests); a check that raises
fails alone without stopping the run.  Checks are exact; the only
tolerances are the stated runtime budgets.

The graph-complex check runs d^2 = 0 on graphs from the one enumerator,
``gracomplex.simple_graph``: every edge set of K_n for n <= 4 (75 graphs,
connected or not), and 6 edge sets of K_5 with 1 to 8 edges drawn with
``PROPERTY_SEED``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import catalog as _catalog
from .gracomplex import (GraphSum, bracket, differential, point, simple_graph,
                         stick)
from .multivec import (Multivector, _ratio, euler_field, homogeneity_scale,
                       jacobiator, schouten)
from .orient import cocycle1, flow
from .cohomsolve import trivialize
from .ratpoly import Poly, ratnorm

PROPERTY_SEED = 20240811


@dataclass
class CheckResult:
    ident: str
    description: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class RunReport:
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = "%s  %-18s %s" % (status, c.ident, c.description)
            if c.detail:
                line += "  [%s]" % c.detail
            lines.append(line)
        lines.append("result: %s" % ("all checks passed" if self.passed
                                     else "FAILURES PRESENT"))
        return "\n".join(lines)


def default_objects():
    """The table of catalog objects the checks consume."""
    get = _catalog.get
    return {
        "P1": get("P1").payload, "P2": get("P2").payload,
        "QP1": get("QP1").payload, "QP2": get("QP2").payload,
        "Y1": get("Y1").payload, "Y2": get("Y2").payload,
        "E": get("euler").payload,
        "gamma3": get("tetrahedron").payload,
        "KK": get("gl2kk").payload,
        "PN": get("nambu-quartic").payload,
    }


def uniform_ratio(value: Multivector, reference: Multivector):
    """Single nonzero rational lam with value = lam*reference, or None."""
    if reference.is_zero():
        return None
    return _ratio(value, reference) or None


# -- randomized inputs for the property suites: up to 3 terms of degree <= 2


def random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(nvars)] += 1
        c = rng.randint(-4, 4)
        if rng.random() < 0.25:
            c = Fraction(c, 2)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return Poly(nvars, terms)


def random_homogeneous_multivector(rng, nvars, grade):
    comps = {}
    for idx in combinations(range(1, nvars + 1), grade):
        if rng.random() < 0.7:
            comps[idx] = random_poly(rng, nvars)
    return Multivector(nvars, comps)


def random_multivector(rng, nvars):
    out = Multivector.zero(nvars)
    for grade in range(nvars + 1):
        if rng.random() < 0.6:
            out = out + random_homogeneous_multivector(rng, nvars, grade)
    return out


# -- the checks -----------------------------------------------------------


def _run(ident, description, fn, budget=None) -> CheckResult:
    """Execute one check body returning (passed, detail); contain errors."""
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, "error: %s" % exc
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        passed = False
        detail = (detail + "; " if detail else "") + "over time budget"
    return CheckResult(ident, description, passed, detail, dt)


def run_checks(objects=None) -> RunReport:
    """Run all 20 checks in print order; ``objects`` overrides table entries."""
    obj = default_objects()
    if objects:
        obj.update(objects)
    frozen = _catalog.derived_constants()
    g3, E = obj["gamma3"], obj["E"]
    report = RunReport()
    add = report.checks.append

    # 1: Jacobi identities
    for name in ("P1", "P2"):
        add(_run("jacobi-%s" % name.lower(), "jacobiator(%s) = 0" % name,
                 lambda n=name: (jacobiator(obj[n]).is_zero(), ""),
                 budget=1.0))

    # 2: homogeneity of scale 1
    for name in ("P1", "P2"):
        def scale_check(n=name):
            lam = homogeneity_scale(E, obj[n])
            return lam == 1, "scale=%s" % (lam,)

        add(_run("scale-%s" % name.lower(), "[[E,%s]] = %s" % (name, name),
                 scale_check, budget=1.0))

    # 3: coboundary identities, coefficient for coefficient
    for name, yname, qname in (("P1", "Y1", "QP1"), ("P2", "Y2", "QP2")):
        add(_run("coboundary-%s" % name.lower(),
                 "[[%s,%s]] = %s exactly" % (yname, name, qname),
                 lambda a=name, b=yname, c=qname: (
                     schouten(obj[b], obj[a]) == obj[c], ""),
                 budget=1.0))

    flows = {}
    # 4: the graph flow reproduces the stored values up to one ratio
    for name, qname, key in (("P1", "QP1", "lambda1"),
                             ("P2", "QP2", "lambda2")):
        def flow_check(n=name, q=qname, k=key):
            f = flow(g3, obj[n])
            flows[n] = f
            lam = uniform_ratio(f, obj[q])
            report.outputs[k] = str(lam)
            expected = ratnorm(Fraction(frozen[k]))
            return lam is not None and lam == expected, "lambda=%s" % (lam,)

        add(_run("flow-%s" % name.lower(),
                 "flow(g3,%s) = lambda*%s, lambda frozen at %s"
                 % (name, qname, frozen[key]), flow_check, budget=60.0))

    # 5: flows are cocycles
    for name in ("P1", "P2"):
        add(_run("flow-cocycle-%s" % name.lower(),
                 "[[%s, flow(g3,%s)]] = 0" % (name, name),
                 lambda n=name: (schouten(obj[n], flows[n]).is_zero(), "")))

    # 6: vertex-count scaling of the flow
    for name in ("P1", "P2"):
        add(_run("flow-scale-%s" % name.lower(),
                 "[[E, flow(g3,%s)]] = 4*flow(g3,%s)" % (name, name),
                 lambda n=name: (
                     schouten(E, flows[n]) == flows[n].scale(4), "")))

    # 7: the universal 1-vector vanishes for the linear Euler field on R^4
    for name in ("P1", "P2"):
        add(_run("vanishing-%s" % name.lower(),
                 "cocycle1(g3,E,%s) = 0 identically" % name,
                 lambda n=name: (cocycle1(g3, E, obj[n]).is_zero(), "")))

    # 8: determinant-bracket regime; outcomes recorded, cocycle equation exact
    def nambu_check():
        PN = obj["PN"]
        E3 = euler_field(3)
        lam = homogeneity_scale(E3, PN)
        xN = cocycle1(g3, E3, PN)
        ok = (lam == 1 and schouten(xN, PN).is_zero()
              and xN.is_zero() == frozen["x_nambu_quartic_is_zero"])
        return ok, "X zero: %s" % (xN.is_zero(),)

    add(_run("nambu-cocycle1",
             "[[X,PN]] = 0 for X = cocycle1(g3,E,PN); X=0 recorded",
             nambu_check, budget=60.0))

    # 9: the graph complex around the tetrahedron
    def graph_checks():
        if differential(point()) != GraphSum.single(stick()).scale(-1):
            return False, "d(point) != -stick"
        # differential builds no term of d(g3), every split of the
        # tetrahedron cancelling, so the definition -[stick, g3] is checked
        # as well
        if not (differential(g3).is_zero() and bracket(stick(), g3).is_zero()):
            return False, "d(tetrahedron) != 0"
        for n in range(1, 5):
            for mask in range(1 << n * (n - 1) // 2):
                if not differential(differential(simple_graph(n, mask))).is_zero():
                    return False, "d^2 != 0 at n <= 4"
        # the masks of K5 with 1 to 8 of its 10 edges
        masks = [m for m in range(1 << 10) if 1 <= m.bit_count() <= 8]
        for mask in random.Random(PROPERTY_SEED).sample(masks, 6):
            if not differential(differential(simple_graph(5, mask))).is_zero():
                return False, "d^2 != 0 at n = 5"
        return True, ""

    add(_run("graph-complex", "d(point) = -stick, d(g3) = 0, d^2 = 0 suites",
             graph_checks, budget=30.0))

    # 10: exact trivialization and membership of the stored fields
    for name, qname, yname, key in (("P1", "QP1", "Y1", "kernel_dim_p1_d4"),
                                    ("P2", "QP2", "Y2", "kernel_dim_p2_d4")):
        def solver_check(n=name, q=qname, y=yname, k=key):
            sol = trivialize(obj[q], obj[n], 4)
            if sol.status != "solved":
                return False, "infeasible"
            if n == "P1":
                report.outputs["kernel_dim"] = sol.kernel_dim
            resid = schouten(sol.particular, obj[n]) - obj[q]
            member = sol.contains(obj[y])
            return (resid.is_zero() and member
                    and sol.kernel_dim == frozen[k],
                    "kernel_dim=%d" % sol.kernel_dim)

        add(_run("solver-%s" % name.lower(),
                 "trivialize(%s,%s,D=4) solved; %s in solution set"
                 % (qname, name, yname), solver_check, budget=60.0))

    # 11: algebraic property suites, exact, on seeded random inputs
    def property_suite():
        rng = random.Random(PROPERTY_SEED)
        for _ in range(100):
            r = rng.randint(1, 3)
            degs = [rng.randint(0, r) for _ in range(3)]
            a, b, c = (random_homogeneous_multivector(rng, r, d) for d in degs)
            ka, kb = degs[0], degs[1]
            sign = -1 if ((ka - 1) * (kb - 1)) % 2 else 1
            if schouten(b, a) != schouten(a, b).scale(-sign):
                return False, "graded skew symmetry failed"
            lhs = (schouten(a, schouten(b, c))
                   - schouten(b, schouten(a, c)).scale(sign))
            if lhs != schouten(schouten(a, b), c):
                return False, "graded Jacobi failed"
        P1 = obj["P1"]
        for _ in range(10):
            omega = random_multivector(rng, 4)
            if not schouten(P1, schouten(P1, omega)).is_zero():
                return False, "d_P^2 != 0 on P1"
        return True, ""

    add(_run("property-suites",
             "graded skew + Jacobi (100 triples), d_P^2 = 0 on P1",
             property_suite))

    # 12: linear brackets annihilate the flow
    add(_run("linear-vanishing", "flow(g3, gl2 linear bracket) = 0",
             lambda: (flow(g3, obj["KK"]).is_zero(), "")))

    return report

