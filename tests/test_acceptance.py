"""Acceptance criteria, one test per criterion, exact tolerances.

Arithmetic is rational throughout, so every equality below is exact; the
only tolerances are the stated wall-clock budgets.  Run with ``-v -s`` for
the one-line pass report per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from poissonflow import catalog
from poissonflow.cohomsolve import trivialize
from poissonflow.gracomplex import (GraphSum, differential, point,
                                    simple_graph, stick)
from poissonflow.multivec import (euler_field, homogeneity_scale, jacobiator,
                                  schouten)
from poissonflow.orient import cocycle1, flow
from poissonflow.verify import (random_homogeneous_multivector,
                                random_multivector, uniform_ratio)

FROZEN = catalog.derived_constants()


def report(line):
    print("PASS  " + line)


@pytest.fixture(scope="module")
def flows(gamma3, P1, P2):
    out = {}
    for name, p in (("P1", P1), ("P2", P2)):
        t0 = time.perf_counter()
        out[name] = flow(gamma3, p)
        out[name + "_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_01_jacobi_identities(P1, P2):
    for name, p in (("P1", P1), ("P2", P2)):
        t0 = time.perf_counter()
        assert jacobiator(p).is_zero()
        assert time.perf_counter() - t0 < 1.0
    report("criterion 1: jacobiator(P1) = jacobiator(P2) = 0, < 1 s each")


def test_criterion_02_homogeneity(P1, P2, euler4):
    t0 = time.perf_counter()
    assert schouten(euler4, P1) == P1
    assert schouten(euler4, P2) == P2
    assert homogeneity_scale(euler4, P1) == 1
    assert time.perf_counter() - t0 < 1.0
    report("criterion 2: [[E,P_i]] = P_i at scale 1, < 1 s")


def test_criterion_03_coboundary_identities(P1, P2, Y1, Y2, QP1, QP2):
    t0 = time.perf_counter()
    b1 = schouten(Y1, P1)
    assert b1 == QP1
    assert b1.components[(1, 2)].sorted_terms()[0] == ((5, 1, 0, 0), -48)
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    b2 = schouten(Y2, P2)
    assert b2 == QP2
    assert b2.components[(1, 2)].sorted_terms()[0] == ((5, 1, 0, 0), -384)
    assert time.perf_counter() - t0 < 1.0
    report("criterion 3: [[Y_i,P_i]] = printed Q(P_i) exactly, "
           "leading terms -48*x^5*y and -384*x^5*y, < 1 s each")


def test_criterion_04_orientation_morphism(flows, QP1, QP2):
    lam1 = uniform_ratio(flows["P1"], QP1)
    lam2 = uniform_ratio(flows["P2"], QP2)
    assert lam1 == Fraction(FROZEN["lambda1"]) == 4
    assert lam2 == Fraction(FROZEN["lambda2"]) == 4
    assert flows["P1_seconds"] < 60.0 and flows["P2_seconds"] < 60.0
    report("criterion 4: flow(g3,P_i) = lambda_i * Q(P_i) with "
           "lambda1 = lambda2 = 4 (frozen), < 60 s each")


def test_criterion_05_cocycle_condition(flows, P1, P2):
    assert schouten(P1, flows["P1"]).is_zero()
    assert schouten(P2, flows["P2"]).is_zero()
    report("criterion 5: [[P_i, flow(g3,P_i)]] = 0")


def test_criterion_06_scale_n(flows, euler4):
    for name in ("P1", "P2"):
        f = flows[name]
        assert schouten(euler4, f) == f.scale(4)
    report("criterion 6: [[E, flow(g3,P_i)]] = 4 * flow(g3,P_i)")


def test_criterion_07_vanishing_case(gamma3, P1, P2, euler4):
    assert cocycle1(gamma3, euler4, P1).is_zero()
    assert cocycle1(gamma3, euler4, P2).is_zero()
    report("criterion 7: cocycle1(g3,E,P_i) = 0 identically")


def test_criterion_08_nambu_regime(gamma3, nambu_quartic):
    e3 = euler_field(3)
    assert homogeneity_scale(e3, nambu_quartic) == 1
    t0 = time.perf_counter()
    x = cocycle1(gamma3, e3, nambu_quartic)
    dt = time.perf_counter() - t0
    assert schouten(x, nambu_quartic).is_zero()
    assert x.is_zero() == FROZEN["x_nambu_quartic_is_zero"]
    assert dt < 60.0
    q = flow(gamma3, nambu_quartic)
    assert q.is_zero() == FROZEN["flow_nambu_quartic_is_zero"]
    sol = trivialize(q, nambu_quartic, 4)
    assert sol.status == FROZEN["trivialize_flow_nambu_quartic_d4_status"]
    report("criterion 8: [[X,P_N]] = 0 exactly; X = 0 recorded; < 60 s; "
           "flow(g3,P_N) = 0 and its D = 4 trivialization status recorded")


def test_criterion_09_graph_complex(gamma3):
    t0 = time.perf_counter()
    assert differential(point()) == GraphSum.single(stick()).scale(-1)
    assert differential(gamma3).is_zero()
    for n in range(1, 5):
        for mask in range(1 << n * (n - 1) // 2):
            assert differential(differential(simple_graph(n, mask))).is_zero()
    masks = [m for m in range(1 << 10) if 1 <= m.bit_count() <= 8]
    for mask in random.Random(99).sample(masks, 8):
        assert differential(differential(simple_graph(5, mask))).is_zero()
    assert time.perf_counter() - t0 < 30.0
    report("criterion 9: d(point) = -stick, d(g3) = 0, d^2 = 0 "
           "(exhaustive n <= 4, randomized n = 5), < 30 s")


def test_criterion_10_solver(P1, P2, QP1, QP2, Y1, Y2):
    for p, q, y, key in ((P1, QP1, Y1, "kernel_dim_p1_d4"),
                         (P2, QP2, Y2, "kernel_dim_p2_d4")):
        t0 = time.perf_counter()
        sol = trivialize(q, p, 4)
        assert sol.status == "solved"
        assert (schouten(sol.particular, p) - q).is_zero()
        assert sol.contains(y)
        assert sol.kernel_dim == FROZEN[key]
        assert time.perf_counter() - t0 < 60.0
    report("criterion 10: trivialize(Q(P_i),P_i,D=4) solved with zero "
           "residual; printed Y_i in the affine solution set; < 60 s each")


def test_criterion_11_property_suites(P1):
    rng = random.Random(7)
    count = 0
    while count < 100:
        r = rng.randint(1, 3)
        degs = [rng.randint(0, r) for _ in range(3)]
        a, b, c = (random_homogeneous_multivector(rng, r, d) for d in degs)
        ka, kb = degs[0], degs[1]
        sign = -1 if ((ka - 1) * (kb - 1)) % 2 else 1
        assert schouten(b, a) == schouten(a, b).scale(-sign)
        lhs = (schouten(a, schouten(b, c))
               - schouten(b, schouten(a, c)).scale(sign))
        assert lhs == schouten(schouten(a, b), c)
        count += 1
    for _ in range(10):
        omega = random_multivector(rng, 4)
        assert schouten(P1, schouten(P1, omega)).is_zero()
    report("criterion 11: graded skew-symmetry and Jacobi on 100 random "
           "triples (r <= 3, deg <= 2); d_P^2 = 0 on P1; all exact")


def test_criterion_12_kirillov_kostant_vanishing(gamma3, gl2kk):
    assert jacobiator(gl2kk).is_zero()
    assert flow(gamma3, gl2kk).is_zero()
    report("criterion 12: flow(g3, linear gl(2) bracket) = 0")
