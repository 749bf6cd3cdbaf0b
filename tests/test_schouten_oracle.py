"""The one-pass ``schouten`` against the composed bracket it replaced.

``composed_schouten`` is the old bracket, kept here as the oracle: it builds
[[P,Q]] = sum_i (P)<d/dxi_i . d/dx^i(Q) - (d/dx^i P) . d/dxi_i>(Q) from the
separate right derivative, x-partial, left derivative and wedge, each a
fresh Multivector.  The one-pass kernel must agree with it term for term on
seeded pairs of every xi-degree 0-3, mixed degrees, zero, Fraction
coefficients and exponents past 255.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from poissonflow.multivec import Multivector, _x_partial, _xi_left, schouten, wedge
from poissonflow.ratpoly import Poly


# -- oracle: the composed bracket -------------------------------------------


def _xi_right(mv, i):
    """Right derivative (mv)<d/dxi_i; sign (-1)^(k-1-p)."""
    out = {}
    for idx, p in mv.components.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        sign = -1 if (len(idx) - 1 - pos) & 1 else 1
        key = idx[:pos] + idx[pos + 1:]
        q = p if sign > 0 else -p
        cur = out.get(key)
        cur = q if cur is None else cur + q
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)
    return Multivector._raw(mv.nvars, out)


def composed_schouten(p, q):
    out = Multivector.zero(p.nvars)
    for i in range(1, p.nvars + 1):
        a = _xi_right(p, i)
        if a:
            b = _x_partial(q, i)
            if b:
                out = out + wedge(a, b)
        c = _x_partial(p, i)
        if c:
            d = _xi_left(q, i)
            if d:
                out = out - wedge(c, d)
    return out


# -- seeded inputs ------------------------------------------------------------


def rand_coeff(rng, fractions):
    c = rng.randint(-4, 4)
    if fractions and rng.random() < 0.5:
        c = Fraction(c, rng.randint(1, 6))
    return c


def rand_poly(rng, nvars, fractions=False, big=False):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        if big:
            k = rng.randrange(nvars)
            exps[k] += rng.choice((255, 256, 300, 1000))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rand_coeff(rng, fractions)
    return Poly(nvars, terms)


def rand_mv(rng, nvars, grades, density=0.6, **kw):
    comps = {}
    for grade in grades:
        for idx in combinations(range(1, nvars + 1), grade):
            if rng.random() < density:
                comps[idx] = rand_poly(rng, nvars, **kw)
    return Multivector(nvars, comps)


def _grades(rng, r):
    """One xi-degree 0..3 (capped at r), or a mixed pair of them."""
    top = min(3, r)
    if rng.random() < 0.25:
        return tuple(sorted(rng.sample(range(top + 1), min(2, top + 1))))
    return (rng.randint(0, top),)


def _pairs(seed, count, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(1, 5)
        p = rand_mv(rng, r, _grades(rng, r), **kw)
        q = rand_mv(rng, r, _grades(rng, r), **kw)
        yield p, q


def _assert_same(p, q):
    got = schouten(p, q)
    want = composed_schouten(p, q)
    assert got == want, (p, q)
    for poly in got.components.values():
        assert poly
        for c in poly.terms.values():
            assert c
            assert not (isinstance(c, Fraction) and c.denominator == 1)


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_matches_composed_bracket(seed):
    for p, q in _pairs(seed, 150):
        _assert_same(p, q)


def test_one_pass_matches_with_fraction_coefficients():
    for p, q in _pairs(11, 150, fractions=True):
        _assert_same(p, q)


def test_one_pass_matches_with_exponents_past_255():
    for p, q in _pairs(12, 60, big=True):
        _assert_same(p, q)


def test_scalars_zero_and_mixed_degrees():
    rng = random.Random(13)
    for r in range(1, 6):
        zero = Multivector.zero(r)
        f = rand_mv(rng, r, (0,), density=1.0)
        g = rand_mv(rng, r, (0,), density=1.0)
        mixed = rand_mv(rng, r, range(min(3, r) + 1), density=1.0)
        vec = rand_mv(rng, r, (1,), density=1.0)
        for p, q in ((f, g), (zero, mixed), (mixed, zero), (zero, zero),
                     (f, mixed), (mixed, f), (mixed, mixed), (vec, mixed)):
            _assert_same(p, q)
        assert schouten(f, g).is_zero()


def test_cancellation_leaves_no_stored_zero():
    # [[X, X]] = 0 for a vector field X: every product cancels
    rng = random.Random(14)
    for r in range(1, 6):
        x = rand_mv(rng, r, (1,), density=1.0, fractions=True)
        assert schouten(x, x).components == {}
