"""Block-sum ``merge`` against the field-by-field merge it replaced.

``merge`` adds a key's sheet blocks as plain integers, which is exact only
while one field holds the sum of a variable's exponents over every sheet;
``lift`` sizes its width for that.  ``merge_fieldwise`` walks every field
of every key and adds the exponents as Python integers, so it has no width
limit.  The cases sit on both sides of the width boundaries.
"""

import random
from itertools import combinations

import pytest

from poissonflow.errors import DimensionError
from poissonflow.multivec import Multivector
from poissonflow.orient import SheetedPoly, apply_edge, lift, merge
from poissonflow.ratpoly import Poly, ratnorm

from test_orient_oracle import rand_grade


def merge_fieldwise(sp):
    r, width = sp.nvars, sp.width
    mask_e = (1 << width) - 1
    comps = {}
    for om, bucket in sp.groups.items():
        mus = []
        m = om
        while m:
            low = m & (-m)
            m ^= low
            mus.append((low.bit_length() - 1) % r)
        if len(set(mus)) != len(mus):
            continue
        inv = sum(1 for p, q in combinations(mus, 2) if p > q)
        sgn = -1 if inv & 1 else 1
        target = comps.setdefault(tuple(sorted(mu + 1 for mu in mus)), {})
        for ev, c in bucket.items():
            exps = [0] * r
            v = 0
            while ev:
                e = ev & mask_e
                if e:
                    exps[v % r] += e
                ev >>= width
                v += 1
            key = tuple(exps)
            cur = target.get(key, 0) + sgn * c
            if cur:
                target[key] = cur
            else:
                del target[key]
    out = {}
    for idx, bucket in comps.items():
        if bucket:
            out[idx] = Poly._raw(r, {e: ratnorm(k) for e, k in bucket.items()})
    return Multivector._raw(r, out)


def top_entry(top, r, grade, rng):
    """A grade-``grade`` multivector whose largest exponent is ``top``."""
    mv = rand_grade(rng, r, grade)
    while mv.is_zero():
        mv = rand_grade(rng, r, grade)
    idx = next(iter(mv.components))
    peak = Poly(r, {(top,) + (0,) * (r - 1): rng.choice([-2, 1, 3]),
                    (top - 1,) + (1,) * (r - 1): 1})
    return mv + Multivector(r, {idx: peak})


@pytest.mark.parametrize("n, top", [(3, 85), (4, 64), (2, 255), (1, 300),
                                    (2, 300), (3, 300)])
def test_lift_width_holds_the_exponent_sum_over_sheets(n, top):
    # n*top = 255, 256, 510, 300, 600, 900: both sides of 8, 9 and 10 bits
    rng = random.Random(900 + n * top)
    grades = [0] * n   # at most three odd factors over three variables
    for _ in range(rng.randint(0, 3)):
        grades[rng.randrange(n)] += 1
    entries = [top_entry(top, 3, g, rng) for g in grades]
    sp = lift(entries)
    assert sp.width >= (len(entries) * top).bit_length()
    got = merge(sp)
    assert got == merge_fieldwise(sp)
    assert not got.is_zero()


@pytest.mark.parametrize("n, top", [(3, 85), (4, 64), (2, 255), (2, 300)])
def test_scalar_products_reach_n_times_top(n, top):
    x1 = Multivector(2, {(): Poly(2, {(top, 0): 1})})
    got = merge(lift([x1] * n))
    assert got == Multivector(2, {(): Poly(2, {(n * top, 0): 1})})
    assert got == merge_fieldwise(lift([x1] * n))


def test_random_states_after_edges():
    rng = random.Random(910)
    nonzero = 0
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        top = rng.choice([1, 2, 63, 64, 85, 127, 128, 255, 256, 300])
        entries = [top_entry(top, r, rng.randint(0, r), rng) for _ in range(n)]
        state = lift(entries)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for (i, j) in rng.sample(pairs, rng.randint(0, len(pairs))):
            state = apply_edge(state, i, j)
            assert merge(state) == merge_fieldwise(state)
        nonzero += not merge(state).is_zero()
    assert nonzero >= 10


def test_constructor_rejects_exponent_sums_past_its_width():
    # two sheets of x1^200: the merged exponent 400 needs nine bits
    with pytest.raises(DimensionError):
        SheetedPoly(1, 2, {(200 | 200 << 8, 0): 1})
    with pytest.raises(DimensionError):
        SheetedPoly(1, 2, {(1 << 16, 0): 1})  # a third sheet's field
    sp = SheetedPoly(1, 2, {(100 | 155 << 8, 0): 1})
    assert merge(sp) == merge_fieldwise(sp) == Multivector(
        1, {(): Poly(1, {(255,): 1})})
