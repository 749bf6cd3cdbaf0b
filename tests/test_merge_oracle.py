"""Block-sum ``merge`` against the field-by-field merge it replaced, and
the sheet-relabelling table behind it against a brute force.

``merge`` adds a key's sheet blocks as plain integers, which is exact only
while one field holds the sum of a variable's exponents over every sheet;
``lift`` sizes its width for that.  ``merge_fieldwise`` walks every field
of every key and adds the exponents as Python integers, so it has no width
limit.  The cases sit on both sides of the width boundaries.

``_SheetMap`` relabels sheets for ``merge``, every edge step of
``evaluate`` (the identity before the last vertex, the fold at it), the
twin order as each sheet comes in and the product with entry n.
``relabel_oracle`` lists the (sheet, mu) odd factors, sorts them by
(slot, mu) with a bubble sort that counts its swaps, and moves the even
exponents field by field.  The edge steps are checked by what they write:
a bucket moved once and added through ``signed`` or ``derivative`` into an
empty target must hold the oracle's moved keys at its mask and sign.
"""

import random
from itertools import combinations

import pytest

from poissonflow.multivec import Multivector
from poissonflow.orient import _SheetMap, apply_edge, lift, merge
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
    assert sp.width == (len(entries) * top).bit_length()
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


def bubble_sort(items):
    """``items`` sorted ascending by adjacent swaps of strictly greater
    neighbours, so ties keep their order, and the number of swaps."""
    items, swaps = list(items), 0
    for end in range(len(items) - 1, 0, -1):
        for t in range(end):
            if items[t] > items[t + 1]:
                items[t], items[t + 1] = items[t + 1], items[t]
                swaps += 1
    return items, swaps


def relabel_oracle(r, width, sheets, slots, om, keys):
    """(mask, sign, moved keys) of relabelling sheet s to ``slots.get(s, s)``,
    or None when two odd factors land on one (slot, mu)."""
    factors = [(slots.get(s, s), mu) for s in range(1, sheets + 1)
               for mu in range(r) if om >> ((s - 1) * r + mu) & 1]
    placed, swaps = bubble_sort(factors)
    if any(a == b for a, b in zip(placed, placed[1:])):
        return None
    mask = sum(1 << ((t - 1) * r + mu) for t, mu in placed)
    mask_e = (1 << width) - 1
    moved = []
    for ev in keys:
        fields = {}
        for s in range(1, sheets + 1):
            for mu in range(r):
                e = (ev >> (((s - 1) * r + mu) * width)) & mask_e
                place = (slots.get(s, s), mu)
                fields[place] = fields.get(place, 0) + e
        moved.append(sum(e << (((t - 1) * r + mu) * width)
                         for (t, mu), e in fields.items()))
    return mask, -1 if swaps & 1 else 1, moved


def random_keys(rng, r, width, sheets, count):
    """Keys whose fields sum below 2^width over every relabelling."""
    top = ((1 << width) - 1) // sheets
    return [sum(rng.randint(0, top) << (v * width) for v in range(sheets * r))
            for _ in range(count)]


def random_mask(rng, r, sheets):
    """An odd mask that often repeats a mu across sheets."""
    mus = rng.sample(range(r), rng.randint(1, r))
    return sum(1 << ((s - 1) * r + mu) for s in range(1, sheets + 1)
               for mu in mus if rng.random() < 0.5)


def check_table(table, rng, r, width, sheets, om, slots, extra=1):
    keys = random_keys(rng, r, width, sheets, 4)
    want = relabel_oracle(r, width, sheets, slots, om, keys)
    got = table[om]
    if want is None:
        assert got is None
        return 0
    mask, sgn, moved = want
    assert got[:2] == (mask, extra * sgn)
    pairs = [(ev, c) for c, ev in enumerate(keys, 1)]
    assert table.moved(pairs, got[2]) == [(ev, c) for c, ev in enumerate(moved, 1)]
    return 1


def map_kinds(rng, sheets):
    """Many sheets to slot 1, a permutation of a random subset, the identity."""
    many = {s: 1 for s in rng.sample(range(1, sheets + 1), rng.randint(1, sheets))}
    subset = sorted(rng.sample(range(1, sheets + 1), rng.randint(1, sheets)))
    perm = dict(zip(subset, rng.sample(subset, len(subset))))
    return {"many": many, "perm": perm, "identity": {}}


@pytest.mark.parametrize("kind", ["many", "perm", "identity"])
def test_sheet_map_against_the_brute_force(kind):
    rng = random.Random(930)
    kept = killed = 0
    for _ in range(300):
        r, sheets = rng.randint(1, 4), rng.randint(1, 6)
        width = rng.choice([3, 5, 8])
        slots = map_kinds(rng, sheets)[kind]
        table = _SheetMap(r, width, slots)
        for _ in range(3):
            hit = check_table(table, rng, r, width, sheets,
                              random_mask(rng, r, sheets), slots)
            kept += hit
            killed += 1 - hit
    assert kept >= 300
    assert (killed >= 100) == (kind == "many")


def test_moved_returns_its_input_when_nothing_moves():
    table = _SheetMap(2, 8, {1: 1, 2: 2})
    pairs = {5: 1, 7: -2}.items()
    assert not table.moves
    assert table.moved(pairs, table[0b1010][2]) is pairs


def sorting_oracle(r, om, classes):
    """The slots and sign of sorting each class's odd blocks by bubble sort:
    the sign is the product of sgn(sigma)^power."""
    slots, sgn = {}, 1
    for sheets, power in classes:
        blocks = [((om >> ((s - 1) * r)) & ((1 << r) - 1), t)
                  for t, s in enumerate(sheets)]
        order, swaps = bubble_sort(blocks)
        slots.update({sheets[src]: sheets[t] for t, (_, src) in enumerate(order)})
        if swaps & 1 and power & 1:
            sgn = -sgn
    return slots, sgn


def random_twins(rng, sheets, count):
    """Up to half the sheets, the finished ones, folded into the lowest of
    them, and up to ``count`` disjoint classes of two or more of the others,
    each with a power from 0 to 3."""
    free = rng.sample(range(1, sheets + 1), sheets)
    done = sorted(free[:rng.randint(0, sheets // 2)])
    free = free[len(done):]
    classes = []
    while len(classes) < count and len(free) >= 2:
        size = rng.randint(2, len(free))
        classes.append((tuple(sorted(free[:size])), rng.randint(0, 3)))
        free = free[size:]
    return {s: done[0] for s in done[1:]}, tuple(classes)


def test_neighbour_order_against_the_brute_force():
    # one class of power 1 is the last vertex's neighbours at n - 1; several
    # classes with powers |S|, and finished sheets folded, are the twins of
    # an earlier vertex
    for many in (False, True):
        rng = random.Random(940 + many)
        moved = odd = killed = 0
        for _ in range(300):
            r, sheets = rng.randint(1, 4), rng.randint(2 + 2 * many, 6 + 2 * many)
            width = rng.choice([1, 3, 5, 8])
            if many:
                folds, classes = random_twins(rng, sheets, 3)
            else:
                neighbours = sorted(rng.sample(range(1, sheets + 1),
                                               rng.randint(2, sheets)))
                folds, classes = {}, ((tuple(neighbours), 1),)
            table = _SheetMap(r, width, folds, classes)
            for _ in range(3):
                om = random_mask(rng, r, sheets)
                sigma, sgn = sorting_oracle(r, om, classes)
                moved += any(s != t for s, t in sigma.items())
                odd += sgn < 0
                hit = check_table(table, rng, r, width, sheets, om,
                                  {**folds, **sigma}, sgn)
                assert hit or folds
                killed += 1 - hit
        assert moved >= 300
        assert odd >= 100
        assert (killed >= 50) == many


def added(pairs):
    """The (key, c) pairs summed per key."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return out


def check_edge_step(table, rng, r, width, sheets, slots, below):
    """One odd mask through the sheet map of an edge step: its entry against
    the brute force, and what ``signed`` and ``derivative`` write for a
    bucket of the mask left after a derivative removes an odd factor of
    sheets 1..``below``: the oracle's moved keys at its mask and sign, and
    for ``derivative`` at each field of those sheets, the moved keys lowered
    in that field's slot and times its exponent in the source key.  Returns
    whether the mask's entry is None and whether the writes held where it
    is."""
    om = random_mask(rng, r, sheets)
    hit = check_table(table, rng, r, width, sheets, om, slots)
    low = om & ((1 << (below * r)) - 1)
    rescued = False
    if low:
        bit = 1 << (low.bit_length() - 1)
        keys = list(dict.fromkeys(random_keys(rng, r, width, sheets, 3)))
        want = relabel_oracle(r, width, sheets, slots, om ^ bit, keys)
        if want is not None:
            mask, sgn, fevs = want
            bucket = {ev: c for c, ev in enumerate(keys, 1)}
            moved = table.moved(bucket.items(), table.moves)
            got = {}
            table.signed(got, om ^ bit, moved, 1)
            assert got == {mask: added((fev, sgn * c) for c, fev in enumerate(fevs, 1))}
            mask_e = (1 << width) - 1
            for s in range(1, below + 1):
                for mu in range(r):
                    shift = ((s - 1) * r + mu) * width
                    one = 1 << (((slots.get(s, s) - 1) * r + mu) * width)
                    got = {}
                    table.derivative(got, om ^ bit, moved, bucket, 1, shift, one)
                    assert got == {mask: added(
                        (fev - one, sgn * e * c)
                        for c, (fev, ev) in enumerate(zip(fevs, keys), 1)
                        if (e := (ev >> shift) & mask_e))}
            rescued = table[om] is None
    return 1 - hit, rescued


def test_fold_and_identity_edge_steps_against_the_brute_force():
    # an edge step at the last vertex folds sheets lo..hi into slot 1; its
    # key moves are the target mask's, also where the source mask's own
    # entry is None and the derivative removes the clash
    rng = random.Random(950)
    killed = rescued = 0
    for _ in range(300):
        r, sheets = rng.randint(1, 3), rng.randint(3, 7)
        width = rng.choice([1, 3, 5, 8])
        hi = rng.randint(1, sheets - 2)
        lo = rng.randint(2, hi + 1)
        slots = tuple((s, 1) for s in range(lo, hi + 1))
        table = _SheetMap(r, width, slots)
        for _ in range(3):
            dead, held = check_edge_step(table, rng, r, width, sheets, dict(slots), hi)
            killed += dead
            rescued += held
    assert killed >= 50
    assert rescued >= 20
    # the identity, every edge step before vertex n and the first at vertex
    # n when the second is (2, n), with a derivative in any sheet
    for _ in range(200):
        r, sheets = rng.randint(1, 3), rng.randint(3, 7)
        width = rng.choice([1, 3, 5, 8])
        table = _SheetMap(r, width, ())
        assert check_edge_step(table, rng, r, width, sheets, {}, sheets) == (0, False)
