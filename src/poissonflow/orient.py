"""Evaluating graphs on tuples of multivectors.

Each vertex i of a graph receives a multivector rewritten in its own sheet
of variables: even x^mu_(i) and odd xi_mu^(i), mu = 1..r.  An edge i--j
becomes the operator

    E_ij = sum_mu  d/dxi_mu^(i) . d/dx^mu_(j)  +  d/dxi_mu^(j) . d/dx^mu_(i),

odd derivatives acting from the left.  The value of a graph is the product
of the sheets, acted on by its edges in their listed order, with the sheets
merged back to a single multivector.  Applied to a graph cocycle with every
vertex holding the same Poisson bivector this yields its flow; with one
1-vector slot, summed over placements, the associated 1-vector cocycle.

Sign ledger.  Odd factors of a term are ordered sheet-major, ascending; a
term's coefficient is relative to that order.

- Sheet multiplication.  Sheets are multiplied in ascending order, each
  new factor on the right.  Its odd factors sit above every earlier one,
  so the product carries no Koszul sign.
- Closing a vertex.  ``evaluate`` closes vertices k = 1..n in turn with
  their edges (i, k), i < k, in ascending order of i.  E_ij only
  differentiates in sheets i and j, so sheet k may come in after the
  state S over sheets 1..k-1 has seen every edge between them: the edges
  act on S . B, B a derivative of entry k in sheet-k variables, by the
  Leibniz rule
      d/dxi_mu^(i) (A . B) = (d/dxi_mu^(i) A) . B,
      d/dx^mu_(i)  (A . B) = (d/dx^mu_(i) A) . B,
      d/dxi_mu^(k) (A . B) = (-1)^|A| A . (d/dxi_mu^(k) B),
  with |A| the number of A's odd factors; d/dx^mu_(k) only shifts B.  So
  they act on a map from a descriptor d of B's derivative to A_d, starting
  from {none: S}.  A descriptor is an x multi-index alpha and an ascending
  xi tuple s, standing for d/dx^alpha d/dxi_s1 ... d/dxi_sm (s_m acting
  first).  A new d/dxi_mu sorts into s past the indices below mu, at the
  sign of that many transpositions; an index already in s gives zero.
  A's with equal descriptors are added, and a descriptor whose derivative
  of entry k is zero is dropped.  For k < n the new state is the sum over
  d of A_d . d(entry k), each product relabelled by the twin order of
  sheet k ("Twin sheets"), adding products that share a key.  At k = n
  the sheets fold into slot 1 as they finish (next item), so every A_d
  ends in one slot; the same product multiplies it by d(entry n), B being
  a second sheet relabelled into slot 1 (see "Relabelling sheets"), into
  one accumulator for all d and graph terms, and ``merge`` of that
  one-slot accumulator is the value.
- Relabelling sheets.  A sheet map sends each sheet to a slot, several
  sheets possibly to one, and each odd factor (sheet, mu) with it to
  (slot, mu).  The relabelled term is relative to its odd factors sorted
  by (slot, mu), at the parity of that sort from sheet-major order; two
  factors on one (slot, mu) make it zero.  Even blocks move with their
  sheets, and blocks sharing a slot add.  ``_SheetMap`` works this out
  once per odd mask for ``merge``, every edge step in ``evaluate`` (the
  identity before vertex n, the fold at it) and every product with a new
  sheet: the identity in ``lift``, the twin order for sheet k < n and the
  join into slot 1 for entry n.  ``merge`` and the edge steps move each
  bucket's keys once and add them through the map's ``signed`` or
  ``derivative``, the one way a relabelled bucket is added; a map that
  moves nothing passes the bucket's own items.
- Folding a finished sheet.  At vertex n the edges act in ascending order
  of i, so once the edges at i have acted no later edge touches sheet i or
  a sheet below it.  The sheet map of that edge step relabels each such
  sheet into slot 1, so the edge's d/dx^mu_(i) lowers slot 1's field; the
  product with sheet n-1 has already folded the sheets with no edge to n
  into the lowest of them ("Twin sheets").  Below a folding sheet all are
  folded already and those above keep their place, so a later edge's
  left-derivative sign counts the same factors.  ``merge`` of a folded
  state is ``merge`` of the unfolded one, and terms that agree after
  folding are added before the next edge.
- Twin sheets.  When sheet k < n is multiplied in, the rest of the
  evaluation F is the edges still to act, the later entries and ``merge``.
  Sheets 1..k with an edge to the same set S of vertices j > k are twins.
  Let sigma permute one class C of twins.  Relabelling sheets is an
  algebra map; it commutes with a factor in a sheet above k and with
  ``merge``, which identifies every sheet, and it turns E_(i j), i in C,
  into E_(sigma(i) j).  For each j in S the edges (i, j), i in C, keep
  their places among the edges at j, so putting them back in ascending
  order costs sgn(sigma), the edge operators being odd.  So F(sigma x) =
  sgn(sigma)^|S| F(x) for every state x and any entries, placements with
  v != p included, with no graph automorphism needed.  A repeated edge
  makes a graph zero, as E_ij^2 = 0, and ``evaluate`` skips it.  While
  sheet k is multiplied in, each product term x is therefore written as
  sgn(sigma)^|S| sigma x, with sigma picked per class from the odd mask
  alone: it sorts the class's odd blocks ascending, ties kept in place,
  and sigma x carries the relabelling sign.  Terms that differ by a swap
  of twins are then added before the edges act on them.  Only twins whose
  entries have one xi-degree are sorted together: a swap of sheets whose
  entries differ in degree seldom maps a term onto another, and the sort
  would only scatter terms that the later edges add.  The class with S
  empty, the finished sheets, is folded into its lowest sheet instead.
  The fold is an algebra map fixing every other sheet, so it commutes with
  the edges left, none of which acts on a finished sheet, and ``merge`` of
  a folded state is ``merge`` of the unfolded one: F is unchanged.  The
  fold also adds terms whose finished sheets tie in their odd blocks and
  differ in their even ones, which a sort keeps apart.  Twins are sorted
  only here, as a sheet comes in; the edge steps fold and never sort.
  Vertex n needs no sort of its own: the product with sheet n-1 sorts all
  of n's neighbours as twins with S = {n}, and each edge (i, n) changes
  only sheet i, which then folds into slot 1, and the derivative of entry
  n, so the odd blocks of the neighbours that later edges reach stay
  sorted.
- Edge order costs the permutation's parity.  Each E_ij is odd, so two
  edge operators anticommute; applying the edges sorted by (larger
  endpoint, smaller endpoint) instead of in listed order multiplies the
  value by the sign of that stable sort's permutation.
- Left derivative.  d/dxi at odd bit b passes the odd factors standing
  before b: the sign is the parity of the bits set below b.
- Merge.  Collapsing sheets relabels every sheet into slot 1.
- Placements.  A graph with v at vertex k and p at the others equals the
  graph relabelled by k -> 1, a -> a + 1 for a < k (the rest fixed), with
  v in sheet 1, times two signs: the parity of sorting the relabelled edge
  list, and (-1)^((k-1) deg v deg p) for moving v's sheet past k - 1
  copies of p.  E_ij is symmetric in i and j, so relabelling the graph and
  its sheets alike changes nothing else.  ``_sum_over_placements`` adds
  the signed coefficients of equal relabelled edge lists and evaluates
  the nonzero classes as the terms of one sum, in one ``evaluate`` call;
  the four placements on the tetrahedron, whose automorphisms are all
  even, are one class with coefficient 4.

Internally a sheeted polynomial groups its terms by odd mask,
``{odd_mask: {even_key: c}}``: one odd bit per (sheet, mu) and one field of
``width`` bits of even exponent per (sheet, mu) variable, both ordered
sheet-major.  Every sign, target mask and exponent shift above depends on
the odd mask alone, so ``apply_edge`` and the sheet map of each edge step,
product and ``merge`` compute them once per mask.  ``lift`` and
``evaluate`` size the width by one rule: the bit length of n times the
largest exponent of the n vertex contents, at least 1 bit.  So one field
holds the sum of a variable's exponents over all sheets: edges only lower
exponents, so no field overflows into its neighbour, and a sheet map adds
the blocks that share a slot as plain integers without a carry between
fields; the narrowest such width keeps keys short.  Every sheeted
polynomial is built at such a width, so no key can outgrow its fields.
Terms vanish as soon as a derivative misses, which is what keeps the
expansion of dense cocycles tractable.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from functools import reduce

from .errors import DimensionError, PreconditionError
from .gracomplex import Graph, GraphSum, _sort_parity, as_graphsum, is_cocycle
from .multivec import (Multivector, _x_partial, _xi_left, homogeneity_scale,
                       jacobiator)
from .ratpoly import ANY_DEGREE, Poly, ratnorm


class SheetedPoly:
    """Polynomial over n sheets of (x_(i), xi^(i)) variables.

    ``groups`` maps each odd mask to its terms ``{even_key: c}``, nonzero
    and never empty; ``terms`` is a flat copy (even_key, odd_mask) -> c.
    Even exponents occupy ``width`` bits per variable, just enough for the
    sum of a variable's exponents over all sheets, down to 1 bit for
    constant entries (``_unit``).  The format is internal: ``lift`` and
    ``evaluate`` build it at that width, and ``apply_edge`` and ``merge``
    keep it.  Odd exponents are 0/1 and a term's sign is relative to
    ascending (sheet-major) odd order.  Inside ``evaluate`` twin sheets are
    permuted and finished sheets folded as each sheet comes in, so a sheet
    may hold other entries than its own, and the sheets of the last vertex
    fold into slot 1, so slot 1 may hold the odd factors (sorted by mu) and
    summed exponents of several entries, up to all n of them.
    """

    __slots__ = ("nvars", "sheets", "groups", "width")

    def __init__(self, nvars: int, sheets: int, groups: dict, width: int):
        self.nvars = nvars
        self.sheets = sheets
        self.groups = groups
        self.width = width

    @property
    def terms(self) -> dict:
        return {(ev, om): c for om, bucket in self.groups.items()
                for ev, c in bucket.items()}

    def is_zero(self) -> bool:
        return not self.groups


def _unit(entries) -> SheetedPoly:
    """The product over no sheets, wide enough for the n entries: the field
    width is the bit length of n times their largest exponent, at least 1."""
    if not entries:
        raise PreconditionError("empty vertex tuple")
    r = entries[0].nvars
    if any(mv.nvars != r for mv in entries):
        raise DimensionError("vertex contents over different dimensions")
    top = max((e for mv in entries for poly in mv.components.values()
               for exps in poly.terms for e in exps), default=0)
    return SheetedPoly(r, 0, {0: {0: 1}}, max(1, (len(entries) * top).bit_length()))


def _times_sheet(sp: SheetedPoly, mv: Multivector) -> SheetedPoly:
    """``sp`` times ``mv`` rewritten in the variables of a new last sheet."""
    groups = {}
    _add_times_sheet(groups, sp.groups, mv, sp.sheets * sp.nvars,
                     _table(sp.nvars, sp.width, (), ()), 1)
    _trim_tables()
    return SheetedPoly(sp.nvars, sp.sheets + 1, groups, sp.width)


def _add_times_sheet(groups, left, mv, base, table, scale):
    """groups += scale * left times ``mv`` in the sheet whose odd bits
    start at ``base``, each product relabelled by the ``_SheetMap``
    ``table``: the identity in ``lift``, the twin order for sheet k < n
    and ``joining`` for entry n ("Relabelling sheets" in the module
    docstring).  The move is blockwise and ``mv`` has a block in its own
    sheet only, so the left keys move by the other sheets' moves and the
    factor's keys by its own; their sums are the moved product keys.  A
    fold adds blocks, so products may share a key; cancelled sums are
    deleted, which needs ``scale`` nonzero."""
    width = table.width
    own = base * width
    for idx, poly in mv.components.items():
        om2 = sum(1 << (base + i - 1) for i in idx)
        factor = [(sum(e << ((base + mu) * width) for mu, e in enumerate(exps)),
                   scale * c) for exps, c in poly.terms.items()]
        for om1, bucket in left.items():
            got = table[om1 | om2]
            if got is None:
                continue
            om, sgn, moves = got
            pairs = table.moved(bucket.items(), [m for m in moves if m[0] != own])
            right = table.moved(factor, [m for m in moves if m[0] == own])
            if sgn < 0:
                right = [(ev2, -c2) for ev2, c2 in right]
            target = groups.setdefault(om, {})
            for ev1, c1 in pairs:
                for ev2, c2 in right:
                    key = ev1 + ev2
                    cur = target.get(key, 0) + c1 * c2
                    if cur:
                        target[key] = cur
                    else:
                        del target[key]


def lift(entries) -> SheetedPoly:
    """Product over sheets i of entry i rewritten in sheet-i variables, at
    the width ``evaluate`` uses (``_unit``): with ``apply_edge`` and
    ``merge``, the listed-order reference pipeline for ``evaluate``."""
    entries = list(entries)
    return reduce(_times_sheet, entries, _unit(entries))


def apply_edge(sp: SheetedPoly, i: int, j: int) -> SheetedPoly:
    """Act with the decoration operator of an edge i--j: the listed-order
    reference for the edge steps of ``evaluate``, so it keeps its own loop."""
    if i == j:
        raise PreconditionError("loop edge (%d,%d)" % (i, j))
    n, r, width = sp.sheets, sp.nvars, sp.width
    if not (1 <= i <= n and 1 <= j <= n):
        raise PreconditionError("edge (%d,%d) outside 1..%d" % (i, j, n))
    mask_r = (1 << r) - 1
    mask_e = (1 << width) - 1
    out = {}
    for om, bucket in sp.groups.items():
        for (a, b) in ((i, j), (j, i)):
            abase = (a - 1) * r
            sub = (om >> abase) & mask_r
            while sub:
                low = sub & (-sub)
                sub ^= low
                mu = low.bit_length() - 1
                bit = 1 << (abase + mu)
                # left derivative: pass the odd factors standing before `bit`
                sgn = -1 if (om & (bit - 1)).bit_count() & 1 else 1
                shift = ((b - 1) * r + mu) * width
                target = out.setdefault(om ^ bit, {})
                for ev, c in bucket.items():
                    e = (ev >> shift) & mask_e
                    if e:
                        key = ev - (1 << shift)
                        cur = target.get(key, 0) + sgn * e * c
                        if cur:
                            target[key] = cur
                        else:
                            del target[key]
    return SheetedPoly(r, n, {om: t for om, t in out.items() if t}, width)


class _SheetMap(dict):
    """A sheet relabelling ("Relabelling sheets" in the module docstring).

    ``slots`` maps 1-based sheets to slots, as a dict or (sheet, slot)
    pairs, a sheet it leaves out keeping its place.  ``classes`` holds
    (sheets, power) pairs of twin sheets ("Twin sheets" in the module
    docstring): ``place(om)`` adds to ``slots`` the permutation sigma of
    each class that sorts its odd blocks ascending, ties kept in place,
    and gives sgn(sigma)^power over the classes as the map's sign.  The
    table maps each odd mask to (new mask, sign times the relabelling
    sign, moves), or to None when two odd factors land on one (slot, mu);
    ``moves`` holds one (shift, delta) per moved sheet, and ``moved`` adds
    delta times the even block at shift to a key.  Tables live for the
    process (``_table``).

    A table with no classes has the same moves, ``moves``, for every mask.
    Each edge step of ``evaluate`` adds through one such table, the identity
    before vertex n and a fold into slot 1 at it, and so does ``merge``: the
    caller moves a bucket's keys once with ``moved``, which hands back the
    bucket's own items when nothing moves, and ``signed`` and ``derivative``
    add the moved pairs at the table's mask and sign.  Only the products of
    ``_add_times_sheet`` sort twins through ``classes``.
    """

    def __init__(self, r, width, slots, classes=()):
        super().__init__()
        self.r, self.width, self.slots, self.classes = r, width, dict(slots), classes
        self.block = r * width
        self.mask_b = (1 << self.block) - 1
        self.moves = self._moves(self.slots)

    def place(self, om):
        if not self.classes:
            return self.slots, 1
        r, mask_r = self.r, (1 << self.r) - 1
        slots, sgn = dict(self.slots), 1
        for sheets, power in self.classes:
            # the class's sheets in their new order: by odd block, ties by sheet
            src, parity = _sort_parity([((om >> ((s - 1) * r)) & mask_r, s)
                                        for s in sheets])
            slots.update((s, t) for (_, s), t in zip(src, sheets) if s != t)
            if power & 1:
                sgn *= parity
        return slots, sgn

    def _moves(self, slots):
        block = self.block
        return [((s - 1) * block, (1 << ((t - 1) * block)) - (1 << ((s - 1) * block)))
                for s, t in slots.items() if s != t]

    def __missing__(self, om):
        slots, sgn = self.place(om)
        r, target, inv, rest, got = self.r, 0, 0, om, None
        # place the odd factors in sheet-major order; each passes the ones
        # placed before it at a larger (slot, mu)
        while rest:
            low = rest & (-rest)
            rest ^= low
            sheet, mu = divmod(low.bit_length() - 1, r)
            pos = (slots.get(sheet + 1, sheet + 1) - 1) * r + mu
            if target >> pos & 1:
                break
            inv += (target >> pos).bit_count()
            target |= 1 << pos
        else:
            got = (target, -sgn if inv & 1 else sgn, self._moves(slots))
        self[om] = got
        return got

    def moved(self, pairs, moves):
        """(key, c) pairs with each moved sheet's even block in its slot;
        ``pairs`` itself when nothing moves."""
        if not moves:
            return pairs
        mask_b = self.mask_b
        # one to three moved sheets, the common case, written out
        if len(moves) == 1:
            ((s1, d1),) = moves
            return [(ev + ((ev >> s1) & mask_b) * d1, c) for ev, c in pairs]
        if len(moves) == 2:
            (s1, d1), (s2, d2) = moves
            return [(ev + ((ev >> s1) & mask_b) * d1 + ((ev >> s2) & mask_b) * d2, c)
                    for ev, c in pairs]
        if len(moves) == 3:
            (s1, d1), (s2, d2), (s3, d3) = moves
            return [(ev + ((ev >> s1) & mask_b) * d1 + ((ev >> s2) & mask_b) * d2
                     + ((ev >> s3) & mask_b) * d3, c) for ev, c in pairs]
        return [(ev + sum(((ev >> s) & mask_b) * d for s, d in moves), c)
                for ev, c in pairs]

    def signed(self, groups, om, moved, sgn):
        """groups += sgn * the (moved key, c) pairs ``moved`` of odd mask
        ``om``, at the table's mask and sign."""
        got = self[om]
        if got is None:
            return
        om, msgn, _ = got
        sgn *= msgn
        target = groups.setdefault(om, {})
        for fev, c in moved:
            cur = target.get(fev, 0) + sgn * c
            if cur:
                target[fev] = cur
            else:
                del target[fev]

    def derivative(self, groups, om, moved, bucket, sgn, shift, one):
        """``signed`` of d/dx, x the field at ``shift`` of a source key of
        ``bucket``, whose keys ``moved`` holds in order, and ``one`` its
        unit in the moved key."""
        got = self[om]
        if got is None:
            return
        om, msgn, _ = got
        sgn *= msgn
        mask_e = (1 << self.width) - 1
        target = groups.setdefault(om, {})
        for (fev, c), ev in zip(moved, bucket):
            e = (ev >> shift) & mask_e
            if e:
                key = fev - one
                cur = target.get(key, 0) + sgn * e * c
                if cur:
                    target[key] = cur
                else:
                    del target[key]


# the process's sheet-map tables, keyed by (r, width, slots, classes);
# ``merge``, the last step of every evaluation, and ``_times_sheet``, each
# step of the reference ``lift``, drop them all past _TABLE_BOUND entries
_TABLES = {}
_TABLE_BOUND = 1 << 15


def _table(r, width, slots, classes=()):
    """The table ``_SheetMap(r, width, slots, classes)``, made on first use
    and kept for the process under all four values, so a map reached with
    and without its default ``classes`` is one table."""
    key = (r, width, slots, classes)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _SheetMap(*key)
    return table


def _trim_tables():
    """Drop every kept table once they pass the bound, tables and entries
    counted; a table still in use lives on with its caller."""
    if len(_TABLES) + sum(map(len, _TABLES.values())) > _TABLE_BOUND:
        _TABLES.clear()


def merge(sp: SheetedPoly) -> Multivector:
    """Collapse sheets: x^mu_(i) -> x^mu and xi^(i)_mu -> xi_mu.

    The sheet map sending every sheet to slot 1 gives each odd mask its
    sorted factors and sign, or kills a term keeping two odd factors with
    equal mu ("Relabelling sheets" in the module docstring), and its
    ``signed`` adds each bucket's moved keys into slot 1.  A key's sheet
    blocks are added as integers: the width holds the sum of a variable's
    exponents over all sheets, so no field carries.
    """
    r, width = sp.nvars, sp.width
    mask_e = (1 << width) - 1
    table = _table(r, width, tuple((s, 1) for s in range(2, sp.sheets + 1)))
    groups = {}
    for om, bucket in sp.groups.items():
        table.signed(groups, om, table.moved(bucket.items(), table.moves), 1)
    out = {}
    for om, bucket in groups.items():
        if bucket:
            out[tuple(mu + 1 for mu in range(r) if om >> mu & 1)] = Poly._raw(
                r, {tuple((key >> (mu * width)) & mask_e for mu in range(r)):
                    ratnorm(c) for key, c in bucket.items()})
    _trim_tables()
    return Multivector._raw(r, out)


class _Slots(tuple):
    """Vertex contents, with one table of derivatives per distinct entry.

    ``derivative(k, (alpha, s))`` is d/dx^alpha d/dxi_s1 ... d/dxi_sm of
    entry k, counted from 1, with s ascending and 0-based (see "Closing a
    vertex" in the module docstring).  Entries that are one object share a
    table; the tables live as long as one ``evaluate`` call.  ``degrees``
    holds each entry's xi-degree.
    """

    def __new__(cls, entries):
        slots = super().__new__(cls, entries)
        tables = {}
        slots.tables = [tables.setdefault(id(mv), {}) for mv in slots]
        slots.degrees = [mv.degree() for mv in slots]
        return slots

    def derivative(self, k, d):
        table = self.tables[k - 1]
        got = table.get(d)
        if got is None:
            alpha, s = d
            mu = next((m for m, e in enumerate(alpha) if e), None)
            if mu is not None:
                lower = alpha[:mu] + (alpha[mu] - 1,) + alpha[mu + 1:]
                got = _x_partial(self.derivative(k, (lower, s)), mu + 1)
            elif s:
                got = _xi_left(self.derivative(k, (alpha, s[1:])), s[0] + 1)
            else:
                got = self[k - 1]
            table[d] = got
        return got


def _close_vertex(state, k, edges, slots):
    """The edges (i, k), ascending in i, acting by the Leibniz rule on
    ``state`` times entry k ("Closing a vertex" in the module docstring):
    the map from each derivative descriptor d of entry k to the groups of
    A_d.  Each edge step adds through one ``_SheetMap``: the identity
    before the last vertex; at it each sheet folds into slot 1 in the step
    after which no edge acts on it, so every A_d comes back in one slot.
    No step sorts: the product with sheet n-1 has sorted the neighbours
    ("Twin sheets" in the module docstring).  Each bucket's keys are moved
    once per step, and ``signed`` and ``derivative`` add the moved pairs
    at every target.  The edge's d/dx^mu_(i) lowers sheet i's field, slot
    1's once sheet i folds."""
    r, width = state.nvars, state.width
    fold = k == len(slots)
    # sheets below ends[t] are finished before edge t acts, all after the last
    ends = [i for i, _ in edges] + [k]
    groups = state.groups
    start = ((0,) * r, ())
    descs = {start: groups} if groups and slots.derivative(k, start) else {}
    for t, (i, _) in enumerate(edges):
        base = (i - 1) * r
        folds = tuple((s, 1) for s in range(max(i, 2), ends[t + 1])) if fold else ()
        table = _table(r, width, folds)
        out = {}
        for (alpha, s), groups in descs.items():
            xis, xs = [], []
            for mu in range(r):
                # d/dxi_mu^(i) A . d/dx^mu_(k) B
                d = (alpha[:mu] + (alpha[mu] + 1,) + alpha[mu + 1:], s)
                if slots.derivative(k, d):
                    xis.append((1 << (base + mu), out.setdefault(d, {})))
                if mu in s:
                    continue
                # (-1)^(|A| + pos) d/dx^mu_(i) A . d/dxi_mu^(k) B
                pos = bisect_left(s, mu)
                d = (alpha, s[:pos] + (mu,) + s[pos:])
                if slots.derivative(k, d):
                    one = 1 << ((mu if fold else base + mu) * width)
                    xs.append(((base + mu) * width, one, pos, out.setdefault(d, {})))
            for om, bucket in groups.items():
                moved = table.moved(bucket.items(), table.moves)
                for bit, target in xis:
                    if om & bit:
                        sgn = -1 if (om & (bit - 1)).bit_count() & 1 else 1
                        table.signed(target, om ^ bit, moved, sgn)
                for shift, one, pos, target in xs:
                    sgn = -1 if (om.bit_count() + pos) & 1 else 1
                    table.derivative(target, om, moved, bucket, sgn, shift, one)
        descs = {d: nonzero for d, groups in out.items()
                 if (nonzero := {om: t for om, t in groups.items() if t})}
    return descs


def evaluate(gamma, entries) -> Multivector:
    """Total evaluation of a graph sum, or of one graph as given, on a tuple
    of multivectors.

    The value is that of the edges acting in their listed order, first to
    last; the output xi-degree is the tuple's total degree minus the edge
    count.  A bare ``Graph`` is the one term 1 * graph, and the terms of a
    sum are read as given, each with its own vertex labels, edge order and
    coefficient, canonical or not.
    Vertices close in label order: the edges (i, k), i < k, act by the
    Leibniz rule on derivatives of entry k, and only then is sheet k
    multiplied in.  As each sheet k < n comes in, each product term is
    written with every class of twin sheets, those with edges to the same
    later vertices, in the order its odd mask picks, and with the sheets
    that have no edge left folded into one, so terms that differ by a swap
    of twins are added before the later edges act.  At vertex n the sheets
    fold into slot 1 as they finish, with no sort, since the product with
    sheet n-1 has sorted n's neighbours, and each folded state is
    multiplied by its derivative of entry n into one accumulator that is
    merged once.  Each sheet comes in through ``_add_times_sheet`` under
    one sheet map (see the sign ledger in the module docstring).  A term
    with coefficient 0 or a repeated edge is skipped.  Keys are ``width``
    bits per variable, the bit length of n times the largest exponent of
    the entries.
    """
    terms = ((gamma, 1),) if isinstance(gamma, Graph) else gamma.terms.items()
    slots = _Slots(entries)
    if None in slots.degrees:
        raise PreconditionError("vertex contents must have pure xi-degree")
    n = len(slots)
    unit = _unit(slots)
    r, width = unit.nvars, unit.width
    joining = _table(r, width, ((2, 1),))
    acc = {}
    for graph, c in terms:
        if graph.n != n:
            raise PreconditionError(
                "graph on %d vertices fed %d multivectors" % (graph.n, n))
        if not c or len(set(graph.edges)) < len(graph.edges):
            continue  # a zero term, or a repeated edge: E_ij E_ij = 0
        # edges are stored (i, j) with i < j: edge (i, j) closes vertex j
        order, sgn = _sort_parity([(j, i) for i, j in graph.edges])
        closing = [[] for _ in range(n + 1)]
        for j, i in order:
            closing[j].append((i, j))
        state = unit
        for k in range(1, n):
            table = _table(r, width, *_twins(closing, k, slots))
            groups = {}
            for d, a in _close_vertex(state, k, closing[k], slots).items():
                _add_times_sheet(groups, a, slots.derivative(k, d), (k - 1) * r,
                                 table, 1)
            state = SheetedPoly(r, k, {om: t for om, t in groups.items() if t},
                                width)
        for d, a in _close_vertex(state, n, closing[n], slots).items():
            _add_times_sheet(acc, a, slots.derivative(n, d), r, joining, sgn * c)
    return merge(SheetedPoly(r, 1, acc, width))


def _twins(closing, k, slots):
    """The twin sheets as sheet k is multiplied in ("Twin sheets" in the
    module docstring): sheets 1..k grouped by the set S of vertices j > k
    they have an edge to.  Returns the finished sheets, S empty, as (sheet,
    slot) pairs folding them into the lowest of them, and the other classes
    of two or more sheets as (sheets, |S|) pairs.  Only sheets whose entries
    have one xi-degree share a class: a swap of sheets whose entries differ
    in degree seldom maps a term onto another, and sorting them only
    scatters terms that the later edges would add."""
    later = {i: [] for i in range(1, k + 1)}
    for j in range(k + 1, len(closing)):
        for i, _ in closing[j]:
            if i <= k:
                later[i].append(j)
    classes = {}
    for i, js in later.items():
        degree = slots.degrees[i - 1] if js else None  # finished sheets all fold
        classes.setdefault((tuple(js), degree), []).append(i)
    done = classes.pop(((), None), [])
    return (tuple((s, done[0]) for s in done[1:]),
            tuple((tuple(sheets), len(js)) for (js, _), sheets in classes.items()
                  if len(sheets) > 1))


def _vertex_count(gamma) -> int:
    """Common vertex count of the graph terms; 0 for the zero sum."""
    sizes = {g.n for g in gamma.terms}
    if len(sizes) > 1:
        raise PreconditionError("graph terms have differing vertex counts")
    return sizes.pop() if sizes else 0


def _sum_over_placements(gamma, v: Multivector, p: Multivector) -> Multivector:
    """Sum over k of gamma evaluated with v at vertex k and p at the others.

    Each placement is relabelled to put v's vertex first (see "Placements"
    in the module docstring), placements that become the same edge list
    are added up, and the nonzero classes are the terms of one sum,
    evaluated once on (v, p, ..., p).  The callers have checked that v and
    p have pure xi-degree.
    """
    n = _vertex_count(gamma)
    dv, dp = v.degree(), p.degree()
    odd_swap = ANY_DEGREE not in (dv, dp) and dv * dp & 1
    classes = {}
    for k in range(1, n + 1):
        lab = [0, *range(2, k + 1), 1, *range(k + 1, n + 1)]  # a -> lab[a]
        sign_k = -1 if odd_swap and (k - 1) & 1 else 1
        for graph, c in gamma.terms.items():
            edges, sign = _sort_parity([tuple(sorted((lab[a], lab[b])))
                                        for a, b in graph.edges])
            classes[edges] = classes.get(edges, 0) + sign * sign_k * c
    terms = {Graph(n, edges): c for edges, c in classes.items() if c}
    if not terms:
        return Multivector.zero(p.nvars)
    return evaluate(GraphSum._raw(terms), (v,) + (p,) * (n - 1))


def flow(gamma, p: Multivector) -> Multivector:
    """Evaluation at n copies of a bivector: the graph's flow value at p."""
    gamma = as_graphsum(gamma)
    if not p.is_grade(2):
        raise PreconditionError("flow expects a bivector")
    n = _vertex_count(gamma)
    if not n:
        return Multivector.zero(p.nvars)
    return evaluate(gamma, (p,) * n)


def directional_flow(gamma, p: Multivector, direction: Multivector) -> Multivector:
    """First variation of the flow at p along a bivector direction."""
    if not (p.is_grade(2) and direction.is_grade(2)):
        raise PreconditionError("directional flow expects two bivectors")
    if p.nvars != direction.nvars:
        raise DimensionError("bivector over %d variables, direction over %d"
                             % (p.nvars, direction.nvars))
    return _sum_over_placements(as_graphsum(gamma), direction, p)


def cocycle1(gamma, v: Multivector, p: Multivector) -> Multivector:
    """The 1-vector evaluation with v in one slot, summed over placements.

    Requires [[v,p]] = p exactly, p Poisson and [[v,Q]] = nQ for the flow Q
    of gamma at p; every graph term must sit in bi-grading (n, 2n-2).  p = 0
    satisfies all three for any v.  For affine v the last follows from the
    first, [[v,Q]] being directional_flow(gamma, p, [[v,p]]), so Q is only
    computed when v has a coefficient of degree >= 2.  Plain sum over the n
    placements of v, with no combinatorial prefactor.
    """
    gamma = as_graphsum(gamma)
    if not v.is_grade(1):
        raise PreconditionError("second argument must be a 1-vector")
    if not p.is_grade(2):
        raise PreconditionError("third argument must be a bivector")
    scale = homogeneity_scale(v, p)
    if scale not in (1, ANY_DEGREE):
        raise PreconditionError(
            "bivector is not homogeneous of scale 1 along the field "
            "(computed scale: %s)" % (scale,))
    if not jacobiator(p).is_zero():
        raise PreconditionError("bivector is not Poisson")
    for g in gamma.terms:
        if g.n_edges != 2 * g.n - 2:
            raise PreconditionError(
                "graph term with %d vertices has %d edges, expected %d"
                % (g.n, g.n_edges, 2 * g.n - 2))
    if any(poly.degree() > 1 for poly in v.components.values()):
        n, scale = _vertex_count(gamma), homogeneity_scale(v, flow(gamma, p))
        if scale not in (n, ANY_DEGREE):
            raise PreconditionError(
                "flow of the graph sum is not homogeneous of scale %d along "
                "the field (computed scale: %s)" % (n, scale))
    if not is_cocycle(gamma):
        warnings.warn(
            "input graph sum is not a cocycle under this package's sign "
            "convention; the result need not be a Poisson cocycle "
            "(external edge-order conventions may differ)")
    return _sum_over_placements(gamma, v, p)
