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
  their edges (i, k), i < k.  E_ij only differentiates in sheets i and j,
  so sheet k may come in after the state S over sheets 1..k-1 has seen
  every edge between them: the edges act on S . B, B a derivative of
  entry k in sheet-k variables, by the Leibniz rule
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
  d of A_d . d(entry k), adding products that share a key.  ``merge`` is
  an algebra homomorphism, so the value is the sum over d of
  merge(A_d) ^ d(entry n), the wedge in that order.
- Edge order costs the permutation's parity.  Each E_ij is odd, so two
  edge operators anticommute; applying the edges grouped by larger endpoint
  (stable within a group) instead of in listed order multiplies the value
  by (-1)^(inversions of that reordering).
- Left derivative.  d/dxi at odd bit b passes the odd factors standing
  before b: the sign is the parity of the bits set below b.
- Merge.  Collapsing sheets re-sorts the remaining odd factors by mu with
  the permutation's sign; two equal mu make the term structurally zero.
- Placements.  A graph with v at vertex k and p at the others equals the
  graph relabelled by k -> 1, a -> a + 1 for a < k (the rest fixed), with
  v in sheet 1, times two signs: the parity of sorting the relabelled edge
  list, and (-1)^((k-1) deg v deg p) for moving v's sheet past k - 1
  copies of p.  E_ij is symmetric in i and j, so relabelling the graph and
  its sheets alike changes nothing else.  ``_sum_over_placements`` adds
  the signed coefficients of equal relabelled edge lists and evaluates
  each such class once; the four placements on the tetrahedron, whose
  automorphisms are all even, are one class with coefficient 4.

Internally a sheeted polynomial groups its terms by odd mask,
``{odd_mask: {even_key: c}}``: one odd bit per (sheet, mu) and one field
of ``width`` bits of even exponent per (sheet, mu) variable, both ordered
sheet-major.  Every sign, target mask and exponent shift above depends on
the odd mask alone, so ``apply_edge`` and ``merge`` compute them once per
mask.  The width is 8 bits, widened to the bit length of m times the
largest exponent of the m lifted vertex contents (m = n for ``lift``,
m = n-1 in ``evaluate``), so one field holds the sum of a variable's
exponents over all lifted sheets: edges only lower exponents, so no field
overflows into its neighbour, and ``merge`` adds a key's sheet blocks as
plain integers without a carry between fields.  Terms vanish as soon as a
derivative misses, which is what keeps the expansion of dense cocycles
tractable.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from functools import reduce
from itertools import combinations

from .errors import DimensionError, PreconditionError
from .gracomplex import Graph, _sort_parity, as_graphsum, is_cocycle
from .multivec import (Multivector, _x_partial, _xi_left, homogeneity_scale,
                       jacobiator, wedge)
from .ratpoly import ANY_DEGREE, Poly, ratnorm


class SheetedPoly:
    """Polynomial over n sheets of (x_(i), xi^(i)) variables.

    ``groups`` maps each odd mask to its terms ``{even_key: c}``, nonzero
    and never empty; ``terms`` is a flat copy (even_key, odd_mask) -> c.
    Even exponents occupy ``width`` bits per variable, enough for the sum
    of a variable's exponents over all sheets: 8 for keys given to the
    constructor, which rejects larger sums, wider for ``lift`` and for
    the n-1 sheets ``evaluate`` lifts.  Odd exponents are 0/1 and a term's
    sign is relative to ascending (sheet-major) odd order.
    """

    __slots__ = ("nvars", "sheets", "groups", "width")

    def __init__(self, nvars: int, sheets: int, terms=None):
        self.nvars = nvars
        self.sheets = sheets
        self.width = 8
        self.groups = {}
        fields = range(0, sheets * nvars * 8, 8)
        for (ev, om), c in (terms or {}).items():
            sums = [0] * nvars
            for v, shift in enumerate(fields):
                sums[v % nvars] += (ev >> shift) & 255
            if ev >> (sheets * nvars * 8) or max(sums, default=0) > 255:
                raise DimensionError(
                    "even key %d does not fit %d sheets of %d 8-bit exponents "
                    "summing below 256" % (ev, sheets, nvars))
            c = ratnorm(c)
            if c:
                self.groups.setdefault(om, {})[ev] = c

    @classmethod
    def _raw(cls, nvars, sheets, groups, width):
        sp = object.__new__(cls)
        sp.nvars = nvars
        sp.sheets = sheets
        sp.groups = groups
        sp.width = width
        return sp

    @property
    def terms(self) -> dict:
        return {(ev, om): c for om, bucket in self.groups.items()
                for ev, c in bucket.items()}

    def is_zero(self) -> bool:
        return not self.groups

    def total_odd_degree(self):
        """Common number of odd factors; ANY_DEGREE if empty, None if mixed."""
        if not self.groups:
            return ANY_DEGREE
        degs = {om.bit_count() for om in self.groups}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, SheetedPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.sheets == other.sheets
                and self.width == other.width and self.groups == other.groups)

    def __repr__(self):
        return "SheetedPoly(r=%d, n=%d, %d terms)" % (
            self.nvars, self.sheets, len(self.terms))


def _unit(entries, lifted) -> SheetedPoly:
    """The product over no sheets, wide enough for the first ``lifted``
    entries: the field width holds ``lifted`` times their largest exponent."""
    if not entries:
        raise PreconditionError("empty vertex tuple")
    r = entries[0].nvars
    if any(mv.nvars != r for mv in entries):
        raise DimensionError("vertex contents over different dimensions")
    top = max((e for mv in entries[:lifted] for poly in mv.components.values()
               for exps in poly.terms for e in exps), default=0)
    width = max(8, (lifted * top).bit_length())
    return SheetedPoly._raw(r, 0, {0: {0: 1}}, width)


def _times_sheet(sp: SheetedPoly, mv: Multivector) -> SheetedPoly:
    """``sp`` times ``mv`` rewritten in the variables of a new last sheet."""
    groups = {}
    _add_times_sheet(groups, sp.groups, mv, sp.sheets * sp.nvars, sp.width)
    return SheetedPoly._raw(sp.nvars, sp.sheets + 1, groups, sp.width)


def _add_times_sheet(groups, left, mv, base, width):
    """groups += left times ``mv`` in the sheet whose odd bits start at
    ``base``.  Its bits and exponent fields lie above those of ``left``,
    so no sign arises and one product has no two terms with a common key."""
    for idx, poly in mv.components.items():
        om2 = sum(1 << (base + i - 1) for i in idx)
        factor = [(sum(e << ((base + mu) * width) for mu, e in enumerate(exps)), c)
                  for exps, c in poly.terms.items()]
        for om1, bucket in left.items():
            prod = {ev1 + ev2: c1 * c2 for ev1, c1 in bucket.items()
                    for ev2, c2 in factor}
            if om1 | om2 in groups:
                _add_signed(groups, om1 | om2, prod, 1)
            else:
                groups[om1 | om2] = prod


def lift(entries) -> SheetedPoly:
    """Product over sheets i of entry i rewritten in sheet-i variables."""
    entries = list(entries)
    return reduce(_times_sheet, entries, _unit(entries, len(entries)))


def apply_edge(sp: SheetedPoly, i: int, j: int) -> SheetedPoly:
    """Act with the decoration operator of an edge i--j."""
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
                _add_derivative(out, om ^ bit, bucket, sgn,
                                ((b - 1) * r + mu) * width, mask_e)
    return SheetedPoly._raw(r, n, {om: t for om, t in out.items() if t}, width)


def merge(sp: SheetedPoly) -> Multivector:
    """Collapse sheets: x^mu_(i) -> x^mu and xi^(i)_mu -> xi_mu.

    Remaining odd factors are re-sorted by mu with the permutation's sign;
    a term keeping two odd factors with equal mu is structurally zero.  A
    key's sheet blocks are added as integers: the width holds the sum of a
    variable's exponents over all sheets, so no field carries.
    """
    r, width = sp.nvars, sp.width
    block = r * width
    mask_b = (1 << block) - 1
    mask_e = (1 << width) - 1
    shifts = range(block, sp.sheets * block, block)
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
            key = ev & mask_b
            for s in shifts:
                key += (ev >> s) & mask_b
            target[key] = target.get(key, 0) + sgn * c
    out = {}
    for idx, bucket in comps.items():
        terms = {tuple((key >> (mu * width)) & mask_e for mu in range(r)):
                 ratnorm(c) for key, c in bucket.items() if c}
        if terms:
            out[idx] = Poly._raw(r, terms)
    return Multivector._raw(r, out)


class _Slots(tuple):
    """Vertex contents, with one table of derivatives per distinct entry.

    ``derivative(k, (alpha, s))`` is d/dx^alpha d/dxi_s1 ... d/dxi_sm of
    entry k, counted from 1, with s ascending and 0-based (see "Closing a
    vertex" in the module docstring).  Entries that are one object share a
    table; the tables live as long as one ``evaluate`` call.
    """

    def __new__(cls, entries):
        slots = super().__new__(cls, entries)
        tables = {}
        slots.tables = [tables.setdefault(id(mv), {}) for mv in slots]
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


def _add_signed(groups, om, bucket, sgn):
    """groups[om] += sgn * bucket."""
    target = groups.get(om)
    if target is None:
        groups[om] = dict(bucket) if sgn > 0 else {ev: -c for ev, c in bucket.items()}
        return
    for ev, c in bucket.items():
        cur = target.get(ev, 0) + sgn * c
        if cur:
            target[ev] = cur
        else:
            del target[ev]


def _add_derivative(groups, om, bucket, sgn, shift, mask_e):
    """groups[om] += sgn * d/dx of bucket, x the exponent field at ``shift``."""
    one = 1 << shift
    target = groups.get(om)
    if target is None:
        groups[om] = {ev - one: sgn * e * c for ev, c in bucket.items()
                      if (e := (ev >> shift) & mask_e)}
        return
    for ev, c in bucket.items():
        e = (ev >> shift) & mask_e
        if e:
            key = ev - one
            cur = target.get(key, 0) + sgn * e * c
            if cur:
                target[key] = cur
            else:
                del target[key]


def _close_vertex(state, k, edges, slots):
    """The edges (i, k) acting by the Leibniz rule on ``state`` times entry
    k ("Closing a vertex" in the module docstring): the map from each
    derivative descriptor d of entry k to the groups of A_d."""
    r, width = state.nvars, state.width
    mask_e = (1 << width) - 1
    start = ((0,) * r, ())
    descs = {start: state.groups} if state.groups and slots.derivative(k, start) else {}
    for (i, _) in edges:
        base = (i - 1) * r
        out = {}
        for (alpha, s), groups in descs.items():
            for mu in range(r):
                # d/dxi_mu^(i) A . d/dx^mu_(k) B
                d = (alpha[:mu] + (alpha[mu] + 1,) + alpha[mu + 1:], s)
                if slots.derivative(k, d):
                    bit = 1 << (base + mu)
                    target = out.setdefault(d, {})
                    for om, bucket in groups.items():
                        if om & bit:
                            sgn = -1 if (om & (bit - 1)).bit_count() & 1 else 1
                            _add_signed(target, om ^ bit, bucket, sgn)
                if mu in s:
                    continue
                # (-1)^(|A| + pos) d/dx^mu_(i) A . d/dxi_mu^(k) B
                pos = bisect_left(s, mu)
                d = (alpha, s[:pos] + (mu,) + s[pos:])
                if slots.derivative(k, d):
                    shift = (base + mu) * width
                    target = out.setdefault(d, {})
                    for om, bucket in groups.items():
                        sgn = -1 if (om.bit_count() + pos) & 1 else 1
                        _add_derivative(target, om, bucket, sgn, shift, mask_e)
        descs = {d: nonzero for d, groups in out.items()
                 if (nonzero := {om: t for om, t in groups.items() if t})}
    return descs


def evaluate(gamma, entries) -> Multivector:
    """Total evaluation of a graph sum, or of one graph as given, on a tuple
    of multivectors.

    The value is that of the edges acting in their listed order, first to
    last; the output xi-degree is the tuple's total degree minus the edge
    count.  A bare ``Graph`` keeps its own vertex labels, edge order and
    coefficient 1; the terms of a ``GraphSum`` are canonical graphs.
    Vertices close in label order: the edges (i, k), i < k, act by the
    Leibniz rule on derivatives of entry k, and only then is sheet k
    multiplied in, or, at vertex n, each merged state wedged with its
    derivative (see the sign ledger in the module docstring).
    """
    terms = ((gamma, 1),) if isinstance(gamma, Graph) else gamma.terms.items()
    slots = _Slots(entries)
    if any(mv.degree() is None for mv in slots):
        raise PreconditionError("vertex contents must have pure xi-degree")
    n = len(slots)
    unit = _unit(slots, n - 1)
    r, width = unit.nvars, unit.width
    result = Multivector.zero(r)
    for graph, c in terms:
        if graph.n != n:
            raise PreconditionError(
                "graph on %d vertices fed %d multivectors" % (graph.n, n))
        # edges are stored (i, j) with i < j: edge (i, j) closes vertex j
        closing = [[] for _ in range(n + 1)]
        for edge in graph.edges:
            closing[edge[1]].append(edge)
        swaps = sum(1 for s, t in combinations(graph.edges, 2) if s[1] > t[1])
        state = unit
        for k in range(1, n):
            groups = {}
            for d, a in _close_vertex(state, k, closing[k], slots).items():
                _add_times_sheet(groups, a, slots.derivative(k, d), (k - 1) * r, width)
            state = SheetedPoly._raw(r, k, {om: t for om, t in groups.items() if t},
                                     width)
        value = Multivector.zero(r)
        for d, a in _close_vertex(state, n, closing[n], slots).items():
            value = value + wedge(merge(SheetedPoly._raw(r, n - 1, a, width)),
                                  slots.derivative(n, d))
        result = result + value.scale(-c if swaps & 1 else c)
    return result


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
    are added up, and each such class is evaluated once on (v, p, ..., p).
    The callers have checked that v and p have pure xi-degree.
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
    entries = (v,) + (p,) * (n - 1)
    out = Multivector.zero(p.nvars)
    for edges, c in classes.items():
        if c:
            out = out + evaluate(Graph(n, edges), entries).scale(c)
    return out


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
