"""Evaluating graphs on tuples of multivectors.

Each vertex i of a graph receives a multivector rewritten in its own sheet
of variables: even x^mu_(i) and odd xi_mu^(i), mu = 1..r.  An edge i--j
becomes the operator

    sum_mu  d/dxi_mu^(i) . d/dx^mu_(j)  +  d/dxi_mu^(j) . d/dx^mu_(i),

odd derivatives acting from the left.  After all edges act in their listed
order, sheets are merged back to a single multivector.  Applied to a graph
cocycle with every vertex holding the same Poisson bivector this yields its
flow; with one 1-vector slot, summed over placements, the associated
1-vector cocycle.

Internally a sheeted polynomial keys its terms by a packed pair of
integers: one field of ``width`` bits of even exponent per (sheet, mu)
variable and one odd bit per (sheet, mu), both ordered sheet-major.  The
width is 8 bits, widened at lift time to the bit length of the largest
exponent; edges only lower exponents, so no field can overflow into its
neighbour.  Odd signs are parities of bit counts below the acted-on bit;
terms vanish as soon as a derivative misses, which is what keeps the
expansion of dense cocycles tractable.
"""

from __future__ import annotations

import warnings

from .errors import DimensionError, PreconditionError
from .gracomplex import as_graphsum, is_cocycle
from .multivec import Multivector, homogeneity_scale, jacobiator
from .ratpoly import ANY_DEGREE, Poly, ratnorm


class SheetedPoly:
    """Polynomial over n sheets of (x_(i), xi^(i)) variables.

    ``terms`` maps (even_key, odd_mask) to nonzero coefficients, where
    even exponents occupy ``width`` bits per variable: 8 for keys given to
    the constructor, wider when ``lift`` meets a larger exponent.  Odd
    exponents are 0/1 and a term's sign is relative to ascending
    (sheet-major) odd order.
    """

    __slots__ = ("nvars", "sheets", "terms", "width")

    def __init__(self, nvars: int, sheets: int, terms=None):
        self.nvars = nvars
        self.sheets = sheets
        self.width = 8
        self.terms = {}
        for key, c in (terms or {}).items():
            c = ratnorm(c)
            if c:
                self.terms[key] = c

    @classmethod
    def _raw(cls, nvars, sheets, terms, width):
        sp = object.__new__(cls)
        sp.nvars = nvars
        sp.sheets = sheets
        sp.terms = terms
        sp.width = width
        return sp

    def is_zero(self) -> bool:
        return not self.terms

    def total_odd_degree(self):
        """Common number of odd factors; ANY_DEGREE if empty, None if mixed."""
        if not self.terms:
            return ANY_DEGREE
        degs = {om.bit_count() for (_, om) in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, SheetedPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.sheets == other.sheets
                and self.width == other.width and self.terms == other.terms)

    def __repr__(self):
        return "SheetedPoly(r=%d, n=%d, %d terms)" % (
            self.nvars, self.sheets, len(self.terms))


def lift(entries) -> SheetedPoly:
    """Product over sheets i of entry i rewritten in sheet-i variables.

    Multiplying in ascending sheet order keeps every new odd factor above
    all previous ones in the global order, so no Koszul sign arises here.
    """
    entries = list(entries)
    if not entries:
        raise PreconditionError("empty vertex tuple")
    r = entries[0].nvars
    for mv in entries:
        if mv.nvars != r:
            raise DimensionError("vertex contents over different dimensions")
    top = max((e for mv in entries for poly in mv.components.values()
               for exps in poly.terms for e in exps), default=0)
    width = max(8, top.bit_length())
    terms = {(0, 0): 1}
    for sheet, mv in enumerate(entries):
        base = sheet * r
        factor = []
        for idx, poly in mv.components.items():
            om = 0
            for i in idx:
                om |= 1 << (base + i - 1)
            for exps, c in poly.terms.items():
                ev = 0
                for mu, e in enumerate(exps):
                    if e:
                        ev |= e << ((base + mu) * width)
                factor.append((ev, om, c))
        new = {}
        for (ev1, om1), c1 in terms.items():
            for (ev2, om2, c2) in factor:
                key = (ev1 + ev2, om1 | om2)
                cur = new.get(key, 0) + c1 * c2
                if cur:
                    new[key] = cur
                else:
                    del new[key]
        terms = new
    return SheetedPoly._raw(r, len(entries), terms, width)


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
    for (ev, om), c in sp.terms.items():
        for (a, b) in ((i, j), (j, i)):
            abase = (a - 1) * r
            sub = (om >> abase) & mask_r
            while sub:
                low = sub & (-sub)
                sub ^= low
                bit = abase + low.bit_length() - 1
                # left derivative: pass the odd factors standing before `bit`
                sgn = -1 if (om & ((1 << bit) - 1)).bit_count() & 1 else 1
                shift = ((b - 1) * r + low.bit_length() - 1) * width
                e = (ev >> shift) & mask_e
                if not e:
                    continue
                key = (ev - (1 << shift), om ^ (1 << bit))
                cur = out.get(key, 0) + sgn * e * c
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return SheetedPoly._raw(r, n, out, width)


def merge(sp: SheetedPoly) -> Multivector:
    """Collapse sheets: x^mu_(i) -> x^mu and xi^(i)_mu -> xi_mu.

    Remaining odd factors are re-sorted by mu with the permutation's sign;
    a term keeping two odd factors with equal mu is structurally zero.
    """
    n, r, width = sp.sheets, sp.nvars, sp.width
    mask_e = (1 << width) - 1
    comps = {}
    for (ev, om), c in sp.terms.items():
        exps = [0] * r
        for v in range(n * r):
            e = (ev >> (v * width)) & mask_e
            if e:
                exps[v % r] += e
        mus = []
        m = om
        while m:
            low = m & (-m)
            m ^= low
            mus.append((low.bit_length() - 1) % r)
        if len(set(mus)) != len(mus):
            continue
        inv = sum(1 for p in range(len(mus)) for q in range(p + 1, len(mus))
                  if mus[p] > mus[q])
        if inv & 1:
            c = -c
        idx = tuple(sorted(mu + 1 for mu in mus))
        bucket = comps.setdefault(idx, {})
        key = tuple(exps)
        cur = bucket.get(key, 0) + c
        if cur:
            bucket[key] = cur
        else:
            del bucket[key]
    out = {}
    for idx, bucket in comps.items():
        if bucket:
            out[idx] = Poly._raw(r, {e: ratnorm(k) for e, k in bucket.items()})
    return Multivector._raw(r, out)


def evaluate(gamma, entries) -> Multivector:
    """Total evaluation of a graph sum on a tuple of multivectors.

    Edges act in their listed order, first to last; the output xi-degree is
    the tuple's total degree minus the edge count.
    """
    gamma = as_graphsum(gamma)
    entries = tuple(entries)
    if not entries:
        raise PreconditionError("empty vertex tuple")
    r = entries[0].nvars
    for mv in entries:
        if mv.degree() is None:
            raise PreconditionError("vertex contents must have pure xi-degree")
    result = Multivector.zero(r)
    for graph, c in gamma.terms.items():
        if graph.n != len(entries):
            raise PreconditionError(
                "graph on %d vertices fed %d multivectors" % (graph.n, len(entries)))
        state = lift(entries)
        for (i, j) in graph.edges:
            if state.is_zero():
                break
            state = apply_edge(state, i, j)
        result = result + merge(state).scale(c)
    return result


def _vertex_count(gamma) -> int:
    """Common vertex count of the graph terms; 0 for the zero sum."""
    sizes = {g.n for g in gamma.terms}
    if len(sizes) > 1:
        raise PreconditionError("graph terms have differing vertex counts")
    return sizes.pop() if sizes else 0


def _sum_over_placements(gamma, v: Multivector, p: Multivector) -> Multivector:
    """Sum over k of gamma evaluated with v at vertex k and p at the others."""
    n = _vertex_count(gamma)
    out = Multivector.zero(p.nvars)
    for k in range(n):
        out = out + evaluate(gamma, tuple(v if t == k else p for t in range(n)))
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
    return _sum_over_placements(as_graphsum(gamma), direction, p)


def cocycle1(gamma, v: Multivector, p: Multivector) -> Multivector:
    """The 1-vector evaluation with v in one slot, summed over placements.

    Requires [[v,p]] = p exactly and p Poisson; every graph term must sit in
    bi-grading (n, 2n-2).  Plain sum over the n placements of v, with no
    combinatorial prefactor.
    """
    gamma = as_graphsum(gamma)
    if not v.is_grade(1):
        raise PreconditionError("second argument must be a 1-vector")
    if not p.is_grade(2):
        raise PreconditionError("third argument must be a bivector")
    scale = homogeneity_scale(v, p)
    if scale != 1:
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
    if not is_cocycle(gamma):
        warnings.warn(
            "input graph sum is not a cocycle under this package's sign "
            "convention; the result need not be a Poisson cocycle "
            "(external edge-order conventions may differ)")
    return _sum_over_placements(gamma, v, p)
