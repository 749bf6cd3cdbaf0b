"""Multivector fields with polynomial coefficients on affine R^r.

A k-vector is written in odd generators: sums of f(x) xi_{i1}...xi_{ik} with
strictly increasing index tuples, so xi_i*xi_i = 0 is structural.  Bivectors
carry a Poisson bracket candidate; the Schouten bracket extends the
commutator of vector fields to all degrees.

Sign ledger (the single place fixing all Koszul conventions):

* inside one component the odd factors are stored sorted ascending, and the
  stored tuple IS the product order xi_{i1}...xi_{ik};
* the left derivative d/dxi_i picks index i at position p (0-based) with
  sign (-1)^p -- it anticommutes past the p generators standing before i;
* the right derivative acting on the tail picks position p with sign
  (-1)^(k-1-p);
* products concatenate index tuples and sort them ascending, with the parity
  of the sorting permutation as sign (repeated index kills the term).

With these choices the bracket

    [[P,Q]] = sum_i (P)<d/dxi_i . d/dx^i(Q) - (P)<d/dx^i . d/dxi_i>(Q)

restricts to the commutator on 1-vectors and satisfies the shifted-graded
skew symmetry and Jacobi identities (property-tested, not assumed).
``schouten`` computes it in one pass over pairs of components, applying
the derivative and product rules above to index tuples and monomials
directly, into a single accumulator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import DimensionError, ParseError, PreconditionError
from .ratpoly import (ANY_DEGREE, Poly, _check_nvars, _coefficient,
                      _number_text, _text_int, common_degree, parse_poly,
                      ratnorm, render_poly)


class Multivector:
    """Sparse multivector: map from increasing 1-based index tuples to Poly.

    The empty tuple indexes the scalar part.  Instances are immutable by
    convention; all operations return fresh values.
    """

    __slots__ = ("nvars", "components")

    def __init__(self, nvars: int, components=None):
        _check_nvars(nvars)
        clean = {}
        for idx, p in (components or {}).items():
            idx = tuple(idx)
            if any(i < 1 or i > nvars for i in idx):
                raise IndexError("xi index out of range in %r" % (idx,))
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("xi indices must be strictly increasing: %r" % (idx,))
            if not isinstance(p, Poly):
                raise TypeError("component must be a Poly")
            if p.nvars != nvars:
                raise DimensionError("component over %d variables, expected %d"
                                     % (p.nvars, nvars))
            if p:
                clean[idx] = p
        self.nvars = nvars
        self.components = clean

    @classmethod
    def _raw(cls, nvars, components):
        mv = object.__new__(cls)
        mv.nvars = nvars
        mv.components = components
        return mv

    @classmethod
    def zero(cls, nvars: int) -> "Multivector":
        _check_nvars(nvars)
        return cls._raw(nvars, {})

    @classmethod
    def from_scalar(cls, p: Poly) -> "Multivector":
        return cls(p.nvars, {(): p})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self):
        return bool(self.components)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def degree(self):
        """Common xi-degree; ANY_DEGREE for 0, None when degrees are mixed."""
        return common_degree(len(idx) for idx in self.components)

    def is_grade(self, k: int) -> bool:
        return self.degree() in (k, ANY_DEGREE)

    def component(self, idx) -> Poly:
        return self.components.get(tuple(idx), Poly.zero(self.nvars))

    # -- linear operations -----------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise DimensionError("multivectors over %d and %d variables"
                                 % (self.nvars, other.nvars))

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other)
        out = dict(self.components)
        for idx, p in other.components.items():
            s = out.get(idx)
            s = p if s is None else s + p
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return Multivector._raw(self.nvars, out)

    def __neg__(self) -> "Multivector":
        return Multivector._raw(self.nvars,
                                {i: -p for i, p in self.components.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def scale(self, c) -> "Multivector":
        c = _coefficient(c)
        if not c:
            return Multivector.zero(self.nvars)
        return Multivector._raw(self.nvars,
                                {i: p.scale(c) for i, p in self.components.items()})

    def __str__(self):
        return render_multivector(self)

    def __repr__(self):
        return "Multivector(%d, %s)" % (self.nvars, render_multivector(self))


def _merge_indices(left, right):
    """Concatenate two increasing tuples; (sorted tuple, parity sign) or None."""
    if not left:
        return right, 1
    if not right:
        return left, 1
    merged = left + right
    if len(set(merged)) != len(merged):
        return None
    # count inversions between the two sorted blocks
    inv = 0
    for a in left:
        for b in right:
            if a > b:
                inv += 1
    return tuple(sorted(merged)), (-1 if inv & 1 else 1)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; polynomial coefficients are parity-even."""
    a._check_compatible(b)
    out = {}
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            prod = pa * pb
            if sign < 0:
                prod = -prod
            cur = out.get(idx)
            cur = prod if cur is None else cur + prod
            if cur:
                out[idx] = cur
            else:
                out.pop(idx, None)
    return Multivector._raw(a.nvars, out)


def _xi_left(mv: Multivector, i: int) -> Multivector:
    """Left derivative d/dxi_i>(mv), sign (-1)^p; dropping i keeps keys distinct."""
    out = {}
    for idx, p in mv.components.items():
        if i in idx:
            pos = idx.index(i)
            out[idx[:pos] + idx[pos + 1:]] = -p if pos & 1 else p
    return Multivector._raw(mv.nvars, out)


def _x_partial(mv: Multivector, i: int) -> Multivector:
    out = {}
    for idx, p in mv.components.items():
        q = p.partial(i)
        if q:
            out[idx] = q
    return Multivector._raw(mv.nvars, out)


def _partial_terms(terms, i):
    """(exponents, coefficient) pairs of d/dx^i of a term dict, 1-based i."""
    k = i - 1
    out = []
    for exps, c in terms.items():
        e = exps[k]
        if e:
            out.append((exps[:k] + (e - 1,) + exps[k + 1:], c * e))
    return out


def _accumulate(terms, sign, left, right):
    """terms += sign * (left * right) over (exponents, coefficient) pairs."""
    for e1, c1 in left:
        c1 = sign * c1
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """The odd graded bracket [[p,q]] of degree -1.

    Reduces to the commutator of vector fields on 1-vectors; on a bivector P
    the equation [[P,P]] = 0 is the Jacobi identity.

    Computed in one pass over pairs of components (a of p, b of q): for
    each position of an index i in a, the right derivative a<d/dxi_i times
    d/dx^i of b; for each position of i in b, minus d/dx^i of a times the
    left derivative d/dxi_i>b.  The merged index tuple and its sign are
    found once per pair and position, and every product lands in a single
    ``{index tuple: {exponents: coefficient}}`` accumulator.
    """
    p._check_compatible(q)
    out = {}
    dp, dq = {}, {}  # (index tuple, variable) -> x-partial terms, on demand
    for ia, fa in p.components.items():
        ka = len(ia)
        for ib, fb in q.components.items():
            # (a)<d/dxi_i . d/dx^i(b), right derivative sign (-1)^(k-1-pos)
            for pos, i in enumerate(ia):
                merged = _merge_indices(ia[:pos] + ia[pos + 1:], ib)
                if merged is None:
                    continue
                idx, sign = merged
                if (ka - 1 - pos) & 1:
                    sign = -sign
                d = dq.get((ib, i))
                if d is None:
                    d = dq[(ib, i)] = _partial_terms(fb.terms, i)
                if d:
                    _accumulate(out.setdefault(idx, {}), sign, fa.terms.items(), d)
            # -(d/dx^i a) . d/dxi_i>(b), left derivative sign (-1)^pos
            for pos, i in enumerate(ib):
                merged = _merge_indices(ia, ib[:pos] + ib[pos + 1:])
                if merged is None:
                    continue
                idx, sign = merged
                if not pos & 1:
                    sign = -sign
                d = dp.get((ia, i))
                if d is None:
                    d = dp[(ia, i)] = _partial_terms(fa.terms, i)
                if d:
                    _accumulate(out.setdefault(idx, {}), sign, d, fb.terms.items())
    comps = {}
    for idx, terms in out.items():
        terms = {e: ratnorm(c) for e, c in terms.items() if c}
        if terms:
            comps[idx] = Poly._raw(p.nvars, terms)
    return Multivector._raw(p.nvars, comps)


def schouten_sym(f: Multivector, g: Multivector) -> Multivector:
    """Graded-symmetric variant: (-1)^(|f|-1) [[f,g]] for pure-degree f."""
    deg = f.degree()
    if deg is None:
        raise PreconditionError("left argument has mixed xi-degree")
    b = schouten(f, g)
    return b if deg is ANY_DEGREE or deg & 1 else -b


def jacobiator(p: Multivector) -> Multivector:
    """The trivector (1/2)[[p,p]]; zero exactly when p is Poisson."""
    if not p.is_grade(2):
        raise PreconditionError("jacobiator needs a bivector")
    return schouten(p, p).scale(Fraction(1, 2))


def euler_field(r: int) -> Multivector:
    """sum_i x^i d/dx^i on R^r."""
    if r < 1:
        raise ValueError("dimension must be at least 1")
    return Multivector(r, {(i,): Poly.variable(r, i) for i in range(1, r + 1)})


def lie_derivative(v: Multivector, omega: Multivector) -> Multivector:
    """Derivative of omega along the 1-vector v; alias of schouten(v, omega)."""
    if not v.is_grade(1):
        raise PreconditionError("Lie derivative direction must be a 1-vector")
    return schouten(v, omega)


def _ratio(value: Multivector, reference: Multivector):
    """The rational lam with value = lam*reference, or None; the reference
    is nonzero.  lam is read off one term of the reference and checked on
    all of them."""
    idx = min(reference.components)
    exps = min(reference.components[idx].terms)
    got = value.components.get(idx)
    num = got.terms.get(exps, 0) if got is not None else 0
    lam = ratnorm(Fraction(num) / Fraction(reference.components[idx].terms[exps]))
    return lam if value == reference.scale(lam) else None


def homogeneity_scale(v: Multivector, p: Multivector):
    """The rational lam with [[v,p]] = lam*p, ANY_DEGREE for p = 0, else None."""
    if not v.is_grade(1):
        raise PreconditionError("scaling field must be a 1-vector")
    b = schouten(v, p)
    if p.is_zero():
        return ANY_DEGREE
    return _ratio(b, p)


def hamiltonian_field(p: Multivector, h: Poly) -> Multivector:
    """The 1-vector [[p, h]] generated by a scalar h."""
    return schouten(p, Multivector.from_scalar(h))


def poisson_bracket(f: Poly, g: Poly, p: Multivector) -> Poly:
    """The composed bracket [[[[f,p]],g]] of two scalars.

    Under this package's sign ledger the composition evaluates coordinate
    pairs to the opposite of the stored component: {x^i,x^j} = -p^{ij}.
    """
    inner = schouten(Multivector.from_scalar(f), p)
    outer = schouten(inner, Multivector.from_scalar(g))
    return outer.component(())


# -- text format -------------------------------------------------------


def render_multivector(mv: Multivector) -> str:
    """``(poly) xi1 xi2 + ...`` with components ordered by grade then index."""
    if mv.is_zero():
        return "0"
    chunks = []
    for idx in sorted(mv.components, key=lambda t: (len(t), t)):
        body = "(%s)" % render_poly(mv.components[idx])
        if idx:
            body += " " + " ".join("xi%d" % i for i in idx)
        chunks.append(body)
    return " + ".join(chunks)


_TERM_RE = re.compile(r"\s*([+-]?)\s*\(([^()]*)\)((?:\s*xi\d+)*)\s*")


def parse_multivector(text: str, nvars=None) -> Multivector:
    """Inverse of render_multivector.

    The written format carries no explicit dimension, so ``nvars`` defaults
    to the largest x- or xi-index seen; pass it explicitly to round-trip
    values whose trailing variables do not occur.
    """
    if not text.strip():
        raise ParseError("empty multivector", 0)

    pieces = []  # (sign, poly text start, poly text, [xi indices]) chunks
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            # allow a bare polynomial, 0 included, as the scalar part
            if first:
                p = parse_poly(text, nvars)
                return Multivector(p.nvars, {(): p})
            raise ParseError("expected '(poly) xi...' term", pos)
        sign, poly_text, xis = m.group(1), m.group(2), m.group(3)
        if not first and sign == "":
            raise ParseError("missing '+' or '-' between terms", m.start())
        idx = tuple(_text_int(s) for s in re.findall(r"xi(\d+)", xis))
        if idx[:1] == (0,):
            raise ParseError("xi index must be >= 1", m.start(3) + xis.index("xi"))
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ParseError("xi indices must be strictly increasing", m.start(3))
        pieces.append((sign, m.start(2), poly_text, idx))
        pos = m.end()
        first = False

    maxvar = 0
    for _, _, poly_text, idx in pieces:
        if idx:
            maxvar = max(maxvar, max(idx))
        for v in re.findall(r"x(\d+)(?![\d])", poly_text):
            maxvar = max(maxvar, _text_int(v))
    if nvars is None:
        nvars = maxvar
    _check_nvars(nvars)  # DimensionError past 0..MAX_NVARS
    if maxvar > nvars:
        raise ParseError("index %s exceeds declared dimension %d"
                         % (_number_text(maxvar), nvars))
    # each component's terms are gathered once and made a Poly once: adding
    # piece by piece would copy the component's terms for every piece
    gathered = {}
    for sign, start, poly_text, idx in pieces:
        try:
            p = parse_poly(poly_text, nvars)
        except ParseError as exc:
            if exc.position is not None:
                exc.position += start
            raise
        terms = gathered.setdefault(idx, {})
        for exps, c in p.terms.items():
            terms[exps] = terms.get(exps, 0) + (-c if sign == "-" else c)
    return Multivector(nvars, {idx: Poly(nvars, terms)
                               for idx, terms in gathered.items()})
