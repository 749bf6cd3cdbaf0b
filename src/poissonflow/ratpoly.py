"""Exact sparse multivariate polynomials over the rationals.

A polynomial in variables x1..xr is a map from exponent tuples to nonzero
rational coefficients.  Coefficients are Python ints or ``fractions.Fraction``
values; a Fraction with unit denominator is always collapsed to int, so every
stored coefficient is reduced with positive denominator.  All arithmetic is
exact and arbitrary precision.

The canonical term order is graded lexicographic (total degree first, then
the exponent tuple); rendering lists terms in descending grlex order so the
leading term comes first.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DimensionError, ParseError

#: distinguished homogeneity degree of the zero polynomial
ANY_DEGREE = "any"


def ratnorm(c):
    """Collapse a Fraction with unit denominator to a plain int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Poly:
    """Sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  Instances are treated as immutable: no method mutates
    ``self``, and the term dict must not be modified after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise DimensionError("nvars must be nonnegative, got %d" % nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionError(
                    "exponent tuple %r does not have length %d" % (exps, nvars))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            c = ratnorm(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
                if not clean[exps]:
                    del clean[exps]
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, nvars, terms):
        # trusted constructor: terms already clean
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        if nvars < 0:
            raise DimensionError("nvars must be nonnegative, got %d" % nvars)
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = ratnorm(c)
        if not c:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """The monomial x_i, 1-based index."""
        if not 1 <= i <= nvars:
            raise IndexError("variable index %d out of range 1..%d" % (i, nvars))
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls._raw(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps, c=1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise DimensionError(
                "polynomials over %d and %d variables" % (self.nvars, other.nvars))

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = ratnorm(s)
            else:
                out.pop(exps, None)
        return Poly._raw(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly._raw(self.nvars, {e: ratnorm(c) for e, c in out.items()})

    def scale(self, c) -> "Poly":
        c = ratnorm(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly._raw(self.nvars,
                         {e: ratnorm(k * c) for e, k in self.terms.items()})

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise IndexError("variable index %d out of range 1..%d" % (i, self.nvars))
        k = i - 1
        out = {}
        for exps, c in self.terms.items():
            e = exps[k]
            if e:
                low = exps[:k] + (e - 1,) + exps[k + 1:]
                out[low] = ratnorm(c * e)
        return Poly._raw(self.nvars, out)

    # -- degree bookkeeping --------------------------------------------

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        """Common total degree of all terms, ANY_DEGREE for 0, None if mixed."""
        if not self.terms:
            return ANY_DEGREE
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- rendering ------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return "Poly(%d, %s)" % (self.nvars, render_poly(self))


def _monomial_text(exps) -> str:
    parts = []
    for k, e in enumerate(exps):
        if e == 1:
            parts.append("x%d" % (k + 1))
        elif e > 1:
            parts.append("x%d^%d" % (k + 1, e))
    return "*".join(parts)


def render_poly(p: Poly) -> str:
    """Deterministic text form: grlex-descending terms, ``p/q`` coefficients."""
    if p.is_zero():
        return "0"
    chunks = []
    for exps, c in p.sorted_terms():
        mono = _monomial_text(exps)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = "%s*%s" % (mag, mono)
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*/^])|(?P<bad>\S))")


def parse_poly(text: str, nvars=None) -> Poly:
    """Parse a polynomial in the rendered grammar.

    A term is any number of signs and then factors joined by ``*`` or by
    juxtaposition (``2 x1``); a factor is ``n``, ``n/m`` or ``xi`` with an
    optional ``^e``.  There is no grouping.  When ``nvars`` is omitted it is
    inferred as the largest variable index mentioned (0 for a constant).
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, m.start(kind))
        if kind != "op":
            value = int(value.lstrip("x"))
        tokens.append((kind, value, m.start(kind)))
    if not tokens:
        raise ParseError("empty polynomial", 0)
    count = len(tokens)
    # two end markers, so that the operand after '/' or '^' and the token
    # after it, where a missing operand is reported, always exist
    tokens += [("end", None, len(text))] * 2

    raw_terms = []
    sign, coeff, exps = 1, 1, {}
    state = "start"  # or after a "sign", a "*" or a "factor"
    k = 0
    while k < count:
        kind, value, pos = tokens[k]
        k += 1
        if kind == "op":
            if value == "*" and state == "factor":
                state = "*"
            elif value in "+-" and state != "*":
                if state == "factor":
                    raw_terms.append((ratnorm(sign * coeff), exps))
                    sign, coeff, exps = 1, 1, {}
                if value == "-":
                    sign = -sign
                state = "sign"
            elif state in ("start", "factor"):
                raise ParseError("unexpected %r" % (value,), pos)
            else:
                raise ParseError("unexpected token %r" % (value,), pos)
            continue
        state = "factor"
        if kind == "int":
            if tokens[k][1] == "/":
                den = tokens[k + 1]
                k += 2
                if den[0] != "int":
                    raise ParseError("expected denominator after '/'", tokens[k][2])
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                value = Fraction(value, den[1])
            coeff *= value
        else:
            if value < 1:
                raise ParseError("variable index must be >= 1", pos)
            exp = 1
            if tokens[k][1] == "^":
                e = tokens[k + 1]
                k += 2
                if e[0] != "int":
                    raise ParseError("expected integer exponent after '^'", tokens[k][2])
                exp = e[1]
            exps[value] = exps.get(value, 0) + exp
    if state == "sign":
        raise ParseError("expected a term", len(text))
    raw_terms.append((ratnorm(sign * coeff), exps))

    maxvar = max((max(e) for _, e in raw_terms if e), default=0)
    if nvars is None:
        nvars = maxvar
    elif maxvar > nvars:
        raise ParseError("variable x%d exceeds declared dimension %d" % (maxvar, nvars))
    terms = {}
    for c, exps in raw_terms:
        key = tuple(exps.get(i + 1, 0) for i in range(nvars))
        s = terms.get(key, 0) + c
        if s:
            terms[key] = ratnorm(s)
        else:
            terms.pop(key, None)
    return Poly._raw(nvars, terms)


def parse_rational(text: str):
    """Parse ``p`` or ``p/q`` with optional sign into int or Fraction."""
    m = re.fullmatch(r"\s*([+-]?\d+)\s*(?:/\s*(\d+))?\s*", text)
    if m is None:
        raise ParseError("bad rational %r" % text, 0)
    num = int(m.group(1))
    if m.group(2) is None:
        return num
    den = int(m.group(2))
    if den == 0:
        raise ParseError("zero denominator", 0)
    return ratnorm(Fraction(num, den))
