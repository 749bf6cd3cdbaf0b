"""Exact sparse multivariate polynomials over the rationals.

A polynomial in variables x1..xr is a map from exponent tuples to nonzero
rational coefficients.  Coefficients are Python ints or ``fractions.Fraction``
values; a Fraction with unit denominator is always collapsed to int, so every
stored coefficient is reduced with positive denominator.  The checked entry
points (``Poly(...)``, ``Poly.constant`` and the ``scale`` methods here and in
``multivec`` and ``gracomplex``) raise TypeError on any other coefficient
type, a float, a Decimal or a bool, and ``Poly(...)`` on an exponent that is
not an int.  All arithmetic is exact and arbitrary precision.

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

#: largest number of variables; exponent tuples are this long
MAX_NVARS = 10_000

#: most exponent tuples one monomial grid may hold.  A million tuples in
#: four variables take about 85 MB, and a coboundary system that large is
#: far out of reach of exact elimination; D = 12 on R^4, whose solve takes
#: about a second, has 455 monomials per component and 1 820 unknowns.
MAX_MONOMIALS = 1_000_000


def ratnorm(c):
    """Collapse a Fraction with unit denominator to a plain int."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _coefficient(c):
    """``ratnorm(c)`` for an exact coefficient: an int (not a bool) or a
    Fraction.  Anything else, a float or a Decimal, raises TypeError."""
    if not (_is_int(c) or isinstance(c, Fraction)):
        raise TypeError("coefficient of type %s, not an int or Fraction"
                        % type(c).__name__)
    return ratnorm(c)


def common_degree(degrees):
    """The value all of ``degrees`` share: ANY_DEGREE when there are none,
    None when two differ."""
    shared = set(degrees)
    if not shared:
        return ANY_DEGREE
    return shared.pop() if len(shared) == 1 else None


def _check_int(n, what):
    """Raise TypeError unless ``n`` is an int (not a bool)."""
    if not _is_int(n):
        raise TypeError("%s of type %s, not an int" % (what, type(n).__name__))


def _check_nvars(nvars):
    """Raise TypeError unless nvars is an int (not a bool), and
    DimensionError unless 0 <= nvars <= MAX_NVARS."""
    _check_int(nvars, "nvars")
    if nvars < 0:
        raise DimensionError("nvars must be nonnegative, got %s" % _number_text(nvars))
    if nvars > MAX_NVARS:
        raise DimensionError("nvars must be at most %d, got %s"
                             % (MAX_NVARS, _number_text(nvars)))


class Poly:
    """Sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  Instances are treated as immutable: no method mutates
    ``self``, and the term dict must not be modified after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        _check_nvars(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionError(
                    "exponent tuple %r does not have length %d" % (exps, nvars))
            for e in exps:
                if not _is_int(e):
                    raise TypeError("exponent of type %s, not an int"
                                    % type(e).__name__)
                if e < 0:
                    raise ValueError("negative exponent in %r" % (exps,))
            c = _coefficient(c)
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
        _check_nvars(nvars)
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        _check_nvars(nvars)
        c = _coefficient(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """The monomial x_i, 1-based index."""
        _check_nvars(nvars)
        _check_int(i, "variable index")
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
        c = _coefficient(c)
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
        return common_degree(sum(e) for e in self.terms)

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
            parts.append("x%d^%s" % (k + 1, _number_text(e)))
    return "*".join(parts)


# long integers go to and from text in chunks below Python's 4300-digit limit
_CHUNK = 4000
_CHUNK_BASE = 10 ** _CHUNK


def _number_text(c) -> str:
    """``n`` or ``p/q`` for an int or Fraction coefficient."""
    if isinstance(c, Fraction):
        return _number_text(c.numerator) + "/" + _number_text(c.denominator)
    n, chunks = abs(c), []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return ("-" if c < 0 else "") + str(n) + "".join(reversed(chunks))


def _text_int(digits: str) -> int:
    n = int(digits[:len(digits) % _CHUNK] or 0)
    for k in range(len(digits) % _CHUNK, len(digits), _CHUNK):
        n = n * _CHUNK_BASE + int(digits[k:k + _CHUNK])
    return n


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
            body = _number_text(mag) + "*" + mono
        else:
            body = _number_text(mag)
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
            value = _text_int(value if kind == "int" else value[1:])
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
    _check_nvars(nvars)
    if maxvar > nvars:
        raise ParseError("variable x%s exceeds declared dimension %d"
                         % (_number_text(maxvar), nvars))
    terms = {}
    for c, exps in raw_terms:
        key = tuple(exps.get(i + 1, 0) for i in range(nvars))
        s = terms.get(key, 0) + c
        if s:
            terms[key] = ratnorm(s)
        else:
            terms.pop(key, None)
    return Poly._raw(nvars, terms)
