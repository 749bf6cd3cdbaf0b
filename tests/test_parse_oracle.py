"""``parse_poly`` against the token-stream parser it replaced.

``oracle_parse_poly`` is that parser verbatim: a tokenizer loop, a stream
class and a per-term parser, with ``(`` and ``)`` lexed as operators that no
rule accepts.  On text without parentheses both must give the same ``Poly``
or the same ``ParseError`` message and position, quirks included: implicit
products, repeated signs, a trailing ``*``, and a missing operand after
``/`` or ``^`` reported at the token after the one read in its place.  Text
with a parenthesis is rejected by both.
"""

import random
import re
from fractions import Fraction

import pytest

from poissonflow.errors import ParseError
from poissonflow.ratpoly import Poly, parse_poly, ratnorm

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError("unexpected character %r" % m.group("bad"), m.start("bad"))
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("var"):
            tokens.append(("var", int(m.group("var")[1:]), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.k = 0
        self.length = length

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.k += 1
        return t

    def position(self):
        t = self.peek()
        return t[2] if t is not None else self.length


def _parse_term(ts: _TokenStream):
    """One signed product: [sign] factor (* factor)*; returns (coeff, {var: exp})."""
    coeff = 1
    sign = 1
    while True:
        t = ts.peek()
        if t is not None and t[0] == "op" and t[1] in "+-":
            ts.next()
            if t[1] == "-":
                sign = -sign
        else:
            break
    exps = {}
    saw_factor = False
    while True:
        t = ts.peek()
        if t is None:
            break
        if t[0] == "int":
            ts.next()
            num = t[1]
            nxt = ts.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                ts.next()
                den = ts.next()
                if den is None or den[0] != "int":
                    raise ParseError("expected denominator after '/'", ts.position())
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                coeff *= Fraction(num, den[1])
            else:
                coeff *= num
        elif t[0] == "var":
            ts.next()
            idx = t[1]
            if idx < 1:
                raise ParseError("variable index must be >= 1", t[2])
            exp = 1
            nxt = ts.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                ts.next()
                e = ts.next()
                if e is None or e[0] != "int":
                    raise ParseError("expected integer exponent after '^'", ts.position())
                exp = e[1]
            exps[idx] = exps.get(idx, 0) + exp
        else:
            raise ParseError("unexpected token %r" % (t[1],), t[2])
        saw_factor = True
        nxt = ts.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
            ts.next()
            continue
        if nxt is not None and (nxt[0] in ("int", "var")):
            # implicit products like "2 x1" are accepted
            continue
        break
    if not saw_factor:
        raise ParseError("expected a term", ts.position())
    return ratnorm(sign * coeff), exps


def oracle_parse_poly(text: str, nvars=None) -> Poly:
    """Parse a polynomial in the rendered grammar.

    When ``nvars`` is omitted it is inferred as the largest variable index
    mentioned (0 for a constant).
    """
    tokens = _tokenize(text)
    ts = _TokenStream(tokens, len(text))
    if ts.peek() is None:
        raise ParseError("empty polynomial", 0)
    raw_terms = []
    while ts.peek() is not None:
        t = ts.peek()
        if t[0] == "op" and t[1] not in "+-":
            raise ParseError("unexpected %r" % (t[1],), t[2])
        raw_terms.append(_parse_term(ts))
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


# Pieces are ints, fractions, variables (x0, multi-digit indices), powers,
# operators, signs and characters no rule accepts; joined with or without
# spaces they cover well-formed sums, implicit products and every error.
PIECES = ["0", "1", "2", "17", "007", "3/4", "5/0", "2/", "x1", "x2", "x3",
          "x12", "x0", "x1^2", "x2^0", "x3^", "^", "*", "/", "+", "-", "+-",
          "@", "x", "xi1", " "]
JOINS = ["", " ", "  ", "*", " * ", " + ", " - ", "+", "-", "\t"]


def random_text(rng, pieces):
    out = []
    for _ in range(rng.randint(0, 7)):
        out.append(rng.choice(pieces))
        out.append(rng.choice(JOINS))
    return "".join(out[:-1] if rng.random() < 0.7 else out)


def outcome(parse, text, nvars):
    try:
        p = parse(text, nvars)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return ("poly", p.nvars, sorted(p.terms.items()),
            sorted(type(c).__name__ for c in p.terms.values()))


@pytest.mark.parametrize("nvars", [None, 3, 12])
def test_parse_poly_matches_token_stream_parser(nvars):
    rng = random.Random(20261018 + (nvars or 0))
    kinds = set()
    for _ in range(4000):
        text = random_text(rng, PIECES)
        got = outcome(parse_poly, text, nvars)
        assert got == outcome(oracle_parse_poly, text, nvars), text
        kinds.add("poly" if got[0] == "poly" else got[1].split(" (at")[0])
    # the strings reach a parse and every error of the grammar
    for kind in ["poly", "empty polynomial", "unexpected character '@'",
                 "unexpected character 'x'", "unexpected '*'", "unexpected '/'",
                 "unexpected '^'", "unexpected token '*'", "unexpected token '+'",
                 "unexpected token '^'", "expected a term", "zero denominator",
                 "expected denominator after '/'", "variable index must be >= 1",
                 "expected integer exponent after '^'"]:
        assert kind in kinds, kind
    if nvars == 3:
        assert "variable x12 exceeds declared dimension 3" in kinds


@pytest.mark.parametrize("nvars", [None, 3])
def test_parentheses_are_rejected_by_both_parsers(nvars):
    rng = random.Random(77 + (nvars or 0))
    for _ in range(2000):
        text = random_text(rng, PIECES)
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(["(", ")", "(x1", "2)", "(x1 + x2)"]) + text[cut:]
        for parse in (parse_poly, oracle_parse_poly):
            with pytest.raises(ParseError):
                parse(text, nvars)


@pytest.mark.parametrize("text, message", [
    ("(x1 + x2)", "unexpected character '(' (at position 0)"),
    ("x1 * (x2)", "unexpected character '(' (at position 5)"),
    ("2 x1)", "unexpected character ')' (at position 4)"),
])
def test_parenthesis_is_an_unexpected_character(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message
