"""Reader and writer for the ideal file format.

A file is a header line followed by one generator per non-blank line;
lines starting with # are comments.  The header is

    ring QQ [x, y, z]        or        ring F32003 [x0, x1]

Generator expressions use integer literals, the ring variables, binary
+ - *, parentheses, unary minus, and ^ followed by a non-negative integer
literal.  Juxtaposition is not multiplication: 2x is a syntax error.
Whitespace within a line is insignificant.  All errors carry 1-based line
and column positions.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Optional

from .errors import DegreeOverflowError, ParseError
from .fields import GF, QQ, is_prime
from .groebner import Ideal
from .poly import Polynomial
from .ring import EXP_LIMIT, Ring

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()\[\],]))")


def _tokenize(line_no: int, text: str):
    """Tokens as (kind, value, column); kinds: int, ident, op, end."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(line_no, col,
                             f"unexpected character {stripped[0]!r}")
        if m.group("int") is not None:
            out.append(("int", m.group("int"), m.start("int") + 1))
        elif m.group("ident") is not None:
            out.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            out.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    out.append(("end", "", n + 1))
    return out


class _Line:
    __slots__ = ("line_no", "tokens", "i")

    def __init__(self, line_no, text):
        self.line_no = line_no
        self.tokens = _tokenize(line_no, text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            shown = value if kind != "end" else "end of line"
            raise ParseError(self.line_no, col,
                             f"expected {op!r}, found {shown!r}")
        return self.next()

    def error(self, message):
        _, _, col = self.peek()
        raise ParseError(self.line_no, col, message)


def _parse_header(line: _Line) -> Ring:
    kind, value, col = line.next()
    if kind != "ident" or value != "ring":
        raise ParseError(line.line_no, col, "expected 'ring'")
    kind, value, col = line.next()
    if kind != "ident":
        raise ParseError(line.line_no, col,
                         "expected field tag 'QQ' or 'F<prime>'")
    if value == "QQ":
        field = QQ
    elif re.fullmatch(r"F\d+", value):
        p = int(value[1:])
        if not is_prime(p):
            raise ParseError(line.line_no, col, f"{p} is not prime")
        if p >= 2 ** 31:
            raise ParseError(line.line_no, col,
                             "characteristic must be below 2^31")
        field = GF(p)
    else:
        raise ParseError(line.line_no, col,
                         f"unknown field tag {value!r}")
    line.expect_op("[")
    names = []
    while True:
        kind, value, col = line.next()
        if kind != "ident":
            raise ParseError(line.line_no, col, "expected a variable name")
        if value in names:
            raise ParseError(line.line_no, col,
                             f"duplicate variable {value!r}")
        names.append(value)
        kind, value, col = line.peek()
        if kind == "op" and value == ",":
            line.next()
            continue
        break
    line.expect_op("]")
    kind, value, col = line.peek()
    if kind != "end":
        raise ParseError(line.line_no, col,
                         f"unexpected trailing {value!r} after header")
    return Ring(field, tuple(names))


def _parse_expr(line: _Line, ring: Ring, index: dict) -> Polynomial:
    acc = _parse_term(line, ring, index)
    while True:
        kind, value, _ = line.peek()
        if kind == "op" and value in "+-":
            line.next()
            rhs = _parse_term(line, ring, index)
            acc = acc + rhs if value == "+" else acc - rhs
        else:
            return acc


def _parse_term(line: _Line, ring: Ring, index: dict) -> Polynomial:
    acc = _parse_factor(line, ring, index)
    while True:
        kind, value, col = line.peek()
        if kind == "op" and value == "*":
            line.next()
            acc = acc * _parse_factor(line, ring, index)
        elif kind in ("int", "ident") or (kind == "op" and value == "("):
            # 2x or x y: adjacency never means multiplication here
            raise ParseError(line.line_no, col,
                             "missing operator (write a '*' explicitly)")
        else:
            return acc


def _parse_factor(line: _Line, ring: Ring, index: dict) -> Polynomial:
    kind, value, col = line.peek()
    if kind == "op" and value == "-":
        line.next()
        return -_parse_factor(line, ring, index)
    return _parse_power(line, ring, index)


def _parse_power(line: _Line, ring: Ring, index: dict) -> Polynomial:
    base = _parse_atom(line, ring, index)
    while True:
        kind, value, _ = line.peek()
        if not (kind == "op" and value == "^"):
            return base
        line.next()
        kind, value, col = line.peek()
        if kind != "int":
            raise ParseError(line.line_no, col,
                             "exponent must be a non-negative integer "
                             "literal")
        line.next()
        e = int(value)
        if e >= EXP_LIMIT:
            raise ParseError(line.line_no, col, f"exponent {e} too large")
        base = base ** e


def _parse_atom(line: _Line, ring: Ring, index: dict) -> Polynomial:
    kind, value, col = line.next()
    if kind == "int":
        return Polynomial.constant(ring, int(value))
    if kind == "ident":
        i = index.get(value)
        if i is None:
            raise ParseError(line.line_no, col,
                             f"unknown identifier {value!r}")
        return Polynomial.variable(ring, i)
    if kind == "op" and value == "(":
        inner = _parse_expr(line, ring, index)
        line.expect_op(")")
        return inner
    shown = value if kind != "end" else "end of line"
    raise ParseError(line.line_no, col, f"unexpected {shown!r}")


def parse_ideal_file(text: str):
    """(ring, ideal) from file text; see the module docstring for the
    grammar.  Raises ParseError with 1-based positions."""
    ring = None
    index = {}
    gens = []
    saw_generator = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        line = _Line(line_no, raw)
        if ring is None:
            ring = _parse_header(line)
            index = {name: i for i, name in enumerate(ring.variables)}
            continue
        try:
            poly = _parse_expr(line, ring, index)
        except DegreeOverflowError as e:
            raise ParseError(line_no, 1, str(e))
        kind, value, col = line.peek()
        if kind != "end":
            raise ParseError(line_no, col,
                             f"unexpected trailing {value!r}")
        gens.append(poly)
        saw_generator = True
    if ring is None:
        raise ParseError(1, 1, "missing 'ring' header line")
    if not saw_generator:
        raise ParseError(1, 1, "no generators after the header")
    return ring, Ideal(ring, gens)


def _clear_denominators(f: Polynomial) -> Polynomial:
    """Smallest positive integer multiple of f with integer coefficients.
    Integer-coefficient input comes back unchanged, keeping the printed
    form bit-exact."""
    if f.ring.field.characteristic:
        return f
    lcm = 1
    for c in f.coeffs:
        d = int(c.denominator)
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    return f if lcm == 1 else f * lcm


def polynomial_source(f: Polynomial) -> str:
    """Grammar-compatible text for one generator; rational coefficients
    are cleared to integers first (a unit scaling, same ideal)."""
    return str(_clear_denominators(f))


def ideal_file_text(ideal: Ideal, comments=()) -> str:
    """Serialize ring and generators in the file format; parse_ideal_file
    inverts this."""
    ring = ideal.ring
    p = ring.field.characteristic
    tag = f"F{p}" if p else "QQ"
    lines = [f"# {c}" for c in comments]
    lines.append(f"ring {tag} [{', '.join(ring.variables)}]")
    if ideal.generators:
        lines.extend(polynomial_source(g) for g in ideal.generators)
    else:
        lines.append("0")
    return "\n".join(lines) + "\n"
