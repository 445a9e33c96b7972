"""Text grammars: representation expressions, polynomials, characters,
generator expressions (group specs are parsed by `weyl.parse_group`).

All canonical text emitted by the library round-trips through these parsers.
"""

import re

from . import graded, invariants, reps
from .char_ring import VirtualCharacter
from .errors import ParseError, parse_int
from .weyl import TORUS, _Record

_TOKEN_RX = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\S))")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RX.match(text, pos)
            if not m:
                break
            if m.group(1) is not None:
                self.items.append(("int", parse_int(m.group(1), m.start(1)), m.start(1)))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), m.start(2)))
            else:
                ch = m.group(3)
                if ch not in "+-*/^()[],":
                    raise ParseError(f"unexpected character {ch!r}", m.start(3))
                self.items.append((ch, ch, m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def accept(self, kind):
        if self.peek()[0] == kind:
            return self.next()
        return None

    def done(self):
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


def _parse_poly_expr(toks, rank, prefix):
    out = _parse_poly_term(toks, rank, prefix)
    while True:
        if toks.accept("+"):
            out = out + _parse_poly_term(toks, rank, prefix)
        elif toks.accept("-"):
            out = out - _parse_poly_term(toks, rank, prefix)
        else:
            return out


def _parse_poly_term(toks, rank, prefix):
    out = _parse_poly_factor(toks, rank, prefix)
    while toks.accept("*"):
        out = out * _parse_poly_factor(toks, rank, prefix)
    return out


def _parse_poly_factor(toks, rank, prefix):
    """A factor, with unary minus looser than ^ as in Python: -x1^2 is
    -(x1^2) wherever it stands."""
    if toks.accept("-"):
        return -_parse_poly_factor(toks, rank, prefix)
    base = _parse_poly_primary(toks, rank, prefix)
    if toks.accept("^"):
        k = toks.expect("int")[1]
        base = base**k
    return base


def _parse_poly_primary(toks, rank, prefix):
    kind, value, pos = toks.peek()
    if kind == "int":
        toks.next()
        num = value
        if toks.accept("/"):
            den = toks.expect("int")[1]
            if den == 0:
                raise ParseError("zero denominator", pos)
            from fractions import Fraction  # here, not at the top: lambda and adams never need it
            return graded.SymbolicPolynomial.constant(rank, Fraction(num, den))
        return graded.SymbolicPolynomial.constant(rank, num)
    if kind == "name":
        toks.next()
        m = re.fullmatch(re.escape(prefix) + r"([1-9]\d*)", value)
        if not m:
            raise ParseError(
                f"unknown variable {value!r} (expected {prefix}1..{prefix}{rank})", pos
            )
        idx = parse_int(m.group(1), pos)
        if idx > rank:
            raise ParseError(f"variable {value!r} outside rank {rank}", pos)
        return graded.SymbolicPolynomial.variable(rank, idx)
    if kind == "(":
        toks.next()
        inner = _parse_poly_expr(toks, rank, prefix)
        toks.expect(")")
        return inner
    raise ParseError(f"unexpected token {value!r}", pos)


def parse_polynomial(text, rank):
    """Parse a polynomial in x1..x<rank> with exact rational coefficients."""
    toks = _Tokens(text)
    poly = _parse_poly_expr(toks, rank, "x")
    toks.done()
    return poly


def parse_generator_expression(text, group):
    """Parse a polynomial in the generators I1..Il of a classical group."""
    toks = _Tokens(text)
    poly = _parse_poly_expr(toks, group.rank, "I")
    toks.done()
    return invariants.GeneratorExpression(group, poly.terms)


def _parse_signed_int(toks):
    sign = -1 if toks.accept("-") else 1
    return sign * toks.expect("int")[1]


def _parse_weight(toks, rank):
    start = toks.expect("[")
    coords = [_parse_signed_int(toks)]
    while toks.accept(","):
        coords.append(_parse_signed_int(toks))
    toks.expect("]")
    if len(coords) != rank:
        raise ParseError(
            f"weight has {len(coords)} coordinates, expected {rank}", start[2]
        )
    return tuple(coords)


def parse_character(text, rank):
    """Parse the canonical character form, e.g. "2[1,0] + [0,1] - 1[0,0]"."""
    toks = _Tokens(text)
    if toks.peek()[0] == "int" and toks.peek()[1] == 0 and len(toks.items) == 1:
        return VirtualCharacter.zero(rank)
    terms = {}

    def one_term(sign):
        mult = sign
        tok = toks.peek()
        if tok[0] == "int":
            toks.next()
            mult = sign * tok[1]
        w = _parse_weight(toks, rank)
        terms[w] = terms.get(w, 0) + mult

    one_term(-1 if toks.accept("-") else 1)
    while True:
        if toks.accept("+"):
            one_term(1)
        elif toks.accept("-"):
            one_term(-1)
        else:
            break
    toks.done()
    return VirtualCharacter(rank, terms)


# --- representation expressions -----------------------------------------


class RStd(_Record):
    __slots__ = ()


class RExt(_Record):
    __slots__ = ("power", "arg")


class RSym(_Record):
    __slots__ = ("power", "arg")


class RDual(_Record):
    __slots__ = ("arg",)


class RWeights(_Record):
    __slots__ = ("weights",)


class RAdd(_Record):
    __slots__ = ("left", "right")


class RSub(_Record):
    __slots__ = ("left", "right")


class RMul(_Record):
    __slots__ = ("left", "right")


def _parse_rep_expr(toks, g):
    out = _parse_rep_term(toks, g)
    while True:
        if toks.accept("+"):
            out = RAdd(out, _parse_rep_term(toks, g))
        elif toks.accept("-"):
            out = RSub(out, _parse_rep_term(toks, g))
        else:
            return out


def _parse_rep_term(toks, g):
    out = _parse_rep_atom(toks, g)
    while toks.accept("*"):
        out = RMul(out, _parse_rep_atom(toks, g))
    return out


def _parse_rep_atom(toks, g):
    kind, value, pos = toks.next()
    if kind == "(":
        inner = _parse_rep_expr(toks, g)
        toks.expect(")")
        return inner
    if kind != "name":
        raise ParseError(f"unexpected token {value!r}", pos)
    if value == "std":
        return RStd()
    if value in ("ext", "sym"):
        toks.expect("(")
        p = toks.expect("int")[1]
        toks.expect(",")
        arg = _parse_rep_expr(toks, g)
        toks.expect(")")
        return RExt(p, arg) if value == "ext" else RSym(p, arg)
    if value == "dual":
        toks.expect("(")
        arg = _parse_rep_expr(toks, g)
        toks.expect(")")
        return RDual(arg)
    if value == "weights":
        toks.expect("[")
        ws = [_parse_weight(toks, g.rank)]
        while toks.accept(","):
            ws.append(_parse_weight(toks, g.rank))
        toks.expect("]")
        return RWeights(tuple(ws))
    raise ParseError(f"unknown representation {value!r}", pos)


def parse_rep(text, g):
    """Parse a representation expression for the group g."""
    toks = _Tokens(text)
    node = _parse_rep_expr(toks, g)
    toks.done()
    return node


def rep_to_character(node, g):
    """Evaluate a representation expression to a virtual character."""
    if isinstance(node, RStd):
        if g.family == TORUS:
            raise ParseError(
                f"{g} has no standard representation; give its weights as weights[[...]]"
            )
        return reps.standard(g)
    if isinstance(node, RExt):
        return reps.exterior(rep_to_character(node.arg, g), node.power)
    if isinstance(node, RSym):
        return reps.symmetric(rep_to_character(node.arg, g), node.power)
    if isinstance(node, RDual):
        return reps.dual(rep_to_character(node.arg, g))
    if isinstance(node, RWeights):
        return VirtualCharacter.from_weights(g.rank, node.weights)
    if isinstance(node, RAdd):
        return rep_to_character(node.left, g) + rep_to_character(node.right, g)
    if isinstance(node, RSub):
        return rep_to_character(node.left, g) - rep_to_character(node.right, g)
    if isinstance(node, RMul):
        return rep_to_character(node.left, g) * rep_to_character(node.right, g)
    raise TypeError(f"not a representation node: {node!r}")
