"""Expression language shared by the CLI, the renderers, and the tests.

Grammar (whitespace-insensitive, explicit ``*`` required -- juxtaposition
is never multiplication):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | power
    power    := atom ("^" exponent)?
    exponent := "-"? INT
    atom     := NUMBER | NAME | "(" expr ")"
    NUMBER   := INT ("/" INT)?          -- a rational literal
    NAME     := "zeta" | x<i> | y<i> | g<i> | t<i>

``*`` is noncommutative and order-preserving.  Exponents are integers;
negative exponents are accepted only directly on y_i and g_i atoms (the
Hecke algebra has no x-inverses, and t, zeta carry nonnegative powers in
canonical renderings).  Syntax errors report the offset and what was
expected.  At most ``MAX_NESTING`` parentheses and unary minus signs may
be open at once, a bound the parser counts itself, so a too-deep input is
the same error at the same position whatever the caller's stack depth.

A parse tree is made of five node classes, ``Num``, ``Sym``, ``Neg``,
``BinOp`` and ``Pow``, and each node is a frozen value: two nodes are equal
when they are of the same class with equal fields (a node never equals a
tuple or a node of another class, ``Neg(x) != Pow(x, 1)``), equal nodes hash
equal, ``repr`` reads ``Sym(kind='x', index=1)``, assigning or deleting an
attribute raises AttributeError, and a copy or pickle is an equal node.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

from .cyclotomic import Cyclotomic, zeta_power
from .record import FrozenRecord

__all__ = [
    "MAX_NESTING",
    "ParseError",
    "EvalError",
    "parse",
    "eval_hecke",
    "eval_laurent",
    "eval_scalar",
]


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, pos: int, expected: str | None = None):
        detail = f"{message} at position {pos}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.pos = pos
        self.expected = expected


class EvalError(ValueError):
    """An expression uses an atom that is invalid for the target algebra."""


# -- parse trees ---------------------------------------------------------


# each __init__ sets its fields one by one, with no loop: parser-roundtrip
# builds tens of thousands of nodes per grid run
_set = object.__setattr__


class Num(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", value)


class Sym(FrozenRecord):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        _set(self, "kind", kind)  # "x", "y", "g", "t", or "zeta"
        _set(self, "index", index)  # 0 for zeta


class Neg(FrozenRecord):
    __slots__ = ("arg",)

    def __init__(self, arg):
        _set(self, "arg", arg)


class BinOp(FrozenRecord):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs, rhs):
        _set(self, "op", op)  # "+", "-", "*"
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Pow(FrozenRecord):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp: int):
        _set(self, "base", base)
        _set(self, "exp", exp)


# every non-space character starts a token; one no other group takes is "bad"
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*^()])|(?P<bad>\S))"
)
_NAME = re.compile(r"^(zeta|[xygt]\d+)$")

# open "(" and unary "-" at once: each level costs the parser at most six
# frames and the evaluator at most one, so an input at the bound parses and
# evaluates well inside the interpreter's default recursion limit of 1000;
# canonical renderings open at most two
MAX_NESTING = 64


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value, pos = match.group(kind), match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "num":
            num, _, den = value.partition("/")
            if den and int(den) == 0:
                raise ParseError("zero denominator in literal", pos)
            value = Fraction(int(num), int(den or 1))
        elif kind == "name":
            if not _NAME.match(value):
                raise ParseError(f"unknown name {value!r}", pos, "zeta, x<i>, y<i>, g<i> or t<i>")
        else:
            kind = value
        tokens.append((kind, value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open "(" and unary "-"

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _unexpected(self, expected: str) -> ParseError:
        """The syntax error at the next token, which is not ``expected``."""
        tok = self.peek()
        found = "end of input" if tok[0] == "end" else f"token {str(tok[1])!r}"
        return ParseError(f"unexpected {found}", tok[2], expected)

    def nested(self, parse_inner):
        """Consume the opening token, ``(`` or unary ``-``, and return
        parse_inner() one level deeper; a ParseError at that token when it
        would open more than MAX_NESTING levels.  Sums and products loop,
        so only these two nest."""
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2])
        self.advance()
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise self._unexpected("'+', '-', '*', '^' or end")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            return Neg(self.nested(self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        tok = self.peek()
        if tok[0] == "-":
            sign = -1
            self.advance()
            tok = self.peek()
        if tok[0] != "num" or tok[1].denominator != 1:
            raise self._unexpected("an integer exponent")
        self.advance()
        exp = sign * tok[1].numerator
        if exp < 0 and not (isinstance(base, Sym) and base.kind in ("y", "g")):
            what = base.kind if isinstance(base, Sym) else "this expression"
            raise ParseError(
                f"negative exponent on {what}",
                tok[2],
                "negative exponents only on y_i or g_i",
            )
        return Pow(base, exp)

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(tok[1])
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name == "zeta":
                return Sym("zeta", 0)
            return Sym(name[0], int(name[1:]))
        if tok[0] == "(":
            node = self.nested(self.expr)
            if self.peek()[0] != ")":
                raise self._unexpected("')'")
            self.advance()
            return node
        raise self._unexpected("a number, name or '('")


def parse(text: str):
    """Parse an expression into a tree; raises ParseError with position."""
    return _Parser(text).parse()


# -- evaluation ----------------------------------------------------------


def _eval(node, literal, symbol):
    """Walk a parse tree: ``literal(value)`` builds a number, ``symbol(sym,
    exp)`` a name raised to an integer power, and the operators are those
    of the values built."""
    if isinstance(node, Num):
        return literal(node.value)
    if isinstance(node, Sym):
        return symbol(node, 1)
    if isinstance(node, Neg):
        return -_eval(node.arg, literal, symbol)
    if isinstance(node, Pow):
        if isinstance(node.base, Sym):
            return symbol(node.base, node.exp)
        value = _eval(node.base, literal, symbol)
        if node.exp < 0:
            raise EvalError("negative exponent on a compound expression")
        return value**node.exp
    if isinstance(node, BinOp):
        # a + b + c and a * b * c parse as left-nested chains: walk the left
        # spine in a loop, so the recursion does not grow with their length
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.lhs
        value = _eval(node, literal, symbol)
        for op in reversed(spine):
            rhs = _eval(op.rhs, literal, symbol)
            if op.op == "+":
                value = value + rhs
            elif op.op == "-":
                value = value - rhs
            else:
                value = value * rhs
        return value
    raise TypeError(f"not an expression node: {node!r}")


def _eval_sym(alg, sym: Sym, exp: int):
    """The atom sym^exp as one term of ``alg``, built without an algebra
    product."""
    kind, i, n = sym.kind, sym.index, alg.n
    if kind == "zeta":
        return alg.scalar(zeta_power(alg.ell, exp))
    if kind not in ("t", "g", "x", "y"):
        raise EvalError(f"unknown symbol kind {kind!r}")
    # x belongs to the Hecke algebra only, y to the Laurent algebra only
    if kind in ("x", "y") and kind != alg.var:
        name = type(alg).__name__.removesuffix("Algebra")
        raise EvalError(f"{kind}-generators are not valid in the {name} algebra")
    if not 1 <= i <= n:
        raise EvalError(f"{kind}{i} out of range 1..{n}")
    if kind == "t":
        if exp < 0:
            raise EvalError(f"negative exponent on t{i}")
        # the ring's split of 1*t_i^exp keeps its unit as the coefficient
        pairs = alg.ring.split_t_monomial(alg.ring.unit, [i] * exp)
        return alg.elem_type._new(alg, {(alg._zero_p, 0, tau): c for tau, c in pairs})
    if kind == "g":
        return alg._term(alg._zero_p, alg.codes.generator(i, exp))
    return alg._gen_power(i, exp)


def _scalar_sym(ell: int, sym: Sym, exp: int) -> Cyclotomic:
    if sym.kind != "zeta":
        raise EvalError(f"{sym.kind}{sym.index or ''} is not a scalar")
    return zeta_power(ell, exp)


def _eval_in(expr, alg, var: str):
    if getattr(alg, "var", None) != var:
        raise TypeError(f"expected an algebra on {var}-generators, got {type(alg).__name__}")
    if isinstance(expr, str):
        expr = parse(expr)
    return _eval(expr, alg.scalar, partial(_eval_sym, alg))


def eval_hecke(expr, alg):
    """Evaluate a parse tree (or source text) in a HeckeAlgebra."""
    return _eval_in(expr, alg, "x")


def eval_laurent(expr, alg):
    """Evaluate a parse tree (or source text) in a LaurentAlgebra."""
    return _eval_in(expr, alg, "y")


def eval_scalar(expr, ell: int) -> Cyclotomic:
    """Evaluate a scalar literal over Q(zeta): numbers, zeta, +, -, *, ^."""
    if isinstance(expr, str):
        expr = parse(expr)
    return _eval(expr, partial(Cyclotomic.from_rational, ell), partial(_scalar_sym, ell))
