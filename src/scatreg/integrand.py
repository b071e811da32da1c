"""A small expression language for rational integrands F(P, Q).

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' int]
    atom   := number | ident | '(' expr ')' | '-' atom

Identifiers are the coordinates p0..p3, q0..q3, the mass m, the cutoff L, and
the built-in Euclidean contractions P2 = p0^2+p1^2+p2^2+p3^2, Q2 likewise, and
PQ = p0*q0+p1*q1+p2*q2+p3*q3.  Exponents must be integer literals; there are
no transcendental functions, so every expression is rational.

Evaluation is numpy-vectorized: bind arrays in the context and the tree is
evaluated elementwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegrandSyntaxError",
    "EvaluationError",
    "SingularityReport",
    "parse_integrand",
    "evaluate",
    "pretty_print",
    "division_denominators",
    "o4_invariant",
    "scan_denominators",
    "VARIABLES",
    "BUILTINS",
]

VARIABLES = ("p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3", "m", "L")
BUILTINS = ("P2", "Q2", "PQ")
_COORDINATES = VARIABLES[:8]  # p0..p3, q0..q3
_SCREEN_THRESHOLD = 1e-8  # a denominator smaller than this on the scan is flagged


class IntegrandSyntaxError(ValueError):
    """Parse failure, carrying the byte offset and the tokens expected there."""

    def __init__(self, message, offset, expected=()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(expected)


class EvaluationError(ValueError):
    """Non-finite result during evaluation, carrying the offending subexpression."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message} in subexpression '{pretty_print(subexpr)}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None or match.end() == match.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise IntegrandSyntaxError(
                f"unexpected character '{stripped[0]}'",
                len(source) - len(stripped),
            )
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "ident":
            tokens.append(("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbols):
        kind, text, offset = self.peek()
        if kind == "op" and text in symbols:
            return self.take()
        raise IntegrandSyntaxError(
            f"unexpected token '{text or 'end of input'}'", offset, expected=symbols
        )

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            nkind, ntext, noffset = self.take()
            if nkind != "num" or not re.fullmatch(r"\d+", ntext):
                raise IntegrandSyntaxError(
                    "exponent must be an integer literal", noffset, expected=("integer",)
                )
            node = Pow(node, int(ntext))
        return node

    def atom(self):
        kind, text, offset = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in VARIABLES or text in BUILTINS:
                return Var(text)
            raise IntegrandSyntaxError(f"unknown identifier '{text}'", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op((")",))
            return node
        if kind == "op" and text == "-":
            # so that -x^2 parses as -(x^2), matching usual convention
            return Neg(self.factor())
        raise IntegrandSyntaxError(
            f"unexpected token '{text or 'end of input'}'",
            offset,
            expected=("number", "identifier", "(", "-"),
        )


def parse_integrand(source):
    """Parse ``source`` into an expression tree."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise IntegrandSyntaxError(f"trailing input '{text}'", offset)
    return node


def _builtin(name, ctx):
    if name == "P2":
        return sum(ctx[f"p{i}"] ** 2 for i in range(4))
    if name == "Q2":
        return sum(ctx[f"q{i}"] ** 2 for i in range(4))
    return sum(ctx[f"p{i}"] * ctx[f"q{i}"] for i in range(4))


def evaluate(expr, ctx):
    """Evaluate the tree with the bindings in ``ctx`` (scalars or arrays)."""
    # overflow and invalid operations surface as the EvaluationError below,
    # not as a numpy RuntimeWarning on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        result = _eval(expr, ctx)
    if not np.all(np.isfinite(result)):
        raise EvaluationError("non-finite result", expr)
    return result


def _eval(expr, ctx):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name in BUILTINS:
            return _builtin(expr.name, ctx)
        try:
            return ctx[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound variable '{expr.name}'", expr) from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, ctx)
    if isinstance(expr, Pow):
        try:
            return _eval(expr.base, ctx) ** expr.exponent
        except OverflowError:  # a Python float base; numpy gives inf instead
            raise EvaluationError("overflow", expr) from None
    left = _eval(expr.left, ctx)
    right = _eval(expr.right, ctx)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if np.any(right == 0):
        raise EvaluationError("division by zero", expr)
    out = left / right
    if not np.all(np.isfinite(out)):
        raise EvaluationError("non-finite quotient", expr)
    return out


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def pretty_print(expr):
    """Canonical text form; reparsing it reproduces the same tree."""
    return _pp(expr, 0)


def _pp(expr, parent_prec):
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        text = "-" + _pp(expr.operand, 3)
        return "(" + text + ")" if parent_prec >= 3 else text
    if isinstance(expr, Pow):
        base = _pp(expr.base, 4)
        if isinstance(expr.base, Pow):  # grammar does not chain '^'
            base = "(" + base + ")"
        return base + "^" + str(expr.exponent)
    prec = _PRECEDENCE[expr.op]
    left = _pp(expr.left, prec - 1)
    right = _pp(expr.right, prec)  # grammar is left-associative
    text = f"{left} {expr.op} {right}"
    if prec <= parent_prec:
        return "(" + text + ")"
    return text


def _nodes(expr):
    """Every node of the tree, depth first, right subtree before left."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.extend([node.left, node.right])
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Pow):
            stack.append(node.base)


def division_denominators(expr):
    """All denominator subtrees, for singularity screening."""
    return [
        node.right for node in _nodes(expr) if isinstance(node, BinOp) and node.op == "/"
    ]


def o4_invariant(expr):
    """True when ``expr`` depends on P and Q only through P2, PQ and Q2, so
    its integral over the ball is unchanged by any rotation of P and Q."""
    return not any(
        isinstance(node, Var) and node.name in _COORDINATES for node in _nodes(expr)
    )


def _flag(min_abs, sign_change):
    return min_abs < _SCREEN_THRESHOLD or sign_change


@dataclass(frozen=True)
class SingularityReport:
    """Minimum |value| and sign change of each denominator over a scan; a
    denominator is flagged when its minimum drops below ``_SCREEN_THRESHOLD``
    or its sign changes (a zero that the scan straddled)."""

    details: tuple  # (denominator text, min |value|, sign change) per division

    @property
    def flagged(self):
        return any(_flag(min_abs, sign_change) for _, min_abs, sign_change in self.details)

    @property
    def min_abs_denominator(self):
        return min([np.inf, *(min_abs for _, min_abs, _ in self.details)])

    def __str__(self):
        if not self.details:
            return "no divisions: nothing to screen"
        return "\n".join(
            f"[{'FLAG' if _flag(min_abs, sign_change) else 'ok'}] 1/({text}): "
            f"min |den| = {min_abs:.3e}" + (", sign change inside ball" if sign_change else "")
            for text, min_abs, sign_change in self.details
        )


def scan_denominators(expr, ctx):
    """Scan every denominator of ``expr`` over the points bound in ``ctx``.
    Report-only; never raises for singular integrands."""
    details = []
    for den in division_denominators(expr):
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(_eval(den, ctx), dtype=float)
        sign_change = bool((values > 0).any() and (values < 0).any())
        details.append((pretty_print(den), float(np.abs(values).min()), sign_change))
    return SingularityReport(tuple(details))
