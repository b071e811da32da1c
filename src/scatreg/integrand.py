"""A small expression language for rational integrands F(P, Q).

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ['^' int]
    atom   := number | ident | '(' expr ')'

Identifiers are the coordinates p0..p3, q0..q3, the mass m, the cutoff L, and
the built-in Euclidean contractions P2 = p0^2+p1^2+p2^2+p3^2, Q2 likewise, and
PQ = p0*q0+p1*q1+p2*q2+p3*q3.  Exponents must be integer literals; there are
no transcendental functions, so every expression is rational.  A factor takes
at most one exponent, so ``-x^2`` is ``-(x^2)`` and ``-x^2^3`` is refused, as
``x^2^3`` is.  A tree more than 100 nodes deep, or more than 100 nested
parentheses (``_MAX_DEPTH``), is refused at the operator or parenthesis that
passes the limit.

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
    """Parse failure, carrying the offset (in characters, not UTF-8 bytes) and
    the tokens expected there."""

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
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)|$)"  # '$' ends the scan in one step after trailing whitespace
)


def _tokenize(source):
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:
            break
        if kind == "bad":
            raise IntegrandSyntaxError(f"unexpected character '{match[kind]}'", match.start(kind))
        tokens.append((kind, match[kind], match.start(kind)))
    tokens.append(("end", "", len(source)))
    return tokens


# the deepest tree, and the deepest nesting of parentheses, that parse: the
# parser takes four frames per '(', and evaluating or printing a tree one per
# level, so all three stay well inside Python's default recursion limit
_MAX_DEPTH = 100


class _Parser:
    """Each rule returns its tree and the tree's depth in nodes."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0  # the '(' open at the current token

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, symbols):
        """Take the next token and return its text if it is an operator in ``symbols``."""
        kind, text, _ = self.tokens[self.i]
        if kind == "op" and text in symbols:
            self.i += 1
            return text
        return None

    def unexpected(self, token, expected):
        _, text, offset = token
        message = f"unexpected token '{text or 'end of input'}'"
        return IntegrandSyntaxError(message, offset, expected)

    def within(self, depth, offset):
        """``depth``, refused at ``offset`` if it passes ``_MAX_DEPTH``."""
        if depth > _MAX_DEPTH:
            raise IntegrandSyntaxError(f"expression deeper than {_MAX_DEPTH} levels", offset)
        return depth

    def chain(self, symbols, operand, *args):
        """``operand(*args)`` repeated, joined by the operators in ``symbols``,
        grouped to the left."""
        node, depth = operand(*args)
        while op := self.accept(symbols):
            offset = self.tokens[self.i - 1][2]
            right, right_depth = operand(*args)
            node, depth = BinOp(op, node, right), self.within(max(depth, right_depth) + 1, offset)
        return node, depth

    def expr(self):
        # terms joined by + and -, each a chain of factors joined by * and /;
        # chain calls chain with no frame between, so each '(' costs four frames
        return self.chain("+-", self.chain, "*/", self.factor)

    def factor(self):
        """A factor, with its atom read in place.  Its unary minuses are counted
        rather than recursed into, and negate the rest: -x^2 is -(x^2)."""
        first = self.i
        while self.accept("-"):
            pass
        minuses = range(first, self.i)
        token = kind, text, offset = self.take()
        if kind == "num":
            node, depth = Num(float(text)), 1
        elif kind == "ident":
            if text not in VARIABLES and text not in BUILTINS:
                raise IntegrandSyntaxError(f"unknown identifier '{text}'", offset)
            node, depth = Var(text), 1
        elif kind == "op" and text == "(":
            self.nesting = self.within(self.nesting + 1, offset)
            node, depth = self.expr()
            self.nesting -= 1
            if not self.accept(")"):
                raise self.unexpected(self.tokens[self.i], (")",))
        else:
            raise self.unexpected(token, ("number", "identifier", "(", "-"))
        if self.accept("^"):
            offset = self.tokens[self.i - 1][2]
            kind, text, exponent_offset = self.take()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise IntegrandSyntaxError(
                    "exponent must be an integer literal", exponent_offset, expected=("integer",)
                )
            node, depth = Pow(node, int(text)), self.within(depth + 1, offset)
        for i in reversed(minuses):
            node, depth = Neg(node), self.within(depth + 1, self.tokens[i][2])
        return node, depth


def parse_integrand(source):
    """Parse ``source`` into an expression tree."""
    parser = _Parser(_tokenize(source))
    node, _ = parser.expr()
    kind, text, offset = parser.tokens[parser.i]
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
    """Evaluate the tree on the scalars or arrays bound in ``ctx``; a ValueError if too deep."""
    result = _eval_quietly(expr, ctx)
    if not np.all(np.isfinite(result)):
        raise EvaluationError("non-finite result", expr)
    return result


def _eval_quietly(expr, ctx):
    """``_eval`` with overflow left as non-finite values, not numpy warnings; a
    tree too deep for Python's recursion limit is a ValueError, not printed."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _eval(expr, ctx)
    except RecursionError:
        raise ValueError("expression too deep to evaluate") from None


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
    """Canonical text form, which reparses to the same tree; a ValueError if too deep."""
    try:
        return _pp(expr, 0)
    except RecursionError:
        raise ValueError("expression too deep to print") from None


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
        values = np.asarray(_eval_quietly(den, ctx), dtype=float)
        sign_change = bool((values > 0).any() and (values < 0).any())
        details.append((pretty_print(den), float(np.abs(values).min()), sign_change))
    return SingularityReport(tuple(details))
