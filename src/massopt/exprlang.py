"""Tiny arithmetic expression language for costs and sources.

Grammar (recursive descent, usual precedence)::

    expr     := sum ('if' VAR '>=' NUMBER 'else' expr)?
    sum      := product (('+' | '-') product)*
    product  := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' unary)?          # right associative
    atom     := NUMBER | 'inf' | VAR | '(' expr ')'

Variables are declared by the caller (``t`` for costs, ``x``/``y``/``r``
for sources).  Evaluation is numpy-vectorized and works on extended reals:
``inf`` is IEEE infinity and arithmetic with it saturates.

:meth:`Expression.derivative` also gives the right derivative in one
variable, by forward-mode differentiation over the syntax tree; a call
takes the value half of the same walk.

Division by zero is tolerated in exactly one place: a term like ``1/t``
evaluated at ``t == 0`` yields ``+inf`` (the cost is extended-valued at the
domain edge).  A vanishing denominator anywhere else raises :class:`ExprError`.
"""

import math

import numpy as np

from .errors import ExprError

_TOKEN_OPS = set("+-*/^()")
_KEYWORDS = {"if", "else", "inf"}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == ">":
            if text[i : i + 2] == ">=":
                tokens.append((">=", ">=", i))
                i += 2
                continue
            raise ExprError("expected '>=' at position %d" % i)
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExprError("bad number %r at position %d" % (text[i:j], i)) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append((word, word, i))
            else:
                tokens.append(("var", word, i))
            i = j
            continue
        raise ExprError("unexpected character %r at position %d" % (ch, i))
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError("expected %r, found %r at position %d" % (kind, tok[1], tok[2]))
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError("unexpected token %r at position %d" % (tok[1], tok[2]))
        return node

    def expr(self):
        body = self.sum()
        if self.peek()[0] == "if":
            self.take("if")
            var = self.take("var")
            if var[1] not in self.variables:
                raise ExprError("unknown variable %r at position %d" % (var[1], var[2]))
            self.take(">=")
            cut = self.take("num")[1]
            self.take("else")
            other = self.expr()
            return ("guard", var[1], cut, body, other)
        return body

    def sum(self):
        node = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.product()
            node = (op, node, rhs)
        return node

    def product(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return ("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1])
        if tok[0] == "inf":
            self.take()
            return ("num", math.inf)
        if tok[0] == "var":
            self.take()
            if tok[1] not in self.variables:
                raise ExprError("unknown variable %r at position %d" % (tok[1], tok[2]))
            return ("var", tok[1])
        if tok[0] == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ExprError("unexpected token %r at position %d" % (tok[1], tok[2]))


class Expression:
    """Parsed expression; evaluates vectorized over the declared variables."""

    def __init__(self, text, variables=("t",)):
        self.text = text
        self.variables = tuple(variables)
        self.ast = _Parser(_tokenize(text), self.variables).parse()

    def __repr__(self):
        return "Expression(%r)" % self.text

    def __call__(self, **values):
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ExprError("missing value for variable(s) %s" % ", ".join(missing))
        arrs = {k: np.asarray(v, dtype=float) for k, v in values.items()}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._dual(self.ast, arrs, None)[0]

    def derivative(self, var, **values):
        """Value and right derivative in ``var``, by forward mode over the AST.

        Returns ``(value, slope)``.  The value is the one :meth:`__call__`
        gives.  At a guard's cut the ``>=`` branch is taken, so a piecewise
        expression gets its right derivative there.
        """
        arrs = {k: np.asarray(v, dtype=float) for k, v in values.items()}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._dual(self.ast, arrs, var)

    def _dual(self, node, values, var):
        """``(value, derivative in var)`` of a node; the derivative is 0 for ``var=None``."""
        op = node[0]
        if op == "num":
            return np.asarray(node[1], dtype=float), 0.0
        if op == "var":
            return values[node[1]], float(node[1] == var)
        if op == "neg":
            a, da = self._dual(node[1], values, var)
            return -a, -da
        if op == "guard":
            _, gvar, cut, body, other = node
            cond = values[gvar] >= cut
            (a, da), (b, db) = self._dual(body, values, var), self._dual(other, values, var)
            return np.where(cond, a, b), np.where(cond, da, db)
        (a, da), (b, db) = self._dual(node[1], values, var), self._dual(node[2], values, var)
        out = self._apply(op, a, b, values)
        if op == "+":
            return out, da + db
        if op == "-":
            return out, da - db
        if op == "*":
            return out, da * b + a * db
        if op == "/":
            return out, (da - out * db) / b
        # a^b: the logarithmic term only where the exponent varies
        return out, b * np.power(a, b - 1.0) * da + np.where(db == 0.0, 0.0, out * np.log(a) * db)

    def _apply(self, op, a, b, values):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            out = a * b
            # saturate 0 * inf -> 0 is wrong for costs; keep nan detection
            if np.any(np.isnan(out)):
                raise ExprError("indeterminate 0*inf in %r" % self.text)
            return out
        if op == "/":
            return self._divide(a, b, values)
        if op == "^":
            out = np.power(np.asarray(a, dtype=float), b)
            if np.any(np.isnan(out)):
                raise ExprError("invalid power (negative base?) in %r" % self.text)
            return out
        raise ExprError("internal: unknown node %r" % (op,))

    def _divide(self, a, b, values):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        zero = b == 0.0
        if not np.any(zero):
            return a / b
        # A zero denominator is only legal at the edge of the cost domain,
        # where reciprocal terms like 1/t blow up to +inf.
        at_edge = np.zeros(zero.shape, dtype=bool)
        for var in self.variables:
            if var in values:
                at_edge |= np.broadcast_to(np.asarray(values[var]) == 0.0, zero.shape)
        if np.any(zero & ~at_edge):
            raise ExprError("division by zero away from the domain edge in %r" % self.text)
        out = np.empty(zero.shape, dtype=float)
        np.divide(a, b, out=out, where=~zero)
        out[zero] = np.where(a[zero] >= 0.0, math.inf, -math.inf)
        return out

