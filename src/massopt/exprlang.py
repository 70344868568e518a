"""Tiny arithmetic expression language for costs and sources.

Grammar (usual precedence)::

    expr     := sum ('if' VAR '>=' NUMBER 'else' expr)?
    sum      := product (('+' | '-') product)*
    product  := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' unary)?          # right associative
    atom     := NUMBER | 'inf' | VAR | '(' expr ')'
    NUMBER   := digits with an optional point and an optional exponent

The grammar is the specification: Python's parser reads the text (``^`` as
``**``) and :func:`_parse` admits only these nodes.  ``007`` is refused, as
in Python, and so are non-ASCII text and trees deeper than ``_MAX_DEPTH``.

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

import ast
import math
import re
import warnings

import numpy as np

from .errors import ExprError

_MAX_DEPTH = 200
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# NUMBER: the longest run of digits, points and signed exponent letters
_NUMBER = re.compile(r"(?:[0-9.]|[eE][+-]?)+")
# between a guard's branches: their parentheses and 'if VAR >= NUMBER else'
_GUARD = re.compile(r"[ )]*if *(?!inf\b)[A-Za-z_]\w* *>= *[0-9.](?:[0-9.]|[eE][+-]?)* *else[ (]*")
# Python's power, its comments (absent from its tree) and all but printable ASCII
_REFUSED = re.compile(r"\*\*|#|[^ -~]")


def _parse(text, variables):
    """Tuple tree of ``text``: Python's parser reads it, the grammar above admits it."""
    line = "".join(" " if ch.isspace() else ch for ch in text)
    refused = _REFUSED.search(line)
    if refused:
        raise ExprError("unexpected %r at position %d" % (refused.group(), refused.start()))
    lead = len(line) - len(line.lstrip())
    src = line[lead:].replace("^", "**")

    def at(col):  # the position in text of column col of src
        return lead + col - src.count("**", 0, col)

    def tree(node, depth):
        where = at(node.col_offset)
        if depth > _MAX_DEPTH:
            raise ExprError("expression nests deeper than %d at position %d" % (_MAX_DEPTH, where))
        run = isinstance(node, ast.Constant) and _NUMBER.match(src, node.col_offset)
        if run and run.end() == node.end_col_offset:
            return ("num", float(run.group()))
        if isinstance(node, ast.Name):
            if node.id != "inf" and node.id not in variables:
                raise ExprError("unknown variable %r at position %d" % (node.id, where))
            return ("num", math.inf) if node.id == "inf" else ("var", node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", tree(node.operand, depth + 1))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], tree(node.left, depth + 1),
                    tree(node.right, depth + 1))
        if isinstance(node, ast.IfExp):
            cmp = node.test  # 'VAR >= NUMBER' once the text around it matches
            if not _GUARD.fullmatch(src, node.body.end_col_offset, node.orelse.col_offset):
                raise ExprError("expected 'VAR >= NUMBER' at position %d" % at(cmp.col_offset))
            return ("guard", tree(cmp.left, depth + 1)[1], tree(cmp.comparators[0], depth + 1)[1],
                    tree(node.body, depth + 1), tree(node.orelse, depth + 1))
        raise ExprError("unexpected %r at position %d"
                        % (text[where:at(node.end_col_offset)], where))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # such as "invalid decimal literal" for '2if'
            body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        raise ExprError("%s at position %d" % (exc.msg, at((exc.offset or 1) - 1))) from None
    except (RecursionError, MemoryError):  # the parser's own limits on nesting
        raise ExprError("expression nests deeper than %d" % _MAX_DEPTH) from None
    return tree(body, 1)


class Expression:
    """Parsed expression; evaluates vectorized over the declared variables."""

    def __init__(self, text, variables=("t",)):
        self.text = text
        self.variables = tuple(variables)
        self.ast = _parse(text, self.variables)

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

