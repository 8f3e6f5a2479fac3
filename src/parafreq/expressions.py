"""Minimal arithmetic expression grammar for experiment configs.

Supported: ``+ - * /``, parentheses, ``**`` powers, ``sin``, ``cos``,
``exp``, numeric literals, ``pi``, and the coordinate names declared by the
caller (``x``, ``y``, ``t``).  Every numeric literal is a float64; one too
large for a float is an error.  Parsing rides on the Python ``ast`` module
with a strict whitelist; anything else is rejected with the offending
position.  One walk over the tree checks it and builds the evaluator, a
closure per node.
:func:`evaluate_on_grid` samples an expression on a geometry's nodes, or on
the nodes at every time of a grid.
"""

from __future__ import annotations

import ast

import numpy as np

from .core import row_chunks
from .errors import ExpressionError

# the coordinate names, in axis order
COORDINATES = ("x", "y")

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi}
_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}
_UNARY = {ast.UAdd: lambda v: v, ast.USub: np.negative}


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile an expression string into ``f(**variables) -> ndarray``.

    Raises :class:`ExpressionError` naming the expression and position on any
    syntax error or use of a name outside the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string", repr(text))
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError("syntax error", text, exc.offset) from None

    def build(node: ast.AST):
        """``node`` checked against the grammar, pre-order, and its evaluator ``f(env)``."""
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            op, operand = _UNARY[type(node.op)], build(node.operand)
            return lambda env: op(operand(env))
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _FUNCTIONS
                or node.keywords
                or len(node.args) != 1
            ):
                raise ExpressionError(
                    "only sin(...), cos(...), exp(...) calls are allowed",
                    text,
                    node.col_offset,
                )
            fn, arg = _FUNCTIONS[node.func.id], build(node.args[0])
            return lambda env: fn(arg(env))
        if isinstance(node, ast.Name):
            name = node.id
            if name in variables:
                return lambda env: env[name]
            if name in _CONSTANTS:
                value = _CONSTANTS[name]
                return lambda env: value
            raise ExpressionError(
                f"unknown name {name!r} (allowed: {', '.join(variables)})", text, node.col_offset
            )
        if isinstance(node, ast.Constant):
            # bool is an int subclass, so True and False need their own test
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ExpressionError(
                    "only numeric literals are allowed", text, node.col_offset
                )
            # a float64, so that 2**-1 and 2**64 follow float arithmetic, not int64's
            try:
                value = float(node.value)
            except OverflowError:  # an integer beyond the float range
                value = np.inf
            if not np.isfinite(value):
                raise ExpressionError(
                    "numeric literal is too large for a float", text, node.col_offset
                )
            return lambda env: value
        raise ExpressionError(
            f"disallowed syntax {type(node).__name__}", text, getattr(node, "col_offset", None)
        )

    evaluate = build(tree)

    def compiled(**env):
        with np.errstate(all="ignore"):
            out = evaluate(env)
        out = np.asarray(out, dtype=float)
        if not np.all(np.isfinite(out)):
            raise ExpressionError("expression produced non-finite values", text)
        return out

    compiled.source = text
    return compiled


def evaluate_on_grid(
    text: str, coords: np.ndarray, times: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate an expression on the nodes, or on the whole (samples, nodes) space-time grid.

    The names are the coordinates (``x``, then ``y``), plus ``t`` when
    ``times`` is given.  The coordinates go in as (1, nodes) rows and the
    times as a (samples, 1) column, so a subexpression of the coordinates
    alone is computed once per chunk of time rows, not once per sample; a
    chunk holds at most ``core.CHUNK_VALUES`` values.  Returns the (nodes,)
    values without ``times``, and otherwise ``out``, the (samples, nodes)
    values (allocated when not given).
    """
    names = COORDINATES[: coords.shape[1]]
    fn = compile_expression(text, names if times is None else names + ("t",))
    env = {name: coords[None, :, i] for i, name in enumerate(names)}
    rows = 1 if times is None else times.size
    if out is None:
        out = np.empty((rows, coords.shape[0]))
    for chunk in row_chunks(rows, coords.shape[0]):
        out[chunk] = fn(**env) if times is None else fn(**env, t=times[chunk, None])
    return out[0] if times is None else out
