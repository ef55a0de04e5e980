"""Compile-time constant evaluation.

Signed 64-bit arithmetic: any intermediate outside [-2^63, 2^63) is
E_CONST_OVERFLOW. Division and modulo truncate toward zero (matching the
simulator and the SMT encoding); a constant zero divisor is E_CONST_DIV0.

`const_value_of` gives a register's reset value, as the simulator and the
BMC unrolling both start from it.
"""

from __future__ import annotations

from .ast_nodes import (
    Binary, BoolLit, EnumRef, Expr, IfExpr, IntLit, NameRef, Ternary, Unary,
)
from .diagnostics import CompileError, err
from .types import SInt, Type, Vec

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def _check64(value: int, expr: Expr) -> int:
    if value < I64_MIN or value > I64_MAX:
        raise CompileError(err("E_CONST_OVERFLOW",
                               "constant expression overflows signed 64-bit range",
                               expr.span))
    return value


def div_trunc(a: int, b: int) -> int:
    """C-style truncating division (rounds toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def rem_trunc(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def eval_const(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate a compile-time expression over params and literals."""
    if isinstance(expr, IntLit):
        return _check64(expr.value, expr)
    if isinstance(expr, BoolLit):
        return 1 if expr.value else 0
    if isinstance(expr, NameRef):
        if expr.name not in env:
            raise CompileError(err("E_UNBOUND_PARAM",
                                   f"`{expr.name}` is not a param in scope", expr.span))
        value = env[expr.name]
        if not isinstance(value, int):
            raise CompileError(err("E_UNBOUND_PARAM",
                                   f"`{expr.name}` is a type param, not a const", expr.span))
        return value
    if isinstance(expr, Unary):
        v = eval_const(expr.operand, env)
        if expr.op == "-":
            return _check64(-v, expr)
        if expr.op == "~":
            return _check64(~v, expr)
        if expr.op == "!":
            return 0 if v else 1
    if isinstance(expr, (Ternary, IfExpr)):
        cond = eval_const(expr.cond, env)
        return eval_const(expr.then if cond else expr.els, env)
    if isinstance(expr, Binary):
        if expr.op in ("&&", "||", "implies"):
            a = eval_const(expr.lhs, env)
            if expr.op == "&&":
                return 1 if (a and eval_const(expr.rhs, env)) else 0
            if expr.op == "||":
                return 1 if (a or eval_const(expr.rhs, env)) else 0
            return 1 if (not a or eval_const(expr.rhs, env)) else 0
        a = eval_const(expr.lhs, env)
        b = eval_const(expr.rhs, env)
        op = expr.op
        if op in ("+", "+%"):
            return _check64(a + b, expr)
        if op in ("-", "-%"):
            return _check64(a - b, expr)
        if op in ("*", "*%"):
            return _check64(a * b, expr)
        if op in ("/", "%"):
            if b == 0:
                raise CompileError(err("E_CONST_DIV0",
                                       "constant division by zero", expr.span))
            return _check64(div_trunc(a, b) if op == "/" else rem_trunc(a, b), expr)
        if op == "<<":
            if b < 0 or b > 63:
                raise CompileError(err("E_CONST_OVERFLOW",
                                       f"shift amount {b} out of range 0..63", expr.span))
            return _check64(a << b, expr)
        if op == ">>":
            if b < 0 or b > 63:
                raise CompileError(err("E_CONST_OVERFLOW",
                                       f"shift amount {b} out of range 0..63", expr.span))
            return a >> b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
    raise CompileError(err("E_NONCONST_GENERATE",
                           "expression is not a compile-time constant", expr.span))


def clog2(n: int) -> int:
    """ceil(log2(n)) with clog2(1) == 0."""
    assert n >= 1
    return (n - 1).bit_length()


def wrap_signed(v: int, width: int) -> int:
    v &= (1 << width) - 1
    if v >= (1 << (width - 1)):
        v -= 1 << width
    return v


def zero_of(ty: Type) -> object:
    if isinstance(ty, Vec):
        return (zero_of(ty.elem),) * ty.size
    return 0


def const_value_of(e: Expr, ty: Type) -> object:
    """Reset values are constants; Vec resets zero-fill."""
    if isinstance(ty, Vec):
        return zero_of(ty)
    if isinstance(e, IntLit):
        return wrap_signed(e.value, ty.width) if isinstance(ty, SInt) else e.value
    if isinstance(e, BoolLit):
        return 1 if e.value else 0
    if isinstance(e, EnumRef):
        return e.ty.variants.index(e.variant)
    if isinstance(e, Unary) and e.op == "-" and isinstance(e.operand, IntLit):
        return wrap_signed(-e.operand.value, ty.width)
    raise AssertionError(f"non-constant reset value {e!r}")
