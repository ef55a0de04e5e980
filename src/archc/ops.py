"""The Arch operator table: one row per operator the parser accepts, and
the one place where an operator's meaning is written down.

Each reader takes its per-operator facts from the row (`ArchOp`): the
parser its token and precedence, the type checker its rule group,
`consteval.eval_const` its value, the simulator its Python spelling, the
BMC unrolling its QF_BV operator (whose meaning is `smt.terms.OPS`) and
the SV emitter its spelling and SV precedence (IEEE 1800-2017 Table 11-2).
What a reader does around the row is its own: the simulator's evaluation
order, aborts and masks; the SV emitter's size casts on the wrapping
operators and `(!a || b)` for `a implies b`; consteval's 64-bit range,
zero-divisor and shift-range errors; the unrolling's extension of the
wrapping operators' operands.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional

from .tokens import TK

# the groups whose operators give a Bool
BOOL_GROUPS = ("eq", "rel", "logic")


class ArchOp(NamedTuple):
    token: TK              # the parser's token kind
    level: Optional[int]   # binary precedence, loosest 0, left-associative; `implies`
    # at -1 is right-associative; None for a prefix operator, tighter than any binary
    group: str             # type rule: arith, div (arith that divides), wrap, shift,
    # bitwise, eq, rel, logic; neg, bitnot, not for the prefix operators
    value: Callable[..., int]  # on unbounded Python ints; `/` and `%` truncate
    py: str                # generated-Python template over `{a}` and `{b}`
    smt: tuple[str, str]   # QF_BV operator on (unsigned, signed) operands
    sv: tuple[str, str]    # SV spelling on (unsigned, signed) operands
    sv_prec: int           # SV precedence, loosest 1


def div_trunc(a: int, b: int) -> int:
    """C-style truncating division (rounds toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def rem_trunc(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _op(token: TK, level: Optional[int], group: str, value: Callable[..., int], py: str,
        smt: str | tuple[str, str], sv: str | tuple[str, str], sv_prec: int) -> ArchOp:
    """A row; an `smt` or `sv` given as one name serves both signednesses."""
    return ArchOp(token, level, group, value, py,
                  (smt, smt) if isinstance(smt, str) else smt,
                  (sv, sv) if isinstance(sv, str) else sv, sv_prec)


BINARY: dict[str, ArchOp] = {
    "implies": _op(TK.KW_IMPLIES, -1, "logic", lambda a, b: int(not a or bool(b)),
                   "not {a} or {b}", "=>", "||", 3),
    "||": _op(TK.PIPEPIPE, 0, "logic", lambda a, b: int(bool(a or b)), "{a} or {b}",
              "or", "||", 3),
    "&&": _op(TK.AMPAMP, 1, "logic", lambda a, b: int(bool(a and b)), "{a} and {b}",
              "and", "&&", 4),
    "|": _op(TK.PIPE, 2, "bitwise", operator.or_, "{a} | {b}", "bvor", "|", 5),
    "^": _op(TK.CARET, 2, "bitwise", operator.xor, "{a} ^ {b}", "bvxor", "^", 6),
    "&": _op(TK.AMP, 2, "bitwise", operator.and_, "{a} & {b}", "bvand", "&", 7),
    "==": _op(TK.EQ, 3, "eq", lambda a, b: int(a == b), "{a} == {b}", "=", "==", 8),
    "!=": _op(TK.NE, 3, "eq", lambda a, b: int(a != b), "{a} != {b}", "distinct", "!=", 8),
    "<": _op(TK.LT, 4, "rel", lambda a, b: int(a < b), "{a} < {b}", ("bvult", "bvslt"), "<", 9),
    "<=": _op(TK.LE, 4, "rel", lambda a, b: int(a <= b), "{a} <= {b}", ("bvule", "bvsle"),
              "<=", 9),
    ">": _op(TK.GT, 4, "rel", lambda a, b: int(a > b), "{a} > {b}", ("bvugt", "bvsgt"), ">", 9),
    ">=": _op(TK.GE, 4, "rel", lambda a, b: int(a >= b), "{a} >= {b}", ("bvuge", "bvsge"),
              ">=", 9),
    "<<": _op(TK.SHL, 5, "shift", operator.lshift, "{a} << {b}", "bvshl", "<<", 10),
    # Arch's `>>` on SInt is arithmetic; SV's `>>` is always logical
    ">>": _op(TK.SHR, 5, "shift", operator.rshift, "{a} >> {b}", ("bvlshr", "bvashr"),
              (">>", ">>>"), 10),
    "+": _op(TK.PLUS, 6, "arith", operator.add, "{a} + {b}", "bvadd", "+", 11),
    "-": _op(TK.MINUS, 6, "arith", operator.sub, "{a} - {b}", "bvsub", "-", 11),
    "+%": _op(TK.PLUS_WRAP, 6, "wrap", operator.add, "{a} + {b}", "bvadd", "+", 11),
    "-%": _op(TK.MINUS_WRAP, 6, "wrap", operator.sub, "{a} - {b}", "bvsub", "-", 11),
    "*": _op(TK.STAR, 7, "arith", operator.mul, "{a} * {b}", "bvmul", "*", 12),
    "/": _op(TK.SLASH, 7, "div", div_trunc, "{a} // {b}", ("bvudiv", "bvsdiv"), "/", 12),
    "%": _op(TK.PERCENT, 7, "div", rem_trunc, "{a} % {b}", ("bvurem", "bvsrem"), "%", 12),
    "*%": _op(TK.STAR_WRAP, 7, "wrap", operator.mul, "{a} * {b}", "bvmul", "*", 12),
}

UNARY: dict[str, ArchOp] = {
    "-": _op(TK.MINUS, None, "neg", operator.neg, "-{a}", "bvneg", "-", 13),
    "~": _op(TK.TILDE, None, "bitnot", operator.invert, "~{a}", "bvnot", "~", 13),
    "!": _op(TK.BANG, None, "not", lambda a: int(not a), "not {a}", "not", "!", 13),
}
