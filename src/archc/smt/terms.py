"""Word-level term graph for the QF_BV fragment the solver understands.

Sorts: (_ BitVec w) with w > 0, and Bool (width BOOL_SORT = 0 internally;
boolean structure stays word-level until bit-blasting).

`OPS` is the one table of the operators: for each, its argument and index
counts, its sort rule and its value under SMT-LIB 2.6 (division and
remainder by zero included). The parser, `TermBuilder.app`, the solver's
model evaluation and `term_text` read it; the bit-blaster's circuits and
the interval pass's rules are checked against its values by the tests.

A constant is free (`TermBuilder.declare`, SMT-LIB `declare-const`) or
defined (`TermBuilder.define`, a 0-ary `define-fun`): a defined var carries
its value as `definition`, which may mention only constants made before
it, so `TermBuilder.defined` is in an evaluation order."""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional

from .sexpr import SmtParseError, numeral, parse_bv_literal

BOOL_SORT = 0  # width marker for Bool terms


class Term:
    """One term node. Terms compare and hash by identity (the class
    defines no `__eq__`): the interval, bit-blast and model caches key on
    the term itself, which also keeps every cached term alive."""

    def __init__(self, op: str,  # var | const | an OPS key
                 width: int,     # BOOL_SORT for Bool
                 args: tuple[Term, ...] = (),
                 value: int = 0,  # for const; (hi << 16) | lo for extract
                 name: str = "",  # for var
                 definition: Optional[Term] = None,  # for a defined var: its value
                 ) -> None:
        # One store per field: this runs for every term built, and a tuple
        # assignment of four or more fields builds and unpacks a tuple.
        self.op = op
        self.width = width
        self.args = args
        self.value = value
        self.name = name
        self.definition = definition

    def __repr__(self) -> str:
        if self.op == "var":
            return f"Var({self.name})"
        if self.op == "const":
            return f"Const({self.value}:{self.width})"
        return f"({self.op} {' '.join(map(repr, self.args))})"


class Op(NamedTuple):
    arity: int | None  # None: `and`/`or`, at least one argument
    indices: int       # (_ op i...) index count: 2 for extract, 1 for the extensions
    sort: str          # sort rule, see `TermBuilder.app`
    value: Callable[[Term, list[int]], int]  # (term, argument values) -> value


def _signed(x: int, w: int) -> int:
    return x - (1 << w) if x >> (w - 1) else x


def _mask(t: Term) -> int:
    return (1 << t.width) - 1


def _sdiv(t: Term, a: list[int]) -> int:
    # SMT-LIB: the unsigned division of the magnitudes, the sign fixed up after
    x, y = _signed(a[0], t.width), _signed(a[1], t.width)
    q = _mask(t) if y == 0 else abs(x) // abs(y)
    return (-q if (x < 0) != (y < 0) else q) & _mask(t)


def _srem(t: Term, a: list[int]) -> int:
    x, y = _signed(a[0], t.width), _signed(a[1], t.width)
    r = abs(x) if y == 0 else abs(x) % abs(y)
    return (-r if x < 0 else r) & _mask(t)


def _signed_cmp(compare):
    return lambda t, a: int(compare(*(_signed(x, t.args[0].width) for x in a)))


OPS: dict[str, Op] = {
    "not": Op(1, 0, "bool", lambda t, a: 1 - a[0]),
    "and": Op(None, 0, "bool", lambda t, a: int(all(a))),
    "or": Op(None, 0, "bool", lambda t, a: int(any(a))),
    "xor": Op(2, 0, "bool", lambda t, a: a[0] ^ a[1]),
    "=>": Op(2, 0, "bool", lambda t, a: int(not a[0] or a[1])),
    "=": Op(2, 0, "eq", lambda t, a: int(a[0] == a[1])),
    "distinct": Op(2, 0, "eq", lambda t, a: int(a[0] != a[1])),
    "ite": Op(3, 0, "ite", lambda t, a: a[1] if a[0] else a[2]),
    "bvnot": Op(1, 0, "bv", lambda t, a: ~a[0] & _mask(t)),
    "bvneg": Op(1, 0, "bv", lambda t, a: -a[0] & _mask(t)),
    "bvadd": Op(2, 0, "bv", lambda t, a: (a[0] + a[1]) & _mask(t)),
    "bvsub": Op(2, 0, "bv", lambda t, a: (a[0] - a[1]) & _mask(t)),
    "bvmul": Op(2, 0, "bv", lambda t, a: (a[0] * a[1]) & _mask(t)),
    "bvudiv": Op(2, 0, "bv", lambda t, a: a[0] // a[1] if a[1] else _mask(t)),
    "bvurem": Op(2, 0, "bv", lambda t, a: a[0] % a[1] if a[1] else a[0]),
    "bvsdiv": Op(2, 0, "bv", _sdiv),
    "bvsrem": Op(2, 0, "bv", _srem),
    "bvand": Op(2, 0, "bv", lambda t, a: a[0] & a[1]),
    "bvor": Op(2, 0, "bv", lambda t, a: a[0] | a[1]),
    "bvxor": Op(2, 0, "bv", lambda t, a: a[0] ^ a[1]),
    "bvshl": Op(2, 0, "bv", lambda t, a: (a[0] << a[1]) & _mask(t) if a[1] < t.width else 0),
    "bvlshr": Op(2, 0, "bv", lambda t, a: a[0] >> a[1] if a[1] < t.width else 0),
    "bvashr": Op(2, 0, "bv", lambda t, a: _signed(a[0], t.width) >> min(a[1], t.width) & _mask(t)),
    "bvult": Op(2, 0, "cmp", lambda t, a: int(a[0] < a[1])),
    "bvule": Op(2, 0, "cmp", lambda t, a: int(a[0] <= a[1])),
    "bvugt": Op(2, 0, "cmp", lambda t, a: int(a[0] > a[1])),
    "bvuge": Op(2, 0, "cmp", lambda t, a: int(a[0] >= a[1])),
    "bvslt": Op(2, 0, "cmp", _signed_cmp(operator.lt)),
    "bvsle": Op(2, 0, "cmp", _signed_cmp(operator.le)),
    "bvsgt": Op(2, 0, "cmp", _signed_cmp(operator.gt)),
    "bvsge": Op(2, 0, "cmp", _signed_cmp(operator.ge)),
    "concat": Op(2, 0, "concat", lambda t, a: a[0] << t.args[1].width | a[1]),
    "extract": Op(1, 2, "extract", lambda t, a: a[0] >> (t.value & 0xFFFF) & _mask(t)),
    "zero_extend": Op(1, 1, "extend", lambda t, a: a[0]),
    "sign_extend": Op(1, 1, "extend", lambda t, a: _signed(a[0], t.args[0].width) & _mask(t)),
}


def sort_text(width: int) -> str:
    return "Bool" if width == BOOL_SORT else f"(_ BitVec {width})"


def check_arity(what: str, got: int, want: int) -> None:
    if got != want:
        raise SmtParseError(f"wrong number of arguments to {what}: {got}")


class TermBuilder:
    def __init__(self) -> None:
        self.vars: dict[str, Term] = {}
        self.constants: list[Term] = []  # every constant, in order made
        self.assertions: list[Term] = []
        self.defined: list[Term] = []   # `define`d constants, in order

    def declare(self, name: str, width: int) -> Term:
        if name in self.vars:
            raise SmtParseError(f"redeclared {name}")
        t = Term("var", width, name=name)
        self.vars[name] = t
        self.constants.append(t)
        return t

    def const(self, value: int, width: int) -> Term:
        return Term("const", width, value=value & ((1 << width) - 1) if width else (1 if value else 0))

    def define(self, name: str, width: int, definition: Term) -> Term:
        """Declare `name` as a constant whose value is `definition`. The
        term may mention only constants declared earlier, so the
        declaration order is an evaluation order."""
        t = self.declare(name, width)
        t.definition = definition
        self.defined.append(t)
        return t

    def build(self, sx) -> Term:
        lit = parse_bv_literal(sx)
        if lit is not None:
            return self.const(lit[0], lit[1])
        if isinstance(sx, str):
            if sx == "true":
                return Term("const", BOOL_SORT, value=1)
            if sx == "false":
                return Term("const", BOOL_SORT, value=0)
            name = sx[1:-1] if sx.startswith("|") else sx
            if name not in self.vars:
                raise SmtParseError(f"unknown symbol {sx}")
            return self.vars[name]
        if not isinstance(sx, list) or not sx:
            raise SmtParseError(f"bad term {sx!r}")
        head = sx[0]
        if isinstance(head, list):
            # ((_ extract hi lo) t) / ((_ zero_extend n) t) / ((_ sign_extend n) t)
            if len(head) >= 2 and head[0] == "_" and isinstance(head[1], str) \
                    and head[1] in OPS and OPS[head[1]].indices:
                kind = head[1]
                check_arity(f"(_ {kind})", len(head) - 2, OPS[kind].indices)
                check_arity(kind, len(sx) - 1, 1)
                return self.app(kind, [self.build(sx[1])], *map(numeral, head[2:]))
            raise SmtParseError(f"unsupported head {head!r}")
        entry = OPS.get(head)
        if entry is None or entry.indices:
            raise SmtParseError(f"unsupported operator {head!r}")
        n = len(sx) - 1
        if n == 0 or entry.arity and n != entry.arity:
            check_arity(head, n, entry.arity or 1)
        return self.app(head, [self.build(a) for a in sx[1:]])

    def app(self, op: str, args: list[Term], *indices: int) -> Term:
        """The term `(op args...)`, or `((_ op indices...) arg)` for
        extract and the extensions, with its sort worked out by the sort
        rule of `op`; SmtParseError if the arguments are ill-sorted."""
        rule = OPS[op].sort
        first = args[0].width
        if rule == "bv" or rule == "cmp":  # bit-vectors of one width
            ok, width = first and first == args[-1].width, first if rule == "bv" else BOOL_SORT
        elif rule == "bool":
            ok, width = not any(a.width for a in args), BOOL_SORT
        elif rule == "eq":
            ok, width = first == args[1].width, BOOL_SORT
        elif rule == "ite":
            width = args[1].width
            ok = first == BOOL_SORT and width == args[2].width
        elif rule == "concat":
            ok, width = first and args[1].width, first + args[1].width
        elif rule == "extract":
            ok, width = indices[1] <= indices[0] < first, indices[0] - indices[1] + 1
        else:  # "extend"
            ok, width = first, first + indices[0]
        if not ok:
            name = f"(_ {op} {' '.join(map(str, indices))})" if indices else op
            raise SmtParseError(f"ill-sorted arguments to {name}: "
                                + " ".join(sort_text(a.width) for a in args))
        if op == "=":
            a, b = args
            simp = _eq_of_bool_ite(a, b) or _eq_of_bool_ite(b, a)
            if simp is not None:
                return simp
        elif op == "distinct":
            return Term("not", BOOL_SORT, (Term("=", BOOL_SORT, tuple(args)),))
        elif op == "extract":
            return Term(op, width, tuple(args), value=(indices[0] << 16) | indices[1])
        return Term(op, width, tuple(args))


def _eq_of_bool_ite(x: Term, k: Term) -> Term | None:
    """(= (ite c A B) K) with constant arms folds back to c / (not c)."""
    if k.op != "const" or x.op != "ite":
        return None
    c, a, b = x.args
    if a.op != "const" or b.op != "const" or a.value == b.value:
        return None
    if a.value == k.value:
        return c
    if b.value == k.value:
        return Term("not", BOOL_SORT, (c,))
    return Term("const", BOOL_SORT, value=0)


def term_text(t: Term) -> str:
    """SMT-LIB text of a term; constants print by name."""
    if t.op == "var":
        return t.name
    if t.op == "const":
        if t.width == BOOL_SORT:
            return "true" if t.value else "false"
        return "#b" + format(t.value, f"0{t.width}b")
    args = " ".join(term_text(a) for a in t.args)
    if not OPS[t.op].indices:
        return f"({t.op} {args})"
    indices = (f"{t.value >> 16} {t.value & 0xFFFF}" if t.op == "extract"
               else t.width - t.args[0].width)
    return f"((_ {t.op} {indices}) {args})"


def declaration_text(t: Term) -> str:
    """The command that makes constant `t`: a `declare-const`, or for a
    defined one a 0-ary `define-fun` with its definition."""
    if t.definition is None:
        return f"(declare-const {t.name} {sort_text(t.width)})"
    return f"(define-fun {t.name} () {sort_text(t.width)} {term_text(t.definition)})"
