"""AST for Arch source.

Every node carries a span (excluded from equality so pretty-print
round-trips compare structurally). Compound nodes record both opener and
closer names; after a successful parse they are equal, and
verify_endings() re-validates programmatically built trees.

Nodes are plain classes with written-out constructors, so importing this
module generates no code; see "Start-up" in the README.
"""

from __future__ import annotations

from typing import Optional, Union

from .source import DUMMY_SPAN, Span


class Node:
    """Base of every AST record. Two nodes are equal when they have the
    same class and equal fields, where the fields are the parameters of
    the class's `__init__` other than `span`; attributes that later passes
    set (`ty`, `docs`, `resolved_key`, `const_name`) never count. Nodes
    are unhashable."""

    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = tuple(n for n in code.co_varnames[1:code.co_argcount] if n != "span")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, f) for f in self._fields)
                == tuple(getattr(other, f) for f in self._fields))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# ── types ────────────────────────────────────────────────────────


class TypeExpr(Node):
    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span = span


class TBit(TypeExpr):
    pass


class TBool(TypeExpr):
    pass


class TUInt(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN, width: Expr = None) -> None:
        self.span, self.width = span, width


class TSInt(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN, width: Expr = None) -> None:
        self.span, self.width = span, width


class TClock(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN, domain: str = "") -> None:
        self.span, self.domain = span, domain


class TReset(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN,
                 sync: str = "Sync",      # Sync | Async
                 polarity: str = "High",  # High | Low
                 domain: Optional[str] = None,  # parsed and ignored (RDC out of scope)
                 ) -> None:
        self.span, self.sync, self.polarity, self.domain = span, sync, polarity, domain


class TVec(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN, elem: TypeExpr = None, size: Expr = None) -> None:
        self.span, self.elem, self.size = span, elem, size


class TNamed(TypeExpr):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "") -> None:
        self.span, self.name = span, name  # enum reference or type-valued param


# ── expressions ──────────────────────────────────────────────────
# Every expression starts with `ty = None`; the type checker fills it.


class Expr(Node):
    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span, self.ty = span, None


class IntLit(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, value: int = 0, text: str = "") -> None:
        self.span, self.ty, self.value, self.text = span, None, value, text


class BoolLit(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, value: bool = False) -> None:
        self.span, self.ty, self.value = span, None, value


class NameRef(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "") -> None:
        self.span, self.ty, self.name = span, None, name


class MemberRef(Expr):
    """Dotted reference: Stage.sig inside a pipeline, or inst.port."""

    def __init__(self, span: Span = DUMMY_SPAN, base: Expr = None, member: str = "") -> None:
        self.span, self.ty, self.base, self.member = span, None, base, member


class EnumRef(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, enum: str = "", variant: str = "") -> None:
        self.span, self.ty, self.enum, self.variant = span, None, enum, variant


class TodoExpr(Expr):
    pass


class Unary(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, op: str = "", operand: Expr = None) -> None:
        self.span, self.ty, self.op, self.operand = span, None, op, operand


class Binary(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, op: str = "", lhs: Expr = None,
                 rhs: Expr = None) -> None:
        self.span, self.ty, self.op, self.lhs, self.rhs = span, None, op, lhs, rhs


class Ternary(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, cond: Expr = None, then: Expr = None,
                 els: Expr = None) -> None:
        self.span, self.ty, self.cond, self.then, self.els = span, None, cond, then, els


class IfExpr(Expr):
    """`if c then a else b` — legal only in generate and connect contexts."""

    def __init__(self, span: Span = DUMMY_SPAN, cond: Expr = None, then: Expr = None,
                 els: Expr = None) -> None:
        self.span, self.ty, self.cond, self.then, self.els = span, None, cond, then, els


class Index(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, base: Expr = None, index: Expr = None) -> None:
        self.span, self.ty, self.base, self.index = span, None, base, index


class Slice(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, base: Expr = None, hi: Expr = None,
                 lo: Expr = None) -> None:
        self.span, self.ty, self.base, self.hi, self.lo = span, None, base, hi, lo


class Convert(Expr):
    def __init__(self, span: Span = DUMMY_SPAN, kind: str = "",  # zext | sext | trunc
                 base: Expr = None, width: Expr = None) -> None:
        self.span, self.ty, self.kind, self.base, self.width = span, None, kind, base, width


# The attributes that can hold an expression's operands, in every
# expression class (`value` is the stored word of the IR's VecStore, and a
# literal's value is no Expr); walkers keep those that are Expr.
EXPR_CHILDREN = ("lhs", "rhs", "operand", "cond", "then", "els", "base",
                 "index", "hi", "lo", "width", "value")


def expr_reads(e: Expr, out: set[str] | None = None) -> set[str]:
    """Canonical net names read by an expression."""
    if out is None:
        out = set()
    # an explicit stack, not a recursive generator: nested generators pass
    # each node up through every enclosing level, and this runs once per
    # net and edge
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, NameRef):
            out.add(node.name)
            continue
        for attr in EXPR_CHILDREN:
            sub = getattr(node, attr, None)
            if isinstance(sub, Expr):
                stack.append(sub)
    return out


# ── statements (comb / seq bodies) ───────────────────────────────
# A list field left out of a constructor call gets a fresh empty list.


class Stmt(Node):
    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span = span


class SAssign(Stmt):
    def __init__(self, span: Span = DUMMY_SPAN, lhs: Expr = None, rhs: Expr = None,
                 kind: str = "=") -> None:  # "=" comb, "<=" seq
        self.span, self.lhs, self.rhs, self.kind = span, lhs, rhs, kind


class SIf(Stmt):
    def __init__(self, span: Span = DUMMY_SPAN, cond: Expr = None, then: list[Stmt] = None,
                 els: Optional[list[Stmt]] = None) -> None:
        self.span, self.cond, self.then, self.els = span, cond, [] if then is None else then, els


class MatchCase(Node):
    def __init__(self, patterns: list[Expr], stmts: list[Stmt]) -> None:
        self.patterns, self.stmts = patterns, stmts


class SMatch(Stmt):
    def __init__(self, span: Span = DUMMY_SPAN, subject: Expr = None,
                 cases: list[MatchCase] = None, else_stmts: Optional[list[Stmt]] = None) -> None:
        self.span, self.subject, self.else_stmts = span, subject, else_stmts
        self.cases = [] if cases is None else cases


# ── items ────────────────────────────────────────────────────────
# Every item starts with `docs = []`; the parser sets its doc comments.


class Item(Node):
    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span, self.docs = span, []


class ParamDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "",
                 kind: str = "const",  # const | type
                 default: Union[Expr, TypeExpr, None] = None,
                 default_text: str = "",  # original expression text, preserved for SV emission
                 ) -> None:
        self.span, self.docs, self.name, self.kind = span, [], name, kind
        self.default, self.default_text = default, default_text


class PortDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "",
                 direction: str = "in",  # in | out
                 type: TypeExpr = None,
                 index: Optional[Expr] = None,  # indexed port in generate_for
                 ) -> None:
        self.span, self.docs, self.name, self.direction = span, [], name, direction
        self.type, self.index = type, index


class RegDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", type: TypeExpr = None,
                 index: Optional[Expr] = None,  # indexed reg in generate_for
                 reset_sig: Optional[str] = None, reset_value: Optional[Expr] = None,
                 reset_none: bool = False, guard_sig: Optional[str] = None) -> None:
        self.span, self.docs, self.name, self.type, self.index = span, [], name, type, index
        self.reset_sig, self.reset_value, self.reset_none = reset_sig, reset_value, reset_none
        self.guard_sig = guard_sig


class LetDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "",
                 type: Optional[TypeExpr] = None,  # None = assign-to-existing (fsm state override)
                 index: Optional[Expr] = None,  # indexed let in generate_for
                 value: Expr = None) -> None:
        self.span, self.docs, self.name, self.type = span, [], name, type
        self.index, self.value = index, value


class CombBlock(Item):
    def __init__(self, span: Span = DUMMY_SPAN, stmts: list[Stmt] = None) -> None:
        self.span, self.docs, self.stmts = span, [], [] if stmts is None else stmts


class SeqBlock(Item):
    def __init__(self, span: Span = DUMMY_SPAN, clock: str = "",
                 edge: str = "rising",  # rising | falling
                 stmts: list[Stmt] = None) -> None:
        self.span, self.docs, self.clock, self.edge = span, [], clock, edge
        self.stmts = [] if stmts is None else stmts


class Connection(Node):
    def __init__(self, port: str,
                 arrow: str,  # "<-" drives child input, "->" reads child output
                 expr: Expr,  # for "->" this is the local target (NameRef / Index)
                 span: Span = DUMMY_SPAN) -> None:
        self.port, self.arrow, self.expr, self.span = port, arrow, expr, span


class InstDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "",
                 index: Optional[Expr] = None,  # indexed inst in generate_for
                 module: str = "", param_overrides: list[tuple[str, Expr]] = None,
                 connections: list[Connection] = None, end_name: str = "") -> None:
        self.span, self.docs, self.name, self.index, self.module = span, [], name, index, module
        self.param_overrides = [] if param_overrides is None else param_overrides
        self.connections = [] if connections is None else connections
        self.end_name = end_name


class AssertDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", expr: Expr = None) -> None:
        self.span, self.docs, self.name, self.expr = span, [], name, expr


class CoverDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", expr: Expr = None) -> None:
        self.span, self.docs, self.name, self.expr = span, [], name, expr


class GenerateFor(Item):
    def __init__(self, span: Span = DUMMY_SPAN, var: str = "", lo: Expr = None,
                 hi: Expr = None, items: list[Item] = None) -> None:
        self.span, self.docs, self.var, self.lo, self.hi = span, [], var, lo, hi
        self.items = [] if items is None else items


class GenerateIf(Item):
    def __init__(self, span: Span = DUMMY_SPAN, cond: Expr = None, then_items: list[Item] = None,
                 else_items: Optional[list[Item]] = None) -> None:
        self.span, self.docs, self.cond, self.else_items = span, [], cond, else_items
        self.then_items = [] if then_items is None else then_items


class EnumDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", variants: list[str] = None,
                 end_name: str = "") -> None:
        self.span, self.docs, self.name, self.end_name = span, [], name, end_name
        self.variants = [] if variants is None else variants


class KindDecl(Item):
    # value — fifo: fifo|lifo; counter: wrapping|saturating; sync: ff|...
    def __init__(self, span: Span = DUMMY_SPAN, value: str = "") -> None:
        self.span, self.docs, self.value = span, [], value


class Transition(Node):
    def __init__(self, target: str, cond: Optional[Expr], span: Span = DUMMY_SPAN) -> None:
        self.target, self.cond, self.span = target, cond, span


class StateDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", overrides: list[LetDecl] = None,
                 transitions: list[Transition] = None, end_name: str = "") -> None:
        self.span, self.docs, self.name, self.end_name = span, [], name, end_name
        self.overrides = [] if overrides is None else overrides
        self.transitions = [] if transitions is None else transitions


class DefaultStateDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, state: str = "") -> None:
        self.span, self.docs, self.state = span, [], state


class DefaultBlock(Item):
    def __init__(self, span: Span = DUMMY_SPAN, items: list[Item] = None) -> None:
        self.span, self.docs = span, []
        self.items = [] if items is None else items  # comb blocks / lets


class StageDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, name: str = "", items: list[Item] = None,
                 end_name: str = "") -> None:
        self.span, self.docs, self.name, self.end_name = span, [], name, end_name
        self.items = [] if items is None else items


class StallDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, cond: Expr = None) -> None:
        self.span, self.docs, self.cond = span, [], cond


class FlushDecl(Item):
    def __init__(self, span: Span = DUMMY_SPAN, stage: str = "", cond: Expr = None) -> None:
        self.span, self.docs, self.stage, self.cond = span, [], stage, cond


# ── constructs and source unit ───────────────────────────────────

CONSTRUCT_KINDS = ("module", "fsm", "fifo", "counter", "synchronizer", "pipeline")


class Construct(Node):
    def __init__(self, kind: str, name: str, items: list[Item], end_kind: str, end_name: str,
                 span: Span = DUMMY_SPAN) -> None:
        self.kind, self.name, self.items, self.end_kind = kind, name, items, end_kind
        self.end_name, self.span, self.docs = end_name, span, []

    def __eq__(self, other) -> bool:
        return (isinstance(other, Construct)
                and (self.kind, self.name, self.end_kind, self.end_name)
                == (other.kind, other.name, other.end_kind, other.end_name)
                and self.items == other.items)


class SourceUnit(Node):
    def __init__(self, file: str, constructs: list[Construct]) -> None:
        self.file, self.constructs = file, constructs

    def __eq__(self, other) -> bool:
        return isinstance(other, SourceUnit) and self.constructs == other.constructs
