"""AST for Arch source.

Every node carries a span (excluded from equality so pretty-print
round-trips compare structurally). Compound nodes record both opener and
closer names; after a successful parse they are equal, and
verify_endings() re-validates programmatically built trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .source import DUMMY_SPAN, Span

# ── types ────────────────────────────────────────────────────────


@dataclass(eq=False)
class TypeExpr:
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class TBit(TypeExpr):
    pass


@dataclass
class TBool(TypeExpr):
    pass


@dataclass
class TUInt(TypeExpr):
    width: "Expr" = None  # type: ignore[assignment]


@dataclass
class TSInt(TypeExpr):
    width: "Expr" = None  # type: ignore[assignment]


@dataclass
class TClock(TypeExpr):
    domain: str = ""


@dataclass
class TReset(TypeExpr):
    sync: str = "Sync"      # Sync | Async
    polarity: str = "High"  # High | Low
    domain: Optional[str] = None  # parsed and ignored (RDC out of scope)


@dataclass
class TVec(TypeExpr):
    elem: TypeExpr = None  # type: ignore[assignment]
    size: "Expr" = None  # type: ignore[assignment]


@dataclass
class TNamed(TypeExpr):
    name: str = ""  # enum reference or type-valued param


# ── expressions ──────────────────────────────────────────────────


@dataclass(eq=False)
class Expr:
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __post_init__(self) -> None:
        self.ty = None  # filled by the type checker


@dataclass
class IntLit(Expr):
    value: int = 0
    text: str = ""


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class NameRef(Expr):
    name: str = ""


@dataclass
class MemberRef(Expr):
    """Dotted reference: Stage.sig inside a pipeline, or inst.port."""
    base: Expr = None  # type: ignore[assignment]
    member: str = ""


@dataclass
class EnumRef(Expr):
    enum: str = ""
    variant: str = ""


@dataclass
class TodoExpr(Expr):
    pass


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]


@dataclass
class IfExpr(Expr):
    """`if c then a else b` — legal only in generate and connect contexts."""
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]


@dataclass
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Slice(Expr):
    base: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    lo: Expr = None  # type: ignore[assignment]


@dataclass
class Convert(Expr):
    kind: str = ""  # zext | sext | trunc
    base: Expr = None  # type: ignore[assignment]
    width: Expr = None  # type: ignore[assignment]


# ── statements (comb / seq bodies) ───────────────────────────────


@dataclass(eq=False)
class Stmt:
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class SAssign(Stmt):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    kind: str = "="  # "=" comb, "<=" seq


@dataclass
class SIf(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: list[Stmt] = field(default_factory=list)
    els: Optional[list[Stmt]] = None


@dataclass
class MatchCase:
    patterns: list[Expr]
    stmts: list[Stmt]


@dataclass
class SMatch(Stmt):
    subject: Expr = None  # type: ignore[assignment]
    cases: list[MatchCase] = field(default_factory=list)
    else_stmts: Optional[list[Stmt]] = None


# ── items ────────────────────────────────────────────────────────


@dataclass(eq=False)
class Item:
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __post_init__(self) -> None:
        self.docs: list[str] = []


@dataclass
class ParamDecl(Item):
    name: str = ""
    kind: str = "const"  # const | type
    default: Union[Expr, TypeExpr, None] = None
    default_text: str = ""  # original expression text, preserved for SV emission


@dataclass
class PortDecl(Item):
    name: str = ""
    direction: str = "in"  # in | out
    type: TypeExpr = None  # type: ignore[assignment]
    index: Optional[Expr] = None  # indexed port in generate_for


@dataclass
class RegDecl(Item):
    name: str = ""
    type: TypeExpr = None  # type: ignore[assignment]
    index: Optional[Expr] = None  # indexed reg in generate_for
    reset_sig: Optional[str] = None
    reset_value: Optional[Expr] = None
    reset_none: bool = False
    guard_sig: Optional[str] = None


@dataclass
class LetDecl(Item):
    name: str = ""
    type: Optional[TypeExpr] = None  # None = assign-to-existing (fsm state override)
    index: Optional[Expr] = None  # indexed let in generate_for
    value: Expr = None  # type: ignore[assignment]


@dataclass
class CombBlock(Item):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class SeqBlock(Item):
    clock: str = ""
    edge: str = "rising"  # rising | falling
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class Connection:
    port: str
    arrow: str  # "<-" drives child input, "->" reads child output
    expr: Expr  # for "->" this is the local target (NameRef / Index)
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class InstDecl(Item):
    name: str = ""
    index: Optional[Expr] = None  # indexed inst in generate_for
    module: str = ""
    param_overrides: list[tuple[str, Expr]] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    end_name: str = ""


@dataclass
class AssertDecl(Item):
    name: str = ""
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class CoverDecl(Item):
    name: str = ""
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class GenerateFor(Item):
    var: str = ""
    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    items: list[Item] = field(default_factory=list)


@dataclass
class GenerateIf(Item):
    cond: Expr = None  # type: ignore[assignment]
    then_items: list[Item] = field(default_factory=list)
    else_items: Optional[list[Item]] = None


@dataclass
class EnumDecl(Item):
    name: str = ""
    variants: list[str] = field(default_factory=list)
    end_name: str = ""


@dataclass
class KindDecl(Item):
    value: str = ""  # fifo: fifo|lifo; counter: wrapping|saturating; sync: ff|...


@dataclass
class Transition:
    target: str
    cond: Optional[Expr]
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class StateDecl(Item):
    name: str = ""
    overrides: list[LetDecl] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)
    end_name: str = ""


@dataclass
class DefaultStateDecl(Item):
    state: str = ""


@dataclass
class DefaultBlock(Item):
    items: list[Item] = field(default_factory=list)  # comb blocks / lets


@dataclass
class StageDecl(Item):
    name: str = ""
    items: list[Item] = field(default_factory=list)
    end_name: str = ""


@dataclass
class StallDecl(Item):
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class FlushDecl(Item):
    stage: str = ""
    cond: Expr = None  # type: ignore[assignment]


# ── constructs and source unit ───────────────────────────────────

CONSTRUCT_KINDS = ("module", "fsm", "fifo", "counter", "synchronizer", "pipeline")


@dataclass(eq=False)
class Construct:
    kind: str
    name: str
    items: list[Item]
    end_kind: str
    end_name: str
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __post_init__(self) -> None:
        self.docs: list[str] = []

    def __eq__(self, other) -> bool:
        return (isinstance(other, Construct)
                and (self.kind, self.name, self.end_kind, self.end_name)
                == (other.kind, other.name, other.end_kind, other.end_name)
                and self.items == other.items)


@dataclass(eq=False)
class SourceUnit:
    file: str
    constructs: list[Construct]

    def __eq__(self, other) -> bool:
        return isinstance(other, SourceUnit) and self.constructs == other.constructs
