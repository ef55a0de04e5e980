"""Canonical pretty-printer: AST -> Arch source that reparses identically."""

from __future__ import annotations

from .ast_nodes import (
    AssertDecl, Binary, BoolLit, CombBlock, Construct, Convert, CoverDecl,
    DefaultBlock, DefaultStateDecl, EnumDecl, EnumRef, Expr, FlushDecl,
    GenerateFor, GenerateIf, IfExpr, Index, InstDecl, IntLit, Item, KindDecl,
    LetDecl, MemberRef, NameRef, ParamDecl, PortDecl, RegDecl, SAssign, SIf,
    SMatch, SeqBlock, Slice, SourceUnit, StageDecl, StallDecl, StateDecl,
    Stmt, TBit, TBool, TClock, TNamed, TReset, TSInt, TUInt, TVec, Ternary,
    TodoExpr, TypeExpr, Unary,
)
from .parser import _BIN_OPS

# the parser's binary levels shifted up by 2: `implies` at 1, `?:` at 0
_PRECEDENCE = {op: level + 2 for level, op in _BIN_OPS.values()}
_UNARY_PREC = max(_PRECEDENCE.values()) + 1


def print_type(ty: TypeExpr) -> str:
    if isinstance(ty, TBit):
        return "Bit"
    if isinstance(ty, TBool):
        return "Bool"
    if isinstance(ty, TUInt):
        return f"UInt<{print_expr(ty.width)}>"
    if isinstance(ty, TSInt):
        return f"SInt<{print_expr(ty.width)}>"
    if isinstance(ty, TClock):
        return f"Clock<{ty.domain}>"
    if isinstance(ty, TReset):
        parts = [ty.sync]
        if ty.polarity != "High" or ty.domain is not None:
            parts.append(ty.polarity)
        if ty.domain is not None:
            parts.append(ty.domain)
        return f"Reset<{', '.join(parts)}>"
    if isinstance(ty, TVec):
        return f"Vec<{print_type(ty.elem)}, {print_expr(ty.size)}>"
    if isinstance(ty, TNamed):
        return ty.name
    raise AssertionError(f"unhandled type {ty!r}")


def print_expr(e: Expr, parent_prec: int = -1) -> str:
    text, prec = _expr_text(e)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr_text(e: Expr) -> tuple[str, int]:
    if isinstance(e, IntLit):
        return (e.text or str(e.value), 99)
    if isinstance(e, BoolLit):
        return ("true" if e.value else "false", 99)
    if isinstance(e, NameRef):
        return (e.name, 99)
    if isinstance(e, EnumRef):
        return (f"{e.enum}::{e.variant}", 99)
    if isinstance(e, TodoExpr):
        return ("todo!", 99)
    if isinstance(e, MemberRef):
        return (f"{print_expr(e.base, _UNARY_PREC + 1)}.{e.member}", 11)
    if isinstance(e, Convert):
        return (f"{print_expr(e.base, _UNARY_PREC + 1)}.{e.kind}<{print_expr(e.width)}>()", 11)
    if isinstance(e, Index):
        return (f"{print_expr(e.base, _UNARY_PREC + 1)}[{print_expr(e.index)}]", 11)
    if isinstance(e, Slice):
        return (f"{print_expr(e.base, _UNARY_PREC + 1)}[{print_expr(e.hi)}:{print_expr(e.lo)}]", 11)
    if isinstance(e, Unary):
        return (f"{e.op}{print_expr(e.operand, _UNARY_PREC)}", _UNARY_PREC)
    if isinstance(e, Binary):
        p = _PRECEDENCE[e.op]
        lhs = print_expr(e.lhs, p)
        rhs = print_expr(e.rhs, p + 1)  # left-assoc: parenthesize equal-prec rhs
        if e.op == "implies":
            lhs = print_expr(e.lhs, p + 1)  # right-assoc
            rhs = print_expr(e.rhs, p)
        return (f"{lhs} {e.op} {rhs}", p)
    if isinstance(e, Ternary):
        return (f"{print_expr(e.cond, 1)} ? {print_expr(e.then, 1)} : {print_expr(e.els, 0)}", 0)
    if isinstance(e, IfExpr):
        return (f"if {print_expr(e.cond)} then {print_expr(e.then)} else {print_expr(e.els)}", 0)
    raise AssertionError(f"unhandled expr {e!r}")


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("  " * self.depth + text if text else "")

    def docs(self, node) -> None:
        for doc in getattr(node, "docs", []):
            self.emit(doc)

    def unit(self, unit: SourceUnit) -> str:
        for i, c in enumerate(unit.constructs):
            if i:
                self.emit()
            self.construct(c)
        return "\n".join(self.lines) + "\n"

    def construct(self, c: Construct) -> None:
        self.docs(c)
        self.emit(f"{c.kind} {c.name}")
        self.depth += 1
        for item in c.items:
            self.item(item)
        self.depth -= 1
        self.emit(f"end {c.kind} {c.name}")

    def item(self, item: Item) -> None:
        self.docs(item)
        if isinstance(item, ParamDecl):
            kw = "const" if item.kind == "const" else "type"
            default = print_expr(item.default) if item.kind == "const" else print_type(item.default)
            self.emit(f"param {item.name}: {kw} = {default};")
        elif isinstance(item, PortDecl):
            idx = f"[{print_expr(item.index)}]" if item.index is not None else ""
            self.emit(f"port {item.name}{idx}: {item.direction} {print_type(item.type)};")
        elif isinstance(item, RegDecl):
            if item.guard_sig is not None:
                policy = f"guard {item.guard_sig}"
            elif item.reset_none:
                policy = "reset none"
            else:
                policy = f"reset {item.reset_sig} => {print_expr(item.reset_value)}"
            idx = f"[{print_expr(item.index)}]" if item.index is not None else ""
            self.emit(f"reg {item.name}{idx}: {print_type(item.type)} {policy};")
        elif isinstance(item, LetDecl):
            ty = f": {print_type(item.type)}" if item.type is not None else ""
            idx = f"[{print_expr(item.index)}]" if item.index is not None else ""
            self.emit(f"let {item.name}{idx}{ty} = {print_expr(item.value)};")
        elif isinstance(item, CombBlock):
            self.emit("comb")
            self.depth += 1
            for s in item.stmts:
                self.stmt(s)
            self.depth -= 1
            self.emit("end comb")
        elif isinstance(item, SeqBlock):
            self.emit(f"seq on {item.clock} {item.edge}")
            self.depth += 1
            for s in item.stmts:
                self.stmt(s)
            self.depth -= 1
            self.emit("end seq")
        elif isinstance(item, InstDecl):
            idx = f"[{print_expr(item.index)}]" if item.index is not None else ""
            self.emit(f"inst {item.name}{idx}: {item.module}")
            self.depth += 1
            for pname, pvalue in item.param_overrides:
                if isinstance(pvalue, TypeExpr):
                    self.emit(f"param {pname}: type = {print_type(pvalue)};")
                else:
                    self.emit(f"param {pname} = {print_expr(pvalue)};")
            for conn in item.connections:
                self.emit(f"{conn.port} {conn.arrow} {print_expr(conn.expr)};")
            self.depth -= 1
            self.emit(f"end inst {item.name}{idx}")
        elif isinstance(item, AssertDecl):
            self.emit(f"assert {item.name}: {print_expr(item.expr)};")
        elif isinstance(item, CoverDecl):
            self.emit(f"cover {item.name}: {print_expr(item.expr)};")
        elif isinstance(item, GenerateFor):
            self.emit(f"generate_for {item.var} in {print_expr(item.lo)}..{print_expr(item.hi)}")
            self.depth += 1
            for sub in item.items:
                self.item(sub)
            self.depth -= 1
            self.emit("end generate_for")
        elif isinstance(item, GenerateIf):
            self.emit(f"generate_if {print_expr(item.cond)}")
            self.depth += 1
            for sub in item.then_items:
                self.item(sub)
            self.depth -= 1
            if item.else_items is not None:
                self.emit("else")
                self.depth += 1
                for sub in item.else_items:
                    self.item(sub)
                self.depth -= 1
            self.emit("end generate_if")
        elif isinstance(item, EnumDecl):
            self.emit(f"enum {item.name}")
            self.depth += 1
            for v in item.variants:
                self.emit(f"variant {v};")
            self.depth -= 1
            self.emit(f"end enum {item.name}")
        elif isinstance(item, KindDecl):
            self.emit(f"kind {item.value};")
        elif isinstance(item, StateDecl):
            self.emit(f"state {item.name}")
            self.depth += 1
            for let in item.overrides:
                self.item(let)
            for t in item.transitions:
                cond = f" when {print_expr(t.cond)}" if t.cond is not None else ""
                self.emit(f"-> {t.target}{cond};")
            self.depth -= 1
            self.emit(f"end state {item.name}")
        elif isinstance(item, DefaultStateDecl):
            self.emit(f"default state {item.state};")
        elif isinstance(item, DefaultBlock):
            self.emit("default")
            self.depth += 1
            for sub in item.items:
                self.item(sub)
            self.depth -= 1
            self.emit("end default")
        elif isinstance(item, StageDecl):
            self.emit(f"stage {item.name}")
            self.depth += 1
            for sub in item.items:
                self.item(sub)
            self.depth -= 1
            self.emit(f"end stage {item.name}")
        elif isinstance(item, StallDecl):
            self.emit(f"stall when {print_expr(item.cond)};")
        elif isinstance(item, FlushDecl):
            self.emit(f"flush {item.stage} when {print_expr(item.cond)};")
        else:
            raise AssertionError(f"unhandled item {item!r}")

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, SAssign):
            self.emit(f"{print_expr(s.lhs)} {s.kind} {print_expr(s.rhs)};")
        elif isinstance(s, SIf):
            self.emit(f"if {print_expr(s.cond)} then")
            self.depth += 1
            for sub in s.then:
                self.stmt(sub)
            self.depth -= 1
            if s.els is not None:
                self.emit("else")
                self.depth += 1
                for sub in s.els:
                    self.stmt(sub)
                self.depth -= 1
            self.emit("end if")
        elif isinstance(s, SMatch):
            self.emit(f"match {print_expr(s.subject)}")
            self.depth += 1
            for case in s.cases:
                self.emit(f"case {print_expr(case.patterns[0])}:")
                self.depth += 1
                for sub in case.stmts:
                    self.stmt(sub)
                self.depth -= 1
            if s.else_stmts is not None:
                self.emit("case else:")
                self.depth += 1
                for sub in s.else_stmts:
                    self.stmt(sub)
                self.depth -= 1
            self.depth -= 1
            self.emit("end match")
        else:
            raise AssertionError(f"unhandled stmt {s!r}")


def pretty_print(unit: SourceUnit) -> str:
    return _Printer().unit(unit)
