"""Static safety checks: widths, clock domains, directions, single-driver,
latch completeness, combinational acyclicity, guard validity, todo! typing.

Expression checking is bidirectional: bare integer literals adopt the
width demanded by context and error if the value does not fit. Name
resolution rewrites references to canonical net names ("Fetch.instr",
"pe_0.sum_out") so every later phase sees a flat namespace.
"""

from __future__ import annotations

from typing import Optional

from .ast_nodes import (
    Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit,
    MemberRef, NameRef, SAssign, SIf, SMatch, Slice, Stmt, Ternary, TodoExpr,
    Unary,
)
from .diagnostics import CompileError, Diagnostic, Note, err
from .elaborate import ElabConstruct
from .ir import (
    CombGraph, CoreModule, Unassigned, build_comb_graph, const_int, expr_reads, muxify,
)
from .source import Span
from .types import (
    BIT, BOOL, Bit, Bool, Clock, EnumType, Reset, SInt, Type, UInt, Vec,
    assignable, is_one_bit_data, is_signed,
)


class ErrorTy(Type):
    """Poison type: silences cascading diagnostics."""


ERROR_TY = ErrorTy()


class Summary:
    """What a parent needs to know about an instantiated construct. Every
    field but `ports` defaults to a fresh empty container."""

    def __init__(self, ports: dict[str, tuple[str, Type]],
                 in_domains: dict[str, set[str]] = None, out_domains: dict[str, set[str]] = None,
                 through: set[tuple[str, str]] = None,
                 bridge_in: dict[str, str] = None,  # synchronizer data_in -> src domain
                 ) -> None:
        self.ports = ports
        self.in_domains = {} if in_domains is None else in_domains
        self.out_domains = {} if out_domains is None else out_domains
        self.through = set() if through is None else through
        self.bridge_in = {} if bridge_in is None else bridge_in


class Binding:
    def __init__(self, canonical: str, ty: Type,
                 kind: str,  # port-in | port-out | reg | let | internal | inst-out
                 span: Span, stage: Optional[str] = None, stage_index: int = -1) -> None:
        self.canonical, self.ty, self.kind, self.span = canonical, ty, kind, span
        self.stage, self.stage_index = stage, stage_index


class Ctx:
    """Per-construct translation context."""

    def __init__(self, ec: ElabConstruct, summaries: dict[str, Summary]) -> None:
        self.ec = ec
        self.summaries = summaries
        self.diags: list[Diagnostic] = []
        self.bindings: dict[str, Binding] = {}
        self.stage_nets: dict[str, dict[str, Binding]] = {}
        self.stage_order: list[str] = []
        self.instances: dict[str, tuple[str, Summary, Span]] = {}
        self.current_stage: Optional[str] = None
        self.has_todo: list[Span] = []
        self.clocks: dict[str, str] = {}   # clock port -> domain
        self.resets: dict[str, Reset] = {}  # reset port -> type

    # ── bookkeeping ──────────────────────────────────────────────

    def error(self, code: str, message: str, span: Span, *,
              notes: list[Note] | None = None, help: str | None = None) -> None:
        self.diags.append(err(code, message, span, notes=notes, help=help))

    def declare(self, name: str, ty: Type, kind: str, span: Span,
                stage: Optional[str] = None) -> Binding:
        if stage is not None:
            canonical = f"{stage}.{name}"
            b = Binding(canonical, ty, kind, span, stage, self.stage_order.index(stage))
            self.stage_nets.setdefault(stage, {})[name] = b
        else:
            canonical = name
            b = Binding(canonical, ty, kind, span)
            self.bindings[name] = b
        if isinstance(ty, Clock) and kind == "port-in":
            self.clocks[name] = ty.domain
        if isinstance(ty, Reset) and kind == "port-in":
            self.resets[name] = ty
        return b

    def lookup(self, name: str) -> Binding | None:
        if self.current_stage is not None:
            b = self.stage_nets.get(self.current_stage, {}).get(name)
            if b is not None:
                return b
        return self.bindings.get(name)

    # ── expression inference ─────────────────────────────────────

    def is_poly(self, e: Expr) -> bool:
        """Width-polymorphic subtree: adopts the width demanded by context."""
        if isinstance(e, IntLit):
            return True
        if isinstance(e, Unary) and e.op in ("-", "~"):
            return self.is_poly(e.operand)
        if isinstance(e, (Ternary, IfExpr)):
            return self.is_poly(e.then) and self.is_poly(e.els)
        if isinstance(e, Binary) and e.op in ("+", "-", "*", "/", "%", "+%", "-%",
                                              "*%", "&", "|", "^", "<<", ">>"):
            return self.is_poly(e.lhs) and self.is_poly(e.rhs)
        return False

    def infer(self, e: Expr, expected: Type | None, *, data: bool = True) -> tuple[Expr, Type]:
        """Type an expression; returns a (possibly rewritten) typed tree."""
        new, ty = self._infer(e, expected, data)
        new.ty = ty
        return new, ty

    def _type_err(self, code: str, message: str, span: Span, **kw) -> tuple[Expr, Type]:
        self.error(code, message, span, **kw)
        poison = IntLit(span, 0, "0")
        poison.ty = ERROR_TY
        return poison, ERROR_TY

    def _check_expected(self, e: Expr, ty: Type, expected: Type | None) -> tuple[Expr, Type]:
        if expected is None or isinstance(expected, ErrorTy) or isinstance(ty, ErrorTy):
            return e, ty
        if not assignable(expected, ty):
            hint = None
            if isinstance(expected, (UInt, SInt)) and isinstance(ty, (UInt, SInt)) \
                    and is_signed(expected) == is_signed(ty):
                if expected.width > ty.width:
                    conv = "sext" if is_signed(ty) else "zext"
                    hint = f"use `.{conv}<{expected.width}>()` to widen explicitly"
                else:
                    hint = f"use `.trunc<{expected.width}>()` to narrow explicitly"
            return self._type_err("E_WIDTH_MISMATCH",
                                  f"expected {expected}, found {ty}", e.span, help=hint)
        return e, ty

    def _infer(self, e: Expr, expected: Type | None, data: bool) -> tuple[Expr, Type]:
        if isinstance(e, IntLit):
            if expected is None or isinstance(expected, ErrorTy):
                return self._type_err(
                    "E_WIDTH_MISMATCH",
                    "cannot determine the width of this literal from context",
                    e.span, help="annotate the target type or widen an operand")
            return self._check_literal(e, expected)
        if isinstance(e, BoolLit):
            return self._check_expected(e, BOOL, expected)
        if isinstance(e, TodoExpr):
            if expected is None or isinstance(expected, ErrorTy):
                return self._type_err("E_WIDTH_MISMATCH",
                                      "todo! needs a typed context to adopt", e.span)
            self.has_todo.append(e.span)
            return e, expected
        if isinstance(e, NameRef):
            b = self.lookup(e.name)
            if b is None:
                return self._type_err("E_UNKNOWN_NAME", f"unknown name `{e.name}`", e.span)
            if data and isinstance(b.ty, (Clock, Reset)):
                return self._type_err(
                    "E_WIDTH_MISMATCH",
                    f"`{e.name}` has type {b.ty} and cannot be read as data", e.span)
            new = NameRef(e.span, b.canonical)
            return self._check_expected(new, b.ty, expected)
        if isinstance(e, EnumRef):
            enum = self.ec.enums.get(e.enum)
            if enum is None:
                return self._type_err("E_UNKNOWN_NAME", f"unknown enum `{e.enum}`", e.span)
            if e.variant not in enum.variants:
                return self._type_err("E_UNKNOWN_NAME",
                                      f"enum `{e.enum}` has no variant `{e.variant}`", e.span)
            return self._check_expected(e, enum, expected)
        if isinstance(e, MemberRef):
            return self._infer_member(e, expected)
        if isinstance(e, Unary):
            return self._infer_unary(e, expected)
        if isinstance(e, Binary):
            return self._infer_binary(e, expected)
        if isinstance(e, (Ternary, IfExpr)):
            cond, cty = self.infer(e.cond, None)
            if not isinstance(cty, ErrorTy) and not is_one_bit_data(cty):
                self.error("E_WIDTH_MISMATCH",
                           f"condition must be Bool, found {cty}", e.cond.span)
            branch_expected = expected
            if branch_expected is None:
                if not self.is_poly(e.then):
                    _, branch_expected = self.infer(e.then, None)
                elif not self.is_poly(e.els):
                    _, branch_expected = self.infer(e.els, None)
            then, tty = self.infer(e.then, branch_expected)
            els, ety = self.infer(e.els, branch_expected or tty)
            cls = Ternary if isinstance(e, Ternary) else IfExpr
            new = cls(e.span, cond, then, els)
            ty = tty if not isinstance(tty, ErrorTy) else ety
            return self._check_expected(new, ty, expected)
        if isinstance(e, Index):
            return self._infer_index(e, expected)
        if isinstance(e, Slice):
            return self._infer_slice(e, expected)
        if isinstance(e, Convert):
            return self._infer_convert(e, expected)
        raise AssertionError(f"infer: unhandled {e!r}")

    def _check_literal(self, e: IntLit, expected: Type) -> tuple[Expr, Type]:
        v = e.value
        ok, lo, hi = True, 0, 0
        if isinstance(expected, UInt):
            lo, hi = 0, (1 << expected.width) - 1
        elif isinstance(expected, SInt):
            lo, hi = -(1 << (expected.width - 1)), (1 << (expected.width - 1)) - 1
        elif isinstance(expected, (Bool, Bit)):
            lo, hi = 0, 1
        elif isinstance(expected, EnumType):
            return self._type_err("E_WIDTH_MISMATCH",
                                  f"expected {expected}, found an integer literal", e.span)
        elif isinstance(expected, Vec):
            if v == 0:
                return e, expected  # `reset rst => 0` zero-fills a Vec
            return self._type_err("E_WIDTH_MISMATCH",
                                  f"expected {expected}, found an integer literal", e.span)
        else:
            ok = False
        if not ok:
            return self._type_err("E_WIDTH_MISMATCH",
                                  f"expected {expected}, found an integer literal", e.span)
        if not (lo <= v <= hi):
            return self._type_err("E_LITERAL_RANGE",
                                  f"literal {e.text or v} does not fit in {expected}", e.span)
        return e, expected

    def _infer_member(self, e: MemberRef, expected: Type | None) -> tuple[Expr, Type]:
        if not isinstance(e.base, NameRef):
            return self._type_err("E_UNKNOWN_NAME",
                                  "dotted access needs a stage or instance name on the left",
                                  e.span)
        base = e.base.name
        if base in self.stage_nets:  # cross-stage reference
            target_index = self.stage_order.index(base)
            if self.current_stage is not None:
                cur_index = self.stage_order.index(self.current_stage)
                if target_index > cur_index:
                    return self._type_err(
                        "E_STAGE_ORDER",
                        f"stage `{self.current_stage}` cannot read later stage "
                        f"`{base}` (`{base}.{e.member}`)", e.span)
            b = self.stage_nets[base].get(e.member)
            if b is None:
                return self._type_err("E_UNKNOWN_NAME",
                                      f"stage `{base}` has no signal `{e.member}`", e.span)
            new = NameRef(e.span, b.canonical)
            return self._check_expected(new, b.ty, expected)
        if base in self.instances:
            key, summary, _ = self.instances[base]
            port = summary.ports.get(e.member)
            if port is None:
                return self._type_err("E_UNKNOWN_PORT",
                                      f"`{base}` has no port `{e.member}`", e.span)
            direction, ty = port
            if direction != "out":
                return self._type_err(
                    "E_ARROW_DIRECTION",
                    f"`{base}.{e.member}` is an input port; only instance outputs can be read",
                    e.span)
            inst_net = f"{base}.{e.member}"
            self._note_inst_out(base, e.member)
            new = NameRef(e.span, inst_net)
            return self._check_expected(new, ty, expected)
        return self._type_err("E_UNKNOWN_NAME",
                              f"`{base}` is not a stage or instance name", e.span)

    def _note_inst_out(self, inst: str, port: str) -> None:
        pass  # overridden by the translator to materialize inst-out nets

    def _infer_unary(self, e: Unary, expected: Type | None) -> tuple[Expr, Type]:
        if e.op == "!":
            operand, ty = self.infer(e.operand, BOOL)
            new = Unary(e.span, "!", operand)
            return self._check_expected(new, BOOL, expected)
        if e.op == "~":
            operand, ty = self.infer(e.operand, expected)
            if not isinstance(ty, (UInt, SInt, Bit, Bool, ErrorTy)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"`~` needs an integer or bit type, found {ty}", e.span)
            new = Unary(e.span, "~", operand)
            return self._check_expected(new, ty, expected)
        if e.op == "-":
            operand, ty = self.infer(e.operand, expected)
            if not isinstance(ty, (SInt, ErrorTy)):
                return self._type_err(
                    "E_WIDTH_MISMATCH",
                    f"unary `-` needs SInt, found {ty} (negate UInt with `~x + 1`)", e.span)
            new = Unary(e.span, "-", operand)
            return self._check_expected(new, ty, expected)
        raise AssertionError(e.op)

    _ARITH = ("+", "-", "*", "/", "%")
    _WRAP = ("+%", "-%", "*%")
    _SHIFT = ("<<", ">>")
    _BITWISE = ("&", "|", "^")
    _EQ = ("==", "!=")
    _REL = ("<", "<=", ">", ">=")
    _LOGIC = ("&&", "||", "implies")

    def _infer_binary(self, e: Binary, expected: Type | None) -> tuple[Expr, Type]:
        op = e.op
        if op in self._LOGIC:
            lhs, _ = self.infer(e.lhs, BOOL)
            rhs, _ = self.infer(e.rhs, BOOL)
            return self._check_expected(Binary(e.span, op, lhs, rhs), BOOL, expected)

        if op in self._EQ or op in self._REL:
            lhs, rhs, ty = self._unify_operands(e, expected=None)
            if isinstance(ty, ErrorTy):
                return self._type_err_silent(e.span)
            if op in self._REL and not isinstance(ty, (UInt, SInt, Bool, Bit)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"`{op}` needs integer operands, found {ty}", e.span)
            if op in self._EQ and isinstance(ty, Vec):
                return self._type_err("E_WIDTH_MISMATCH",
                                      "Vec values cannot be compared directly", e.span)
            return self._check_expected(Binary(e.span, op, lhs, rhs), BOOL, expected)

        if op in self._WRAP:
            lhs, lty = self.infer(e.lhs, None) if not self.is_poly(e.lhs) else (None, None)
            rhs, rty = self.infer(e.rhs, None) if not self.is_poly(e.rhs) else (None, None)
            if lty is None and rty is None:
                if expected is not None and isinstance(expected, (UInt, SInt)):
                    lhs, lty = self.infer(e.lhs, expected)
                    rhs, rty = self.infer(e.rhs, expected)
                else:
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"cannot determine operand widths of `{op}`",
                                          e.span)
            if lty is None:
                lhs, lty = self.infer(e.lhs, rty)
            if rty is None:
                rhs, rty = self.infer(e.rhs, lty)
            if isinstance(lty, ErrorTy) or isinstance(rty, ErrorTy):
                return self._type_err_silent(e.span)
            for ty, side in ((lty, e.lhs), (rty, e.rhs)):
                if not isinstance(ty, (UInt, SInt, Bool)):
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"`{op}` needs UInt or SInt operands, found {ty}",
                                          side.span)
            if is_signed(lty) != is_signed(rty):
                return self._type_err(
                    "E_WIDTH_MISMATCH",
                    f"`{op}` mixes {lty} and {rty}; convert explicitly", e.span)
            w = max(_width(lty), _width(rty))
            ty = SInt(w) if is_signed(lty) else UInt(w)
            return self._check_expected(Binary(e.span, op, lhs, rhs), ty, expected)

        if op in self._SHIFT:
            # non-widening: equal widths, but the amount is always unsigned
            if self.is_poly(e.lhs):
                if expected is not None and isinstance(expected, (UInt, SInt, Bool)):
                    lhs, lty = self.infer(e.lhs, expected)
                elif not self.is_poly(e.rhs):
                    _, rty0 = self.infer(e.rhs, None)
                    if isinstance(rty0, ErrorTy):
                        return self._type_err_silent(e.span)
                    lhs, lty = self.infer(e.lhs, UInt(_width(rty0)))
                else:
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"cannot determine operand widths of `{op}`",
                                          e.span)
            else:
                lhs, lty = self.infer(e.lhs, None)
            if isinstance(lty, ErrorTy):
                return self._type_err_silent(e.span)
            if not isinstance(lty, (UInt, SInt, Bool)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"`{op}` needs integer operands, found {lty}", e.span)
            amt_ty = UInt(_width(lty))
            rhs, rty = self.infer(e.rhs, amt_ty if self.is_poly(e.rhs) else None)
            if isinstance(rty, ErrorTy):
                return self._type_err_silent(e.span)
            if not isinstance(rty, (UInt, Bool, Bit)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"shift amount must be unsigned, found {rty}",
                                      e.rhs.span)
            if _width(rty) != _width(lty):
                return self._type_err(
                    "E_WIDTH_MISMATCH",
                    f"`{op}` operands have mismatched widths {_width(lty)} and "
                    f"{_width(rty)} (shifts are non-widening)", e.span,
                    help=f"use `.zext<{_width(lty)}>()` on the shift amount")
            new = Binary(e.span, op, lhs, rhs)
            return self._check_expected(new, lty, expected)

        if op in self._ARITH or op in self._BITWISE:
            lhs, rhs, ty = self._unify_operands(e, expected)
            if isinstance(ty, ErrorTy):
                return self._type_err_silent(e.span)
            if op in self._ARITH:
                if isinstance(ty, (Bit,)):
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"`{op}` is not defined on Bit (logic ops only)",
                                          e.span)
                if not isinstance(ty, (UInt, SInt, Bool)):
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"`{op}` needs integer operands, found {ty}", e.span)
            else:
                if not isinstance(ty, (UInt, SInt, Bit, Bool)):
                    return self._type_err("E_WIDTH_MISMATCH",
                                          f"`{op}` needs bit or integer operands, found {ty}",
                                          e.span)
            new = Binary(e.span, op, lhs, rhs)
            return self._check_expected(new, ty, expected)
        raise AssertionError(op)

    def _type_err_silent(self, span: Span) -> tuple[Expr, Type]:
        poison = IntLit(span, 0, "0")
        poison.ty = ERROR_TY
        return poison, ERROR_TY

    def _unify_operands(self, e: Binary, expected: Type | None) -> tuple[Expr, Expr, Type]:
        """Equal-width rule: both operands must share one type; a
        polymorphic side adopts the other side's type."""
        lpoly, rpoly = self.is_poly(e.lhs), self.is_poly(e.rhs)
        if lpoly and rpoly:
            if expected is None:
                self.error("E_WIDTH_MISMATCH",
                           f"cannot determine operand widths of `{e.op}`", e.span)
                return e.lhs, e.rhs, ERROR_TY
            lhs, lty = self.infer(e.lhs, expected)
            rhs, rty = self.infer(e.rhs, expected)
            return lhs, rhs, lty
        if lpoly:
            rhs, rty = self.infer(e.rhs, None)
            lhs, lty = self.infer(e.lhs, rty if not isinstance(rty, ErrorTy) else None)
            return lhs, rhs, rty
        if rpoly:
            lhs, lty = self.infer(e.lhs, None)
            rhs, rty = self.infer(e.rhs, lty if not isinstance(lty, ErrorTy) else None)
            return lhs, rhs, lty
        lhs, lty = self.infer(e.lhs, None)
        rhs, rty = self.infer(e.rhs, None)
        if isinstance(lty, ErrorTy) or isinstance(rty, ErrorTy):
            return lhs, rhs, ERROR_TY
        if not assignable(lty, rty) and not assignable(rty, lty):
            hint = None
            if isinstance(lty, (UInt, SInt)) and isinstance(rty, (UInt, SInt)) \
                    and is_signed(lty) == is_signed(rty):
                wide, narrow = max(_width(lty), _width(rty)), min(_width(lty), _width(rty))
                conv = "sext" if is_signed(lty) else "zext"
                hint = (f"widths are {_width(lty)} and {_width(rty)}; "
                        f"use `.{conv}<{wide}>()` on the {narrow}-bit side")
            self.error("E_WIDTH_MISMATCH",
                       f"`{e.op}` operands have mismatched types {lty} and {rty}",
                       e.span, help=hint)
            return lhs, rhs, ERROR_TY
        ty = lty if not isinstance(lty, (Bool, Bit)) else rty
        return lhs, rhs, ty

    def _infer_index(self, e: Index, expected: Type | None) -> tuple[Expr, Type]:
        base, bty = self.infer(e.base, None)
        if isinstance(bty, ErrorTy):
            return self._type_err_silent(e.span)
        if isinstance(bty, Vec):
            index, ity = self.infer(e.index, None if not self.is_poly(e.index)
                                    else UInt(max(1, (bty.size - 1).bit_length() or 1)))
            if not isinstance(ity, (UInt, Bool, Bit, ErrorTy)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"Vec index must be unsigned, found {ity}", e.index.span)
            cv = const_int(index)
            if cv is not None and cv >= bty.size:
                return self._type_err("E_LITERAL_RANGE",
                                      f"index {cv} is out of range for {bty}", e.index.span)
            new = Index(e.span, base, index)
            return self._check_expected(new, bty.elem, expected)
        if isinstance(bty, (UInt, SInt)):
            index, ity = self.infer(e.index, None if not self.is_poly(e.index)
                                    else UInt(max(1, (bty.width - 1).bit_length() or 1)))
            if not isinstance(ity, (UInt, Bool, Bit, ErrorTy)):
                return self._type_err("E_WIDTH_MISMATCH",
                                      f"bit index must be unsigned, found {ity}", e.index.span)
            cv = const_int(index)
            if cv is not None and cv >= bty.width:
                return self._type_err("E_LITERAL_RANGE",
                                      f"bit {cv} is out of range for {bty}", e.index.span)
            new = Index(e.span, base, index)
            return self._check_expected(new, BIT, expected)
        return self._type_err("E_WIDTH_MISMATCH",
                              f"cannot index into {bty}", e.span)

    def _infer_slice(self, e: Slice, expected: Type | None) -> tuple[Expr, Type]:
        base, bty = self.infer(e.base, None)
        if isinstance(bty, ErrorTy):
            return self._type_err_silent(e.span)
        if not isinstance(bty, (UInt, SInt)):
            return self._type_err("E_WIDTH_MISMATCH",
                                  f"part-select needs UInt or SInt, found {bty}", e.span)
        hi = const_int_raw(e.hi)
        lo = const_int_raw(e.lo)
        if hi is None or lo is None:
            return self._type_err("E_WIDTH_MISMATCH",
                                  "part-select bounds must be compile-time constants", e.span)
        if not (0 <= lo <= hi < bty.width):
            return self._type_err("E_LITERAL_RANGE",
                                  f"part-select [{hi}:{lo}] is out of range for {bty}", e.span)
        hi_e = IntLit(e.hi.span, hi, str(hi))
        hi_e.ty = UInt(max(1, hi.bit_length()))
        lo_e = IntLit(e.lo.span, lo, str(lo))
        lo_e.ty = UInt(max(1, lo.bit_length()))
        new = Slice(e.span, base, hi_e, lo_e)
        return self._check_expected(new, UInt(hi - lo + 1), expected)

    def _infer_convert(self, e: Convert, expected: Type | None) -> tuple[Expr, Type]:
        base, bty = self.infer(e.base, None)
        if isinstance(bty, ErrorTy):
            return self._type_err_silent(e.span)
        n = const_int_raw(e.width)
        if n is None or n < 1:
            return self._type_err("E_BAD_CONVERT",
                                  f"`.{e.kind}<N>()` needs a positive constant width", e.span)
        w_e = IntLit(e.width.span, n, str(n))
        w_e.ty = UInt(max(1, n.bit_length()))
        if e.kind == "zext":
            if not isinstance(bty, (UInt, Bool, Bit)):
                return self._type_err("E_BAD_CONVERT",
                                      f"zext needs an unsigned operand, found {bty}", e.span)
            if n < _width(bty):
                return self._type_err("E_BAD_CONVERT",
                                      f"zext<{n}> cannot narrow {bty}", e.span)
            new = Convert(e.span, "zext", base, w_e)
            return self._check_expected(new, UInt(n), expected)
        if e.kind == "sext":
            if not isinstance(bty, SInt):
                return self._type_err("E_BAD_CONVERT",
                                      f"sext needs SInt, found {bty}", e.span)
            if n < bty.width:
                return self._type_err("E_BAD_CONVERT",
                                      f"sext<{n}> cannot narrow {bty}", e.span)
            new = Convert(e.span, "sext", base, w_e)
            return self._check_expected(new, SInt(n), expected)
        if e.kind == "trunc":
            if not isinstance(bty, (UInt, SInt)):
                return self._type_err("E_BAD_CONVERT",
                                      f"trunc needs UInt or SInt, found {bty}", e.span)
            if n > bty.width:
                return self._type_err("E_BAD_CONVERT",
                                      f"trunc<{n}> cannot widen {bty}; use "
                                      f"`.{'sext' if is_signed(bty) else 'zext'}<{n}>()`",
                                      e.span)
            new = Convert(e.span, "trunc", base, w_e)
            ty = SInt(n) if is_signed(bty) else UInt(n)
            return self._check_expected(new, ty, expected)
        raise AssertionError(e.kind)


def _width(ty: Type) -> int:
    if isinstance(ty, (UInt, SInt)):
        return ty.width
    if isinstance(ty, (Bool, Bit)):
        return 1
    if isinstance(ty, EnumType):
        return ty.width
    raise AssertionError(f"_width({ty})")


# ── constant extraction on typed trees ───────────────────────────


def const_int_raw(e: Expr) -> int | None:
    """Constant value of an untyped tree (param refs already folded)."""
    from .consteval import eval_const
    try:
        return eval_const(e, {})
    except CompileError:
        return None


# ── CoreModule-level analyses ────────────────────────────────────


def derive_defs(core: CoreModule, ctx_diags: list[Diagnostic]) -> None:
    """Turn structured blocks into per-net definitions and per-reg
    next/assigned expressions; enforce single-driver and completeness."""
    driver_site: dict[str, tuple[Span, str]] = {}

    def claim(net: str, span: Span, what: str) -> bool:
        if net in driver_site:
            first_span, first_what = driver_site[net]
            ctx_diags.append(err(
                "E_MULTI_DRIVER",
                f"`{net}` is driven more than once ({first_what} and {what})",
                span, notes=[Note("first driver here", first_span)]))
            return False
        driver_site[net] = (span, what)
        return True

    from .ir import _targets_of, assigned_flag_stmts
    latchy: set[str] = set()
    for block in core.comb_blocks:
        for target in _targets_of(block.stmts):
            net = core.nets.get(target)
            if net is None:
                continue  # diagnosed during translation
            if not claim(target, block.span, "a comb block"):
                continue
            value = muxify(block.stmts, target, Unassigned("initially"), net.ty)
            if isinstance(value, Unassigned):
                if block.origin == "user":
                    latchy.add(target)
                    ctx_diags.append(err(
                        "E_IMPLICIT_LATCH",
                        f"`{target}` is not assigned on every path through this comb "
                        f"block: unassigned {value.why}",
                        block.span,
                        help="assign a default before the branch or add the missing path"))
                else:
                    raise AssertionError(
                        f"generated block leaves {target} unassigned ({value.why})")
                continue
            net.expr = value

    for sblock in core.seq_blocks:
        for target in _targets_of(sblock.stmts):
            reg = core.regs.get(target)
            if reg is None:
                continue
            if not claim(target, sblock.span, "a seq block"):
                continue
            hold = NameRef(sblock.span, target)
            hold.ty = reg.ty
            nxt = muxify(sblock.stmts, target, hold, reg.ty)
            assert not isinstance(nxt, Unassigned)
            reg.next = nxt
            flagged = assigned_flag_stmts(sblock.stmts, target)
            lit_false = BoolLit(sblock.span, False)
            lit_false.ty = BOOL
            assigned = muxify(flagged, target, lit_false, BOOL)
            reg.assigned = assigned

    # every reg without a seq assignment holds its value forever
    for reg in core.regs.values():
        if reg.next is None:
            hold = NameRef(reg.span, reg.name)
            hold.ty = reg.ty
            reg.next = hold
            lit_false = BoolLit(reg.span, False)
            lit_false.ty = BOOL
            reg.assigned = lit_false

    # undriven outputs (latch-poisoned nets were already diagnosed above)
    for port in core.ports:
        if port.direction == "out" and core.nets[port.name].expr is None \
                and port.name not in latchy:
            ctx_diags.append(err("E_UNDRIVEN",
                                 f"output port `{port.name}` is never driven", port.span))

    # undriven child inputs
    for inst in core.instances:
        # in_map is populated during translation; missing entries were
        # diagnosed there
        pass


def analyze_comb(core: CoreModule, summaries: dict[str, Summary],
                 diags: list[Diagnostic]) -> CombGraph | None:
    """Build and sort the comb dependency graph (nets + instance paths)."""
    defs: dict[str, Expr | None] = {}
    spans: dict[str, Span] = {}
    for name, net in core.nets.items():
        defs[name] = net.expr
        spans[name] = net.span
    extra: list[tuple[str, str]] = []
    for inst in core.instances:
        summary = summaries.get(inst.module_key)
        if summary is None:
            continue
        for port, expr in inst.in_map.items():
            in_node = f"{inst.name}.{port}"
            spans.setdefault(in_node, inst.span)
            defs.setdefault(in_node, None)
            for src in sorted(expr_reads(expr)):
                extra.append((src, in_node))
        for pin, pout in sorted(summary.through):
            out_node = f"{inst.name}.{pout}"
            if out_node in core.nets:
                extra.append((f"{inst.name}.{pin}", out_node))
    breakers = set(core.regs)
    try:
        graph = build_comb_graph(defs, extra, breakers, spans)
    except CompileError as e:
        diags.extend(e.diagnostics)
        return None
    core.comb_order = [n for n in graph.order if n in core.nets and core.nets[n].expr is not None]
    core.comb_levels = {n: graph.levels.get(n, 0) for n in core.nets}
    return graph


def analyze_domains(core: CoreModule, summaries: dict[str, Summary],
                    diags: list[Diagnostic], graph: CombGraph) -> Summary:
    """Propagate clock domains, enforce CDC rules, and produce the summary
    exported to instantiating parents. Reachability runs over the full
    comb graph (net defs plus instance through-edges), so through-paths
    and consumption domains compose across nested instances."""
    domains: dict[str, set[str]] = {}
    for port in core.ports:
        domains[port.name] = set()
    for name, reg in core.regs.items():
        domains[name] = set() if reg.domain_neutral else {reg.domain}

    inst_by_name = {i.name: i for i in core.instances}

    def domain_of_expr(e: Expr) -> set[str]:
        out: set[str] = set()
        for n in expr_reads(e):
            out |= domains.get(n, set())
        return out

    # instance outputs first need their input connections resolved lazily,
    # so iterate nets in topological order
    for name in core.comb_order:
        net = core.nets[name]
        if net.expr is None:
            continue
        srcs = domain_of_expr(net.expr)
        if len(srcs) > 1:
            a, b = sorted(srcs)[:2]
            diags.append(err(
                "E_CDC",
                f"`{name}` mixes clock domains `{a}` and `{b}` combinationally",
                net.span,
                help="cross domains through a synchronizer (1-bit) or an async fifo (bulk data)"))
        domains[name] = srcs

    # instance-out nets: child's producing domains plus comb-through sources
    for inst in core.instances:
        summary = summaries.get(inst.module_key)
        if summary is None:
            continue
        for out_port in inst.out_used:
            net_name = f"{inst.name}.{out_port}"
            srcs = set(summary.out_domains.get(out_port, set()))
            for pin, pout in summary.through:
                if pout == out_port and pin in inst.in_map:
                    srcs |= domain_of_expr(inst.in_map[pin])
            domains[net_name] = srcs

    # re-run net propagation once now that inst-out domains are known
    # (inst-out nets are sources in the topo order, so one pass suffices)
    for name in core.comb_order:
        net = core.nets[name]
        if net.expr is None:
            continue
        srcs = domain_of_expr(net.expr)
        if len(srcs) > 1 and len(domains.get(name, ())) <= 1:
            a, b = sorted(srcs)[:2]
            diags.append(err(
                "E_CDC",
                f"`{name}` mixes clock domains `{a}` and `{b}` combinationally",
                net.span,
                help="cross domains through a synchronizer (1-bit) or an async fifo (bulk data)"))
        domains[name] = srcs

    # seq blocks: everything read must live in the block's domain
    # (auto-cdc blocks are the sanctioned synchronizer capture points)
    seq_reads = []
    for sblock in core.seq_blocks:
        read: set[str] = set()
        for st in sblock.stmts:
            _stmt_reads(st, read)
        seq_reads.append((sblock, read))
    for sblock, read in seq_reads:
        if sblock.origin == "auto-cdc":
            continue
        for n in sorted(read):
            srcs = domains.get(n, set())
            bad = srcs - {sblock.domain}
            if bad:
                other = sorted(bad)[0]
                target = next(iter(_seq_targets(sblock)), "?")
                diags.append(err(
                    "E_CDC",
                    f"register `{target}` in domain `{sblock.domain}` reads `{n}` "
                    f"from domain `{other}`",
                    sblock.span,
                    help="cross domains through a synchronizer (1-bit) or an async fifo (bulk data)"))

    # instance input connections vs. child consumption domains
    for inst in core.instances:
        summary = summaries.get(inst.module_key)
        if summary is None:
            continue
        for port, expr in sorted(inst.in_map.items()):
            pd = summary.ports.get(port)
            if pd is None:
                continue
            _, pty = pd
            srcs = domain_of_expr(expr)
            if isinstance(pty, Clock):
                continue  # nominal domain equality enforced by type check
            if port in summary.bridge_in:
                want = summary.bridge_in[port]
                bad = srcs - {want}
                if bad:
                    diags.append(err(
                        "E_SYNC_TYPE",
                        f"synchronizer `{inst.name}` expects `{port}` from domain "
                        f"`{want}`, got domain `{sorted(bad)[0]}`", inst.span))
                continue
            consumed = summary.in_domains.get(port, set())
            for d in sorted(consumed):
                bad = srcs - {d}
                if bad:
                    diags.append(err(
                        "E_CDC",
                        f"`{inst.name}.{port}` is consumed in domain `{d}` but driven "
                        f"from domain `{sorted(bad)[0]}`", inst.span,
                        help="cross domains through a synchronizer (1-bit) or an async fifo (bulk data)"))

    # property clock resolution happens in lower (needs clock ports)

    # ── summary for parents ─────────────────────────────────────
    ports = {p.name: (p.direction, p.ty) for p in core.ports}
    summary = Summary(ports)
    in_ports = [p.name for p in core.ports if p.direction == "in"
                and not isinstance(p.ty, (Clock, Reset))]
    out_ports = [p.name for p in core.ports if p.direction == "out"]

    # comb reachability, one pass in topological order: bit i of a node's
    # mask is set when in_ports[i] reaches it. Register reads are already
    # cut from the graph and instance through-paths are edges in it, so
    # paths through (possibly nested) instances are included.
    reach = {p: 1 << i for i, p in enumerate(in_ports)}
    rev = graph.rev
    for node in graph.order:
        mask = reach.get(node, 0)
        for src in rev.get(node, ()):
            mask |= reach[src]
        reach[node] = mask

    def reach_of(names) -> int:
        mask = 0
        for n in names:
            mask |= reach.get(n, 0)
        return mask

    for o in out_ports:
        for p in _mask_names(reach.get(o, 0), in_ports):
            summary.through.add((p, o))
        summary.out_domains[o] = set(domains.get(o, set()))
    # consumption: an input reaching a read of a seq block of domain D, or
    # an instance input that the child consumes in D
    consumed: dict[str, int] = {}
    for sblock, read in seq_reads:
        consumed[sblock.domain] = consumed.get(sblock.domain, 0) | reach_of(read)
    feeds_child = 0  # inputs reaching any child input get an entry, maybe empty
    for inst in core.instances:
        child = summaries.get(inst.module_key)
        if child is None:
            continue
        for port, expr in inst.in_map.items():
            mask = reach_of(expr_reads(expr))
            feeds_child |= mask
            for d in child.in_domains.get(port, ()):
                consumed[d] = consumed.get(d, 0) | mask
    for d, mask in consumed.items():
        for p in _mask_names(mask, in_ports):
            summary.in_domains.setdefault(p, set()).add(d)
    for p in _mask_names(feeds_child, in_ports):
        summary.in_domains.setdefault(p, set())
    return summary


def _mask_names(mask: int, names: list[str]) -> list[str]:
    """The names whose bit is set in `mask` (bit i is names[i])."""
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return out


def _stmt_reads(st: Stmt, out: set[str]) -> None:
    if isinstance(st, SAssign):
        expr_reads(st.rhs, out)
        if isinstance(st.lhs, Index):
            expr_reads(st.lhs.index, out)
    elif isinstance(st, SIf):
        expr_reads(st.cond, out)
        for s in st.then:
            _stmt_reads(s, out)
        for s in st.els or []:
            _stmt_reads(s, out)
    elif isinstance(st, SMatch):
        expr_reads(st.subject, out)
        for c in st.cases:
            for s in c.stmts:
                _stmt_reads(s, out)
        for s in st.else_stmts or []:
            _stmt_reads(s, out)


def _seq_targets(sblock) -> list[str]:
    from .ir import _targets_of
    return _targets_of(sblock.stmts)


def check_guards(core: CoreModule, diags: list[Diagnostic]) -> None:
    for reg in core.regs.values():
        if reg.guard is None:
            continue
        guard = core.regs.get(reg.guard)
        if guard is None:
            diags.append(err("E_GUARD_NOT_BOOL",
                             f"guard signal `{reg.guard}` of `{reg.name}` is not a "
                             f"declared register", reg.span))
            continue
        if not isinstance(guard.ty, Bool):
            diags.append(err("E_GUARD_NOT_BOOL",
                             f"guard signal `{reg.guard}` of `{reg.name}` must be Bool, "
                             f"found {guard.ty}", reg.span))
        if guard.reset_sig is None:
            diags.append(err("E_GUARD_NO_RESET",
                             f"guard signal `{reg.guard}` of `{reg.name}` must declare a "
                             f"reset so the valid flag is defined from cycle 0", reg.span))
        if guard.domain != reg.domain:
            diags.append(err("E_GUARD_DOMAIN",
                             f"guard signal `{reg.guard}` is in domain `{guard.domain}` "
                             f"but `{reg.name}` is in domain `{reg.domain}`", reg.span))
