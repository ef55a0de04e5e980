"""Deterministic SystemVerilog emission: one lint-clean file per construct.

Two-state output style: everything is `logic`, resets drive explicit
constants, and there are no x/z literals anywhere. Properties are the only
pragma-wrapped section (translate_off/on). Byte-identical output for
identical CoreModule input.
"""

from __future__ import annotations

from .ast_nodes import (
    Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit, NameRef,
    SAssign, SIf, SMatch, Slice, Stmt, Ternary, TodoExpr, Unary,
)
from .ir import CoreModule, CoreReg, CoreSeqBlock
from .ops import BINARY, UNARY
from .types import Bit, Bool, Clock, EnumType, Reset, SInt, Type, UInt, Vec

SV_KEYWORDS = frozenset("""
alias always always_comb always_ff always_latch and assert assign assume
automatic before begin bind bins binsof bit break buf bufif0 bufif1 byte
case casex casez cell chandle class clocking cmos config const constraint
context continue cover covergroup coverpoint cross deassign default defparam
design disable dist do edge else end endcase endclass endclocking endconfig
endfunction endgenerate endgroup endinterface endmodule endpackage
endprimitive endprogram endproperty endspecify endsequence endtable endtask
enum event expect export extends extern final first_match for force foreach
forever fork forkjoin function generate genvar highz0 highz1 if iff ifnone
ignore_bins illegal_bins import incdir include initial inout input inside
instance int integer interface intersect join join_any join_none large liblist
library local localparam logic longint macromodule matches medium modport
module nand negedge new nmos nor noshowcancelled not notif0 notif1 null or
output package packed parameter pmos posedge primitive priority program
property protected pull0 pull1 pulldown pullup pulsestyle_onevent
pulsestyle_ondetect pure rand randc randcase randsequence rcmos real realtime
ref reg release repeat return rnmos rpmos rtran rtranif0 rtranif1 scalared
sequence shortint shortreal showcancelled signed small solve specify
specparam static string strong0 strong1 struct super supply0 supply1 table
tagged task this throughout time timeprecision timeunit tran tranif0 tranif1
tri tri0 tri1 triand trior trireg type typedef union unique unsigned use uwire
var vectored virtual void wait wait_order wand weak0 weak1 while wildcard wire
with within wor xnor xor
""".split())

_UNARY = UNARY["!"].sv_prec  # SV's precedence of the prefix operators


class SvNamer:
    """Stable mapping canonical net names -> legal SV identifiers."""

    def __init__(self, core: CoreModule) -> None:
        self.map: dict[str, str] = {}
        taken: set[str] = set()

        def alloc(name: str) -> str:
            sv = name.replace(".", "_")
            if sv in SV_KEYWORDS:
                sv += "_aq"
            while sv in taken:
                sv += "_aq"
            taken.add(sv)
            return sv

        for port in core.ports:
            self.map[port.name] = alloc(port.name)
        for name in core.nets:
            if name not in self.map:
                self.map[name] = alloc(name)
        for name in core.regs:
            if name not in self.map:
                self.map[name] = alloc(name)
        for inst in core.instances:
            if inst.name not in self.map:
                self.map[inst.name] = alloc(inst.name)

    def __getitem__(self, name: str) -> str:
        return self.map[name]


def _decl_type(ty: Type) -> tuple[str, str]:
    """(packed part, unpacked suffix) of a declaration."""
    if isinstance(ty, (Bool, Bit, Clock, Reset)):
        return "logic", ""
    if isinstance(ty, UInt):
        return ("logic" if ty.width == 1 else f"logic [{ty.width - 1}:0]"), ""
    if isinstance(ty, SInt):
        return f"logic signed [{ty.width - 1}:0]", ""
    if isinstance(ty, EnumType):
        w = ty.width
        return ("logic" if w == 1 else f"logic [{w - 1}:0]"), ""
    if isinstance(ty, Vec):
        packed, unpacked = _decl_type(ty.elem)
        return packed, f" [0:{ty.size - 1}]" + unpacked
    raise AssertionError(f"_decl_type({ty})")


def _lit_text(value: int, ty: Type) -> str:
    if isinstance(ty, SInt):
        if value < 0:
            return f"-{ty.width}'sd{-value}"
        return f"{ty.width}'sd{value}"
    if isinstance(ty, (Bool, Bit)):
        return f"1'b{value & 1}"
    width = ty.width if isinstance(ty, (UInt, EnumType)) else 1
    if width > 32 or value >= (1 << 32):
        return f"{width}'h{value:x}"
    return f"{width}'d{value}"


class Emitter:
    def __init__(self, core: CoreModule) -> None:
        self.core = core
        self.names = SvNamer(core)
        self.lines: list[str] = []
        self.depth = 1
        self.consts: dict[str, tuple[int, Type]] = {}  # display name -> value

    def out(self, text: str = "") -> None:
        self.lines.append(("  " * self.depth + text) if text else "")

    # ── expressions ──────────────────────────────────────────────

    def expr(self, e: Expr, parent: int = 0) -> str:
        text, prec = self._expr(e)
        return f"({text})" if prec < parent else text

    def _expr(self, e: Expr) -> tuple[str, int]:
        if isinstance(e, IntLit):
            cname = getattr(e, "const_name", None)
            if cname is not None:
                self.consts.setdefault(cname, (e.value, e.ty))
                return cname, 99
            return _lit_text(e.value, e.ty), 99
        if isinstance(e, BoolLit):
            return ("1'b1" if e.value else "1'b0"), 99
        if isinstance(e, NameRef):
            return self.names[e.name], 99
        if isinstance(e, EnumRef):
            ty = e.ty
            cname = f"E_{ty.name}_{e.variant}"
            self.consts.setdefault(cname, (ty.variants.index(e.variant), ty))
            return cname, 99
        if isinstance(e, TodoExpr):
            raise AssertionError("todo! reached SV emission; build refuses earlier")
        if isinstance(e, Unary):
            row = UNARY[e.op]
            return f"{row.sv[0]}{self.expr(e.operand, row.sv_prec)}", row.sv_prec
        if isinstance(e, Binary):
            row = BINARY[e.op]
            p = row.sv_prec
            op = row.sv[isinstance(e.lhs.ty, SInt)]
            if e.op == "implies":  # `(!a || b)`
                return f"(!{self.expr(e.lhs, _UNARY)} {op} {self.expr(e.rhs, p)})", 99
            text = f"{self.expr(e.lhs, p)} {op} {self.expr(e.rhs, p + 1)}"
            if row.group == "wrap":  # modulo the result width
                return f"{e.ty.width}'({text})", 99
            return text, p
        if isinstance(e, (Ternary, IfExpr)):
            return (f"{self.expr(e.cond, 2)} ? {self.expr(e.then, 2)} : "
                    f"{self.expr(e.els, 1)}"), 1
        if isinstance(e, Index):
            return f"{self.expr(e.base, _UNARY + 1)}[{self.expr(e.index)}]", _UNARY + 1
        if isinstance(e, Slice):
            return (f"{self.expr(e.base, _UNARY + 1)}"
                    f"[{e.hi.value}:{e.lo.value}]"), _UNARY + 1
        if isinstance(e, Convert):
            w = e.ty.width
            return f"{w}'({self.expr(e.base)})", 99
        raise AssertionError(f"sv expr: {e!r}")

    # ── statements ───────────────────────────────────────────────

    def block(self, stmts: list[Stmt]) -> None:
        """`stmts`, one level deeper."""
        self.depth += 1
        for s in stmts:
            self.stmt(s)
        self.depth -= 1

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, SAssign):
            op = "<=" if s.kind == "<=" else "="
            if isinstance(s.lhs, Index):
                lhs = f"{self.names[s.lhs.base.name]}[{self.expr(s.lhs.index)}]"
            else:
                lhs = self.names[s.lhs.name]
            self.out(f"{lhs} {op} {self.expr(s.rhs)};")
        elif isinstance(s, SIf):
            if not s.then and s.els:
                # empty taken-branch (stall-style hold): invert for readability
                self.out(f"if (!{self.expr(s.cond, _UNARY)}) begin")
                self.block(s.els)
                self.out("end")
                return
            self.out(f"if ({self.expr(s.cond)}) begin")
            self.block(s.then)
            if s.els is not None:
                self.out("end else begin")
                self.block(s.els)
            self.out("end")
        elif isinstance(s, SMatch):
            self.out(f"unique case ({self.expr(s.subject)})")
            self.depth += 1
            cases = s.cases
            default: list[Stmt] | None = s.else_stmts
            default_label = "default"
            if default is None and cases:
                default = cases[-1].stmts
                default_label = f"default /* {self.expr(cases[-1].patterns[0])} */"
                cases = cases[:-1]
            for c in cases:
                self.out(f"{self.expr(c.patterns[0])}: begin")
                self.block(c.stmts)
                self.out("end")
            if default is not None:
                self.out(f"{default_label}: begin")
                self.block(default)
                self.out("end")
            self.depth -= 1
            self.out("endcase")
        else:
            raise AssertionError(s)

    # ── seq blocks ───────────────────────────────────────────────

    def _slice_stmts(self, stmts: list[Stmt], targets: set[str]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, SAssign):
                name = s.lhs.base.name if isinstance(s.lhs, Index) else s.lhs.name
                if name in targets:
                    out.append(s)
            elif isinstance(s, SIf):
                then = self._slice_stmts(s.then, targets)
                els = self._slice_stmts(s.els, targets) if s.els is not None else None
                if then or els:
                    out.append(SIf(s.span, s.cond, then, els if els else None))
            elif isinstance(s, SMatch):
                cases = []
                any_arm = False
                for c in s.cases:
                    sliced = self._slice_stmts(c.stmts, targets)
                    any_arm = any_arm or bool(sliced)
                    cases.append(type(c)(c.patterns, sliced))
                els = (self._slice_stmts(s.else_stmts, targets)
                       if s.else_stmts is not None else None)
                if any_arm or els:
                    out.append(SMatch(s.span, s.subject, cases, els))
        return out

    def seq_block(self, block: CoreSeqBlock) -> None:
        from .ir import _targets_of
        targets = _targets_of(block.stmts)
        groups: dict[tuple, list[str]] = {}
        for t in targets:
            reg = self.core.regs[t]
            key = (reg.reset_sig or "", reg.reset_sync or "", reg.reset_polarity or "")
            groups.setdefault(key, []).append(t)
        edge = "posedge" if block.edge == "rising" else "negedge"
        clk = self.names[block.clock]
        for key in sorted(groups):
            reset_sig, sync, polarity = key
            members = groups[key]
            body = self._slice_stmts(block.stmts, set(members))
            sens = f"{edge} {clk}"
            if reset_sig and sync == "Async":
                sens += (f" or posedge {self.names[reset_sig]}" if polarity == "High"
                         else f" or negedge {self.names[reset_sig]}")
            self.out(f"always_ff @({sens}) begin")
            self.depth += 1
            if reset_sig:
                cond = (self.names[reset_sig] if polarity == "High"
                        else f"!{self.names[reset_sig]}")
                self.out(f"if ({cond}) begin")
                self.depth += 1
                for t in members:
                    reg = self.core.regs[t]
                    self.out(f"{self.names[t]} {'<='} {self._reset_text(reg)};")
                self.depth -= 1
                self.out("end else begin")
                self.block(body)
                self.out("end")
            else:
                for s in body:
                    self.stmt(s)
            self.depth -= 1
            self.out("end")
            self.out()

    def _reset_text(self, reg: CoreReg) -> str:
        if isinstance(reg.ty, Vec):
            return "'{default: '0}"
        assert reg.reset_value is not None
        return self.expr(reg.reset_value)

    # ── module ───────────────────────────────────────────────────

    def emit(self) -> str:
        core = self.core
        head = [f"// {core.key}.sv", f"// {core.kind} `{core.name}` compiled by archc."]
        if core.port_alias:
            head.append("// generated names:")
            for flat, display in sorted(core.port_alias.items()):
                head.append(f"//   {display} -> {flat}")

        # body first: expression emission collects named constants
        self.depth = 1
        body: list[str] = []
        self.lines = body

        # net declarations (non-port)
        had_decl = False
        for name, net in core.nets.items():
            if net.kind in ("port-in", "port-out"):
                continue
            packed, unpacked = _decl_type(net.ty)
            self.out(f"{packed} {self.names[name]}{unpacked};")
            had_decl = True
        for name, reg in core.regs.items():
            packed, unpacked = _decl_type(reg.ty)
            self.out(f"{packed} {self.names[name]}{unpacked};")
            had_decl = True
        if had_decl:
            self.out()

        # continuous assigns and always_comb blocks
        for block in core.comb_blocks:
            if block.style == "assign" and len(block.stmts) == 1 \
                    and isinstance(block.stmts[0], SAssign):
                s = block.stmts[0]
                self.out(f"assign {self.names[s.lhs.name]} = {self.expr(s.rhs)};")
            else:
                self.out("always_comb begin")
                self.block(block.stmts)
                self.out("end")
            self.out()

        for block in core.seq_blocks:
            self.seq_block(block)

        for inst in core.instances:
            self.out(f"{inst.module_key} {self.names[inst.name]} (")
            self.depth += 1
            conns: list[str] = []
            for port in sorted(inst.in_map):
                conns.append(f".{port}({self.expr(inst.in_map[port])})")
            for port in sorted(inst.out_used):
                conns.append(f".{port}({self.names[f'{inst.name}.{port}']})")
            for i, c in enumerate(conns):
                self.out(c + ("," if i < len(conns) - 1 else ""))
            self.depth -= 1
            self.out(");")
            self.out()

        if core.properties:
            self.out("// synopsys translate_off")
            for prop in core.properties:
                self.property_line(prop)
            self.out("// synopsys translate_on")
            self.out()

        # header and declarations around the collected body
        out: list[str] = list(head)
        out.append("")
        params = [p for p in core.params]
        port_lines: list[str] = []
        for i, p in enumerate(core.ports):
            packed, unpacked = _decl_type(p.ty)
            direction = "input " if p.direction == "in" else "output"
            comma = "," if i < len(core.ports) - 1 else ""
            port_lines.append(f"  {direction} {packed} {self.names[p.name]}{unpacked}{comma}")
        const_params = [p for p in params if p.kind == "const"]
        for p in params:
            if p.kind == "type":
                out.append(f"// param {p.name}: type = {p.default_text} (elaborated)")
        if const_params:
            out.append(f"module {core.key} #(")
            for i, p in enumerate(const_params):
                # derived defaults keep the original expression text
                default = p.default_text if p.references_params else str(p.value)
                comma = "," if i < len(const_params) - 1 else ""
                out.append(f"  parameter int {p.name} = {default}{comma}")
            out.append(") (")
        else:
            out.append(f"module {core.key} (")
        out.extend(port_lines)
        out.append(");")
        out.append("")
        if self.consts:
            for cname, (value, ty) in self.consts.items():
                out.append(f"  localparam {_decl_type(ty)[0]} {cname} = {_lit_text(value, ty)};")
            out.append("")
        out.extend(body)
        out.append("endmodule")
        return "\n".join(line.rstrip() for line in out).rstrip() + "\n"

    def property_line(self, prop) -> None:
        body = self.expr(prop.expr)
        kind = "assert" if prop.kind == "assert" else "cover"
        if prop.clock is None:
            self.out(f"always_comb {prop.name}_imm: {kind} ({body});")
            return
        clk = self.names[prop.clock]
        disable = ""
        if prop.reset_sig is not None:
            rst = self.names[prop.reset_sig]
            disable = (f" disable iff ({rst})" if prop.reset_polarity == "High"
                       else f" disable iff (!{rst})")
        self.out(f"{prop.name}: {kind} property (@(posedge {clk}){disable} ({body}));")


def emit_module(core: CoreModule) -> str:
    """Deterministic SystemVerilog text for one CoreModule."""
    return Emitter(core).emit()


def sv_file_name(core: CoreModule) -> str:
    return f"{core.key}.sv"
