"""Lowering: every construct becomes a CoreModule of regs, comb blocks,
seq blocks, instances, and properties.

module    -> direct translation
fsm       -> state register + next-state case + layered output comb,
             _auto_legal_state, per-state and per-transition covers
counter   -> count register (wrapping or saturating), _auto_count_range
synchronizer -> dst-clocked flip-flop chain (legal CDC bridge)
fifo      -> single-clock pointer fifo or dual-clock gray-pointer fifo,
             _auto_no_overflow / _auto_no_underflow
pipeline  -> per-stage valid_r, stall back-propagation, flush masks

synthesize_safety_props adds _auto_bound_* for dynamic indexing in seq
context and _auto_div0_* for non-constant division/modulo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import (
    AssertDecl, Binary, BoolLit, CombBlock, Convert, CoverDecl, DefaultBlock,
    DefaultStateDecl, EnumDecl, Expr, FlushDecl, Index, InstDecl, IntLit,
    KindDecl, LetDecl, MatchCase, NameRef, PortDecl, RegDecl, SAssign, SIf,
    SMatch, SeqBlock, Slice, StageDecl, StallDecl, StateDecl, Stmt, Ternary,
)
from .consteval import clog2
from .diagnostics import CompileError, Diagnostic, Note
from .elaborate import ElabConstruct, Program
from .ir import (
    CoreCombBlock, CoreInstance, CoreModule, CorePort, CoreProperty, CoreReg,
    NetDef, expr_reads, walk_expr,
)
from .source import Span
from .typecheck import (
    Binding, Ctx, ERROR_TY, ErrorTy, Summary, analyze_comb, analyze_domains,
    check_guards, const_int, derive_defs,
)
from .types import (
    BOOL, Clock, Reset, SInt, Type, UInt, Vec, assignable, is_one_bit_data,
)

# ── typed expression builders for generated logic ────────────────


def lit(value: int, ty: Type, span: Span, text: str | None = None) -> IntLit:
    e = IntLit(span, value, text if text is not None else str(value))
    e.ty = ty
    return e


def blit(value: bool, span: Span) -> BoolLit:
    e = BoolLit(span, value)
    e.ty = BOOL
    return e


def ref(name: str, ty: Type, span: Span) -> NameRef:
    e = NameRef(span, name)
    e.ty = ty
    return e


def bin_op(op: str, a: Expr, b: Expr, ty: Type, span: Span) -> Binary:
    e = Binary(span, op, a, b)
    e.ty = ty
    return e


def eq(a: Expr, b: Expr, span: Span) -> Binary:
    return bin_op("==", a, b, BOOL, span)


def ne(a: Expr, b: Expr, span: Span) -> Binary:
    return bin_op("!=", a, b, BOOL, span)


def and_(a: Expr, b: Expr, span: Span) -> Binary:
    return bin_op("&&", a, b, BOOL, span)


def or_(a: Expr, b: Expr, span: Span) -> Binary:
    return bin_op("||", a, b, BOOL, span)


def not_(a: Expr, span: Span) -> Expr:
    from .ast_nodes import Unary
    e = Unary(span, "!", a)
    e.ty = BOOL
    return e


def ite(c: Expr, a: Expr, b: Expr, span: Span) -> Ternary:
    e = Ternary(span, c, a, b)
    e.ty = a.ty
    return e


def assign(name: str, ty: Type, value: Expr, span: Span) -> SAssign:
    return SAssign(span, ref(name, ty, span), value, "=")


def seq_assign(name: str, ty: Type, value: Expr, span: Span) -> SAssign:
    return SAssign(span, ref(name, ty, span), value, "<=")


# ── translation context ──────────────────────────────────────────


class Translator(Ctx):
    def __init__(self, ec: ElabConstruct, summaries: dict[str, Summary],
                 fsm_encoding: str) -> None:
        super().__init__(ec, summaries)
        self.fsm_encoding = fsm_encoding
        self.core = CoreModule(ec.key, ec.name, ec.kind, ec.params, [],
                               port_alias=dict(ec.port_alias), enums=dict(ec.enums),
                               span=ec.span)
        self.prop_names: dict[str, Span] = {}
        self.core_insts: dict[str, CoreInstance] = {}
        self.sync_bridge: tuple[str, str] | None = None  # (port, src domain)

    # materialize instance-output nets on first read
    def _note_inst_out(self, inst: str, port: str) -> None:
        net = f"{inst}.{port}"
        if net not in self.core.nets:
            _, summary, span = self.instances[inst]
            ty = summary.ports[port][1]
            self.core.nets[net] = NetDef(net, ty, "inst-out", None, span)
        ci = self.core_insts.get(inst)
        if ci is not None and port not in ci.out_used:
            ci.out_used.append(port)

    # ── declarations ─────────────────────────────────────────────

    def declare_port(self, p: PortDecl) -> None:
        ty = self._resolve(p.type)
        kind = "port-in" if p.direction == "in" else "port-out"
        if p.direction == "out" and isinstance(ty, (Clock, Reset)):
            self.error("E_PORT_SET", f"`{p.name}`: {ty} ports must be inputs", p.span)
        self.declare(p.name, ty, kind, p.span)
        self.core.ports.append(CorePort(p.name, p.direction, ty, p.span))
        self.core.nets[p.name] = NetDef(p.name, ty, kind, None, p.span)

    def _resolve(self, texpr) -> Type:
        from .elaborate import resolve_type
        try:
            return resolve_type(texpr, self.ec)
        except CompileError as e:
            self.diags.extend(e.diagnostics)
            return ERROR_TY

    def declare_reg(self, r: RegDecl, stage: str | None) -> None:
        ty = self._resolve(r.type)
        b = self.declare(r.name, ty, "reg", r.span, stage)
        reset_sig = reset_value = reset_sync = reset_pol = None
        if r.reset_sig is not None:
            rst = self.bindings.get(r.reset_sig)
            if rst is None or not isinstance(rst.ty, Reset):
                self.error("E_UNKNOWN_NAME",
                           f"reset signal `{r.reset_sig}` is not a declared Reset port",
                           r.span)
            else:
                reset_sig = rst.canonical
                reset_sync, reset_pol = rst.ty.sync, rst.ty.polarity
            value, vty = self.infer(r.reset_value, ty)
            if const_int(value) is None and not isinstance(vty, type(ERROR_TY)):
                self.error("E_UNSUPPORTED",
                           "reset value must be a compile-time constant", r.reset_value.span)
            reset_value = value
        guard = r.guard_sig
        reg = CoreReg(b.canonical, ty, clock="", domain="", edge="rising",
                      reset_sig=reset_sig, reset_value=reset_value,
                      reset_sync=reset_sync, reset_polarity=reset_pol,
                      guard=guard, origin="user", span=r.span)
        self.core.regs[b.canonical] = reg

    def add_reg(self, name: str, ty: Type, clock: str, domain: str,
                reset_sig: str | None, reset_value: Expr | None, span: Span, *,
                reset_sync: str | None = None, reset_polarity: str | None = None,
                uninit_exempt: bool = False, cdc_chain: str | None = None,
                domain_neutral: bool = False) -> CoreReg:
        reg = CoreReg(name, ty, clock=clock, domain=domain, edge="rising",
                      reset_sig=reset_sig, reset_value=reset_value,
                      reset_sync=reset_sync, reset_polarity=reset_polarity,
                      guard=None, origin="auto", span=span,
                      uninit_exempt=uninit_exempt, cdc_chain=cdc_chain,
                      domain_neutral=domain_neutral)
        self.core.regs[name] = reg
        self.bindings[name] = Binding(name, ty, "reg", span)
        return reg

    def fresh(self, base: str) -> str:
        name = base
        while self.lookup(name) is not None or name in self.core.nets:
            name += "_a"
        return name

    # ── statements ───────────────────────────────────────────────

    def translate_stmts(self, stmts: list[Stmt], mode: str) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            t = self.translate_stmt(s, mode)
            if t is not None:
                out.append(t)
        return out

    def translate_stmt(self, s: Stmt, mode: str) -> Stmt | None:
        if isinstance(s, SAssign):
            return self.translate_assign(s, mode)
        if isinstance(s, SIf):
            cond, cty = self.infer(s.cond, BOOL)
            then = self.translate_stmts(s.then, mode)
            els = self.translate_stmts(s.els, mode) if s.els is not None else None
            return SIf(s.span, cond, then, els)
        if isinstance(s, SMatch):
            subject, sty = self.infer(s.subject, None)
            cases = []
            for c in s.cases:
                pats = []
                for p in c.patterns:
                    tp, pty = self.infer(p, sty)
                    cv = const_int(tp)
                    if cv is None and not isinstance(pty, type(ERROR_TY)):
                        self.error("E_UNSUPPORTED",
                                   "match patterns must be literals or enum variants",
                                   p.span)
                    pats.append(tp)
                cases.append(MatchCase(pats, self.translate_stmts(c.stmts, mode)))
            els = (self.translate_stmts(s.else_stmts, mode)
                   if s.else_stmts is not None else None)
            return SMatch(s.span, subject, cases, els)
        raise AssertionError(s)

    def translate_assign(self, s: SAssign, mode: str) -> Stmt | None:
        lhs = s.lhs
        index_expr = None
        if isinstance(lhs, Index):
            index_expr = lhs.index
            lhs = lhs.base
        name = lhs.name
        b = self.lookup(name)
        if b is None:
            if mode == "comb" and index_expr is None:
                rhs, rty = self.infer(s.rhs, None)
                if isinstance(rty, type(ERROR_TY)):
                    return None
                b = self.declare(name, rty, "internal",
                                 lhs.span, self.current_stage)
                self.core.nets[b.canonical] = NetDef(b.canonical, rty, "internal",
                                                     None, lhs.span)
                return SAssign(s.span, ref(b.canonical, rty, lhs.span), rhs, "=")
            self.error("E_UNKNOWN_NAME", f"unknown name `{name}`", lhs.span)
            return None
        if b.kind == "port-in":
            self.error("E_DRIVE_INPUT",
                       f"`{name}` is an input port and cannot be driven", lhs.span)
            return None
        if mode == "comb":
            if b.kind == "reg":
                self.error("E_BAD_LHS",
                           f"`{name}` is a register; assign it with `<=` inside a seq block",
                           lhs.span)
                return None
            if index_expr is not None:
                self.error("E_BAD_LHS",
                           "Vec element assignment is only supported in seq blocks",
                           lhs.span)
                return None
            rhs, _ = self.infer(s.rhs, b.ty)
            return SAssign(s.span, ref(b.canonical, b.ty, lhs.span), rhs, "=")
        # seq
        if b.kind != "reg":
            self.error("E_BAD_LHS",
                       f"`{name}` is not a register; `<=` targets registers", lhs.span)
            return None
        if index_expr is not None:
            if not isinstance(b.ty, Vec):
                self.error("E_BAD_LHS", f"`{name}` is not a Vec", lhs.span)
                return None
            idx, _ = self.infer(index_expr,
                                UInt(max(1, clog2(max(2, b.ty.size))))
                                if self.is_poly(index_expr) else None)
            cv = const_int(idx)
            if cv is not None and cv >= b.ty.size:
                self.error("E_LITERAL_RANGE",
                           f"index {cv} is out of range for {b.ty}", index_expr.span)
            rhs, _ = self.infer(s.rhs, b.ty.elem)
            target = Index(s.lhs.span, ref(b.canonical, b.ty, lhs.span), idx)
            target.ty = b.ty.elem
            return SAssign(s.span, target, rhs, "<=")
        rhs, _ = self.infer(s.rhs, b.ty)
        return SAssign(s.span, ref(b.canonical, b.ty, lhs.span), rhs, "<=")

    # ── item groups shared by construct kinds ────────────────────

    def predeclare_internals(self, items: list) -> None:
        """Comb-block assignment targets may be internal nets that other
        blocks reference before their defining block in text order (the
        loop-detection contract needs `comb a = b; comb b = a;` to reach
        the graph). Relaxation: infer target types from first-assignment
        right-hand sides until no progress; cyclic leftovers get the
        poison type so the comb graph still sees their reads."""
        pending: list[tuple[str | None, str, Expr]] = []

        def scan_stmts(stmts, stage):
            for s in stmts:
                if isinstance(s, SAssign) and isinstance(s.lhs, NameRef):
                    pending.append((stage, s.lhs.name, s.rhs))
                elif isinstance(s, SIf):
                    scan_stmts(s.then, stage)
                    scan_stmts(s.els or [], stage)
                elif isinstance(s, SMatch):
                    for c in s.cases:
                        scan_stmts(c.stmts, stage)
                    scan_stmts(s.else_stmts or [], stage)

        def scan(items, stage):
            for item in items:
                if isinstance(item, CombBlock):
                    scan_stmts(item.stmts, stage)
                elif isinstance(item, StageDecl):
                    scan(item.items, item.name)
                elif isinstance(item, DefaultBlock):
                    scan(item.items, stage)

        scan(items, None)
        progress = True
        while progress:
            progress = False
            for stage, name, rhs in pending:
                saved_stage = self.current_stage
                self.current_stage = stage
                try:
                    if self.lookup(name) is not None:
                        continue
                    n_diags = len(self.diags)
                    n_todo = len(self.has_todo)
                    typed, ty = self.infer(rhs, None)
                    del self.diags[n_diags:]
                    del self.has_todo[n_todo:]
                    if isinstance(ty, ErrorTy):
                        continue
                    b = self.declare(name, ty, "internal", rhs.span, stage)
                    self.core.nets[b.canonical] = NetDef(b.canonical, ty, "internal",
                                                         None, rhs.span)
                    progress = True
                finally:
                    self.current_stage = saved_stage
        for stage, name, rhs in pending:
            saved_stage = self.current_stage
            self.current_stage = stage
            try:
                if self.lookup(name) is None:
                    b = self.declare(name, ERROR_TY, "internal", rhs.span, stage)
                    self.core.nets[b.canonical] = NetDef(b.canonical, ERROR_TY,
                                                         "internal", None, rhs.span)
            finally:
                self.current_stage = saved_stage

    def declare_items(self, items: list, stage: str | None = None) -> None:
        """Pass 1: bring every named declaration into scope."""
        for item in items:
            if isinstance(item, PortDecl):
                if stage is not None:
                    self.error("E_UNSUPPORTED", "ports belong at construct level", item.span)
                    continue
                self.declare_port(item)
            elif isinstance(item, RegDecl):
                self.declare_reg(item, stage)
            elif isinstance(item, LetDecl) and item.type is not None:
                ty = self._resolve(item.type)
                b = self.declare(item.name, ty, "let", item.span, stage)
                self.core.nets[b.canonical] = NetDef(b.canonical, ty, "let", None, item.span)
            elif isinstance(item, StageDecl):
                self.stage_order.append(item.name)
                self.stage_nets[item.name] = {}
                saved = self.current_stage
                self.current_stage = item.name
                self.declare_items(item.items, stage=item.name)
                self.current_stage = saved
            elif isinstance(item, InstDecl):
                summary = self.summaries.get(item.resolved_key)
                if summary is None:
                    self.error("E_UNKNOWN_MODULE",
                               f"instance `{item.name}` refers to a construct that failed "
                               f"to compile", item.span)
                    continue
                self.instances[item.name] = (item.resolved_key, summary, item.span)

    def translate_body_item(self, item) -> None:
        """Pass 2: translate logic items (module/fsm shared subset)."""
        if isinstance(item, LetDecl):
            self.translate_let(item)
        elif isinstance(item, CombBlock):
            stmts = self.translate_stmts(item.stmts, "comb")
            self.core.comb_blocks.append(CoreCombBlock(stmts, "always", "user", item.span))
        elif isinstance(item, SeqBlock):
            self.translate_seq(item)
        elif isinstance(item, InstDecl):
            self.translate_inst(item)
        elif isinstance(item, AssertDecl):
            self.add_property("assert", item.name, item.expr, item.span, "user")
        elif isinstance(item, CoverDecl):
            self.add_property("cover", item.name, item.expr, item.span, "user")
        elif isinstance(item, (PortDecl, RegDecl, EnumDecl, KindDecl)):
            pass  # handled in pass 1 / construct driver
        else:
            self.error("E_UNSUPPORTED",
                       f"this item is not supported inside a {self.ec.kind}", item.span)

    def translate_let(self, item: LetDecl) -> None:
        if item.type is None:
            # assign-to-existing form
            b = self.lookup(item.name)
            if b is None:
                self.error("E_UNKNOWN_NAME",
                           f"`{item.name}` is not declared; annotate a type to declare it",
                           item.span)
                return
            value, _ = self.infer(item.value, b.ty)
            stmt = SAssign(item.span, ref(b.canonical, b.ty, item.span), value, "=")
            self.core.comb_blocks.append(CoreCombBlock([stmt], "assign", "user", item.span))
            return
        b = self.lookup(item.name)
        assert b is not None  # declared in pass 1
        value, _ = self.infer(item.value, b.ty)
        stmt = SAssign(item.span, ref(b.canonical, b.ty, item.span), value, "=")
        self.core.comb_blocks.append(CoreCombBlock([stmt], "assign", "user", item.span))

    def translate_seq(self, item: SeqBlock, wrap=None) -> None:
        clk = self.bindings.get(item.clock)
        if clk is None or not isinstance(clk.ty, Clock):
            self.error("E_UNKNOWN_NAME",
                       f"`{item.clock}` is not a declared Clock port", item.span)
            return
        stmts = self.translate_stmts(item.stmts, "seq")
        if wrap is not None:
            stmts = wrap(stmts)
        domain = clk.ty.domain
        self.core.seq_blocks.append(
            _seq_block(item.clock, domain, item.edge, stmts, "user", item.span))
        for target in _seq_target_names(stmts):
            reg = self.core.regs.get(target)
            if reg is not None and not reg.clock:
                reg.clock = item.clock
                reg.domain = domain
                reg.edge = item.edge

    def translate_inst(self, item: InstDecl) -> None:
        if item.name not in self.instances:
            return  # failed child; already diagnosed
        key, summary, _ = self.instances[item.name]
        ci = CoreInstance(item.name, key, {}, [], item.span)
        self.core_insts[item.name] = ci
        self.core.instances.append(ci)
        connected: dict[str, Span] = {}
        for conn in item.connections:
            direction, pty = summary.ports[conn.port]
            if conn.port in connected and conn.arrow == "<-":
                self.error("E_MULTI_DRIVER",
                           f"input `{conn.port}` of `{item.name}` is connected twice",
                           conn.span, notes=[Note("first connection here", connected[conn.port])])
                continue
            if conn.arrow == "<-":
                if direction != "in":
                    self.error("E_ARROW_DIRECTION",
                               f"`{conn.port}` is an output of `{summaryname(summary, key)}`; "
                               f"read it with `->`", conn.span)
                    continue
                connected[conn.port] = conn.span
                expr = self._translate_conn_expr(conn.expr, pty, item.name, conn)
                if expr is not None:
                    ci.in_map[conn.port] = expr
            else:
                if direction != "out":
                    self.error("E_ARROW_DIRECTION",
                               f"`{conn.port}` is an input of `{summaryname(summary, key)}`; "
                               f"drive it with `<-`", conn.span)
                    continue
                self._translate_out_conn(item.name, conn.port, pty, conn)
        for pname, (pdir, pty) in summary.ports.items():
            if pdir == "in" and pname not in ci.in_map:
                self.error("E_UNDRIVEN",
                           f"input `{pname}` of instance `{item.name}` is never driven",
                           item.span)

    def _translate_conn_expr(self, expr: Expr, pty: Type, inst: str, conn) -> Expr | None:
        if isinstance(pty, (Clock, Reset)):
            if not isinstance(expr, NameRef):
                self.error("E_SYNC_TYPE" if self._child_is_sync(inst) else "E_CDC",
                           f"{pty} ports connect directly to a {pty.__class__.__name__} "
                           f"port, not an expression", conn.span)
                return None
            b = self.lookup(expr.name)
            if b is None:
                self.error("E_UNKNOWN_NAME", f"unknown name `{expr.name}`", expr.span)
                return None
            if b.ty != pty:
                code = "E_SYNC_TYPE" if self._child_is_sync(inst) else "E_CDC"
                self.error(code,
                           f"`{inst}.{conn.port}` expects {pty}, got {b.ty}", conn.span)
                return None
            new = ref(b.canonical, b.ty, expr.span)
            return new
        typed, _ = self.infer(expr, pty)
        return typed

    def _child_is_sync(self, inst: str) -> bool:
        key, summary, _ = self.instances[inst]
        return bool(summary.bridge_in)

    def _translate_out_conn(self, inst: str, port: str, pty: Type, conn) -> None:
        self._note_inst_out(inst, port)
        target = conn.expr
        if isinstance(target, Index):
            self.error("E_BAD_LHS",
                       "`->` targets a plain net name", conn.span)
            return
        name = target.name
        b = self.lookup(name)
        if b is None:
            b = self.declare(name, pty, "internal", conn.span, self.current_stage)
            self.core.nets[b.canonical] = NetDef(b.canonical, pty, "internal", None, conn.span)
        elif b.kind == "port-in":
            self.error("E_DRIVE_INPUT",
                       f"`{name}` is an input port and cannot be driven", conn.span)
            return
        elif b.kind == "reg":
            self.error("E_BAD_LHS",
                       f"`{name}` is a register; route through a net and a seq block",
                       conn.span)
            return
        elif not assignable(b.ty, pty):
            self.error("E_WIDTH_MISMATCH",
                       f"cannot connect `{inst}.{port}` ({pty}) to `{name}` ({b.ty})",
                       conn.span)
            return
        src = ref(f"{inst}.{port}", pty, conn.span)
        stmt = SAssign(conn.span, ref(b.canonical, b.ty, conn.span), src, "=")
        self.core.comb_blocks.append(CoreCombBlock([stmt], "assign", "user", conn.span))

    def add_property(self, kind: str, name: str, expr: Expr, span: Span,
                     origin: str, clock: str | None = None) -> None:
        if not self._claim_prop(name, span):
            return
        if origin == "user":
            expr, _ = self.infer(expr, BOOL)
        prop = CoreProperty(kind, name, expr, clock, None, None, None, origin, span)
        self.core.properties.append(prop)

    def add_generated_property(self, kind: str, name: str, typed_expr: Expr,
                               span: Span, clock: str | None) -> None:
        if not self._claim_prop(name, span):
            return
        prop = CoreProperty(kind, name, typed_expr, clock, None, None, None, "auto", span)
        self.core.properties.append(prop)

    def _claim_prop(self, name: str, span: Span) -> bool:
        if name in self.prop_names:
            self.error("E_DUP_NAME", f"duplicate property name `{name}`", span,
                       notes=[Note("first declared here", self.prop_names[name])])
            return False
        self.prop_names[name] = span
        return True


def summaryname(summary: Summary, key: str) -> str:
    return key.split("__", 1)[0]


def _seq_block(clock: str, domain: str, edge: str, stmts: list[Stmt],
               origin: str, span: Span):
    from .ir import CoreSeqBlock
    return CoreSeqBlock(clock, domain, edge, stmts, origin, span)


def _seq_target_names(stmts: list[Stmt]) -> list[str]:
    from .ir import _targets_of
    return _targets_of(stmts)


# ── construct drivers ────────────────────────────────────────────


def lower_module(tr: Translator) -> None:
    items = tr.ec.items
    tr.declare_items(items)
    tr.predeclare_internals(items)
    for item in items:
        if isinstance(item, StageDecl):
            tr.error("E_UNSUPPORTED", "stages belong inside a pipeline", item.span)
        elif isinstance(item, (StateDecl, DefaultStateDecl, DefaultBlock)):
            tr.error("E_UNSUPPORTED", "states belong inside an fsm", item.span)
        elif isinstance(item, StallDecl):
            tr.error("E_UNSUPPORTED", "`stall when` belongs inside a pipeline", item.span)
        else:
            tr.translate_body_item(item)
    _bind_idle_regs(tr)


def _bind_idle_regs(tr: Translator) -> None:
    """Registers never assigned by a seq block still need a clock/domain."""
    unbound = [r for r in tr.core.regs.values() if not r.clock]
    if not unbound:
        return
    clocks = tr.core.clock_ports()
    if len(clocks) == 1:
        clk, domain = clocks[0]
        for r in unbound:
            r.clock, r.domain = clk, domain
    elif clocks:
        for r in unbound:
            tr.error("E_CDC",
                     f"register `{r.name}` is never assigned in a seq block; its clock "
                     f"domain is ambiguous in a multi-clock construct", r.span)
    else:
        for r in unbound:
            tr.error("E_UNKNOWN_NAME",
                     f"register `{r.name}` needs a Clock port in scope", r.span)


def _single_clock_reset(tr: Translator, what: str):
    clocks = tr.core.clock_ports()
    resets = [(p.name, p.ty) for p in tr.core.ports if isinstance(p.ty, Reset)]
    if len(clocks) != 1:
        tr.error("E_PORT_SET", f"a {what} needs exactly one Clock port", tr.ec.span)
        return None
    if len(resets) != 1:
        tr.error("E_PORT_SET", f"a {what} needs exactly one Reset port", tr.ec.span)
        return None
    return clocks[0], resets[0]


def lower_fsm(tr: Translator) -> None:
    ec = tr.ec
    items = ec.items
    tr.declare_items(items)
    tr.predeclare_internals(items)

    states = [i for i in items if isinstance(i, StateDecl)]
    defaults = [i for i in items if isinstance(i, DefaultStateDecl)]
    default_blocks = [i for i in items if isinstance(i, DefaultBlock)]
    if not states:
        tr.error("E_NO_DEFAULT_STATE", "an fsm needs at least one state", ec.span)
        return
    if not defaults:
        tr.error("E_NO_DEFAULT_STATE",
                 "an fsm needs a `default state NAME;` declaration", ec.span)
        return
    if len(defaults) > 1:
        tr.error("E_DUP_NAME", "more than one `default state` declaration",
                 defaults[1].span)
    state_names = [s.name for s in states]
    seen: dict[str, Span] = {}
    for s in states:
        if s.name in seen:
            tr.error("E_DUP_NAME", f"duplicate state `{s.name}`", s.span,
                     notes=[Note("first declared here", seen[s.name])])
        seen[s.name] = s.span
    reset_state = defaults[0].state
    if reset_state not in state_names:
        tr.error("E_UNKNOWN_TARGET_STATE",
                 f"default state `{reset_state}` is not a declared state",
                 defaults[0].span)
        return

    ck = _single_clock_reset(tr, "fsm")
    if ck is None:
        return
    (clk, domain), (rst, rst_ty) = ck

    n = len(states)
    onehot = tr.fsm_encoding == "onehot"
    width = n if onehot else max(1, clog2(n))
    sty = UInt(width)

    def encode(i: int) -> int:
        return (1 << i) if onehot else i

    span = ec.span
    state_r = tr.fresh("state_r")
    tr.add_reg(state_r, sty, clk, domain, rst,
               lit(encode(state_names.index(reset_state)), sty, span, reset_state),
               span, reset_sync=rst_ty.sync, reset_polarity=rst_ty.polarity)

    def state_lit(name: str) -> IntLit:
        e = lit(encode(state_names.index(name)), sty, span, name)
        e.const_name = f"S_{name}"
        return e

    # translate shared body items (regs/seq/comb/lets/insts/asserts)
    for item in items:
        if isinstance(item, (StateDecl, DefaultStateDecl, DefaultBlock)):
            continue
        if isinstance(item, (StageDecl, StallDecl)):
            tr.error("E_UNSUPPORTED", "pipeline items are not legal inside an fsm",
                     item.span)
            continue
        tr.translate_body_item(item)

    # next-state logic: per-state priority chain over transitions, hold fallback
    state_next = tr.fresh("state_next")
    tr.core.nets[state_next] = NetDef(state_next, sty, "internal", None, span)
    tr.bindings[state_next] = Binding(state_next, sty, "internal", span)
    transition_conds: dict[int, Expr] = {}  # id(Transition) -> typed condition
    cases: list[MatchCase] = []
    for s in states:
        chain: list[Stmt] = [SAssign(s.span, ref(state_next, sty, s.span),
                                     state_lit(s.name), "=")]
        for t in reversed(s.transitions):
            if t.target not in state_names:
                tr.error("E_UNKNOWN_TARGET_STATE",
                         f"transition targets unknown state `{t.target}`", t.span)
                continue
            take = SAssign(t.span, ref(state_next, sty, t.span),
                           state_lit(t.target), "=")
            if t.cond is None:
                chain = [take]
            else:
                cond, _ = tr.infer(t.cond, BOOL)
                transition_conds[id(t)] = cond
                chain = [SIf(t.span, cond, [take], chain)]
        cases.append(MatchCase([state_lit(s.name)], chain))
    hold_else = [SAssign(span, ref(state_next, sty, span), ref(state_r, sty, span), "=")]
    match = SMatch(span, ref(state_r, sty, span), cases, hold_else)
    tr.core.comb_blocks.append(CoreCombBlock([match], "always", "auto", span))
    tr.core.seq_blocks.append(_seq_block(
        clk, domain, "rising",
        [SAssign(span, ref(state_r, sty, span), ref(state_next, sty, span), "<=")],
        "auto", span))

    # output logic: default-block assignments, then per-state overrides
    default_stmts: list[Stmt] = []
    for block in default_blocks:
        for sub in block.items:
            if isinstance(sub, CombBlock):
                default_stmts.extend(tr.translate_stmts(sub.stmts, "comb"))
            elif isinstance(sub, LetDecl) and sub.type is None:
                st = tr.translate_stmt(
                    SAssign(sub.span, NameRef(sub.span, sub.name), sub.value, "="),
                    "comb")
                if st is not None:
                    default_stmts.append(st)
            else:
                tr.error("E_UNSUPPORTED",
                         "a default block holds comb blocks and `let` overrides",
                         sub.span)
    override_cases: list[MatchCase] = []
    any_override = False
    for s in states:
        arm: list[Stmt] = []
        for let in s.overrides:
            st = tr.translate_stmt(
                SAssign(let.span, NameRef(let.span, let.name), let.value, "="), "comb")
            if st is not None:
                arm.append(st)
                any_override = True
        override_cases.append(MatchCase([state_lit(s.name)], arm))
    if default_stmts or any_override:
        out_stmts: list[Stmt] = list(default_stmts)
        if any_override:
            out_stmts.append(SMatch(span, ref(state_r, sty, span),
                                    override_cases[:-1],
                                    override_cases[-1].stmts))
        tr.core.comb_blocks.append(CoreCombBlock(out_stmts, "always", "user", span))

    # auto properties
    if onehot:
        zero = lit(0, sty, span)
        one = lit(1, sty, span)
        legal = and_(ne(ref(state_r, sty, span), zero, span),
                     eq(bin_op("&", ref(state_r, sty, span),
                               bin_op("-", ref(state_r, sty, span), one, sty, span),
                               sty, span), zero, span), span)
    else:
        legal = bin_op("<=", ref(state_r, sty, span), lit(n - 1, sty, span), BOOL, span)
    tr.add_property("assert", "_auto_legal_state", legal, span, "auto")

    for s in states:
        tr.add_property("cover", f"_auto_state_{s.name}",
                        eq(ref(state_r, sty, span), state_lit(s.name), span), s.span, "auto")
    for s in states:
        earlier: list[Expr] = []
        taken_names: dict[str, int] = {}
        for t in s.transitions:
            if t.target not in state_names:
                continue
            base = f"_auto_trans_{s.name}_{t.target}"
            taken_names[base] = taken_names.get(base, 0) + 1
            name = base if taken_names[base] == 1 else f"{base}_{taken_names[base]}"
            cond_expr: Expr = eq(ref(state_r, sty, span), state_lit(s.name), span)
            tcond = transition_conds.get(id(t))
            if tcond is not None:
                cond_expr = and_(cond_expr, tcond, span)
            for prev in earlier:
                cond_expr = and_(cond_expr, not_(prev, span), span)
            earlier.append(tcond if tcond is not None else blit(True, span))
            tr.add_property("cover", name, cond_expr, t.span, "auto")
    _bind_idle_regs(tr)


def lower_counter(tr: Translator) -> None:
    ec = tr.ec
    tr.declare_items(ec.items)
    kinds = [i for i in ec.items if isinstance(i, KindDecl)]
    kind = kinds[0].value if kinds else None
    if kind not in ("wrapping", "saturating"):
        tr.error("E_UNSUPPORTED",
                 f"counter kind must be `wrapping` or `saturating`"
                 + (f", got `{kind}`" if kind else " (missing `kind` declaration)"),
                 kinds[0].span if kinds else ec.span)
        return
    max_value = tr.ec.env.get("MAX")
    if not isinstance(max_value, int) or max_value < 1:
        tr.error("E_PORT_SET", "a counter needs `param MAX: const` >= 1", ec.span)
        return
    ck = _single_clock_reset(tr, "counter")
    if ck is None:
        return
    (clk, domain), (rst, rst_ty) = ck
    width = clog2(max_value + 1)
    cty = UInt(width)
    span = ec.span
    want = {"clk": None, "rst": None, "en": BOOL, "count": cty}
    for p in tr.core.ports:
        if p.name not in want:
            tr.error("E_PORT_SET",
                     f"counter ports are clk, rst, en, count; `{p.name}` is not one of them",
                     p.span)
            return
        expect = want[p.name]
        if expect is not None and p.ty != expect:
            tr.error("E_PORT_SET",
                     f"counter port `{p.name}` must be {expect} for MAX={max_value}, "
                     f"found {p.ty}", p.span)
            return
    if {p.name for p in tr.core.ports} != set(want):
        tr.error("E_PORT_SET", "counter ports are clk, rst, en, count", ec.span)
        return

    count_r = tr.fresh("count_r")
    tr.add_reg(count_r, cty, clk, domain, rst, lit(0, cty, span), span,
               reset_sync=rst_ty.sync, reset_polarity=rst_ty.polarity)
    cr = ref(count_r, cty, span)
    at_max = eq(cr, lit(max_value, cty, span), span)
    inc = seq_assign(count_r, cty, bin_op("+", cr, lit(1, cty, span), cty, span), span)
    if kind == "wrapping":
        body = [SIf(span, at_max, [seq_assign(count_r, cty, lit(0, cty, span), span)], [inc])]
    else:
        body = [SIf(span, at_max, [], [inc])]
    en = ref("en", BOOL, span)
    tr.core.seq_blocks.append(_seq_block(clk, domain, "rising",
                                         [SIf(span, en, body, None)], "auto", span))
    tr.core.comb_blocks.append(CoreCombBlock(
        [assign("count", cty, cr, span)], "assign", "auto", span))
    tr.add_property("assert", "_auto_count_range",
                    bin_op("<=", ref("count", cty, span), lit(max_value, cty, span),
                           BOOL, span), span, "auto")
    for item in ec.items:
        if isinstance(item, (AssertDecl, CoverDecl)):
            tr.translate_body_item(item)
        elif isinstance(item, (PortDecl, KindDecl)):
            pass
        else:
            tr.error("E_UNSUPPORTED",
                     "a counter body holds params, ports, kind, assert, and cover items",
                     item.span)


def lower_synchronizer(tr: Translator) -> None:
    ec = tr.ec
    tr.declare_items(ec.items)
    kinds = [i for i in ec.items if isinstance(i, KindDecl)]
    kind = kinds[0].value if kinds else None
    if kind != "ff":
        tr.error("E_UNSUPPORTED",
                 f"synchronizer kind `{kind or '(missing)'}` is not supported; archc "
                 f"implements kind `ff`",
                 kinds[0].span if kinds else ec.span)
        return
    stages = ec.env.get("STAGES", 2)
    if not isinstance(stages, int) or stages < 2:
        tr.error("E_SYNC_STAGES",
                 f"synchronizer STAGES must be >= 2, got {stages}", ec.span)
        return
    ports = {p.name: p for p in tr.core.ports}
    required = {"src_clk", "dst_clk", "data_in", "data_out"}
    if not required <= set(ports):
        missing = sorted(required - set(ports))[0]
        tr.error("E_PORT_SET", f"synchronizer needs port `{missing}`", ec.span)
        return
    extra = set(ports) - required - {"rst"}
    if extra:
        tr.error("E_PORT_SET",
                 f"synchronizer ports are src_clk, dst_clk, data_in, data_out"
                 f" (optional rst); `{sorted(extra)[0]}` is not one of them", ec.span)
        return
    if not isinstance(ports["src_clk"].ty, Clock) or not isinstance(ports["dst_clk"].ty, Clock):
        tr.error("E_PORT_SET", "src_clk and dst_clk must have Clock types", ec.span)
        return
    for dname in ("data_in", "data_out"):
        if not is_one_bit_data(ports[dname].ty):
            tr.error("E_SYNC_WIDTH",
                     f"a kind-ff synchronizer carries a single bit; `{dname}` is "
                     f"{ports[dname].ty} (route bulk data through an async fifo)",
                     ports[dname].span)
            return
    src_domain = ports["src_clk"].ty.domain
    dst_domain = ports["dst_clk"].ty.domain
    rst = ports.get("rst")
    span = ec.span
    dty = ports["data_in"].ty
    chain: list[str] = []
    for i in range(1, stages + 1):
        name = tr.fresh(f"sync_{i}")
        chain.append(name)
        tr.add_reg(name, dty, "dst_clk", dst_domain,
                   rst.name if rst is not None else None,
                   lit(0, dty, span) if rst is not None else None, span,
                   reset_sync=rst.ty.sync if rst is not None else None,
                   reset_polarity=rst.ty.polarity if rst is not None else None,
                   uninit_exempt=True,
                   cdc_chain=f"{ec.key}.chain" if i == 1 else None)
    stmts: list[Stmt] = [seq_assign(chain[0], dty, ref("data_in", dty, span), span)]
    for i in range(1, stages):
        stmts.append(seq_assign(chain[i], dty, ref(chain[i - 1], dty, span), span))
    block = _seq_block("dst_clk", dst_domain, "rising", stmts, "auto-cdc", span)
    tr.core.seq_blocks.append(block)
    tr.core.comb_blocks.append(CoreCombBlock(
        [assign("data_out", dty, ref(chain[-1], dty, span), span)], "assign", "auto", span))
    tr.sync_bridge = ("data_in", src_domain)
    for item in ec.items:
        if isinstance(item, (AssertDecl, CoverDecl)):
            tr.translate_body_item(item)


def _gray(value: Expr, ty: Type, span: Span) -> Expr:
    one = lit(1, ty, span)
    shifted = bin_op(">>", value, one, ty, span)
    return bin_op("^", shifted, value, ty, span)


def lower_fifo(tr: Translator) -> None:
    ec = tr.ec
    tr.declare_items(ec.items)
    kinds = [i for i in ec.items if isinstance(i, KindDecl)]
    if kinds and kinds[0].value != "fifo":
        tr.error("E_UNSUPPORTED",
                 f"fifo kind `{kinds[0].value}` is out of scope; only kind `fifo`",
                 kinds[0].span)
        return
    depth = ec.env.get("DEPTH")
    if not isinstance(depth, int) or depth < 1:
        tr.error("E_PORT_SET", "a fifo needs `param DEPTH: const` >= 1", ec.span)
        return
    dtype = ec.type_env.get("TYPE")
    if dtype is None:
        tr.error("E_PORT_SET", "a fifo needs `param TYPE: type`", ec.span)
        return
    ports = {p.name: p for p in tr.core.ports}
    data_ports = {
        "push_valid": ("in", BOOL), "push_ready": ("out", BOOL),
        "push_data": ("in", dtype), "pop_valid": ("out", BOOL),
        "pop_ready": ("in", BOOL), "pop_data": ("out", dtype),
        "full": ("out", BOOL), "empty": ("out", BOOL),
    }
    dual = "clk_wr" in ports or "clk_rd" in ports
    clock_ports = ({"clk_wr": "rst_wr", "clk_rd": "rst_rd"} if dual else {"clk": "rst"})
    want = set(data_ports) | set(clock_ports) | set(clock_ports.values())
    have = set(ports)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        what = (f"missing port `{missing[0]}`" if missing
                else f"unexpected port `{extra[0]}`")
        tr.error("E_PORT_SET",
                 f"{'dual' if dual else 'single'}-clock fifo ports are "
                 f"{', '.join(sorted(want))}; {what}", ec.span)
        return
    for cname, rname in clock_ports.items():
        if not isinstance(ports[cname].ty, Clock):
            tr.error("E_PORT_SET", f"`{cname}` must have a Clock type", ports[cname].span)
            return
        if not isinstance(ports[rname].ty, Reset):
            tr.error("E_PORT_SET", f"`{rname}` must have a Reset type", ports[rname].span)
            return
    for pname, (pdir, pty) in data_ports.items():
        p = ports[pname]
        if p.direction != pdir or not assignable(pty, p.ty) or not assignable(p.ty, pty):
            tr.error("E_PORT_SET",
                     f"fifo port `{pname}` must be `{pdir} {pty}`, found "
                     f"`{p.direction} {p.ty}`", p.span)
            return
    span = ec.span
    if dual:
        if depth < 2 or depth & (depth - 1):
            tr.error("E_FIFO_DEPTH",
                     f"a dual-clock fifo needs a power-of-two DEPTH >= 2 for gray-code "
                     f"pointers, got {depth}", ec.span)
            return
        _lower_fifo_dual(tr, depth, dtype, ports, span)
    else:
        _lower_fifo_single(tr, depth, dtype, ports, span)
    for item in ec.items:
        if isinstance(item, (AssertDecl, CoverDecl)):
            tr.translate_body_item(item)


def _lower_fifo_single(tr: Translator, depth: int, dtype: Type, ports, span: Span) -> None:
    wdomain = ports["clk"].ty.domain
    rst = ports["rst"]
    w = clog2(depth) + 1          # pointer width incl. wrap bit
    a = max(1, clog2(depth))      # address width
    pty = UInt(w)
    pow2 = depth & (depth - 1) == 0
    mem = tr.fresh("mem")
    tr.add_reg(mem, Vec(dtype, depth), "clk", wdomain, None, None, span,
               uninit_exempt=True, domain_neutral=False)
    wr_ptr = tr.fresh("wr_ptr")
    rd_ptr = tr.fresh("rd_ptr")
    for name in (wr_ptr, rd_ptr):
        tr.add_reg(name, pty, "clk", wdomain, "rst", lit(0, pty, span), span,
                   reset_sync=rst.ty.sync, reset_polarity=rst.ty.polarity)

    def pref(name: str) -> Expr:
        return ref(name, pty, span)

    wrap_limit = 2 * depth
    def ptr_next(name: str) -> Expr:
        if pow2:
            return bin_op("+", pref(name), lit(1, pty, span), pty, span)
        at_end = eq(pref(name), lit(wrap_limit - 1, pty, span), span)
        return ite(at_end, lit(0, pty, span),
                   bin_op("+", pref(name), lit(1, pty, span), pty, span), span)

    if pow2:
        occ = bin_op("-%", pref(wr_ptr), pref(rd_ptr), pty, span)
    else:
        ge = bin_op(">=", pref(wr_ptr), pref(rd_ptr), BOOL, span)
        fwd = bin_op("-", pref(wr_ptr), pref(rd_ptr), pty, span)
        wrapped = bin_op("+", bin_op("-", lit(wrap_limit, pty, span), pref(rd_ptr),
                                     pty, span), pref(wr_ptr), pty, span)
        occ = ite(ge, fwd, wrapped, span)

    def addr_of(name: str) -> Expr:
        if depth == 1:
            e = lit(0, UInt(1), span)
            return e
        if pow2:
            sl = Slice(span, pref(name), lit(a - 1, UInt(max(1, a)), span),
                       lit(0, UInt(1), span))
            sl.ty = UInt(a)
            return sl
        past = bin_op(">=", pref(name), lit(depth, pty, span), BOOL, span)
        folded = ite(past, bin_op("-", pref(name), lit(depth, pty, span), pty, span),
                     pref(name), span)
        conv = Convert(span, "trunc", folded, lit(a, UInt(max(1, a.bit_length())), span))
        conv.ty = UInt(a)
        return conv

    occ_net = tr.fresh("occupancy")
    tr.core.nets[occ_net] = NetDef(occ_net, pty, "internal", None, span)
    tr.bindings[occ_net] = Binding(occ_net, pty, "internal", span)
    full_e = eq(ref(occ_net, pty, span), lit(depth, pty, span), span)
    empty_e = eq(ref(occ_net, pty, span), lit(0, pty, span), span)
    do_push = tr.fresh("do_push")
    do_pop = tr.fresh("do_pop")
    for name in (do_push, do_pop):
        tr.core.nets[name] = NetDef(name, BOOL, "internal", None, span)
        tr.bindings[name] = Binding(name, BOOL, "internal", span)
    stmts = [
        assign(occ_net, pty, occ, span),
        assign("full", BOOL, full_e, span),
        assign("empty", BOOL, empty_e, span),
        assign("push_ready", BOOL, not_(ref("full", BOOL, span), span), span),
        assign("pop_valid", BOOL, not_(ref("empty", BOOL, span), span), span),
        assign(do_push, BOOL, and_(ref("push_valid", BOOL, span),
                                   not_(ref("full", BOOL, span), span), span), span),
        assign(do_pop, BOOL, and_(ref("pop_ready", BOOL, span),
                                  not_(ref("empty", BOOL, span), span), span), span),
    ]
    pop_read = Index(span, ref(mem, Vec(dtype, depth), span), addr_of(rd_ptr))
    pop_read.ty = dtype
    stmts.append(assign("pop_data", dtype, pop_read, span))
    tr.core.comb_blocks.append(CoreCombBlock(stmts, "always", "auto", span))

    mem_write = Index(span, ref(mem, Vec(dtype, depth), span), addr_of(wr_ptr))
    mem_write.ty = dtype
    seq = [
        SIf(span, ref(do_push, BOOL, span),
            [SAssign(span, mem_write, ref("push_data", dtype, span), "<="),
             seq_assign(wr_ptr, pty, ptr_next(wr_ptr), span)], None),
        SIf(span, ref(do_pop, BOOL, span),
            [seq_assign(rd_ptr, pty, ptr_next(rd_ptr), span)], None),
    ]
    tr.core.seq_blocks.append(_seq_block("clk", wdomain, "rising", seq, "auto", span))

    tr.add_property("assert", "_auto_no_overflow",
                    not_(and_(ref("push_valid", BOOL, span), ref("full", BOOL, span),
                              span), span), span, "auto", clock="clk")
    tr.add_property("assert", "_auto_no_underflow",
                    not_(and_(ref("pop_ready", BOOL, span), ref("empty", BOOL, span),
                              span), span), span, "auto", clock="clk")


def _lower_fifo_dual(tr: Translator, depth: int, dtype: Type, ports, span: Span) -> None:
    wdom = ports["clk_wr"].ty.domain
    rdom = ports["clk_rd"].ty.domain
    rst_w, rst_r = ports["rst_wr"], ports["rst_rd"]
    w = clog2(depth) + 1
    a = clog2(depth)
    pty = UInt(w)
    vecty = Vec(dtype, depth)

    mem = tr.fresh("mem")
    tr.add_reg(mem, vecty, "clk_wr", wdom, None, None, span,
               uninit_exempt=True, domain_neutral=True)

    def mkreg(base: str, clk: str, dom: str, rst, chain: str | None = None) -> str:
        name = tr.fresh(base)
        tr.add_reg(name, pty, clk, dom, rst.name, lit(0, pty, span), span,
                   reset_sync=rst.ty.sync, reset_polarity=rst.ty.polarity,
                   uninit_exempt=True, cdc_chain=chain)
        return name

    wr_bin = mkreg("wr_bin", "clk_wr", wdom, rst_w)
    wr_gray = mkreg("wr_gray", "clk_wr", wdom, rst_w)
    rdg_sync1 = mkreg("rdg_sync1", "clk_wr", wdom, rst_w, chain=f"{tr.ec.key}.rd2wr")
    rdg_sync2 = mkreg("rdg_sync2", "clk_wr", wdom, rst_w)
    rd_bin = mkreg("rd_bin", "clk_rd", rdom, rst_r)
    rd_gray = mkreg("rd_gray", "clk_rd", rdom, rst_r)
    wrg_sync1 = mkreg("wrg_sync1", "clk_rd", rdom, rst_r, chain=f"{tr.ec.key}.wr2rd")
    wrg_sync2 = mkreg("wrg_sync2", "clk_rd", rdom, rst_r)

    def pref(name: str) -> Expr:
        return ref(name, pty, span)

    def addr_of(name: str) -> Expr:
        if depth == 1:
            return lit(0, UInt(1), span)
        sl = Slice(span, pref(name), lit(a - 1, UInt(max(1, a)), span),
                   lit(0, UInt(1), span))
        sl.ty = UInt(a)
        return sl

    def decl_net(base: str, ty: Type) -> str:
        name = tr.fresh(base)
        tr.core.nets[name] = NetDef(name, ty, "internal", None, span)
        tr.bindings[name] = Binding(name, ty, "internal", span)
        return name

    # write side: full when the next write would catch the synchronized read
    # pointer (gray compare with the top two bits inverted)
    flip = lit(0b11 << (w - 2), pty, span)
    full_expr = eq(pref(wr_gray), bin_op("^", pref(rdg_sync2), flip, pty, span), span)
    do_push = decl_net("do_push", BOOL)
    wr_bin_next = decl_net("wr_bin_next", pty)
    wr_stmts = [
        assign("full", BOOL, full_expr, span),
        assign("push_ready", BOOL, not_(ref("full", BOOL, span), span), span),
        assign(do_push, BOOL, and_(ref("push_valid", BOOL, span),
                                   not_(ref("full", BOOL, span), span), span), span),
        assign(wr_bin_next, pty,
               ite(ref(do_push, BOOL, span),
                   bin_op("+", pref(wr_bin), lit(1, pty, span), pty, span),
                   pref(wr_bin), span), span),
    ]
    tr.core.comb_blocks.append(CoreCombBlock(wr_stmts, "always", "auto", span))
    mem_write = Index(span, ref(mem, vecty, span), addr_of(wr_bin))
    mem_write.ty = dtype
    wr_seq = [
        SIf(span, ref(do_push, BOOL, span),
            [SAssign(span, mem_write, ref("push_data", dtype, span), "<=")], None),
        seq_assign(wr_bin, pty, ref(wr_bin_next, pty, span), span),
        seq_assign(wr_gray, pty, _gray(ref(wr_bin_next, pty, span), pty, span), span),
    ]
    tr.core.seq_blocks.append(_seq_block("clk_wr", wdom, "rising", wr_seq, "auto", span))
    tr.core.seq_blocks.append(_seq_block(
        "clk_wr", wdom, "rising",
        [seq_assign(rdg_sync1, pty, pref(rd_gray), span),
         seq_assign(rdg_sync2, pty, pref(rdg_sync1), span)], "auto-cdc", span))

    # read side
    empty_expr = eq(pref(rd_gray), pref(wrg_sync2), span)
    do_pop = decl_net("do_pop", BOOL)
    rd_bin_next = decl_net("rd_bin_next", pty)
    pop_read = Index(span, ref(mem, vecty, span), addr_of(rd_bin))
    pop_read.ty = dtype
    rd_stmts = [
        assign("empty", BOOL, empty_expr, span),
        assign("pop_valid", BOOL, not_(ref("empty", BOOL, span), span), span),
        assign(do_pop, BOOL, and_(ref("pop_ready", BOOL, span),
                                  not_(ref("empty", BOOL, span), span), span), span),
        assign(rd_bin_next, pty,
               ite(ref(do_pop, BOOL, span),
                   bin_op("+", pref(rd_bin), lit(1, pty, span), pty, span),
                   pref(rd_bin), span), span),
        assign("pop_data", dtype, pop_read, span),
    ]
    tr.core.comb_blocks.append(CoreCombBlock(rd_stmts, "always", "auto", span))
    rd_seq = [
        seq_assign(rd_bin, pty, ref(rd_bin_next, pty, span), span),
        seq_assign(rd_gray, pty, _gray(ref(rd_bin_next, pty, span), pty, span), span),
    ]
    tr.core.seq_blocks.append(_seq_block("clk_rd", rdom, "rising", rd_seq, "auto", span))
    tr.core.seq_blocks.append(_seq_block(
        "clk_rd", rdom, "rising",
        [seq_assign(wrg_sync1, pty, pref(wr_gray), span),
         seq_assign(wrg_sync2, pty, pref(wrg_sync1), span)], "auto-cdc", span))

    tr.add_property("assert", "_auto_no_overflow",
                    not_(and_(ref("push_valid", BOOL, span), ref("full", BOOL, span),
                              span), span), span, "auto", clock="clk_wr")
    tr.add_property("assert", "_auto_no_underflow",
                    not_(and_(ref("pop_ready", BOOL, span), ref("empty", BOOL, span),
                              span), span), span, "auto", clock="clk_rd")


def lower_pipeline(tr: Translator) -> None:
    ec = tr.ec
    items = ec.items
    tr.declare_items(items)
    tr.predeclare_internals(items)
    stages = [i for i in items if isinstance(i, StageDecl)]
    if not stages:
        tr.error("E_PORT_SET", "a pipeline needs at least one stage", ec.span)
        return
    ck = _single_clock_reset(tr, "pipeline")
    if ck is None:
        return
    (clk, domain), (rst, rst_ty) = ck
    span = ec.span
    stage_names = [s.name for s in stages]

    # per-stage valid_r occupancy registers, visible as Stage.valid_r
    for s in stages:
        name = f"{s.name}.valid_r"
        reg = CoreReg(name, BOOL, clock=clk, domain=domain, edge="rising",
                      reset_sig=rst, reset_value=blit(False, s.span),
                      reset_sync=rst_ty.sync, reset_polarity=rst_ty.polarity,
                      guard=None, origin="auto", span=s.span)
        tr.core.regs[name] = reg
        tr.stage_nets[s.name]["valid_r"] = Binding(name, BOOL, "reg", s.span, s.name,
                                                   stage_names.index(s.name))

    # stall: at most one; governing stage = latest stage referenced
    stalls = [i for i in items if isinstance(i, StallDecl)]
    if len(stalls) > 1:
        tr.error("E_UNSUPPORTED", "at most one `stall when` per pipeline",
                 stalls[1].span)
    stall_net: str | None = None
    govern_index = len(stages) - 1
    if stalls:
        cond, _ = tr.infer(stalls[0].cond, BOOL)
        refs = expr_reads(cond)
        indices = [stage_names.index(n.split(".")[0]) for n in refs
                   if "." in n and n.split(".")[0] in stage_names]
        govern_index = max(indices) if indices else len(stages) - 1
        stall_net = tr.fresh("stall")
        tr.core.nets[stall_net] = NetDef(stall_net, BOOL, "internal", None, stalls[0].span)
        tr.bindings[stall_net] = Binding(stall_net, BOOL, "internal", stalls[0].span)
        tr.core.comb_blocks.append(CoreCombBlock(
            [assign(stall_net, BOOL, cond, stalls[0].span)], "assign", "auto",
            stalls[0].span))

    # flush: any number, each naming a stage
    flush_conds: dict[str, list[Expr]] = {}
    for f in [i for i in items if isinstance(i, FlushDecl)]:
        if f.stage not in stage_names:
            tr.error("E_UNKNOWN_STAGE",
                     f"flush names unknown stage `{f.stage}`", f.span)
            continue
        cond, _ = tr.infer(f.cond, BOOL)
        flush_conds.setdefault(f.stage, []).append(cond)

    def stage_stalled(k: int) -> Expr | None:
        if stall_net is not None and k <= govern_index:
            return ref(stall_net, BOOL, span)
        return None

    def stage_flushed(name: str) -> Expr | None:
        conds = flush_conds.get(name)
        if not conds:
            return None
        out = conds[0]
        for c in conds[1:]:
            out = or_(out, c, span)
        return out

    # translate per-stage bodies with stall/flush wrapping
    for k, s in enumerate(stages):
        tr.current_stage = s.name
        stall_e = stage_stalled(k)
        flush_e = stage_flushed(s.name)
        user_seq_stmts: list[Stmt] = []
        for item in s.items:
            if isinstance(item, SeqBlock):
                if item.clock != clk:
                    tr.error("E_CDC",
                             f"stage `{s.name}` seq must use the pipeline clock `{clk}`",
                             item.span)
                    continue
                user_seq_stmts.extend(tr.translate_stmts(item.stmts, "seq"))
                for target in _seq_target_names(user_seq_stmts):
                    reg = tr.core.regs.get(target)
                    if reg is not None and not reg.clock:
                        reg.clock, reg.domain, reg.edge = clk, domain, item.edge
            elif isinstance(item, CombBlock):
                stmts = tr.translate_stmts(item.stmts, "comb")
                tr.core.comb_blocks.append(CoreCombBlock(stmts, "always", "user", item.span))
            elif isinstance(item, LetDecl):
                tr.translate_let(item)
            elif isinstance(item, RegDecl):
                pass  # declared in pass 1
            elif isinstance(item, (AssertDecl, CoverDecl)):
                tr.translate_body_item(item)
            else:
                tr.error("E_UNSUPPORTED",
                         "a stage holds reg, seq, comb, let, assert, and cover items",
                         item.span)
        # flush resets data regs that declared a reset; stall freezes
        reset_stmts: list[Stmt] = []
        for rname, reg in tr.core.regs.items():
            if rname.startswith(f"{s.name}.") and reg.origin == "user" \
                    and reg.reset_value is not None:
                reset_stmts.append(SAssign(reg.span, ref(rname, reg.ty, reg.span),
                                           reg.reset_value, "<="))
        body = user_seq_stmts
        if stall_e is not None:
            body = [SIf(span, stall_e, [], body)]
        if flush_e is not None:
            body = [SIf(span, flush_e, reset_stmts, body)]
        if body:
            tr.core.seq_blocks.append(_seq_block(clk, domain, "rising", body,
                                                 "user", s.span))

        # valid_r update
        vname = f"{s.name}.valid_r"
        if k == 0:
            incoming: Expr = blit(True, span)
        else:
            prev = f"{stage_names[k - 1]}.valid_r"
            incoming = ref(prev, BOOL, span)
            prev_stall = stage_stalled(k - 1)
            if prev_stall is not None and stage_stalled(k) is None:
                # earlier stage frozen, this one advancing: bubble in
                incoming = ite(prev_stall, blit(False, span), incoming, span)
        upd: Expr = incoming
        if stall_e is not None:
            upd = ite(stall_e, ref(vname, BOOL, span), upd, span)
        if flush_e is not None:
            upd = ite(flush_e, blit(False, span), upd, span)
        tr.core.seq_blocks.append(_seq_block(
            clk, domain, "rising",
            [SAssign(span, ref(vname, BOOL, span), upd, "<=")], "auto", span))
    tr.current_stage = None

    # pipeline-level items
    for item in items:
        if isinstance(item, (StageDecl, StallDecl)) or item.__class__.__name__ == "FlushDecl":
            continue
        if isinstance(item, (StateDecl, DefaultStateDecl, DefaultBlock)):
            tr.error("E_UNSUPPORTED", "states belong inside an fsm", item.span)
            continue
        tr.translate_body_item(item)
    _bind_idle_regs(tr)


_CONSTRUCT_LOWER = {
    "module": lower_module,
    "fsm": lower_fsm,
    "counter": lower_counter,
    "synchronizer": lower_synchronizer,
    "fifo": lower_fifo,
    "pipeline": lower_pipeline,
}


# ── auto safety properties for dynamic sites ─────────────────────


def _zext_to(e: Expr, width: int, span: Span) -> Expr:
    from .types import UInt as U
    cur = e.ty
    cur_w = cur.width if isinstance(cur, (UInt, SInt)) else 1
    if cur_w >= width and not isinstance(cur, SInt):
        return e
    conv = Convert(span, "zext", e, lit(width, U(max(1, width.bit_length())), span))
    conv.ty = U(width)
    return conv


def synthesize_safety_props(tr: Translator) -> None:
    """_auto_bound_* for dynamic Vec/bit indexing in seq context and
    _auto_div0_* for every non-constant division or modulo."""
    core = tr.core
    clocks = core.clock_ports()
    sole_clock = clocks[0][0] if len(clocks) == 1 else None

    counters: dict[str, int] = {}

    def prop_name(prefix: str, owner: str) -> str:
        base = f"{prefix}_{owner.replace('.', '_')}"
        counters[base] = counters.get(base, 0) + 1
        return base if counters[base] == 1 else f"{base}_{counters[base] - 1}"

    def clock_for(block_clock: str | None) -> str | None:
        return block_clock if block_clock is not None else sole_clock

    # bounds: seq context only (the paper's rule; comb sites are covered by
    # the always-on runtime abort)
    for block in core.seq_blocks:
        from .ir import _targets_of

        def visit(e: Expr, owner: str) -> None:
            for node in walk_expr(e):
                if isinstance(node, Index):
                    base_ty = node.base.ty
                    size = None
                    if isinstance(base_ty, Vec):
                        size = base_ty.size
                    elif isinstance(base_ty, (UInt, SInt)):
                        size = base_ty.width
                    if size is None or const_int(node.index) is not None:
                        continue
                    w = max(_int_width(node.index), size.bit_length())
                    cond = bin_op("<", _zext_to(node.index, w, node.span),
                                  lit(size, UInt(w), node.span), BOOL, node.span)
                    name = prop_name("_auto_bound", owner)
                    tr.add_generated_property("assert", name, cond, node.span,
                                              clock_for(block.clock))

        for owner, e in _seq_exprs_of_block(block):
            visit(e, owner)

    # div0: every non-constant divisor, any context
    def visit_div(e: Expr, owner: str, clock: str | None) -> None:
        for node in walk_expr(e):
            if isinstance(node, Binary) and node.op in ("/", "%"):
                if const_int(node.rhs) is not None:
                    continue
                zero = lit(0, node.rhs.ty, node.span)
                cond = ne(node.rhs, zero, node.span)
                name = prop_name("_auto_div0", owner)
                clk = clock_for(clock)
                if clk is None:
                    continue  # multi-clock comb site: runtime abort still covers it
                tr.add_generated_property("assert", name, cond, node.span, clk)

    for block in core.seq_blocks:
        for owner, e in _seq_exprs_of_block(block):
            visit_div(e, owner, block.clock)
    for block in core.comb_blocks:
        for owner, e in _comb_exprs_of_block(block):
            visit_div(e, owner, None)


def _int_width(e: Expr) -> int:
    ty = e.ty
    if isinstance(ty, (UInt, SInt)):
        return ty.width
    return 1


def _seq_exprs_of_block(block):
    def stmt_exprs(st: Stmt, owner: str):
        if isinstance(st, SAssign):
            tgt = st.lhs.base.name if isinstance(st.lhs, Index) else st.lhs.name
            yield tgt, st.rhs
            if isinstance(st.lhs, Index):
                yield tgt, st.lhs.index
        elif isinstance(st, SIf):
            yield owner, st.cond
            for s in st.then:
                yield from stmt_exprs(s, owner)
            for s in st.els or []:
                yield from stmt_exprs(s, owner)
        elif isinstance(st, SMatch):
            yield owner, st.subject
            for c in st.cases:
                for s in c.stmts:
                    yield from stmt_exprs(s, owner)
            for s in st.else_stmts or []:
                yield from stmt_exprs(s, owner)

    from .ir import _targets_of
    targets = _targets_of(block.stmts)
    owner = targets[0] if targets else "seq"
    for st in block.stmts:
        yield from stmt_exprs(st, owner)


def _comb_exprs_of_block(block):
    yield from _seq_exprs_of_block(block)


# ── property clock/reset resolution ──────────────────────────────


def resolve_property_clocks(tr: Translator) -> None:
    core = tr.core
    clocks = core.clock_ports()
    clock_by_domain = {}
    for cname, dom in clocks:
        clock_by_domain.setdefault(dom, cname)
    resets = [(p.name, p.ty) for p in core.ports if isinstance(p.ty, Reset)]
    sole_reset = resets[0] if len(resets) == 1 else None
    reset_by_domain: dict[str, tuple[str, Reset]] = {}
    for reg in core.regs.values():
        if reg.reset_sig is not None and reg.domain not in reset_by_domain:
            rty = next((p.ty for p in core.ports if p.name == reg.reset_sig), None)
            if isinstance(rty, Reset):
                reset_by_domain[reg.domain] = (reg.reset_sig, rty)
    for prop in core.properties:
        if prop.clock is None:
            if len(clocks) == 1:
                prop.clock = clocks[0][0]
            elif len(clocks) == 0:
                prop.clock = None  # purely combinational construct
            else:
                doms = set()
                for n in expr_reads(prop.expr):
                    reg = core.regs.get(n)
                    if reg is not None:
                        doms.add(reg.domain)
                if len(doms) == 1:
                    prop.clock = clock_by_domain.get(next(iter(doms)))
                if prop.clock is None:
                    tr.error("E_CDC",
                             f"cannot infer a clock for property `{prop.name}` in a "
                             f"multi-clock construct", prop.span)
                    continue
        if prop.clock is not None:
            dom = dict(clocks).get(prop.clock)
            prop.domain = dom
            chosen = reset_by_domain.get(dom) or sole_reset
            if chosen is not None:
                prop.reset_sig, rty = chosen
                prop.reset_polarity = rty.polarity


# ── whole-design compile driver ──────────────────────────────────


@dataclass
class Design:
    program: Program
    cores: dict[str, CoreModule]
    summaries: dict[str, Summary]
    order: list[str]


def _topo_keys(program: Program) -> list[str]:
    deps: dict[str, list[str]] = {}
    for key, ec in program.elaborated.items():
        deps[key] = [item.resolved_key for item in ec.items
                     if isinstance(item, InstDecl) and hasattr(item, "resolved_key")]
    out: list[str] = []
    state: dict[str, int] = {}

    def visit(k: str) -> None:
        if state.get(k) == 2:
            return
        state[k] = 1
        for d in deps.get(k, ()):
            if state.get(d) != 1:
                visit(d)
        state[k] = 2
        out.append(k)

    for k in program.elaborated:
        visit(k)
    return out


def compile_design(program: Program, *, fsm_encoding: str = "binary") -> Design:
    """Lower and check every elaborated construct, children first."""
    cores: dict[str, CoreModule] = {}
    summaries: dict[str, Summary] = {}
    diags: list[Diagnostic] = []
    order = _topo_keys(program)
    for key in order:
        ec = program.elaborated[key]
        tr = Translator(ec, summaries, fsm_encoding)
        _CONSTRUCT_LOWER[ec.kind](tr)
        if tr.diags:
            diags.extend(tr.diags)
            continue
        core = tr.core
        core.has_todo = list(tr.has_todo)
        derive_defs(core, tr.diags)
        graph = None
        if not tr.diags:
            graph = analyze_comb(core, summaries, tr.diags)
        if not tr.diags and graph is not None:
            summary = analyze_domains(core, summaries, tr.diags, graph)
            if tr.sync_bridge is not None:
                port, src_domain = tr.sync_bridge
                summary.in_domains.pop(port, None)
                summary.bridge_in[port] = src_domain
            if ec.kind == "fifo" and "pop_data" in summary.out_domains:
                # reading the storage array in the pop domain is the fifo's
                # sanctioned crossing; pop-side outputs belong to the read domain
                rd_clk = "clk_rd" if any(p.name == "clk_rd" for p in core.ports) else "clk"
                rd_dom = dict(core.clock_ports()).get(rd_clk)
                if rd_dom is not None:
                    for out_p in ("pop_data", "pop_valid", "empty"):
                        summary.out_domains[out_p] = {rd_dom}
            summaries[key] = summary
        if not tr.diags:
            check_guards(core, tr.diags)
        if not tr.diags:
            synthesize_safety_props(tr)
            resolve_property_clocks(tr)
        if tr.diags:
            diags.extend(tr.diags)
            summaries.pop(key, None)
            continue
        cores[key] = core
    if diags:
        raise CompileError(diags)
    return Design(program, cores, summaries, order)
