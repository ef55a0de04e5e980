"""SimImage: the flattened executable model.

Hierarchy is flattened with dotted instance paths ("f.mem"); the comb
schedule is the global topological order of all net definitions, evaluated
settle_depth times per edge (settle depth per module is 1 or 2: 2 when
comb/let results feed instance inputs). Expressions compile to Python
closures over a flat value list; ternary/&&/|| evaluate lazily so runtime
checks fire only on taken paths, exactly like the generated-code backend
they model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..ast_nodes import (
    Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit, NameRef,
    Slice, Ternary, TodoExpr, Unary,
)
from ..consteval import div_trunc, rem_trunc
from ..ir import CoreModule, VecStore, build_comb_graph
from ..source import Span
from ..types import Clock, EnumType, SInt, Type, UInt, Vec


class SimAbortError(Exception):
    """Hard abort: OUT_OF_BOUNDS, DIV_BY_ZERO, or TODO_REACHED."""

    def __init__(self, kind: str, span: Span, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.span = span
        self.message = message


@dataclass
class SimFlags:
    check_uninit: bool = False
    inputs_start_uninit: bool = False
    cdc_random: bool = False
    stop_on_assert: bool = False
    seed: int = 0
    debug_settle: bool = False  # extra pass asserting the settle invariant


@dataclass
class FlatNet:
    name: str
    ty: Type
    kind: str            # port-in | port-out | let | internal | inst-out | clock
    index: int
    fn: Optional[Callable] = None
    span: Span = None  # type: ignore[assignment]


@dataclass
class FlatReg:
    name: str
    ty: Type
    domain: str
    index: int
    edge: str = "rising"
    next_fn: Callable = None  # type: ignore[assignment]
    assigned_fn: Optional[Callable] = None
    reset_net: Optional[int] = None   # value-store index of the reset net
    reset_active_high: bool = True
    reset_async: bool = False
    reset_value: Optional[object] = None
    guard_index: Optional[int] = None  # value index of the guard register
    uninit_exempt: bool = False
    reset_none: bool = False
    cdc_chain: Optional[str] = None
    width: int = 1
    written_index: int = -1
    span: Span = None  # type: ignore[assignment]


@dataclass
class FlatProp:
    kind: str
    name: str
    domain: Optional[str]
    fn: Callable
    reset_net: Optional[int]
    reset_active_high: bool
    span: Span


@dataclass
class SimImage:
    top: str
    nets: dict[str, FlatNet]
    regs: dict[str, FlatReg]
    props: list[FlatProp]
    schedule: list[tuple[int, Callable]]          # (value index, closure)
    regs_by_domain: dict[str, list[FlatReg]]
    domains: list[str]
    clock_nets: dict[str, list[int]]              # domain -> clock net indices
    inputs: dict[str, FlatNet]                    # primary inputs (settable)
    value_count: int
    settle_depth: int
    module_settle: dict[str, int]                 # instance path -> 1 or 2
    flags: SimFlags
    initial: list[object]
    visible: list[str]                            # stable net order for VCD/report
    todo_sites: list[Span]
    primary_domain: Optional[str] = None          # first-declared clock of the top
    builder: object = None                        # ImageBuilder (bitmaps, warn sink)


def mask_of(width: int) -> int:
    return (1 << width) - 1


def wrap_signed(v: int, width: int) -> int:
    v &= (1 << width) - 1
    if v >= (1 << (width - 1)):
        v -= 1 << width
    return v


def type_width(ty: Type) -> int:
    if isinstance(ty, (UInt, SInt)):
        return ty.width
    if isinstance(ty, EnumType):
        return ty.width
    return 1


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


# ── expression compilation ───────────────────────────────────────


class ExprCompiler:
    """Compiles typed expressions (already rewritten to flat names) to
    closures over the value list. `suppress_hook_for` keeps a register's
    own hold reference inside its next-value expression from counting as
    a user read site."""

    def __init__(self, image_builder: "ImageBuilder",
                 suppress_hook_for: str | None = None) -> None:
        self.b = image_builder
        self.suppress_hook_for = suppress_hook_for

    def compile(self, e: Expr) -> Callable:
        b = self.b
        if isinstance(e, IntLit):
            ty = e.ty
            c = wrap_signed(e.value, ty.width) if isinstance(ty, SInt) else e.value
            return lambda v: c
        if isinstance(e, BoolLit):
            c = 1 if e.value else 0
            return lambda v: c
        if isinstance(e, EnumRef):
            c = e.ty.variants.index(e.variant)
            return lambda v: c
        if isinstance(e, TodoExpr):
            span = e.span
            def todo(v):
                raise SimAbortError("TODO_REACHED", span,
                                    f"todo! reached at {span.point()}")
            return todo
        if isinstance(e, NameRef):
            i = b.index_of(e.name)
            hook = None if e.name == self.suppress_hook_for \
                else b.read_hook(e.name, e.span)
            if hook is not None:
                def read(v, i=i, hook=hook):
                    hook(v)
                    return v[i]
                return read
            return lambda v, i=i: v[i]
        if isinstance(e, Unary):
            f = self.compile(e.operand)
            ty = e.ty
            w = type_width(ty)
            if e.op == "!":
                return lambda v: 1 - (f(v) & 1)
            if e.op == "~":
                if isinstance(ty, SInt):
                    return lambda v: wrap_signed(~f(v), w)
                m = mask_of(w)
                return lambda v: (~f(v)) & m
            if e.op == "-":
                return lambda v: wrap_signed(-f(v), w)
            raise AssertionError(e.op)
        if isinstance(e, Binary):
            return self._binary(e)
        if isinstance(e, (Ternary, IfExpr)):
            fc = self.compile(e.cond)
            ft = self.compile(e.then)
            fe = self.compile(e.els)
            return lambda v: ft(v) if fc(v) else fe(v)
        if isinstance(e, Index):
            return self._index(e)
        if isinstance(e, Slice):
            f = self.compile(e.base)
            lo = e.lo.value
            m = mask_of(e.hi.value - e.lo.value + 1)
            base_ty = e.base.ty
            if isinstance(base_ty, SInt):
                bw = base_ty.width
                return lambda v: ((f(v) & mask_of(bw)) >> lo) & m
            return lambda v: (f(v) >> lo) & m
        if isinstance(e, Convert):
            f = self.compile(e.base)
            out_ty = e.ty
            w = type_width(out_ty)
            if e.kind == "zext":
                return f  # unsigned value unchanged
            if e.kind == "sext":
                return f  # signed value unchanged, width grows
            if isinstance(out_ty, SInt):
                return lambda v: wrap_signed(f(v), w)
            m = mask_of(w)
            src_ty = e.base.ty
            if isinstance(src_ty, SInt):
                return lambda v: f(v) & m
            return lambda v: f(v) & m
        if isinstance(e, VecStore):
            fb = self.compile(e.base)
            fi = self.compile(e.index)
            fv = self.compile(e.value)
            size = e.ty.size
            span = e.span
            def store(v):
                i = fi(v)
                if i >= size:
                    raise SimAbortError(
                        "OUT_OF_BOUNDS", span,
                        f"index {i} out of bounds for Vec of size {size} at {span.point()}")
                t = fb(v)
                return t[:i] + (fv(v),) + t[i + 1:]
            return store
        raise AssertionError(f"compile: {e!r}")

    def _index(self, e: Index) -> Callable:
        fb = self.compile(e.base)
        fi = self.compile(e.index)
        base_ty = e.base.ty
        span = e.span
        if isinstance(base_ty, Vec):
            size = base_ty.size
            def read(v):
                i = fi(v)
                if i >= size:
                    raise SimAbortError(
                        "OUT_OF_BOUNDS", span,
                        f"index {i} out of bounds for Vec of size {size} at {span.point()}")
                return fb(v)[i]
            return read
        width = type_width(base_ty)
        signed = isinstance(base_ty, SInt)
        def bit(v):
            i = fi(v)
            if i >= width:
                raise SimAbortError(
                    "OUT_OF_BOUNDS", span,
                    f"bit {i} out of bounds for width {width} at {span.point()}")
            x = fb(v)
            if signed:
                x &= mask_of(width)
            return (x >> i) & 1
        return bit

    def _binary(self, e: Binary) -> Callable:
        op = e.op
        fl = self.compile(e.lhs)
        if op in ("&&", "||", "implies"):
            fr = self.compile(e.rhs)
            if op == "&&":
                return lambda v: 1 if (fl(v) and fr(v)) else 0
            if op == "||":
                return lambda v: 1 if (fl(v) or fr(v)) else 0
            return lambda v: 1 if (not fl(v) or fr(v)) else 0
        fr = self.compile(e.rhs)
        if op in ("==", "!="):
            if op == "==":
                return lambda v: 1 if fl(v) == fr(v) else 0
            return lambda v: 1 if fl(v) != fr(v) else 0
        if op in ("<", "<=", ">", ">="):
            if op == "<":
                return lambda v: 1 if fl(v) < fr(v) else 0
            if op == "<=":
                return lambda v: 1 if fl(v) <= fr(v) else 0
            if op == ">":
                return lambda v: 1 if fl(v) > fr(v) else 0
            return lambda v: 1 if fl(v) >= fr(v) else 0
        ty = e.ty
        w = type_width(ty)
        signed = isinstance(ty, SInt)
        m = mask_of(w)
        span = e.span
        if op in ("+", "+%"):
            if signed:
                return lambda v: wrap_signed(fl(v) + fr(v), w)
            return lambda v: (fl(v) + fr(v)) & m
        if op in ("-", "-%"):
            if signed:
                return lambda v: wrap_signed(fl(v) - fr(v), w)
            return lambda v: (fl(v) - fr(v)) & m
        if op in ("*", "*%"):
            if signed:
                return lambda v: wrap_signed(fl(v) * fr(v), w)
            return lambda v: (fl(v) * fr(v)) & m
        if op in ("/", "%"):
            is_div = op == "/"
            def divmod_(v):
                b_ = fr(v)
                if b_ == 0:
                    raise SimAbortError(
                        "DIV_BY_ZERO", span,
                        f"division by zero at {span.point()}")
                a_ = fl(v)
                if signed:
                    return wrap_signed(div_trunc(a_, b_) if is_div else rem_trunc(a_, b_), w)
                return (a_ // b_) if is_div else (a_ % b_)
            return divmod_
        if op == "<<":
            if signed:
                return lambda v: wrap_signed(fl(v) << min(fr(v), w), w)
            return lambda v: (fl(v) << min(fr(v), w)) & m
        if op == ">>":
            if signed:
                return lambda v: fl(v) >> min(fr(v), w)
            return lambda v: fl(v) >> min(fr(v), w) if fr(v) < w else 0
        if op in ("&", "|", "^"):
            if signed:
                if op == "&":
                    return lambda v: wrap_signed(fl(v) & fr(v), w)
                if op == "|":
                    return lambda v: wrap_signed(fl(v) | fr(v), w)
                return lambda v: wrap_signed(fl(v) ^ fr(v), w)
            if op == "&":
                return lambda v: fl(v) & fr(v)
            if op == "|":
                return lambda v: fl(v) | fr(v)
            return lambda v: (fl(v) ^ fr(v)) & m
        raise AssertionError(op)


# ── flattening ───────────────────────────────────────────────────


class ImageBuilder:
    def __init__(self, cores: dict[str, CoreModule], top: str, flags: SimFlags) -> None:
        self.cores = cores
        self.flags = flags
        self.sink = lambda kind, message, span: None  # engine re-points this
        self.top = top
        self.indices: dict[str, int] = {}
        self.initial: list[object] = []
        self.nets: dict[str, FlatNet] = {}
        self.regs: dict[str, FlatReg] = {}
        self.props: list[FlatProp] = []
        self.defs: dict[str, Expr] = {}       # flat net -> rewritten expr
        self.def_spans: dict[str, Span] = {}
        self.inputs: dict[str, FlatNet] = {}
        self.clock_nets: dict[str, list[int]] = {}
        self.module_settle: dict[str, int] = {}
        self.todo_sites: list[Span] = []
        self._uninit_state: dict[str, object] = {}

    def index_of(self, name: str) -> int:
        return self.indices[name]

    def alloc(self, name: str, init: object) -> int:
        idx = len(self.initial)
        self.indices[name] = idx
        self.initial.append(init)
        return idx

    def read_hook(self, flat_name: str, span: Span):
        """Instrumentation for --check-uninit / --inputs-start-uninit.
        Guarded registers are handled at the guard check instead; the guard
        silences consumer-read warnings by design."""
        reg = self.regs.get(flat_name)
        if reg is not None and self.flags.check_uninit and reg.reset_none \
                and reg.guard_index is None and not reg.uninit_exempt:
            state = self._uninit_state
            key = (flat_name, span.file, span.start)
            written = self.written
            ridx = reg.written_index
            b = self
            def hook(v):
                if not written[ridx] and key not in state:
                    state[key] = True
                    b.sink("UNINIT_READ",
                           f"read of never-written reset-none register `{flat_name}`",
                           span)
            return hook
        net = self.inputs.get(flat_name)
        if net is not None and self.flags.inputs_start_uninit:
            state = self._uninit_state
            key = ("input", flat_name)
            driven = self.driven
            iidx = list(self.inputs).index(flat_name)
            b = self
            def hook(v):
                if not driven[iidx] and key not in state:
                    state[key] = True
                    b.sink("UNDRIVEN_INPUT",
                           f"primary input `{flat_name}` read before it was ever set",
                           span)
            return hook
        return None

    def build(self) -> SimImage:
        self._declare("", self.top)
        # written/driven bitmaps must exist before closures compile
        for i, reg in enumerate(self.regs.values()):
            reg.written_index = i
        self.written = [False] * len(self.regs)
        self.driven = [False] * len(self.inputs)
        self._compile("", self.top)

        graph = build_comb_graph({n: e for n, e in self.defs.items()},
                                 [], set(self.regs), self.def_spans)
        order = [n for n in graph.order if n in self.defs]
        schedule = []
        for name in order:
            compiler = ExprCompiler(self)
            fn = compiler.compile(self.defs[name])
            idx = self.indices[name]
            schedule.append((idx, fn))
            self.nets[name].fn = fn

        regs_by_domain: dict[str, list[FlatReg]] = {}
        for reg in self.regs.values():
            regs_by_domain.setdefault(reg.domain, []).append(reg)
        domains = sorted(regs_by_domain)
        for d, nets in self.clock_nets.items():
            if d not in regs_by_domain:
                regs_by_domain[d] = []
                if d not in domains:
                    domains.append(d)
        visible = list(self.nets) + list(self.regs)
        top_clocks = self.cores[self.top].clock_ports()
        return SimImage(
            top=self.top, nets=self.nets, regs=self.regs, props=self.props,
            schedule=schedule, regs_by_domain=regs_by_domain, domains=domains,
            clock_nets=self.clock_nets, inputs=self.inputs,
            value_count=len(self.initial),
            settle_depth=max(self.module_settle.values(), default=1),
            module_settle=self.module_settle, flags=self.flags,
            initial=self.initial, visible=visible, todo_sites=self.todo_sites,
            primary_domain=top_clocks[0][1] if top_clocks else None)

    def _declare(self, prefix: str, key: str) -> None:
        core = self.cores[key]
        self.module_settle[prefix or "<top>"] = core.settle_depth
        self.todo_sites.extend(core.has_todo)
        clock_domains = dict(core.clock_ports())
        for name, net in core.nets.items():
            flat = prefix + name
            if flat in self.indices:
                continue  # child port net merged with parent inst-out alias
            idx = self.alloc(flat, zero_of(net.ty))
            kind = net.kind
            if isinstance(net.ty, Clock):
                kind = "clock"
                domain = net.ty.domain
                self.clock_nets.setdefault(domain, []).append(idx)
            fnet = FlatNet(flat, net.ty, kind, idx, None, net.span)
            self.nets[flat] = fnet
            if prefix == "" and kind == "port-in":  # clocks are schedule-driven
                self.inputs[flat] = fnet
        for name, reg in core.regs.items():
            flat = prefix + name
            init = (const_value_of(reg.reset_value, reg.ty)
                    if reg.reset_value is not None else zero_of(reg.ty))
            idx = self.alloc(flat, init)
            self.regs[flat] = FlatReg(
                flat, reg.ty, reg.domain, idx, edge=reg.edge,
                reset_active_high=(reg.reset_polarity != "Low"),
                reset_async=(reg.reset_sync == "Async"),
                reset_value=init if reg.reset_value is not None else None,
                uninit_exempt=reg.uninit_exempt,
                reset_none=reg.reset_sig is None and reg.guard is None,
                cdc_chain=(prefix + reg.cdc_chain) if reg.cdc_chain else None,
                width=type_width(reg.ty) if not isinstance(reg.ty, Vec) else 0,
                span=reg.span)
        for inst in core.instances:
            self._declare(prefix + inst.name + ".", inst.module_key)

    def _compile(self, prefix: str, key: str) -> None:
        core = self.cores[key]
        compiler = ExprCompiler(self)
        for name, net in core.nets.items():
            flat = prefix + name
            if net.expr is not None and flat not in self.defs:
                self.defs[flat] = _prefix_expr(net.expr, prefix)
                self.def_spans[flat] = net.span
        for name, reg in core.regs.items():
            flat = prefix + name
            freg = self.regs[flat]
            next_e = _prefix_expr(reg.next, prefix)
            reg_compiler = ExprCompiler(self, suppress_hook_for=flat)
            freg.next_fn = reg_compiler.compile(next_e)
            if reg.assigned is not None:
                freg.assigned_fn = reg_compiler.compile(_prefix_expr(reg.assigned, prefix))
            if reg.reset_sig is not None:
                freg.reset_net = self.indices[prefix + reg.reset_sig]
            if reg.guard is not None:
                freg.guard_index = self.indices[prefix + reg.guard]
        for prop in core.properties:
            fn = compiler.compile(_prefix_expr(prop.expr, prefix))
            reset_net = (self.indices[prefix + prop.reset_sig]
                         if prop.reset_sig is not None else None)
            self.props.append(FlatProp(
                prop.kind, prefix + prop.name, prop.domain, fn, reset_net,
                prop.reset_polarity != "Low", prop.span))
        for inst in core.instances:
            child_prefix = prefix + inst.name + "."
            child = self.cores[inst.module_key]
            for port, expr in inst.in_map.items():
                flat = child_prefix + port
                self.defs[flat] = _prefix_expr(expr, prefix)
                self.def_spans[flat] = inst.span
            self._compile(child_prefix, inst.module_key)


def _prefix_expr(e: Expr, prefix: str) -> Expr:
    if not prefix:
        return e
    import copy

    def walk(x: Expr) -> Expr:
        if isinstance(x, NameRef):
            n = NameRef(x.span, prefix + x.name)
            n.ty = x.ty
            return n
        c = copy.copy(x)
        c.ty = x.ty
        for attr in ("lhs", "rhs", "operand", "cond", "then", "els", "base",
                     "index", "hi", "lo", "width", "value"):
            sub = getattr(x, attr, None)
            if isinstance(sub, Expr):
                setattr(c, attr, walk(sub))
        return c

    return walk(e)


def build_sim(cores: dict[str, CoreModule], top: str, flags: SimFlags) -> SimImage:
    """Flatten the design under `top` into an executable image."""
    builder = ImageBuilder(cores, top, flags)
    image = builder.build()
    image.builder = builder  # engine claims the warn sink and bitmaps
    return image
