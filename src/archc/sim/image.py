"""SimImage: the flattened executable model.

Hierarchy is flattened with dotted instance paths ("f.mem"). The design
compiles to straight-line Python source over a flat value list `v`, run
through compile()/exec: the comb schedule is one `settle` function that
assigns every flat net once, in the global topological order of all net
definitions (comb loops are refused before this, so one pass settles).
The engine generates one step function per set of clock edges from the
same expression compiler, a property read on its own (`FlatProp.fn`) is
compiled on first use, and a VCD trace generates one sampler function.
Ternary/&&/|| stay lazy (conditional expressions and `and`/`or`), so
runtime checks fire only on taken paths, exactly like the generated-code
backend they model.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ast_nodes import (
    EXPR_CHILDREN, Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit, NameRef,
    Slice, Ternary, TodoExpr, Unary,
)
from ..consteval import const_value_of, wrap_signed, zero_of
from ..ir import CoreModule, VecStore, build_comb_graph
from ..ops import BINARY, BOOL_GROUPS, UNARY
from ..source import Span
from ..types import Clock, SInt, Type, Vec, width_of


class SimAbortError(Exception):
    """Hard abort: OUT_OF_BOUNDS, DIV_BY_ZERO, or TODO_REACHED."""

    def __init__(self, kind: str, span: Span, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.span = span
        self.message = message


class SimFlags:
    def __init__(self, check_uninit: bool = False, inputs_start_uninit: bool = False,
                 cdc_random: bool = False, stop_on_assert: bool = False, seed: int = 0) -> None:
        self.check_uninit, self.inputs_start_uninit = check_uninit, inputs_start_uninit
        self.cdc_random, self.stop_on_assert, self.seed = cdc_random, stop_on_assert, seed


class FlatNet:
    def __init__(self, name: str, ty: Type,
                 kind: str,  # port-in | port-out | let | internal | inst-out | clock
                 index: int, span: Span = None) -> None:
        self.name, self.ty, self.kind, self.index, self.span = name, ty, kind, index, span


class FlatReg:
    def __init__(self, name: str, ty: Type, domain: str, index: int, edge: str = "rising",
                 next_expr: Expr = None, assigned_expr: Optional[Expr] = None,
                 reset_net: Optional[int] = None,  # value index of the net the reset copies
                 reset_active_high: bool = True, reset_async: bool = False,
                 reset_value: Optional[object] = None,
                 guard_index: Optional[int] = None,  # value index of the guard register
                 uninit_exempt: bool = False, reset_none: bool = False,
                 cdc_chain: Optional[str] = None, width: int = 1, written_index: int = -1,
                 span: Span = None) -> None:
        self.name, self.ty, self.domain, self.index, self.edge = name, ty, domain, index, edge
        self.next_expr, self.assigned_expr, self.reset_net = next_expr, assigned_expr, reset_net
        self.reset_active_high, self.reset_async = reset_active_high, reset_async
        self.reset_value, self.guard_index = reset_value, guard_index
        self.uninit_exempt, self.reset_none, self.cdc_chain = uninit_exempt, reset_none, cdc_chain
        self.width, self.written_index, self.span = width, written_index, span


class FlatProp:
    def __init__(self, kind: str, name: str, domain: Optional[str], expr: Expr,
                 reset_net: Optional[int], reset_active_high: bool, span: Span,
                 builder: "ImageBuilder") -> None:
        self.kind, self.name, self.domain, self.expr = kind, name, domain, expr
        self.reset_net, self.reset_active_high, self.span = reset_net, reset_active_high, span
        self.builder = builder
        self._fn = None

    @property
    def fn(self) -> Callable:
        """`fn(v)`, the property's value on the value list, compiled on
        first use: the edge steps inline their properties, so only the
        properties of a clockless design are called through it."""
        if self._fn is None:
            name = self.builder.fresh("_p")
            text = ExprCompiler(self.builder).value(self.expr)
            self._fn = self.builder.run(f"def {name}(v):\n    return {text}\n")[name]
        return self._fn


class SimImage:
    def __init__(self, top: str, nets: dict[str, FlatNet], regs: dict[str, FlatReg],
                 props: list[FlatProp],
                 settle: Callable,  # settle(v): the comb schedule
                 regs_by_domain: dict[str, list[FlatReg]], domains: list[str],
                 clock_nets: dict[str, list[int]],  # domain -> clock net indices
                 inputs: dict[str, FlatNet],        # primary inputs (settable)
                 value_count: int, flags: SimFlags, initial: list[object],
                 visible: list[str],                # stable net order for VCD/report
                 todo_sites: list[Span],
                 primary_domain: Optional[str] = None,  # first-declared clock of the top
                 builder: object = None,                # ImageBuilder (names, generated code)
                 steps: dict = None,                    # engine: edge set -> step fn
                 run_slot: Optional[int] = None,        # value slot holding the Simulator
                 ) -> None:
        self.top, self.nets, self.regs, self.props, self.settle = top, nets, regs, props, settle
        self.regs_by_domain, self.domains, self.clock_nets = regs_by_domain, domains, clock_nets
        self.inputs, self.value_count, self.flags = inputs, value_count, flags
        self.initial, self.visible, self.todo_sites = initial, visible, todo_sites
        self.primary_domain, self.builder, self.run_slot = primary_domain, builder, run_slot
        self.steps = {} if steps is None else steps


def mask_of(width: int) -> int:
    return (1 << width) - 1


# ── expression compilation ───────────────────────────────────────

SPLIT_DEPTH = 36  # node depth at which a subexpression moves to a helper
# function: a node adds at most 5 bracket levels to the text around its
# operands, which keeps a function's text under the 200 that compile() takes


class ExprCompiler:
    """Compiles typed expressions (already rewritten to flat names) to
    Python expression text over the value list `v`. `suppress_hook_for`
    keeps a register's own hold reference inside its
    next-value expression from counting as a user read site. `impure`
    becomes true once the text can raise or warn."""

    def __init__(self, image_builder: "ImageBuilder",
                 suppress_hook_for: str | None = None) -> None:
        self.b = image_builder
        self.suppress_hook_for = suppress_hook_for
        self.impure = False

    def _abort(self, kind: str, span: Span, message: str) -> str:
        """Name of a function that raises the runtime check; `{i}` in the
        message is filled from its argument."""
        self.impure = True
        def abort(i=None):
            raise SimAbortError(kind, span, message.format(i=i))
        return self.b.bind(abort, "_a")

    def _temp(self) -> str:
        return self.b.fresh("t")

    def cond(self, e: Expr, depth: int = 0) -> str:
        """Text whose truth value is the Bool `e` (no 1/0 conversion)."""
        if depth >= SPLIT_DEPTH:
            return self.value(e, depth)
        if isinstance(e, Binary):
            row = BINARY[e.op]
            if row.group in BOOL_GROUPS:  # operands: truth values for `logic`
                sub = self.cond if row.group == "logic" else self.value
                a = sub(e.lhs, depth + 1)
                return "(" + row.py.format(a=a, b=sub(e.rhs, depth + 1)) + ")"
        if isinstance(e, Unary) and e.op == "!":
            return "(" + UNARY["!"].py.format(a=self.cond(e.operand, depth + 1)) + ")"
        return self.value(e, depth)

    def value(self, e: Expr, depth: int = 0) -> str:
        if depth >= SPLIT_DEPTH:
            return self.b.helper(e, self)
        d = depth + 1
        if isinstance(e, IntLit):
            ty = e.ty
            return repr(wrap_signed(e.value, ty.width) if isinstance(ty, SInt) else e.value)
        if isinstance(e, BoolLit):
            return "1" if e.value else "0"
        if isinstance(e, EnumRef):
            return repr(e.ty.variants.index(e.variant))
        if isinstance(e, TodoExpr):
            return self._abort("TODO_REACHED", e.span,
                               f"todo! reached at {e.span.point()}") + "()"
        if isinstance(e, NameRef):
            text = f"v[{self.b.index_of(e.name)}]"
            hook = None if e.name == self.suppress_hook_for \
                else self.b.read_hook(e.name, e.span)
            if hook is not None:
                self.impure = True
                return f"{self.b.bind(hook, '_h')}({text}, v[{self.b.run_slot}])"
            return text
        if isinstance(e, Unary):
            a = self.value(e.operand, d)
            ty = e.ty
            w = width_of(ty)
            if e.op == "!":
                return f"({a} & 1 ^ 1)"
            text = UNARY[e.op].py.format(a=a)
            return _wrap(text, w) if isinstance(ty, SInt) else f"({text} & {mask_of(w)})"
        if isinstance(e, Binary):
            return self._binary(e, d)
        if isinstance(e, (Ternary, IfExpr)):
            c = self.cond(e.cond, d)
            return f"({self.value(e.then, d)} if {c} else {self.value(e.els, d)})"
        if isinstance(e, Index):
            return self._index(e, d)
        if isinstance(e, Slice):
            a = self.value(e.base, d)
            lo = e.lo.value
            m = mask_of(e.hi.value - e.lo.value + 1)
            if isinstance(e.base.ty, SInt):
                return f"(({a} & {mask_of(e.base.ty.width)}) >> {lo} & {m})"
            return f"({a} >> {lo} & {m})"
        if isinstance(e, Convert):
            a = self.value(e.base, d)
            if e.kind in ("zext", "sext"):
                return a  # value unchanged, width grows
            w = width_of(e.ty)
            if isinstance(e.ty, SInt):
                return _wrap(a, w)
            return f"({a} & {mask_of(w)})"
        if isinstance(e, VecStore):
            # index first, then base, then the stored value
            size = e.ty.size
            i, t = self._temp(), self._temp()
            abort = self._abort(
                "OUT_OF_BOUNDS", e.span,
                f"index {{i}} out of bounds for Vec of size {size} at {e.span.point()}")
            idx = self.value(e.index, d)
            base = self.value(e.base, d)
            val = self.value(e.value, d)
            return (f"({abort}({i}) if ({i} := {idx}) >= {size} else "
                    f"({t} := {base})[:{i}] + ({val},) + {t}[{i} + 1:])")
        raise AssertionError(f"compile: {e!r}")

    def _index(self, e: Index, d: int) -> str:
        base_ty = e.base.ty
        span = e.span
        if isinstance(base_ty, Vec):
            size = base_ty.size
            if isinstance(e.index, IntLit) and e.index.value < size:
                return f"{self.value(e.base, d)}[{e.index.value}]"
            i = self._temp()
            abort = self._abort(
                "OUT_OF_BOUNDS", span,
                f"index {{i}} out of bounds for Vec of size {size} at {span.point()}")
            idx = self.value(e.index, d)
            return f"({abort}({i}) if ({i} := {idx}) >= {size} else {self.value(e.base, d)}[{i}])"
        # bits at or above the width are never read, so a signed base
        # needs no mask
        width = width_of(base_ty)
        if isinstance(e.index, IntLit) and e.index.value < width:
            return f"({self.value(e.base, d)} >> {e.index.value} & 1)"
        i = self._temp()
        abort = self._abort("OUT_OF_BOUNDS", span,
                            f"bit {{i}} out of bounds for width {width} at {span.point()}")
        idx = self.value(e.index, d)
        return f"({abort}({i}) if ({i} := {idx}) >= {width} else {self.value(e.base, d)} >> {i} & 1)"

    def _binary(self, e: Binary, d: int) -> str:
        op = e.op
        row = BINARY[op]
        group = row.group
        if group in BOOL_GROUPS:
            return f"(1 if {self.cond(e, d - 1)} else 0)"
        ty = e.ty
        w = width_of(ty)
        signed = isinstance(ty, SInt)
        m = mask_of(w)
        if group == "div":
            # the divisor is evaluated (and checked) before the dividend
            t = self._temp()
            abort = self._abort("DIV_BY_ZERO", e.span,
                                f"division by zero at {e.span.point()}")
            b = self.value(e.rhs, d)
            a = self.value(e.lhs, d)
            if signed:  # truncating, as Python's `//` and `%` are not
                res = _wrap(f"{self.b.bind(row.value, '_f')}({a}, {t})", w)
            else:
                res = row.py.format(a=a, b=t)
            return f"({abort}() if ({t} := {b}) == 0 else {res})"
        if op == ">>" and not signed:
            # the shift amount is evaluated before the shifted value
            if isinstance(e.rhs, IntLit):
                c = e.rhs.value
                return "(" + row.py.format(a=self.value(e.lhs, d), b=c) + ")" if c < w else "0"
            t = self._temp()
            b = self.value(e.rhs, d)
            return f"({row.py.format(a=self.value(e.lhs, d), b=t)} if ({t} := {b}) < {w} else 0)"
        a = self.value(e.lhs, d)
        if group == "shift":
            if isinstance(e.rhs, IntLit):
                amount = str(min(e.rhs.value, w))
            else:
                t = self._temp()
                amount = f"({t} if ({t} := {self.value(e.rhs, d)}) < {w} else {w})"
            text = row.py.format(a=a, b=amount)
            if op == ">>":
                return f"({text})"
            return _wrap(f"({text})", w) if signed else f"({text} & {m})"
        text = row.py.format(a=a, b=self.value(e.rhs, d))
        if group == "bitwise":
            if signed:
                return _wrap(f"({text})", w)
            return f"(({text}) & {m})" if op == "^" else f"({text})"
        return _wrap(text, w) if signed else f"({text} & {m})"


def _wrap(text: str, w: int) -> str:
    """Text wrapping the value of `text` to a w-bit two's-complement int;
    `text` must bind at least as tightly as `+`."""
    h = 1 << (w - 1)
    return f"(({text} + {h} & {mask_of(w)}) - {h})"


# ── flattening ───────────────────────────────────────────────────


class ImageBuilder:
    def __init__(self, cores: dict[str, CoreModule], top: str, flags: SimFlags) -> None:
        self.cores = cores
        self.flags = flags
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
        self.todo_sites: list[Span] = []
        self.run_slot: int | None = None
        self.ns: dict[str, object] = {}       # globals of the generated code
        self._pending: list[str] = []         # helper functions not yet compiled
        self._serial = 0

    def index_of(self, name: str) -> int:
        return self.indices[name]

    def fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def bind(self, obj: object, prefix: str) -> str:
        """Name under which the generated code sees `obj`."""
        name = self.fresh(prefix)
        self.ns[name] = obj
        return name

    def helper(self, e: Expr, parent: "ExprCompiler") -> str:
        """Move `e` into a generated function of its own; returns the call."""
        sub = ExprCompiler(self, parent.suppress_hook_for)
        text = sub.value(e)
        parent.impure |= sub.impure
        name = self.fresh("_e")
        self._pending.append(f"def {name}(v):\n    return {text}\n")
        return f"{name}(v)"

    def run(self, source: str) -> dict:
        """Compile and run `source` together with the helper functions its
        expressions needed, in the generated code's globals."""
        code = compile("".join(self._pending) + source, f"<archc sim {self.top}>", "exec")
        self._pending.clear()
        exec(code, self.ns)
        return self.ns

    def alloc(self, name: str, init: object) -> int:
        idx = len(self.initial)
        self.indices[name] = idx
        self.initial.append(init)
        return idx

    def read_hook(self, flat_name: str, span: Span):
        """Instrumentation for --check-uninit / --inputs-start-uninit: a
        function of the value read and the simulator (from `run_slot`)
        that warns once per simulator and site while the register is
        unwritten or the input undriven in that simulator. Guarded
        registers are handled at the guard check instead; the guard
        silences consumer-read warnings by design."""
        reg = self.regs.get(flat_name)
        if reg is not None and self.flags.check_uninit and reg.reset_none \
                and reg.guard_index is None and not reg.uninit_exempt:
            key, is_reg, i = (flat_name, span.file, span.start), True, reg.written_index
            kind, message = "UNINIT_READ", f"read of never-written reset-none register `{flat_name}`"
        elif flat_name in self.inputs and self.flags.inputs_start_uninit:
            key, is_reg, i = ("input", flat_name), False, list(self.inputs).index(flat_name)
            kind, message = "UNDRIVEN_INPUT", f"primary input `{flat_name}` read before it was ever set"
        else:
            return None

        def hook(x, sim):
            if not (sim._written if is_reg else sim._driven)[i] and key not in sim._warned:
                sim._warned.add(key)
                sim._warn(kind, message, span)
            return x
        return hook

    def build(self) -> SimImage:
        self._declare("", self.top)
        # the read hooks need the register numbering and the simulator's slot
        for i, reg in enumerate(self.regs.values()):
            reg.written_index = i
        if self.flags.check_uninit or self.flags.inputs_start_uninit:
            self.run_slot = len(self.initial)
            self.initial.append(None)
        self._collect("", self.top)

        graph = build_comb_graph({n: e for n, e in self.defs.items()},
                                 [], set(self.regs), self.def_spans)
        order = [(self.indices[n], self.defs[n]) for n in graph.order if n in self.defs]
        ns = self.run("def _settle(v):\n"
                      + "".join(f"    v[{i}] = {ExprCompiler(self).value(e)}\n" for i, e in order)
                      + "    return None\n")

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
            settle=ns["_settle"], regs_by_domain=regs_by_domain, domains=domains,
            clock_nets=self.clock_nets, inputs=self.inputs,
            value_count=len(self.initial), flags=self.flags,
            initial=self.initial, visible=visible, todo_sites=self.todo_sites,
            primary_domain=top_clocks[0][1] if top_clocks else None, run_slot=self.run_slot)

    def _declare(self, prefix: str, key: str) -> None:
        core = self.cores[key]
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
            fnet = FlatNet(flat, net.ty, kind, idx, net.span)
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
                width=width_of(reg.ty) if not isinstance(reg.ty, Vec) else 0,
                span=reg.span)
        for inst in core.instances:
            self._declare(prefix + inst.name + ".", inst.module_key)

    def _collect(self, prefix: str, key: str) -> None:
        core = self.cores[key]
        for name, net in core.nets.items():
            flat = prefix + name
            if net.expr is not None and flat not in self.defs:
                self.defs[flat] = _prefix_expr(net.expr, prefix)
                self.def_spans[flat] = net.span
        for name, reg in core.regs.items():
            freg = self.regs[prefix + name]
            freg.next_expr = _prefix_expr(reg.next, prefix)
            if reg.assigned is not None:
                freg.assigned_expr = _prefix_expr(reg.assigned, prefix)
            if reg.reset_sig is not None:
                # a Reset port is connected straight to its parent's, so
                # an async reset is read where it is set, without a settle
                freg.reset_net = self.indices[self._alias_root(prefix + reg.reset_sig)]
            if reg.guard is not None:
                freg.guard_index = self.indices[prefix + reg.guard]
        for prop in core.properties:
            reset_net = (self.indices[prefix + prop.reset_sig]
                         if prop.reset_sig is not None else None)
            self.props.append(FlatProp(
                prop.kind, prefix + prop.name, prop.domain,
                _prefix_expr(prop.expr, prefix), reset_net,
                prop.reset_polarity != "Low", prop.span, self))
        for inst in core.instances:
            child_prefix = prefix + inst.name + "."
            for port, expr in inst.in_map.items():
                flat = child_prefix + port
                self.defs[flat] = _prefix_expr(expr, prefix)
                self.def_spans[flat] = inst.span
            self._collect(child_prefix, inst.module_key)

    def _alias_root(self, flat: str) -> str:
        """The net that `flat` copies through a chain of plain aliases
        (instance ports connected to a parent's net); `flat` if none."""
        e = self.defs.get(flat)
        while isinstance(e, NameRef):
            flat = e.name
            e = self.defs.get(flat)
        return flat


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
        for attr in EXPR_CHILDREN:
            sub = getattr(x, attr, None)
            if isinstance(sub, Expr):
                setattr(c, attr, walk(sub))
        return c

    return walk(e)


def build_sim(cores: dict[str, CoreModule], top: str, flags: SimFlags) -> SimImage:
    """Flatten the design under `top` into an executable image."""
    builder = ImageBuilder(cores, top, flags)
    image = builder.build()
    image.builder = builder  # the engine generates its steps through it
    return image
