"""BMC encoding: the design unrolled into QF_BV terms, one frame per cycle.

`Unrolling` translates the design once, when it is made: every
expression it reads (register next states, comb nets, properties, and
the runtime checks below) becomes a builder, a closure over the
`TermBuilder` that takes one frame's names to a term. `extend()` then
adds a frame by calling the builders: per-cycle bit-vector constants
`<net>__<cycle>`, inputs free, every other constant defined when it is
built (reset inactive, registers by their reset value at cycle 0 and
their next state after, comb nets by their expression). No frame walks
the AST again.
`verify` extends it one frame at a time inside one solver session.
`encode_bmc` prints every question of every cycle as one SMT-LIB 2.6
stream, for `--emit-smt`, the way the solver pipe prints it.

SMT-LIB defines division by zero; the simulator aborts on it, and on a
bit index past the width. So every goal at cycle k is asked together
with `Unrolling.assumption`: no runtime check (`ir.runtime_checks`, on
the path the simulator evaluates) that a generated `_auto_*` assert
reports fires on the way to sampling the property at cycle k. A sat
answer never aborts at such a site, and a property that only such an
aborting step reaches is never reported failing or hit; the abort is the
failure of its site's assert. Other checks are not assumed: a trace
through one fails its replay.

Scope: flat single-clock modules with scalar signals (no sub-instances,
no Vec, no enum-typed nets, no todo!), as `formal_scope_check` decides;
`Unrolling` and `encode_bmc` take a module that passed it (`verify`
checks once per call).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from ..ast_nodes import (
    Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit, NameRef,
    Slice, Ternary, TodoExpr, Unary,
)
from ..consteval import const_value_of
from ..ir import CoreModule, CoreProperty, VecStore, runtime_checks
from ..ops import BINARY, BOOL_GROUPS, UNARY
from ..source import Span
from ..types import EnumType, Reset, SInt, Vec, width_of

if TYPE_CHECKING:  # the solver's modules load on first use, as in solver.py
    from ..smt.terms import Term, TermBuilder

Build = Callable[[dict[str, "Term"]], "Term"]  # one frame's names -> a term


class FormalUnsupported(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def formal_scope_check(core: CoreModule) -> None:
    if core.instances:
        raise FormalUnsupported(
            f"`{core.name}` instantiates sub-modules (no sub-inst in formal v1)")
    clocks = core.clock_ports()
    if len(clocks) != 1:
        raise FormalUnsupported(
            f"`{core.name}` has {len(clocks)} clock ports; formal needs exactly one")
    for p in core.ports:
        if isinstance(p.ty, Vec):
            raise FormalUnsupported(f"port `{p.name}` has a Vec type")
    for name, net in core.nets.items():
        if isinstance(net.ty, Vec):
            raise FormalUnsupported(f"net `{name}` has a Vec type")
        if isinstance(net.ty, EnumType):
            raise FormalUnsupported(f"net `{name}` has an enum type")
    for name, reg in core.regs.items():
        if isinstance(reg.ty, (Vec, EnumType)):
            raise FormalUnsupported(f"register `{name}` has type {reg.ty}")
        if reg.edge != "rising":
            raise FormalUnsupported(f"register `{name}` uses a falling-edge clock")
    if core.has_todo:
        raise FormalUnsupported(
            f"`{core.name}` contains todo! placeholders")


def inactive_level(ty: Reset) -> int:
    return 0 if ty.polarity == "High" else 1


def _fixed(t: Term) -> Build:
    """Builder of a term that is the same in every frame."""
    return lambda f: t


def _op1(app: Callable, op: str, x: Build, *indices: int) -> Build:
    """Builder of `(op x)`, or `((_ op indices...) x)`."""
    if indices:
        return lambda f: app(op, [x(f)], *indices)
    return lambda f: app(op, [x(f)])


def _op2(app: Callable, op: str, a: Build, b: Build) -> Build:
    """Builder of `(op a b)`."""
    return lambda f: app(op, [a(f), b(f)])


class Unrolling:
    """The design unrolled one cycle (frame) at a time into `Term`s.

    `extend()` adds frame k: a constant `<net>__<k>` per input, reset,
    register and defined comb net. Only the inputs are free: each reset is
    defined as inactive, each register as its reset value (k = 0, with
    reset-none registers at the 2-state 0) or as its next state over frame
    k-1, each comb net as its expression. Everything a frame mentions is
    defined before it, in `core.comb_order`, so the builder's declaration
    order is an evaluation order.

    The expressions are translated once, when the unrolling is made, into
    builders (`Build`): closures that take a frame's names to a term, with
    operators, widths and extensions already chosen and one shared `Term`
    per literal. A frame only calls them. `state_frame()` calls them once
    more for a frame in any state, whose registers are free. `core` must
    pass `formal_scope_check`.
    """

    def __init__(self, core: CoreModule, builder: TermBuilder) -> None:
        self.core = core
        self.tb = builder
        self._consts: dict[tuple[int, int], Term] = {}
        from ..smt.terms import BOOL_SORT
        self.bools = (self._const(0, BOOL_SORT), self._const(1, BOOL_SORT))
        clock_names = {name for name, _ in core.clock_ports()}
        self.inputs = [(p.name, width_of(p.ty)) for p in core.ports
                       if p.direction == "in" and p.name not in clock_names
                       and not isinstance(p.ty, Reset)]
        self.resets = [(p.name, self._const(inactive_level(p.ty), 1))
                       for p in core.ports if isinstance(p.ty, Reset)]
        self._known = {name for name, _ in self.inputs + self.resets}
        self._known.update(core.regs, core.comb_order)
        # (name, width, value at cycle 0, next state over the frame before)
        self.regs: list[tuple[str, int, Term, Build]] = []
        for name, reg in core.regs.items():
            width = width_of(reg.ty)
            init = 0 if reg.reset_value is None else const_value_of(reg.reset_value, reg.ty)
            self.regs.append((name, width, self._const(init, width), self._word(reg.next)))
        self.nets = [(name, width_of(core.nets[name].ty), self._word(core.nets[name].expr))
                     for name in core.comb_order]
        self.props = {id(p): self._word(p.expr) for p in core.properties}
        self.frames: list[dict[str, Term]] = []
        self._state: dict[str, Term] | None = None  # `state_frame`
        # runtime checks that a generated `_auto_*` assert reports: those of
        # each comb net in the simulator's order, then those of the next
        # states, which fire at the edge before a frame. Any other check (a
        # comb bit index, a division in a property) is not assumed, so that
        # no abort goes unreported: a trace through it fails its replay.
        reported = {p.site for p in core.properties if p.site is not None}
        self._found: dict[Span, int] = {}  # site -> how many of `_here` come first
        self._here: list[list[Build]] = []
        for name in core.comb_order:
            builds = self._checks(core.nets[name].expr, reported)
            if builds:
                self._here.append(builds)
        self._steps = [c for reg in core.regs.values() for c in self._checks(reg.next, reported)]
        # how many of `_here` each property is asked under: all of them, or,
        # for a generated assert on a comb site, which stands for its site
        # firing, those before the site's net
        for p in core.properties:
            if p.site is not None and p.site not in self._found:
                raise FormalUnsupported(f"the runtime check that `{p.name}` reports "
                                        "is in no next state or comb net")
        self._cut = {id(p): self._found.get(p.site, len(self._here)) for p in core.properties}
        self.oks: list[Term | None] = []  # per frame: no check fired up to its sample
        self._assumed: list[list[Term | None]] = []  # per frame, by cut

    def extend(self) -> dict[str, Term]:
        k = len(self.frames)
        prev = self.frames[-1] if k else None
        frame = self._frame(str(k), [step(prev) if k else init
                                     for _, _, init, step in self.regs])
        self.frames.append(frame)
        ok = None
        if self._steps or self._here:
            # the chain of conjunctions the goals of this frame pick their
            # assumption from, by how many nets with checks come first
            ok = self._and(self.oks[-1:] + [c(prev) for c in self._steps if k])
            chain = [ok]
            for sites in self._here:
                ok = self._and(([] if ok is None else [ok]) + [c(frame) for c in sites])
                chain.append(ok)
            if ok is not None:
                from ..smt.terms import BOOL_SORT
                chain[-1] = ok = self.tb.define(f"__ok__{k}", BOOL_SORT, ok)
            self._assumed.append(chain)
        self.oks.append(ok)
        return frame

    def state_frame(self) -> dict[str, Term]:
        """One frame in any state, its names `<net>__any` (apart from every
        `<net>__<k>`): inputs free, resets inactive, registers declared
        free, comb nets defined over them. Made once, on first use."""
        if self._state is None:
            self._state = self._frame("any", [None] * len(self.regs))
        return self._state

    def _frame(self, tag: str, state: list[Term | None]) -> dict[str, Term]:
        """The names `<net>__<tag>` of one frame, registers defined by
        `state` (declared free where it holds None)."""
        tb = self.tb
        frame: dict[str, Term] = {}
        for name, width in self.inputs:
            frame[name] = tb.declare(f"{name}__{tag}", width)
        for name, inactive in self.resets:
            frame[name] = tb.define(f"{name}__{tag}", 1, inactive)
        for (name, width, _, _), value in zip(self.regs, state):
            frame[name] = (tb.declare(f"{name}__{tag}", width) if value is None
                           else tb.define(f"{name}__{tag}", width, value))
        for name, width, build in self.nets:
            frame[name] = tb.define(f"{name}__{tag}", width, build(frame))
        return frame

    def goal(self, prop: CoreProperty, k: int) -> Term:
        """Bool term: the assert fails, or the cover holds, at cycle k, on
        a trace where no reported runtime check fires (`assumption`)."""
        hit = self.hit(prop, self.frames[k])
        ok = self.assumption(prop, k)
        return hit if ok is None else self.tb.app("and", [hit, ok])

    def hit(self, prop: CoreProperty, frame: dict[str, Term]) -> Term:
        """Bool term: the assert fails, or the cover holds, in `frame`."""
        want = self._const(prop.kind != "assert", 1)
        return self.tb.app("=", [self.props[id(prop)](frame), want])

    def assumption(self, prop: CoreProperty, k: int) -> Term | None:
        """Bool term: no runtime check that a generated `_auto_*` assert
        reports fires before the simulator samples `prop` at cycle k; None
        if none can. The checks are those of the frames before and, in
        frame k, those of the next states computed at the edge before it
        and of the comb nets. A generated assert on a comb site is asked
        before its own site's net, since its failure is that site firing;
        nets after the site are never evaluated then."""
        return self._assumed[k][self._cut[id(prop)]] if self._assumed else None

    # expression -> builder, translated once per unrolling

    def _const(self, value: int, width: int) -> Term:
        got = self._consts.get((value, width))
        if got is None:
            got = self._consts[value, width] = self.tb.const(value, width)
        return got

    def _checks(self, e: Expr, reported: set[Span]) -> list[Build]:
        """Builders of the Bool term "the check holds" for each runtime
        check of `e` whose site is in `reported`: `path => check`, or the
        check where its site is unconditional. Each site is noted in
        `_found` with the number of `_here` before it."""
        out = []
        for path, check, _, span in runtime_checks(e):
            if span in reported:
                self._found.setdefault(span, len(self._here))
                index = check.lhs.base if isinstance(check.lhs, Convert) else check.lhs
                if 1 << width_of(index.ty) <= check.rhs.value:
                    continue  # the index's type keeps it in range
                build = self._bool(check)
                out.append(build if path is None
                           else _op2(self.tb.app, "=>", self._bool(path), build))
        return out

    def _and(self, parts: list[Term | None]) -> Term | None:
        parts = [p for p in parts if p is not None]
        if len(parts) < 2:
            return parts[0] if parts else None
        return self.tb.app("and", parts)

    def _word(self, e: Expr) -> Build:
        """Builder of the bit-vector term for `e`."""
        app = self.tb.app
        if isinstance(e, IntLit):
            return _fixed(self._const(e.value, width_of(e.ty)))
        if isinstance(e, BoolLit):
            return _fixed(self._const(int(e.value), 1))
        if isinstance(e, EnumRef):
            return _fixed(self._const(e.ty.variants.index(e.variant), width_of(e.ty)))
        if isinstance(e, NameRef):
            if e.name not in self._known:
                raise FormalUnsupported(f"`{e.name}` has no value in formal scope")
            return itemgetter(e.name)
        if isinstance(e, TodoExpr):
            raise FormalUnsupported("todo! in formal scope")
        if isinstance(e, Unary):
            return _op1(app, _bitwise(UNARY[e.op].smt[0]), self._word(e.operand))
        if isinstance(e, Binary):
            return self._binary(e)
        if isinstance(e, (Ternary, IfExpr)):
            cond, then, els = self._bool(e.cond), self._word(e.then), self._word(e.els)
            return lambda f: app("ite", [cond(f), then(f), els(f)])
        if isinstance(e, Index):
            base_ty = e.base.ty
            if isinstance(base_ty, Vec):
                raise FormalUnsupported("Vec indexing in formal scope")
            w = width_of(base_ty)
            base, index = self._word(e.base), self._word(e.index)
            iw = width_of(e.index.ty)
            if iw < w:
                index = _op1(app, "zero_extend", index, w - iw)
            elif iw > w:
                index = _op1(app, "extract", index, w - 1, 0)
            return lambda f: app("extract", [app("bvlshr", [base(f), index(f)])], 0, 0)
        if isinstance(e, Slice):
            return _op1(app, "extract", self._word(e.base), e.hi.value, e.lo.value)
        if isinstance(e, Convert):
            inner = self._word(e.base)
            grow = width_of(e.ty) - width_of(e.base.ty)
            if grow == 0:
                return inner
            if e.kind in ("zext", "sext"):
                return _op1(app, "zero_extend" if e.kind == "zext" else "sign_extend",
                            inner, grow)
            return _op1(app, "extract", inner, width_of(e.ty) - 1, 0)
        if isinstance(e, VecStore):
            raise FormalUnsupported("Vec storage in formal scope")
        raise AssertionError(f"encode: {e!r}")

    def _bool(self, e: Expr) -> Build:
        """Builder of the Bool term for a 1-bit condition (keeps comparisons
        word-level so the solver's branch refinement can see them)."""
        app = self.tb.app
        if isinstance(e, Binary):
            row = BINARY[e.op]
            if row.group in BOOL_GROUPS:  # operands: Bool terms for `logic`
                sub = self._bool if row.group == "logic" else self._word
                name = row.smt[isinstance(e.lhs.ty, SInt)]
                return _op2(app, name, sub(e.lhs), sub(e.rhs))
        if isinstance(e, Unary) and e.op == "!":
            return _op1(app, UNARY["!"].smt[0], self._bool(e.operand))
        if isinstance(e, BoolLit):
            return _fixed(self.bools[e.value])
        word, one = self._word(e), self._const(1, 1)
        return lambda f: app("=", [word(f), one])

    def _binary(self, e: Binary) -> Build:
        app = self.tb.app
        row = BINARY[e.op]
        if row.group in BOOL_GROUPS and row.group != "logic":
            cond, one, zero = self._bool(e), self._const(1, 1), self._const(0, 1)
            return lambda f: app("ite", [cond(f), one, zero])
        a, b = self._word(e.lhs), self._word(e.rhs)
        name = row.smt[isinstance(e.lhs.ty, SInt)]
        if row.group == "logic":  # a Bool as a 1-bit word
            if e.op == "implies":
                return _op2(app, "bvor", _op1(app, "bvnot", a), b)
            name = _bitwise(name)
        elif row.group == "wrap":
            w = width_of(e.ty)
            ext = "sign_extend" if isinstance(e.ty, SInt) else "zero_extend"
            lw, rw = width_of(e.lhs.ty), width_of(e.rhs.ty)
            if lw < w:
                a = _op1(app, ext, a, w - lw)
            if rw < w:
                b = _op1(app, ext, b, w - rw)
        return _op2(app, name, a, b)


def _bitwise(op: str) -> str:
    """The QF_BV operator that computes the Bool operator `op` on 1-bit
    words: `bvand`, `bvor` or `bvnot`; a bit-vector operator is itself."""
    return op if op.startswith("bv") else "bv" + op


def encode_bmc(core: CoreModule, bound: int) -> str:
    """The BMC questions of `core` over cycles 0..bound as one stream:
    per cycle k, for each property in turn, `Unrolling.goal(prop, k)`
    printed by `solver.question_lines`, so a solver answers one line per
    (cycle, property), cycle-major. No invariant settles a property and
    the stream does not stop at a sat answer."""
    from ..smt.terms import TermBuilder
    from .solver import STREAM_HEAD, question_lines
    tb = TermBuilder()
    unroll = Unrolling(core, tb)
    lines, sent, n = list(STREAM_HEAD), 0, 0
    for k in range(bound + 1):
        unroll.extend()
        for prop in core.properties:
            goal = unroll.goal(prop, k)
            new = tb.constants[sent:]
            sent, n = sent + len(new), n + 1
            lines += question_lines(new, goal, n)
    return "\n".join(lines) + "\n"
