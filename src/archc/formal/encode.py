"""BMC encoding: the design unrolled into QF_BV terms, one frame per cycle.

`Unrolling` builds the terms directly through a `TermBuilder`: per-cycle
bit-vector constants `<net>__<cycle>`, inputs free, every other constant
defined when it is built (reset inactive, registers by their reset value
at cycle 0 and their next state after, comb nets by their expression).
`verify` extends it one frame at a time inside one builtin solver session.
`encode_bmc` prints the same terms as one self-contained SMT-LIB2 script
per property, for `--emit-smt` and for external solvers: each assert
becomes one disjunction of per-cycle violations, each cover one
disjunction of per-cycle hits, checked by a single (check-sat).

SMT-LIB defines division by zero; the simulator aborts on it, and on a
bit index past the width. `Unrolling.checks` states that no such runtime
check fires, so that a trace can be asked to be one the simulator runs
(`encode_witness` prints that question for external solvers).

Scope: flat single-clock modules with scalar signals (no sub-instances,
no Vec, no enum-typed nets, no todo!).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..ast_nodes import (
    Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit, NameRef,
    Slice, Ternary, TodoExpr, Unary,
)
from ..ir import CoreModule, CoreProperty, VecStore
from ..types import EnumType, Reset, SInt, Type, UInt, Vec

if TYPE_CHECKING:  # the solver's modules load on first use, as in solver.py
    from ..smt.terms import Term, TermBuilder


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


@dataclass
class SmtScript:
    text: str
    all_vars: list[str]
    input_names: list[str]                       # free per-cycle inputs
    state_names: list[str]                       # regs (for trace display)


def inactive_level(ty: Reset) -> int:
    return 0 if ty.polarity == "High" else 1


def _width(ty: Type) -> int:
    if isinstance(ty, (UInt, SInt)):
        return ty.width
    return 1


_CMP = {"<": ("bvult", "bvslt"), "<=": ("bvule", "bvsle"),
        ">": ("bvugt", "bvsgt"), ">=": ("bvuge", "bvsge")}
_ARITH = {"+": "bvadd", "-": "bvsub", "*": "bvmul", "<<": "bvshl",
          "&": "bvand", "|": "bvor", "^": "bvxor",
          "+%": "bvadd", "-%": "bvsub", "*%": "bvmul"}
_SIGNED = {"/": ("bvudiv", "bvsdiv"), "%": ("bvurem", "bvsrem"),
           ">>": ("bvlshr", "bvashr")}


class Unrolling:
    """The design unrolled one cycle (frame) at a time into `Term`s.

    `extend()` adds frame k: a constant `<net>__<k>` per input, reset,
    register and defined comb net. Only the inputs are free: each reset is
    defined as inactive, each register as its reset value (k = 0, with
    reset-none registers at the 2-state 0) or as its next state over frame
    k-1, each comb net as its expression. Everything a frame mentions is
    defined before it, in `core.comb_order`, so the builder's declaration
    order is an evaluation order.
    """

    def __init__(self, core: CoreModule, builder: TermBuilder) -> None:
        formal_scope_check(core)
        self.core = core
        self.tb = builder
        clock_names = {name for name, _ in core.clock_ports()}
        self.inputs = [(p.name, _width(p.ty)) for p in core.ports
                       if p.direction == "in" and p.name not in clock_names
                       and not isinstance(p.ty, Reset)]
        self.resets = [(p.name, inactive_level(p.ty))
                       for p in core.ports if isinstance(p.ty, Reset)]
        self.nets = [(name, core.nets[name]) for name in core.comb_order]
        self.frames: list[dict[str, Term]] = []
        self._checks: list[list[Term]] = []  # per frame, built on demand
        from ..smt.terms import BOOL_SORT
        self.bools = (builder.const(0, BOOL_SORT), builder.const(1, BOOL_SORT))

    def extend(self) -> dict[str, Term]:
        k = len(self.frames)
        tb = self.tb
        frame: dict[str, Term] = {}
        self.frames.append(frame)
        for name, width in self.inputs:
            frame[name] = tb.declare(f"{name}__{k}", width)
        for name, inactive in self.resets:
            frame[name] = tb.define(f"{name}__{k}", 1, tb.const(inactive, 1))
        for name, reg in self.core.regs.items():
            width = _width(reg.ty)
            if k > 0:
                value = self.term(reg.next, k - 1)
            elif reg.reset_value is not None:
                from ..sim.image import const_value_of
                value = tb.const(const_value_of(reg.reset_value, reg.ty), width)
            else:
                value = tb.const(0, width)
            frame[name] = tb.define(f"{name}__{k}", width, value)
        for name, net in self.nets:
            frame[name] = tb.define(f"{name}__{k}", _width(net.ty), self.term(net.expr, k))
        return frame

    def goal(self, prop: CoreProperty, k: int) -> Term:
        """Bool term: the assert fails, or the cover holds, at cycle k."""
        value = self.term(prop.expr, k)
        return self.tb.app("=", [value, self.tb.const(prop.kind != "assert", 1)])

    def checks(self, k: int) -> list[Term]:
        """Bool terms that hold iff no runtime check of the simulator fires
        on the way to sampling cycle k: neither in the next states it
        computes at the edge of cycle k-1, nor in frame k's comb nets or
        properties. A divisor must be nonzero and a bit index below the
        width, on the branches the simulator evaluates (`?:`/if, `&&`,
        `||` and `implies` are lazy there). Empty if the design has no
        such check."""
        while len(self._checks) <= k:
            j = len(self._checks)
            exprs = [(reg.next, j - 1) for reg in self.core.regs.values() if j > 0]
            exprs += [(net.expr, j) for _, net in self.nets]
            exprs += [(prop.expr, j) for prop in self.core.properties]
            self._checks.append([c for e, i in exprs
                                 if (c := self._check(e, i)) is not None])
        return self._checks[k]

    def _check(self, e: Expr, k: int) -> Term | None:
        """Bool term: evaluating `e` at cycle k fires no runtime check; None
        when `e` contains none."""
        tb = self.tb
        if isinstance(e, Binary):
            first, second = self._check(e.lhs, k), self._check(e.rhs, k)
            if e.op in ("&&", "||", "implies") and second is not None:
                taken = self.bool_term(e.lhs, k)  # when the rhs is evaluated
                if e.op == "||":
                    taken = tb.app("not", [taken])
                second = tb.app("=>", [taken, second])
            parts = [first, second]
            if e.op in ("/", "%") and not isinstance(e.rhs, IntLit):
                zero = tb.const(0, _width(e.rhs.ty))
                parts.append(tb.app("not", [tb.app("=", [self.term(e.rhs, k), zero])]))
            return self._all(parts)
        if isinstance(e, (Ternary, IfExpr)):
            then, els = self._check(e.then, k), self._check(e.els, k)
            branch = None
            if then is not None or els is not None:
                true = self.bools[1]
                branch = tb.app("ite", [self.bool_term(e.cond, k),
                                        then or true, els or true])
            return self._all([self._check(e.cond, k), branch])
        if isinstance(e, Index):
            parts = [self._check(e.index, k), self._check(e.base, k)]
            width, iw = _width(e.base.ty), _width(e.index.ty)
            if (1 << iw) > width and not (isinstance(e.index, IntLit)
                                          and e.index.value < width):
                parts.append(tb.app("bvult", [self.term(e.index, k),
                                              tb.const(width, iw)]))
            return self._all(parts)
        if isinstance(e, Unary):
            return self._check(e.operand, k)
        if isinstance(e, (Slice, Convert)):
            return self._check(e.base, k)
        return None

    def _all(self, parts: list[Term | None]) -> Term | None:
        parts = [p for p in parts if p is not None]
        if len(parts) < 2:
            return parts[0] if parts else None
        return self.tb.app("and", parts)

    # expression -> term at cycle k
    def term(self, e: Expr, k: int) -> Term:
        tb = self.tb
        if isinstance(e, IntLit):
            return tb.const(e.value, _width(e.ty))
        if isinstance(e, BoolLit):
            return tb.const(int(e.value), 1)
        if isinstance(e, EnumRef):
            return tb.const(e.ty.variants.index(e.variant), _width(e.ty))
        if isinstance(e, NameRef):
            got = self.frames[k].get(e.name)
            if got is None:
                raise FormalUnsupported(f"`{e.name}` has no value in formal scope")
            return got
        if isinstance(e, TodoExpr):
            raise FormalUnsupported("todo! in formal scope")
        if isinstance(e, Unary):
            return tb.app("bvneg" if e.op == "-" else "bvnot", [self.term(e.operand, k)])
        if isinstance(e, Binary):
            return self._binary(e, k)
        if isinstance(e, (Ternary, IfExpr)):
            return tb.app("ite", [self.bool_term(e.cond, k),
                                  self.term(e.then, k), self.term(e.els, k)])
        if isinstance(e, Index):
            base_ty = e.base.ty
            if isinstance(base_ty, Vec):
                raise FormalUnsupported("Vec indexing in formal scope")
            w = _width(base_ty)
            idx = self.term(e.index, k)
            iw = _width(e.index.ty)
            if iw < w:
                idx = tb.app("zero_extend", [idx], w - iw)
            elif iw > w:
                idx = tb.app("extract", [idx], w - 1, 0)
            return tb.app("extract", [tb.app("bvlshr", [self.term(e.base, k), idx])], 0, 0)
        if isinstance(e, Slice):
            return tb.app("extract", [self.term(e.base, k)], e.hi.value, e.lo.value)
        if isinstance(e, Convert):
            inner = self.term(e.base, k)
            grow = _width(e.ty) - _width(e.base.ty)
            if grow == 0:
                return inner
            if e.kind in ("zext", "sext"):
                return tb.app("zero_extend" if e.kind == "zext" else "sign_extend",
                              [inner], grow)
            return tb.app("extract", [inner], _width(e.ty) - 1, 0)
        if isinstance(e, VecStore):
            raise FormalUnsupported("Vec storage in formal scope")
        raise AssertionError(f"encode: {e!r}")

    def bool_term(self, e: Expr, k: int) -> Term:
        """Bool term for a 1-bit condition (keeps comparisons word-level so
        the solver's branch refinement can see them)."""
        tb = self.tb
        if isinstance(e, Binary):
            op = e.op
            if op in ("==", "!="):
                eq = tb.app("=", [self.term(e.lhs, k), self.term(e.rhs, k)])
                return eq if op == "==" else tb.app("not", [eq])
            if op in _CMP:
                name = _CMP[op][isinstance(e.lhs.ty, SInt)]
                return tb.app(name, [self.term(e.lhs, k), self.term(e.rhs, k)])
            if op in ("&&", "||", "implies"):
                name = {"&&": "and", "||": "or", "implies": "=>"}[op]
                return tb.app(name, [self.bool_term(e.lhs, k), self.bool_term(e.rhs, k)])
        if isinstance(e, Unary) and e.op == "!":
            return tb.app("not", [self.bool_term(e.operand, k)])
        if isinstance(e, BoolLit):
            return self.bools[e.value]
        return tb.app("=", [self.term(e, k), tb.const(1, 1)])

    def _binary(self, e: Binary, k: int) -> Term:
        tb = self.tb
        op = e.op
        if op in ("==", "!=") or op in _CMP:
            cond = self.bool_term(e, k)
            return tb.app("ite", [cond, tb.const(1, 1), tb.const(0, 1)])
        a = self.term(e.lhs, k)
        b = self.term(e.rhs, k)
        if op == "&&":
            return tb.app("bvand", [a, b])
        if op == "||":
            return tb.app("bvor", [a, b])
        if op == "implies":
            return tb.app("bvor", [tb.app("bvnot", [a]), b])
        if op in ("+%", "-%", "*%"):
            w = _width(e.ty)
            ext = "sign_extend" if isinstance(e.ty, SInt) else "zero_extend"
            lw, rw = _width(e.lhs.ty), _width(e.rhs.ty)
            if lw < w:
                a = tb.app(ext, [a], w - lw)
            if rw < w:
                b = tb.app(ext, [b], w - rw)
        if op in _SIGNED:
            return tb.app(_SIGNED[op][isinstance(e.lhs.ty, SInt)], [a, b])
        return tb.app(_ARITH[op], [a, b])


def encode_bmc(core: CoreModule, prop: CoreProperty, bound: int) -> SmtScript:
    """One self-contained SMT-LIB script checking `prop` over cycles
    0..bound with a single (check-sat), printed from an `Unrolling`: each
    constant is declared, and asserted equal to its definition if it has
    one, and the goal is one disjunction of per-cycle violations (assert)
    or hits (cover)."""
    from ..smt.terms import TermBuilder
    tb = TermBuilder()
    unroll = Unrolling(core, tb)
    for k in range(bound + 1):
        unroll.extend()
    props = [tb.define(f"__prop__{k}", 1, unroll.term(prop.expr, k))
             for k in range(bound + 1)]
    want = tb.const(prop.kind != "assert", 1)
    goal = tb.app("or", [tb.app("=", [p, want]) for p in props])
    return _script(unroll, prop, props, goal)


def encode_witness(core: CoreModule, prop: CoreProperty, cycle: int) -> SmtScript | None:
    """One script asking for a trace on which `prop` fails (assert) or hits
    (cover) at `cycle` and the simulator's runtime checks pass up to that
    sample (`Unrolling.checks`); None if the design has no runtime check."""
    from ..smt.terms import TermBuilder
    tb = TermBuilder()
    unroll = Unrolling(core, tb)
    for k in range(cycle + 1):
        unroll.extend()
    checks = [c for k in range(cycle + 1) for c in unroll.checks(k)]
    if not checks:
        return None
    p = tb.define(f"__prop__{cycle}", 1, unroll.term(prop.expr, cycle))
    hit = tb.app("=", [p, tb.const(prop.kind != "assert", 1)])
    return _script(unroll, prop, [p], tb.app("and", [hit] + checks))


def _script(unroll: Unrolling, prop: CoreProperty, props: list[Term],
            goal: Term) -> SmtScript:
    from ..smt.terms import term_text
    lines = ["(set-logic QF_BV)"]

    def define(t: Term) -> None:
        lines.append(f"(declare-const {t.name} (_ BitVec {t.width}))")
        if t.definition is not None:
            lines.append(f"(assert (= {t.name} {term_text(t.definition)}))")

    for k, frame in enumerate(unroll.frames):
        lines.append(f"; cycle {k}")
        for t in frame.values():
            define(t)
    lines.append(f"; {prop.kind} {prop.name}")
    for t in props:
        define(t)
    lines.append(f"(assert {term_text(goal)})")
    lines.append("(check-sat)")
    return SmtScript("\n".join(lines) + "\n", list(unroll.tb.vars),
                     [name for name, _ in unroll.inputs], list(unroll.core.regs))
