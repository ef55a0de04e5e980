"""Core IR: the normalized, construct-free form every backend consumes.

A CoreModule holds only ports, registers, structured comb/seq blocks,
child instances, and properties. Net names are canonical and may contain
dots ("Fetch.instr" for a pipeline stage reg, "pe_0.sum_out" for an
instance output read); dots cannot appear in Arch identifiers, so the
namespace is collision-free by construction.

The structured statement form (reusing the AST statement nodes with typed
expressions) is the single source of truth. muxify() derives the per-net
single-expression form used by the simulator, the formal encoder, and the
completeness check; the SystemVerilog emitter walks the structured form.
"""

from __future__ import annotations

from typing import Optional

from .ast_nodes import (
    EXPR_CHILDREN, Binary, BoolLit, Convert, EnumRef, Expr, IfExpr, Index, IntLit,
    MatchCase as MatchCaseLike, NameRef, SAssign, SIf, SMatch, Stmt, Ternary, Unary,
    expr_reads,
)
from .diagnostics import CompileError, err
from .elaborate import ParamInfo
from .ops import BINARY
from .source import DUMMY_SPAN, Span
from .types import BOOL, Bool, EnumType, SInt, Type, UInt, Vec


class VecStore(Expr):
    """IR-only: functional array update (muxified form of `mem[i] <= v`)."""

    def __init__(self, span: Span = DUMMY_SPAN, base: Expr = None, index: Expr = None,
                 value: Expr = None) -> None:
        self.span, self.ty, self.base, self.index, self.value = span, None, base, index, value


class CorePort:
    def __init__(self, name: str, direction: str, ty: Type, span: Span) -> None:  # in | out
        self.name, self.direction, self.ty, self.span = name, direction, ty, span


class CoreReg:
    def __init__(self, name: str, ty: Type,
                 clock: str,   # clock port name
                 domain: str,
                 edge: str,    # rising | falling
                 reset_sig: Optional[str], reset_value: Optional[Expr],
                 reset_sync: Optional[str],      # Sync | Async
                 reset_polarity: Optional[str],  # High | Low
                 guard: Optional[str],
                 origin: str,  # user | auto
                 span: Span,
                 next: Optional[Expr] = None,      # filled by analysis (hold if no seq assigns)
                 assigned: Optional[Expr] = None,  # Bool expr: user statement wrote it this cycle
                 uninit_exempt: bool = False,
                 cdc_chain: Optional[str] = None,  # --cdc-random group for first sync stage
                 domain_neutral: bool = False,     # async-fifo storage: sanctioned multi-domain
                 ) -> None:
        self.name, self.ty, self.clock, self.domain, self.edge = name, ty, clock, domain, edge
        self.reset_sig, self.reset_value = reset_sig, reset_value
        self.reset_sync, self.reset_polarity = reset_sync, reset_polarity
        self.guard, self.origin, self.span = guard, origin, span
        self.next, self.assigned, self.uninit_exempt = next, assigned, uninit_exempt
        self.cdc_chain, self.domain_neutral = cdc_chain, domain_neutral


class CoreCombBlock:
    def __init__(self, stmts: list[Stmt],
                 style: str,   # "always" (always_comb) | "assign" (continuous assign)
                 origin: str,  # user | auto
                 span: Span) -> None:
        self.stmts, self.style, self.origin, self.span = stmts, style, origin, span


class CoreSeqBlock:
    def __init__(self, clock: str, domain: str, edge: str, stmts: list[Stmt], origin: str,
                 span: Span) -> None:
        self.clock, self.domain, self.edge = clock, domain, edge
        self.stmts, self.origin, self.span = stmts, origin, span


class CoreInstance:
    def __init__(self, name: str, module_key: str,
                 in_map: dict[str, Expr],  # child input port -> parent expr
                 out_used: list[str],      # child output ports read by the parent
                 span: Span) -> None:
        self.name, self.module_key, self.in_map = name, module_key, in_map
        self.out_used, self.span = out_used, span


class CoreProperty:
    def __init__(self, kind: str,  # assert | cover
                 name: str, expr: Expr, clock: Optional[str], domain: Optional[str],
                 reset_sig: Optional[str], reset_polarity: Optional[str],
                 origin: str,  # user | auto
                 span: Span,
                 site: Optional[Span] = None) -> None:
        self.kind, self.name, self.expr, self.clock, self.domain = kind, name, expr, clock, domain
        self.reset_sig, self.reset_polarity = reset_sig, reset_polarity
        self.origin, self.span = origin, span
        # the span of the runtime check (ir.runtime_checks) that a generated
        # `_auto_div0_*`/`_auto_bound_*` assert reports; None for the others
        self.site = site


class NetDef:
    """Derived: one net, one defining expression. In a flattened core
    (`flatten`) an instance's input port and output port have one too."""

    def __init__(self, name: str, ty: Type,
                 kind: str,  # port-in | port-out | let | internal | inst-out
                 expr: Optional[Expr],  # None for port-in and inst-out (externally supplied)
                 span: Span) -> None:
        self.name, self.ty, self.kind, self.expr, self.span = name, ty, kind, expr, span


class CoreModule:
    """One construct in core form. The containers after `ports` default to
    fresh empty ones; `nets`, `comb_order` and `comb_levels` are derived
    by analysis."""

    def __init__(self, key: str, name: str, kind: str, params: list[ParamInfo],
                 ports: list[CorePort], regs: dict[str, CoreReg] = None,
                 comb_blocks: list[CoreCombBlock] = None, seq_blocks: list[CoreSeqBlock] = None,
                 instances: list[CoreInstance] = None, properties: list[CoreProperty] = None,
                 nets: dict[str, NetDef] = None, comb_order: list[str] = None,
                 comb_levels: dict[str, int] = None, has_todo: list[Span] = None,
                 port_alias: dict[str, str] = None, enums: dict[str, EnumType] = None,
                 span: Span = DUMMY_SPAN) -> None:
        self.key, self.name, self.kind, self.params, self.ports = key, name, kind, params, ports
        self.regs = {} if regs is None else regs
        self.comb_blocks = [] if comb_blocks is None else comb_blocks
        self.seq_blocks = [] if seq_blocks is None else seq_blocks
        self.instances = [] if instances is None else instances
        self.properties = [] if properties is None else properties
        self.nets = {} if nets is None else nets
        self.comb_order = [] if comb_order is None else comb_order
        self.comb_levels = {} if comb_levels is None else comb_levels
        self.has_todo = [] if has_todo is None else has_todo
        self.port_alias = {} if port_alias is None else port_alias
        self.enums = {} if enums is None else enums
        self.span = span

    def clock_ports(self) -> list[tuple[str, str]]:
        from .types import Clock
        return [(p.name, p.ty.domain) for p in self.ports if isinstance(p.ty, Clock)]


# ── expression walking ───────────────────────────────────────────


def const_int(e: Expr) -> int | None:
    """Value of a typed constant expression (literals and folds only)."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return 1 if e.value else 0
    if isinstance(e, EnumRef) and isinstance(e.ty, EnumType):
        return e.ty.variants.index(e.variant)
    if isinstance(e, Unary) and e.op == "-":
        v = const_int(e.operand)
        return -v if v is not None else None
    return None


def runtime_checks(e: Expr, path: Expr | None = None):
    """Yield `(path, check, kind, span)` for every runtime check of `e`:
    kind "div0" for a division or modulo by a non-constant (check: the
    divisor is nonzero), kind "bound" for a non-constant Vec or bit index
    (check: the index is below the size). `path` is the Bool condition
    under which the simulator evaluates the site, None when it always
    does: it grows through `?:`/if (the taken branch), `&&` and `implies`
    (the rhs when the lhs holds) and `||` (the rhs when it does not).
    Sites come in pre-order, parents before their operands."""
    if isinstance(e, Binary):
        if BINARY[e.op].group == "div" and const_int(e.rhs) is None:
            zero = lit(0, e.rhs.ty, e.span)
            yield path, bin_op("!=", e.rhs, zero, BOOL, e.span), "div0", e.span
        yield from runtime_checks(e.lhs, path)
        if e.op in ("&&", "implies"):
            path = path_and(path, e.lhs)
        elif e.op == "||":
            path = path_and(path, not_(e.lhs, e.lhs.span))
        yield from runtime_checks(e.rhs, path)
    elif isinstance(e, (Ternary, IfExpr)):
        yield from runtime_checks(e.cond, path)
        yield from runtime_checks(e.then, path_and(path, e.cond))
        yield from runtime_checks(e.els, path_and(path, not_(e.cond, e.cond.span)))
    else:
        if isinstance(e, Index) and const_int(e.index) is None:
            ty = e.base.ty
            size = ty.size if isinstance(ty, Vec) else (
                ty.width if isinstance(ty, (UInt, SInt)) else None)
            if size is not None:
                yield path, _index_below(e.index, size, e.span), "bound", e.span
        for attr in EXPR_CHILDREN:
            sub = getattr(e, attr, None)
            if isinstance(sub, Expr):
                yield from runtime_checks(sub, path)


def path_and(path: Expr | None, cond: Expr) -> Expr:
    """The path condition `path && cond` (just `cond` at the top)."""
    return cond if path is None else and_(path, cond, cond.span)


def _index_below(index: Expr, size: int, span: Span) -> Expr:
    """`index < size`, compared unsigned at a width that holds both."""
    ty = index.ty
    iw = ty.width if isinstance(ty, (UInt, SInt)) else 1
    w = max(iw, size.bit_length())
    if iw < w or isinstance(ty, SInt):
        index = Convert(span, "zext", index, lit(w, UInt(max(1, w.bit_length())), span))
        index.ty = UInt(w)
    return bin_op("<", index, lit(size, UInt(w), span), BOOL, span)


# ── typed expression builders for generated logic ────────────────


def lit(value: int, ty: Type, span: Span, text: str | None = None) -> IntLit:
    e = IntLit(span, value, text if text is not None else str(value))
    e.ty = ty
    return e


def bin_op(op: str, a: Expr, b: Expr, ty: Type, span: Span) -> Binary:
    e = Binary(span, op, a, b)
    e.ty = ty
    return e


def and_(a: Expr, b: Expr, span: Span) -> Binary:
    return bin_op("&&", a, b, BOOL, span)


def not_(a: Expr, span: Span) -> Expr:
    e = Unary(span, "!", a)
    e.ty = BOOL
    return e


# ── muxify: structured statements -> per-target expression ──────


class Unassigned:
    """Lattice bottom: target not assigned on this path. Carries the path
    condition description used for E_IMPLICIT_LATCH messages."""

    def __init__(self, why: str) -> None:
        self.why = why


def _mk_ite(cond: Expr, a, b, ty: Type, span: Span):
    if isinstance(a, Unassigned) and isinstance(b, Unassigned):
        return a
    t = Ternary(span, cond, a, b)
    t.ty = ty
    return t


def _targets_of(stmts: list[Stmt]) -> list[str]:
    """Assignment target base names, first-assignment order."""
    seen: list[str] = []

    def walk(stmts: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, SAssign):
                base = s.lhs
                name = base.base.name if isinstance(base, Index) else base.name
                if name not in seen:
                    seen.append(name)
            elif isinstance(s, SIf):
                walk(s.then)
                if s.els is not None:
                    walk(s.els)
            elif isinstance(s, SMatch):
                for c in s.cases:
                    walk(c.stmts)
                if s.else_stmts is not None:
                    walk(s.else_stmts)

    walk(stmts)
    return seen


def _match_arm_cond(subject: Expr, pattern: Expr) -> Expr:
    return bin_op("==", subject, pattern, BOOL, pattern.span)


def muxify(stmts: list[Stmt], target: str, initial, ty: Type,
           subst: dict[str, Expr] | None = None):
    """Fold a statement list into the final value of `target`.

    `initial` is the value carried into the list: an Expr (reg hold /
    earlier default) or Unassigned. Vec-element writes become VecStore
    nodes so the result stays a single expression.
    """
    current = initial
    for s in stmts:
        if isinstance(s, SAssign):
            lhs, rhs = s.lhs, s.rhs
            if isinstance(lhs, Index):
                if lhs.base.name != target:
                    continue
                base = current
                if isinstance(base, Unassigned):
                    # vec element write onto the carried-in value
                    base = NameRef(s.span, target)
                    base.ty = ty
                store = VecStore(s.span, base, lhs.index, rhs)
                store.ty = ty
                current = store
            else:
                if lhs.name != target:
                    continue
                current = rhs
        elif isinstance(s, SIf):
            then_v = muxify(s.then, target, current, ty)
            else_v = muxify(s.els, target, current, ty) if s.els is not None else current
            if isinstance(then_v, Unassigned) and isinstance(else_v, Unassigned):
                current = then_v
            elif isinstance(then_v, Unassigned):
                refined = target in _targets_of(s.then)
                current = Unassigned(then_v.why if refined
                                     else f"when `{_cond_text(s.cond)}` holds")
            elif isinstance(else_v, Unassigned):
                if s.els is None:
                    current = Unassigned(f"when `{_cond_text(s.cond)}` does not hold")
                else:
                    refined = target in _targets_of(s.els)
                    current = Unassigned(else_v.why if refined
                                         else f"when `{_cond_text(s.cond)}` does not hold")
            else:
                current = _mk_ite(s.cond, then_v, else_v, ty, s.span)
        elif isinstance(s, SMatch):
            current = _muxify_match(s, target, current, ty)
        else:
            raise AssertionError(f"muxify: unhandled {s!r}")
    return current


def match_covers_all(s: SMatch) -> bool:
    """True when the case list covers every value of the subject type."""
    sub_ty = s.subject.ty
    if isinstance(sub_ty, EnumType):
        pats = {p.variant for c in s.cases for p in c.patterns if isinstance(p, EnumRef)}
        return pats == set(sub_ty.variants)
    width = None
    if isinstance(sub_ty, UInt):
        width = sub_ty.width
    elif isinstance(sub_ty, Bool) or sub_ty.__class__.__name__ == "Bit":
        width = 1
    if width is None or width > 8:
        return False  # SInt / wide subjects require `case else`
    vals = {int(p.value) for c in s.cases for p in c.patterns
            if isinstance(p, (IntLit, BoolLit))}
    return len(vals) == (1 << width)


def _muxify_match(s: SMatch, target: str, incoming, ty: Type):
    if target not in _targets_of([s]):
        return incoming
    covered_all = match_covers_all(s)
    if s.else_stmts is not None:
        base = muxify(s.else_stmts, target, incoming, ty)
        cases = s.cases
    elif covered_all and s.cases:
        # total coverage: the last arm doubles as the (unreachable) default
        base = muxify(s.cases[-1].stmts, target, incoming, ty)
        cases = s.cases[:-1]
    elif isinstance(incoming, Unassigned):
        base = Unassigned(f"when `{_cond_text(s.subject)}` matches no case")
        cases = s.cases
    else:
        base = incoming  # fallthrough keeps the carried-in value
        cases = s.cases
    result = base
    for c in reversed(cases):
        arm_v = muxify(c.stmts, target, incoming, ty)
        if isinstance(arm_v, Unassigned):
            return Unassigned(f"in `case {_cond_text(c.patterns[0])}`: {arm_v.why}")
        if isinstance(result, Unassigned):
            return result
        result = _mk_ite(_match_arm_cond(s.subject, c.patterns[0]), arm_v, result, ty, s.span)
    return result


def assigned_flag_stmts(stmts: list[Stmt], target: str) -> list[Stmt]:
    """Rewrite a statement list so assignments to `target` become
    `target = true`; muxify of the result over initial `false` yields the
    "was written this cycle" expression used for guard/uninit tracking."""
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, SAssign):
            base = s.lhs
            name = base.base.name if isinstance(base, Index) else base.name
            if name == target:
                lhs = NameRef(s.span, target)
                lhs.ty = BOOL
                rhs = BoolLit(s.span, True)
                rhs.ty = BOOL
                out.append(SAssign(s.span, lhs, rhs, s.kind))
        elif isinstance(s, SIf):
            out.append(SIf(s.span, s.cond, assigned_flag_stmts(s.then, target),
                           assigned_flag_stmts(s.els, target) if s.els is not None else None))
        elif isinstance(s, SMatch):
            out.append(SMatch(s.span, s.subject,
                              [MatchCaseLike(c.patterns, assigned_flag_stmts(c.stmts, target))
                               for c in s.cases],
                              assigned_flag_stmts(s.else_stmts, target)
                              if s.else_stmts is not None else None))
    return out


def _cond_text(e: Expr) -> str:
    from .printer import print_expr
    return print_expr(e)


# ── comb dependency graph ────────────────────────────────────────


class CombGraph:
    def __init__(self, edges: dict[str, set[str]],  # src -> dsts
                 rev: dict[str, set[str]],          # dst -> srcs
                 levels: dict[str, int], order: list[str]) -> None:
        self.edges, self.rev, self.levels, self.order = edges, rev, levels, order


def build_comb_graph(defs: dict[str, Expr], extra_edges: list[tuple[str, str]],
                     breakers: set[str], spans: dict[str, Span]) -> CombGraph:
    """Topologically sort the comb dependency graph.

    defs: net -> defining expr; breakers: reg names (never cyclic);
    extra_edges: instance through-paths. Raises E_COMB_LOOP with the
    ordered cycle path if a cycle exists.
    """
    edges: dict[str, set[str]] = {}
    rev: dict[str, set[str]] = {}
    nodes: set[str] = set(defs)

    def add_edge(src: str, dst: str) -> None:
        if src in breakers:
            return
        edges.setdefault(src, set()).add(dst)
        rev.setdefault(dst, set()).add(src)
        nodes.add(src)
        nodes.add(dst)

    for net, expr in defs.items():
        nodes.add(net)
        if expr is None:
            continue
        for src in sorted(expr_reads(expr)):
            add_edge(src, net)
    for src, dst in extra_edges:
        add_edge(src, dst)

    # Kahn layering
    indeg = {n: len(rev.get(n, ())) for n in nodes}
    frontier = sorted(n for n in nodes if indeg[n] == 0)
    levels: dict[str, int] = {n: 0 for n in frontier}
    order: list[str] = []
    queue = list(frontier)
    while queue:
        queue.sort()
        nxt: list[str] = []
        for n in queue:
            order.append(n)
            for m in sorted(edges.get(n, ())):
                levels[m] = max(levels.get(m, 0), levels[n] + 1)
                indeg[m] -= 1
                if indeg[m] == 0:
                    nxt.append(m)
        queue = nxt
    if len(order) != len(nodes):
        rem = sorted(n for n in nodes if n not in set(order))
        path = _find_cycle(rem, edges)
        trace = " -> ".join(path)
        span = spans.get(path[0], DUMMY_SPAN)
        raise CompileError(err(
            "E_COMB_LOOP",
            f"combinational loop: {trace}", span,
            help="break the loop with a register or restructure the logic"))
    return CombGraph(edges, rev, levels, order)


def _find_cycle(candidates: list[str], edges: dict[str, set[str]]) -> list[str]:
    cand = set(candidates)
    start = candidates[0]
    seen: dict[str, int] = {}
    path: list[str] = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        nxts = sorted(n for n in edges.get(node, ()) if n in cand)
        if not nxts:
            return path
        node = nxts[0]
    cycle = path[seen[node]:] + [node]
    return cycle
