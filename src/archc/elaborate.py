"""Elaboration: parameter resolution, generate expansion, instance binding.

Produces a generate-free design. generate_for unrolls with the loop
variable substituted; indexed names (`data_in[i]`) materialize as
`data_in_i` while the user-facing name is kept for port-map comments.
Both branches of a generate_if are expanded for validity even though only
one is kept. Instances are bound cross-file, with per-instance param
overrides producing specialized (mangled) construct variants.
"""

from __future__ import annotations

import re

from .ast_nodes import (
    EXPR_CHILDREN, AssertDecl, Binary, BoolLit, CombBlock, Connection, Construct, Convert,
    CoverDecl, DefaultBlock, DefaultStateDecl, EnumDecl, EnumRef, Expr,
    FlushDecl, GenerateFor, GenerateIf, IfExpr, Index, InstDecl, IntLit, Item,
    KindDecl, LetDecl, MatchCase, MemberRef, NameRef, ParamDecl, PortDecl,
    RegDecl, SAssign, SIf, SMatch, SeqBlock, Slice, SourceUnit, StageDecl,
    StallDecl, StateDecl, Stmt, TBit, TBool, TClock, TNamed, TReset, TSInt,
    TUInt, TVec, Ternary, TodoExpr, Transition, TypeExpr, Unary, expr_reads,
)
from .consteval import eval_const
from .diagnostics import CompileError, Note, err
from .source import SourceFile, Span
from .types import (
    BIT, BOOL, Clock, EnumType, Reset, SInt, Type, UInt, Vec,
)

# ── cloning with substitution ────────────────────────────────────


class Subst:
    """Loop-variable / type-param substitution plus indexed-name rewriting."""

    def __init__(self, values: dict[str, int], types: dict[str, TypeExpr],
                 families: set[str], env: dict[str, int]) -> None:
        self.values = values      # generate loop vars -> int
        self.types = types        # type params -> TypeExpr
        self.families = families  # indexed port/inst base names
        self.env = env            # const params (for folding family indices)

    def with_var(self, name: str, value: int) -> "Subst":
        values = dict(self.values)
        values[name] = value
        return Subst(values, self.types, self.families, self.env)

    def fold(self, e: Expr) -> int:
        return eval_const(e, {**self.env, **self.values})


def clone_expr(e: Expr, s: Subst) -> Expr:
    if isinstance(e, IntLit):
        return IntLit(e.span, e.value, e.text)
    if isinstance(e, BoolLit):
        return BoolLit(e.span, e.value)
    if isinstance(e, NameRef):
        if e.name in s.values:  # generate loop variable
            v = s.values[e.name]
            return IntLit(e.span, v, str(v))
        if e.name in s.env:     # const param folds to its value
            v = s.env[e.name]
            return IntLit(e.span, v, str(v))
        return NameRef(e.span, e.name)
    if isinstance(e, MemberRef):
        return MemberRef(e.span, clone_expr(e.base, s), e.member)
    if isinstance(e, EnumRef):
        return EnumRef(e.span, e.enum, e.variant)
    if isinstance(e, TodoExpr):
        return TodoExpr(e.span)
    if isinstance(e, Unary):
        return Unary(e.span, e.op, clone_expr(e.operand, s))
    if isinstance(e, Binary):
        return Binary(e.span, e.op, clone_expr(e.lhs, s), clone_expr(e.rhs, s))
    if isinstance(e, Ternary):
        return Ternary(e.span, clone_expr(e.cond, s), clone_expr(e.then, s), clone_expr(e.els, s))
    if isinstance(e, IfExpr):
        # fold constant conditions so the dead branch is never materialized
        # (Listing-18-style `if i == 0 then 0 else pe[i-1].sum_out`)
        cond = clone_expr(e.cond, s)
        try:
            taken = s.fold(cond)
        except CompileError:
            return IfExpr(e.span, cond, clone_expr(e.then, s), clone_expr(e.els, s))
        return clone_expr(e.then if taken else e.els, s)
    if isinstance(e, Index):
        base = e.base
        if isinstance(base, NameRef) and base.name in s.families:
            try:
                k = s.fold(clone_expr(e.index, s))
            except CompileError:
                raise CompileError(err(
                    "E_NONCONST_GENERATE",
                    f"index into generated `{base.name}[...]` must be a compile-time constant",
                    e.span))
            return NameRef(e.span, f"{base.name}_{k}")
        return Index(e.span, clone_expr(e.base, s), clone_expr(e.index, s))
    if isinstance(e, Slice):
        return Slice(e.span, clone_expr(e.base, s), clone_expr(e.hi, s), clone_expr(e.lo, s))
    if isinstance(e, Convert):
        return Convert(e.span, e.kind, clone_expr(e.base, s), clone_expr(e.width, s))
    raise AssertionError(f"clone_expr({e!r})")


def clone_type(t: TypeExpr, s: Subst) -> TypeExpr:
    if isinstance(t, (TBit, TBool)):
        return type(t)(t.span)
    if isinstance(t, TUInt):
        return TUInt(t.span, clone_expr(t.width, s))
    if isinstance(t, TSInt):
        return TSInt(t.span, clone_expr(t.width, s))
    if isinstance(t, TClock):
        return TClock(t.span, t.domain)
    if isinstance(t, TReset):
        return TReset(t.span, t.sync, t.polarity, t.domain)
    if isinstance(t, TVec):
        return TVec(t.span, clone_type(t.elem, s), clone_expr(t.size, s))
    if isinstance(t, TNamed):
        if t.name in s.types:
            return clone_type(s.types[t.name], s)
        return TNamed(t.span, t.name)
    raise AssertionError(f"clone_type({t!r})")


def clone_stmt(st: Stmt, s: Subst) -> Stmt:
    if isinstance(st, SAssign):
        return SAssign(st.span, clone_expr(st.lhs, s), clone_expr(st.rhs, s), st.kind)
    if isinstance(st, SIf):
        return SIf(st.span, clone_expr(st.cond, s),
                   [clone_stmt(x, s) for x in st.then],
                   [clone_stmt(x, s) for x in st.els] if st.els is not None else None)
    if isinstance(st, SMatch):
        return SMatch(st.span, clone_expr(st.subject, s),
                      [MatchCase([clone_expr(p, s) for p in c.patterns],
                                 [clone_stmt(x, s) for x in c.stmts]) for c in st.cases],
                      [clone_stmt(x, s) for x in st.else_stmts] if st.else_stmts is not None else None)
    raise AssertionError(f"clone_stmt({st!r})")


def _mangle_index(name: str, index: Expr | None, s: Subst, span: Span,
                  in_generate: bool) -> tuple[str, str | None]:
    """Resolve `name[i]` declarations to `name_i`; returns (name, display)."""
    if index is None:
        return name, None
    if not in_generate:
        raise CompileError(err("E_UNSUPPORTED",
                               f"indexed declaration `{name}[...]` is only legal inside generate_for",
                               span))
    k = s.fold(clone_expr(index, s))
    return f"{name}_{k}", f"{name}[{k}]"


# ── elaborated construct ─────────────────────────────────────────


class ParamInfo:
    def __init__(self, name: str,
                 kind: str,       # const | type
                 value: object,   # int or Type
                 default_text: str,
                 references_params: bool,  # default expression mentions another param
                 span: Span) -> None:
        self.name, self.kind, self.value, self.default_text = name, kind, value, default_text
        self.references_params, self.span = references_params, span


class ElabConstruct:
    def __init__(self, kind: str, name: str,
                 key: str,                          # unique name incl. specialization suffix
                 construct_kind_value: str | None,  # `kind x;` declaration, if any
                 items: list[Item],                 # generate-free, loop vars substituted
                 params: list[ParamInfo],
                 env: dict[str, int],               # const param values
                 type_env: dict[str, Type] = None, enums: dict[str, EnumType] = None,
                 port_alias: dict[str, str] = None,  # data_in_0 -> data_in[0]
                 span: Span = None) -> None:
        self.kind, self.name, self.key = kind, name, key
        self.construct_kind_value = construct_kind_value
        self.items, self.params, self.env = items, params, env
        self.type_env = {} if type_env is None else type_env
        self.enums = {} if enums is None else enums
        self.port_alias = {} if port_alias is None else port_alias
        self.span = span

    def ports(self) -> list[PortDecl]:
        return [i for i in self.items if isinstance(i, PortDecl)]


class Program:
    def __init__(self, files: dict[str, SourceFile], raw: dict[str, Construct],
                 elaborated: dict[str, ElabConstruct],  # by key, insertion-ordered
                 top_names: list[str],                  # declaration-ordered construct names
                 ) -> None:
        self.files, self.raw, self.elaborated, self.top_names = files, raw, elaborated, top_names


def resolve_type(t: TypeExpr, ec: ElabConstruct) -> Type:
    """Concretize a TypeExpr against a construct's param environment."""
    if isinstance(t, TBit):
        return BIT
    if isinstance(t, TBool):
        return BOOL
    if isinstance(t, (TUInt, TSInt)):
        width = eval_const(t.width, ec.env)
        if width < 1:
            raise CompileError(err("E_BAD_WIDTH",
                                   f"width must be a positive integer, got {width}",
                                   t.span))
        return UInt(width) if isinstance(t, TUInt) else SInt(width)
    if isinstance(t, TClock):
        return Clock(t.domain)
    if isinstance(t, TReset):
        return Reset(t.sync, t.polarity)  # optional domain parsed and ignored
    if isinstance(t, TVec):
        size = eval_const(t.size, ec.env)
        if size < 1:
            raise CompileError(err("E_BAD_WIDTH",
                                   f"Vec size must be a positive integer, got {size}",
                                   t.span))
        return Vec(resolve_type(t.elem, ec), size)
    if isinstance(t, TNamed):
        if t.name in ec.enums:
            return ec.enums[t.name]
        if t.name in ec.type_env:
            return ec.type_env[t.name]
        raise CompileError(err("E_UNKNOWN_NAME", f"unknown type `{t.name}`", t.span))
    raise AssertionError(f"resolve_type({t!r})")


def _sanitize(value: object) -> str:
    return re.sub(r"[^A-Za-z0-9]", "", str(value))


def mangled_key(name: str, overrides: dict[str, object]) -> str:
    if not overrides:
        return name
    parts = [f"{k}{_sanitize(v)}" for k, v in sorted(overrides.items())]
    return name + "__" + "_".join(parts)


class Elaborator:
    def __init__(self, units: list[SourceUnit], files: dict[str, SourceFile]) -> None:
        self.files = files
        self.raw: dict[str, Construct] = {}
        self.order: list[str] = []
        for unit in units:
            for c in unit.constructs:
                if c.name in self.raw:
                    raise CompileError(err(
                        "E_DUP_NAME", f"duplicate top-level construct `{c.name}`",
                        c.span, notes=[Note("first defined here", self.raw[c.name].span)]))
                self.raw[c.name] = c
                self.order.append(c.name)
        self.done: dict[str, ElabConstruct] = {}

    # ── type resolution ──────────────────────────────────────────

    def resolve_type(self, t: TypeExpr, ec: ElabConstruct) -> Type:
        return resolve_type(t, ec)

    # ── construct elaboration ────────────────────────────────────

    def elaborate(self, name: str, overrides: dict[str, object],
                  stack: tuple[str, ...], use_span: Span) -> ElabConstruct:
        if name not in self.raw:
            from difflib import get_close_matches  # cold path, kept out of start-up
            candidates = get_close_matches(name, list(self.raw), n=1)
            hint = f"; did you mean `{candidates[0]}`?" if candidates else ""
            raise CompileError(err("E_UNKNOWN_MODULE",
                                   f"unknown construct `{name}`{hint}", use_span))
        if name in stack:
            raise CompileError(err("E_RECURSIVE_INST",
                                   f"recursive instantiation of `{name}` "
                                   f"({' -> '.join(stack + (name,))})", use_span))
        key = mangled_key(name, overrides)
        if key in self.done:
            return self.done[key]
        c = self.raw[name]
        ec = ElabConstruct(c.kind, c.name, key, None, [], [], {}, span=c.span)

        # params first (declaration order; later defaults may use earlier params)
        declared_params = [i for i in c.items if isinstance(i, ParamDecl)]
        for p in declared_params:
            refs = (p.kind == "const" and isinstance(p.default, Expr)
                    and not expr_reads(p.default).isdisjoint(q.name for q in declared_params))
            if p.name in overrides:
                value = overrides[p.name]
                if p.kind == "const" and not isinstance(value, int):
                    raise CompileError(err("E_UNBOUND_PARAM",
                                           f"param `{p.name}` of `{name}` is const, got a type",
                                           use_span))
                if p.kind == "type" and not isinstance(value, Type):
                    raise CompileError(err("E_UNBOUND_PARAM",
                                           f"param `{p.name}` of `{name}` is a type param",
                                           use_span))
            elif p.kind == "const":
                value = eval_const(p.default, ec.env)
            else:
                value = self.resolve_type(p.default, ec)
            if p.kind == "const":
                ec.env[p.name] = value  # type: ignore[assignment]
            else:
                ec.type_env[p.name] = value  # type: ignore[assignment]
            ec.params.append(ParamInfo(p.name, p.kind, value, p.default_text, refs, p.span))
        unknown = set(overrides) - {p.name for p in declared_params}
        if unknown:
            raise CompileError(err("E_UNBOUND_PARAM",
                                   f"override of undeclared param `{sorted(unknown)[0]}` "
                                   f"on `{name}`", use_span))

        # enums (construct-scoped, usable in any item type)
        for item in c.items:
            if isinstance(item, EnumDecl):
                if item.name in ec.enums:
                    raise CompileError(err("E_DUP_NAME", f"duplicate enum `{item.name}`", item.span))
                ec.enums[item.name] = EnumType(key, item.name, tuple(item.variants))

        # generate expansion
        declared, families = _declared_names(c.items)
        type_substs = {p.name: p.default for p in declared_params if p.kind == "type"}
        # overridden type params substitute their concrete type, not the default
        for p in ec.params:
            if p.kind == "type":
                type_substs[p.name] = _type_to_typeexpr(ec.type_env[p.name])
        subst = Subst({}, type_substs, families, ec.env)
        ec.items = self._expand_items(c.items, subst, ec, declared, in_generate=False)
        self._check_duplicates(ec)
        self.done[key] = ec

        # bind instances (recursively elaborates children)
        for item in ec.items:
            if isinstance(item, InstDecl):
                self._bind_instance(item, ec, stack + (name,))
        return ec

    def _generate_const(self, e: Expr, s: Subst, declared: set[str], what: str) -> int:
        names: list[NameRef] = []

        def scan(x) -> None:
            if isinstance(x, NameRef) and x.name not in s.env and x.name not in s.values:
                names.append(x)
            for child in EXPR_CHILDREN:
                sub = getattr(x, child, None)
                if isinstance(sub, Expr):
                    scan(sub)

        folded = clone_expr(e, s)
        scan(folded)
        for ref in names:
            if ref.name in declared:
                raise CompileError(err("E_NONCONST_GENERATE",
                                       f"generate {what} depends on signal `{ref.name}`, "
                                       f"which is not a compile-time constant", ref.span))
        return s.fold(folded)

    def _expand_items(self, items: list[Item], s: Subst, ec: ElabConstruct,
                      declared: set[str], in_generate: bool) -> list[Item]:
        out: list[Item] = []
        for item in items:
            if isinstance(item, ParamDecl):
                continue  # consumed into env
            if isinstance(item, EnumDecl):
                continue  # consumed into ec.enums
            if isinstance(item, GenerateFor):
                lo = self._generate_const(item.lo, s, declared, "bound")
                hi = self._generate_const(item.hi, s, declared, "bound")
                for i in range(lo, hi):
                    out.extend(self._expand_items(item.items, s.with_var(item.var, i),
                                                  ec, declared, in_generate=True))
                continue
            if isinstance(item, GenerateIf):
                cond = self._generate_const(item.cond, s, declared, "condition")
                taken = item.then_items if cond else (item.else_items or [])
                dropped = (item.else_items or []) if cond else item.then_items
                # the discarded branch is still expanded for validity
                self._expand_items(dropped, s, ec, declared, in_generate)
                out.extend(self._expand_items(taken, s, ec, declared, in_generate))
                continue
            out.append(self._expand_one(item, s, ec, declared, in_generate))
        return out

    def _expand_one(self, item: Item, s: Subst, ec: ElabConstruct,
                    declared: set[str], in_generate: bool) -> Item:
        if isinstance(item, PortDecl):
            name, display = _mangle_index(item.name, item.index, s, item.span, in_generate)
            new = PortDecl(item.span, name, item.direction, clone_type(item.type, s), None)
            if display:
                ec.port_alias[name] = display
            return new
        if isinstance(item, RegDecl):
            name, display = _mangle_index(item.name, item.index, s, item.span, in_generate)
            if display:
                ec.port_alias[name] = display
            return RegDecl(item.span, name, clone_type(item.type, s), None,
                           reset_sig=item.reset_sig,
                           reset_value=clone_expr(item.reset_value, s)
                           if item.reset_value is not None else None,
                           reset_none=item.reset_none, guard_sig=item.guard_sig)
        if isinstance(item, LetDecl):
            ty = clone_type(item.type, s) if item.type is not None else None
            name, display = _mangle_index(item.name, item.index, s, item.span, in_generate)
            if display:
                ec.port_alias[name] = display
            return LetDecl(item.span, name, ty, None, clone_expr(item.value, s))
        if isinstance(item, CombBlock):
            return CombBlock(item.span, [clone_stmt(x, s) for x in item.stmts])
        if isinstance(item, SeqBlock):
            return SeqBlock(item.span, item.clock, item.edge,
                            [clone_stmt(x, s) for x in item.stmts])
        if isinstance(item, InstDecl):
            name, display = _mangle_index(item.name, item.index, s, item.span, in_generate)
            overrides = []
            for pname, pvalue in item.param_overrides:
                if isinstance(pvalue, TypeExpr):
                    overrides.append((pname, clone_type(pvalue, s)))
                else:
                    overrides.append((pname, clone_expr(pvalue, s)))
            conns = [Connection(c.port, c.arrow, clone_expr(c.expr, s), c.span)
                     for c in item.connections]
            new = InstDecl(item.span, name, None, item.module, overrides, conns, item.end_name)
            if display:
                ec.port_alias[name] = display
            return new
        if isinstance(item, AssertDecl):
            suffix = self._generate_suffix(s)
            return AssertDecl(item.span, item.name + suffix, clone_expr(item.expr, s))
        if isinstance(item, CoverDecl):
            suffix = self._generate_suffix(s)
            return CoverDecl(item.span, item.name + suffix, clone_expr(item.expr, s))
        if isinstance(item, KindDecl):
            return KindDecl(item.span, item.value)
        if isinstance(item, StateDecl):
            overrides = [self._expand_one(let, s, ec, declared, in_generate) for let in item.overrides]
            transitions = [Transition(t.target,
                                      clone_expr(t.cond, s) if t.cond is not None else None,
                                      t.span)
                           for t in item.transitions]
            return StateDecl(item.span, item.name, overrides, transitions, item.end_name)
        if isinstance(item, DefaultStateDecl):
            return DefaultStateDecl(item.span, item.state)
        if isinstance(item, DefaultBlock):
            return DefaultBlock(item.span,
                                [self._expand_one(x, s, ec, declared, in_generate)
                                 for x in item.items])
        if isinstance(item, StageDecl):
            sub = self._expand_items(item.items, s, ec, declared, in_generate)
            return StageDecl(item.span, item.name, sub, item.end_name)
        if isinstance(item, StallDecl):
            return StallDecl(item.span, clone_expr(item.cond, s))
        if isinstance(item, FlushDecl):
            return FlushDecl(item.span, item.stage, clone_expr(item.cond, s))
        raise AssertionError(f"unhandled item {item!r}")

    def _generate_suffix(self, s: Subst) -> str:
        if not s.values:
            return ""
        return "".join(f"_{v}" for _, v in sorted(s.values.items()))

    def _check_duplicates(self, ec: ElabConstruct) -> None:
        seen: dict[str, Span] = {}
        for item in ec.items:
            names: list[tuple[str, Span]] = []
            if isinstance(item, (PortDecl, RegDecl, LetDecl, InstDecl)):
                names.append((item.name, item.span))
            elif isinstance(item, StageDecl):
                # stage-local names live in the stage's own namespace
                names.append((item.name, item.span))
                stage_seen: dict[str, Span] = {}
                for sub in item.items:
                    if isinstance(sub, (PortDecl, RegDecl, LetDecl, InstDecl)):
                        if sub.name in stage_seen:
                            raise CompileError(err(
                                "E_DUP_NAME",
                                f"duplicate declaration of `{sub.name}` in stage "
                                f"`{item.name}`", sub.span,
                                notes=[Note("first declared here", stage_seen[sub.name])]))
                        stage_seen[sub.name] = sub.span
            for name, span in names:
                if name in seen:
                    raise CompileError(err(
                        "E_DUP_NAME", f"duplicate declaration of `{name}`", span,
                        notes=[Note("first declared here", seen[name])]))
                seen[name] = span

    def _bind_instance(self, inst: InstDecl, parent: ElabConstruct,
                       stack: tuple[str, ...]) -> None:
        overrides: dict[str, object] = {}
        for pname, pvalue in inst.param_overrides:
            if isinstance(pvalue, TypeExpr):
                overrides[pname] = self.resolve_type(pvalue, parent)
            else:
                overrides[pname] = eval_const(pvalue, parent.env)
        child = self.elaborate(inst.module, overrides, stack, inst.span)
        inst.resolved_key = child.key  # annotation used by later phases
        child_ports = {p.name for p in child.ports()}
        for conn in inst.connections:
            if conn.port not in child_ports:
                from difflib import get_close_matches  # cold path, kept out of start-up
                candidates = get_close_matches(conn.port, sorted(child_ports), n=1)
                hint = f"; did you mean `{candidates[0]}`?" if candidates else ""
                raise CompileError(err(
                    "E_UNKNOWN_PORT",
                    f"`{child.name}` has no port `{conn.port}`{hint}", conn.span))

    def run(self) -> Program:
        for name in self.order:
            self.elaborate(name, {}, (), self.raw[name].span)
        return Program(self.files, self.raw, self.done, self.order)


def _declared_names(items: list[Item]) -> tuple[set[str], set[str]]:
    """The names that ports, registers, lets and instances declare, at any
    generate or stage depth, and those of them declared with an index (the
    generate families)."""
    names: set[str] = set()
    families: set[str] = set()

    def walk(items: list[Item]) -> None:
        for item in items:
            if isinstance(item, (PortDecl, RegDecl, LetDecl, InstDecl)):
                names.add(item.name)
                if item.index is not None:
                    families.add(item.name)
            elif isinstance(item, (GenerateFor, StageDecl)):
                walk(item.items)
            elif isinstance(item, GenerateIf):
                walk(item.then_items)
                walk(item.else_items or [])

    walk(items)
    return names, families


def _type_to_typeexpr(ty: Type) -> TypeExpr:
    """Wrap a concrete type back into a TypeExpr for substitution."""
    from .source import DUMMY_SPAN
    if isinstance(ty, UInt):
        return TUInt(DUMMY_SPAN, IntLit(DUMMY_SPAN, ty.width, str(ty.width)))
    if isinstance(ty, SInt):
        return TSInt(DUMMY_SPAN, IntLit(DUMMY_SPAN, ty.width, str(ty.width)))
    if isinstance(ty, Clock):
        return TClock(DUMMY_SPAN, ty.domain)
    if isinstance(ty, Reset):
        return TReset(DUMMY_SPAN, ty.sync, ty.polarity)
    if isinstance(ty, Vec):
        return TVec(DUMMY_SPAN, _type_to_typeexpr(ty.elem),
                    IntLit(DUMMY_SPAN, ty.size, str(ty.size)))
    if isinstance(ty, EnumType):
        return TNamed(DUMMY_SPAN, ty.name)
    if ty == BOOL:
        return TBool(DUMMY_SPAN)
    return TBit(DUMMY_SPAN)


def elaborate_program(units: list[SourceUnit], files: dict[str, SourceFile]) -> Program:
    return Elaborator(units, files).run()
