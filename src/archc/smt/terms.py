"""Word-level term graph for the QF_BV fragment the solver understands.

Sorts: (_ BitVec w) and Bool (Bool is represented as width-0 marker sort
internally; boolean structure stays word-level until bit-blasting)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sexpr import SmtParseError, parse_bv_literal

BOOL_SORT = 0  # width marker for Bool terms


@dataclass(eq=False)
class Term:
    op: str                  # var | const | core ops | bv ops
    width: int               # BOOL_SORT for Bool
    args: tuple["Term", ...] = ()
    value: int = 0           # for const
    name: str = ""           # for var
    definition: Optional["Term"] = None  # substituted definitional equality

    def __repr__(self) -> str:
        if self.op == "var":
            return f"Var({self.name})"
        if self.op == "const":
            return f"Const({self.value}:{self.width})"
        return f"({self.op} {' '.join(map(repr, self.args))})"


_BV_BINOPS = {
    "bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvsdiv", "bvsrem",
    "bvand", "bvor", "bvxor", "bvshl", "bvlshr", "bvashr", "concat",
}
_BV_CMP = {"bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"}
_BOOL_OPS = {"and", "or", "not", "=>", "xor"}

# operator -> the number of arguments it takes (`and`/`or`: at least one)
_ARITY = {"ite": 3, "=": 2, "distinct": 2, "not": 1, "=>": 2, "xor": 2,
          "bvnot": 1, "bvneg": 1}
_ARITY.update({op: 2 for op in _BV_BINOPS | _BV_CMP})
_OPS = _ARITY.keys() | _BOOL_OPS
_INDEXED = {"extract": 2, "zero_extend": 1, "sign_extend": 1}  # op -> index count


def check_arity(what: str, got: int, want: int) -> None:
    if got != want:
        raise SmtParseError(f"wrong number of arguments to {what}: {got}")


def numeral(sx) -> int:
    if isinstance(sx, str) and sx.isascii() and sx.isdigit():
        return int(sx)
    raise SmtParseError(f"expected a numeral, found {sx!r}")


class TermBuilder:
    def __init__(self) -> None:
        self.vars: dict[str, Term] = {}
        self.assertions: list[Term] = []
        self.defined: list[Term] = []   # `define`d constants, in order

    def declare(self, name: str, width: int) -> Term:
        if name in self.vars:
            raise SmtParseError(f"redeclared {name}")
        t = Term("var", width, name=name)
        self.vars[name] = t
        return t

    def const(self, value: int, width: int) -> Term:
        return Term("const", width, value=value & ((1 << width) - 1) if width else (1 if value else 0))

    def define(self, name: str, width: int, definition: Term) -> Term:
        """Declare `name` as a constant whose value is `definition`. The
        term may mention only constants declared earlier, so the
        declaration order is an evaluation order."""
        t = self.declare(name, width)
        t.definition = definition
        self.defined.append(t)
        return t

    def build(self, sx) -> Term:
        lit = parse_bv_literal(sx)
        if lit is not None:
            return self.const(lit[0], lit[1])
        if isinstance(sx, str):
            if sx == "true":
                return Term("const", BOOL_SORT, value=1)
            if sx == "false":
                return Term("const", BOOL_SORT, value=0)
            name = sx[1:-1] if sx.startswith("|") else sx
            if name not in self.vars:
                raise SmtParseError(f"unknown symbol {sx}")
            return self.vars[name]
        if not isinstance(sx, list) or not sx:
            raise SmtParseError(f"bad term {sx!r}")
        head = sx[0]
        if isinstance(head, list):
            # ((_ extract hi lo) t) / ((_ zero_extend n) t) / ((_ sign_extend n) t)
            if len(head) >= 2 and head[0] == "_" and isinstance(head[1], str) \
                    and head[1] in _INDEXED:
                kind = head[1]
                check_arity(f"(_ {kind})", len(head) - 2, _INDEXED[kind])
                check_arity(kind, len(sx) - 1, 1)
                return self.app(kind, [self.build(sx[1])], *map(numeral, head[2:]))
            raise SmtParseError(f"unsupported head {head!r}")
        want = _ARITY.get(head)
        if want is not None and len(sx) - 1 != want or len(sx) == 1 and head in ("and", "or"):
            check_arity(head, len(sx) - 1, want or 1)
        args = [self.build(a) for a in sx[1:]]
        if head not in _OPS:
            raise SmtParseError(f"unsupported operator {head!r}")
        return self.app(head, args)

    def app(self, op: str, args: list[Term], *indices: int) -> Term:
        """The term `(op args...)`, or `((_ op indices...) arg)` for
        extract and the extensions, with its sort worked out."""
        if op == "extract":
            hi, lo = indices
            return Term("extract", hi - lo + 1, tuple(args), value=(hi << 16) | lo)
        if op in ("zero_extend", "sign_extend"):
            return Term(op, args[0].width + indices[0], tuple(args))
        if op == "ite":
            return Term("ite", args[1].width, tuple(args))
        if op == "=":
            a, b = args
            simp = _eq_of_bool_ite(a, b) or _eq_of_bool_ite(b, a)
            if simp is not None:
                return simp
            return Term("=", BOOL_SORT, (a, b))
        if op == "distinct":
            return Term("not", BOOL_SORT, (Term("=", BOOL_SORT, tuple(args)),))
        if op in _BOOL_OPS or op in _BV_CMP:
            return Term(op, BOOL_SORT, tuple(args))
        if op == "concat":
            return Term("concat", args[0].width + args[1].width, tuple(args))
        return Term(op, args[0].width, tuple(args))  # bvnot, bvneg, _BV_BINOPS

    # ── definitional substitution ───────────────────────────────

    def finish(self) -> tuple[list[Term], list[Term]]:
        """Split assertions into definitional equalities (var = term, one
        per var, acyclic as a set) and residual constraints. Definitions
        are attached to the var terms; the returned var list is in
        dependency order so consumers can evaluate bottom-up without deep
        recursion."""
        residual: list[Term] = []
        candidate: dict[str, Term] = {}
        for a in self.assertions:
            var = term = None
            if a.op == "=":
                if a.args[0].op == "var" and a.args[0].name not in candidate:
                    var, term = a.args[0], a.args[1]
                elif a.args[1].op == "var" and a.args[1].name not in candidate:
                    var, term = a.args[1], a.args[0]
            if var is None:
                residual.append(a)
            else:
                candidate[var.name] = term

        # direct var mentions per candidate definition (no def-following)
        deps: dict[str, set[str]] = {}
        for name, term in candidate.items():
            mentioned: set[str] = set()
            stack = [term]
            seen: set[int] = set()
            while stack:
                t = stack.pop()
                if id(t) in seen:
                    continue
                seen.add(id(t))
                if t.op == "var":
                    mentioned.add(t.name)
                stack.extend(t.args)
            deps[name] = mentioned & candidate.keys()

        # iterative DFS: order acyclic definitions, demote cycles
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in candidate}
        order: list[str] = []
        cyclic: set[str] = set()
        for root in candidate:
            if color[root] != WHITE:
                continue
            stack2: list[tuple[str, list[str] | None]] = [(root, None)]
            while stack2:
                node, pending = stack2.pop()
                if pending is None:
                    if color[node] == BLACK:
                        continue
                    if color[node] == GRAY:
                        continue
                    color[node] = GRAY
                    pending = sorted(deps[node])
                advanced = False
                while pending:
                    child = pending[0]
                    pending = pending[1:]
                    if color.get(child, BLACK) == GRAY:
                        cyclic.add(child)
                        continue
                    if color.get(child, BLACK) == WHITE:
                        stack2.append((node, pending))
                        stack2.append((child, None))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    order.append(node)

        ordered_vars: list[Term] = []
        for name in order:
            if name in cyclic:
                v = self.vars[name]
                residual.append(Term("=", BOOL_SORT, (v, candidate[name])))
                continue
            v = self.vars[name]
            v.definition = candidate[name]
            ordered_vars.append(v)
        return residual, ordered_vars


def _eq_of_bool_ite(x: Term, k: Term) -> Term | None:
    """(= (ite c A B) K) with constant arms folds back to c / (not c)."""
    if k.op != "const" or x.op != "ite":
        return None
    c, a, b = x.args
    if a.op != "const" or b.op != "const" or a.value == b.value:
        return None
    if a.value == k.value:
        return c
    if b.value == k.value:
        return Term("not", BOOL_SORT, (c,))
    return Term("const", BOOL_SORT, value=0)


def term_text(t: Term) -> str:
    """SMT-LIB text of a term; constants print by name."""
    if t.op == "var":
        return t.name
    if t.op == "const":
        if t.width == BOOL_SORT:
            return "true" if t.value else "false"
        return "#b" + format(t.value, f"0{t.width}b")
    args = " ".join(term_text(a) for a in t.args)
    if t.op == "extract":
        return f"((_ extract {t.value >> 16} {t.value & 0xFFFF}) {args})"
    if t.op in _INDEXED:
        return f"((_ {t.op} {t.width - t.args[0].width}) {args})"
    return f"({t.op} {args})"
