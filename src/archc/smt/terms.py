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

    def declare(self, name: str, width: int) -> Term:
        if name in self.vars:
            raise SmtParseError(f"redeclared {name}")
        t = Term("var", width, name=name)
        self.vars[name] = t
        return t

    def const(self, value: int, width: int) -> Term:
        return Term("const", width, value=value & ((1 << width) - 1) if width else (1 if value else 0))

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
            if len(head) >= 2 and head[0] == "_":
                kind = head[1]
                if kind in ("extract", "zero_extend", "sign_extend"):
                    indices = 2 if kind == "extract" else 1
                    check_arity(f"(_ {kind})", len(head) - 2, indices)
                    check_arity(kind, len(sx) - 1, 1)
                    arg = self.build(sx[1])
                if kind == "extract":
                    hi, lo = numeral(head[2]), numeral(head[3])
                    return Term("extract", hi - lo + 1, (arg,), value=(hi << 16) | lo)
                if kind in ("zero_extend", "sign_extend"):
                    return Term(kind, arg.width + numeral(head[2]), (arg,))
            raise SmtParseError(f"unsupported head {head!r}")
        want = _ARITY.get(head)
        if want is not None and len(sx) - 1 != want or len(sx) == 1 and head in ("and", "or"):
            check_arity(head, len(sx) - 1, want or 1)
        args = [self.build(a) for a in sx[1:]]
        if head == "ite":
            c, a, b = args
            return Term("ite", a.width, (c, a, b))
        if head == "=":
            a, b = args
            simp = _eq_of_bool_ite(a, b) or _eq_of_bool_ite(b, a)
            if simp is not None:
                return simp
            return Term("=", BOOL_SORT, (a, b))
        if head == "distinct":
            a, b = args
            return Term("not", BOOL_SORT, (Term("=", BOOL_SORT, (a, b)),))
        if head in _BOOL_OPS:
            return Term(head, BOOL_SORT, tuple(args))
        if head in _BV_CMP:
            return Term(head, BOOL_SORT, tuple(args))
        if head == "bvnot":
            return Term("bvnot", args[0].width, tuple(args))
        if head == "bvneg":
            return Term("bvneg", args[0].width, tuple(args))
        if head == "concat":
            return Term("concat", args[0].width + args[1].width, tuple(args))
        if head in _BV_BINOPS:
            return Term(head, args[0].width, tuple(args))
        raise SmtParseError(f"unsupported operator {head!r}")

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
