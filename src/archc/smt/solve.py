"""archc-smt: a standalone SMT-LIB2 (QF_BV) solver.

Pipeline: definitional substitution -> branch-refined interval analysis
(decides most BMC unrollings word-level) -> Tseitin bit-blasting of the
undecided constraints' cones onto a CDCL SAT core. Supports (get-value
...) and (get-model) after a sat answer. Reads a file argument or stdin.
Terms are sort-checked as they are read (`terms.OPS`); a command that
cannot be taken in, an ill-sorted term or a non-Bool assertion among
them, is answered with (error ...), and every later check-sat with
unknown. Model values are evaluated by the same table.

`Session` is also the in-process API: after `run`, `out` holds the
answers, `status` the last check-sat answer, and `value_of` reads the
model. For incremental use, terms are built through `builder` (with
`define` for constants that have a definition) and `check_assuming(goal)`
asks one question at a time, keeping the interval cache, the bit-blasted
circuit and the learned clauses between questions.
"""

from __future__ import annotations

import sys
import time

from .bitblast import BitBlaster
from .intervals import IntervalEngine
from .sexpr import SmtParseError, parse_all
from .terms import BOOL_SORT, OPS, Term, TermBuilder, check_arity, numeral, sort_text

# command -> the number of arguments it takes
_COMMAND_ARITY = {"declare-const": 2, "declare-fun": 3, "assert": 1, "get-value": 1}


class Session:
    def __init__(self, deadline: float | None = None) -> None:
        """`deadline` is a `time.monotonic()` value; a check-sat still
        undecided after the interval pass answers `timeout` once past it."""
        self.builder = TermBuilder()
        self.deadline = deadline
        self.status: str | None = None
        self.engine = IntervalEngine()
        self.blaster: BitBlaster | None = None
        self.trivial_model = False
        self.def_order: list[Term] = []       # defined constants, bottom-up
        self._ranged = 0                      # builder.defined entries with an interval
        self._model: dict[Term, int] | None = None
        self.out: list[str] = []
        self.incomplete = False  # a declaration or assertion was dropped

    def run(self, text: str) -> str:
        try:
            commands = parse_all(text)
        except SmtParseError as e:
            self.out.append(f"(error \"{e}\")")
            return "\n".join(self.out)
        for cmd in commands:
            if not isinstance(cmd, list) or not cmd:
                continue
            try:
                self._command(cmd)
            except (SmtParseError, RecursionError) as e:
                # a declaration or assertion that could not be taken in
                # leaves every later check-sat undecidable
                detail = (f"{type(e).__name__}: term nested too deeply"
                          if isinstance(e, RecursionError) else str(e))
                self.out.append(f"(error \"{detail}\")")
                if cmd[0] in ("declare-const", "declare-fun", "assert"):
                    self.incomplete = True
                    self.status = "unknown"
        return "\n".join(self.out)

    def _command(self, cmd: list) -> None:
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info", "exit", "push", "pop"):
            return
        if head in _COMMAND_ARITY:
            check_arity(head, len(cmd) - 1, _COMMAND_ARITY[head])
        if head in ("declare-const", "declare-fun"):
            name = cmd[1]
            sort = cmd[-1]
            if head == "declare-fun" and cmd[2] != []:
                raise SmtParseError("only 0-ary declare-fun supported")
            width = _sort_width(sort)
            if width is None:
                raise SmtParseError(f"unsupported sort {sort}")
            name = name[1:-1] if name.startswith("|") else name
            self.builder.declare(name, width)
        elif head == "assert":
            t = self.builder.build(cmd[1])
            if t.width != BOOL_SORT:
                raise SmtParseError(f"assert takes a Bool term, not {sort_text(t.width)}")
            self.builder.assertions.append(t)
        elif head == "check-sat":
            self.out.append(self.check_sat())
        elif head == "get-value":
            if not isinstance(cmd[1], list):
                raise SmtParseError("get-value takes a list of terms")
            self.out.append(self.get_value(cmd[1]))
        elif head == "get-model":
            self.out.append(self.get_model())

    def _expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def check_sat(self) -> str:
        self.status = "unknown" if self.incomplete else self._decide()
        return self.status

    def _decide(self) -> str:
        residual, self.def_order = self.builder.finish()
        self.engine, self.blaster = IntervalEngine(), None
        for v in self.def_order:  # bottom-up so deep definition chains never recurse
            self.engine.eval(v)
        return self._check(residual, assume=False)

    def range_definitions(self) -> None:
        """Run the interval pass over the constants defined through
        `builder.define` since the last call (`check_assuming` does it too)."""
        self.def_order = defined = self.builder.defined
        for v in defined[self._ranged:]:  # in definition order: no deep recursion
            self.engine.eval(v)
        self._ranged = len(defined)

    def check_assuming(self, goal: Term) -> str:
        """Can the Bool term `goal` hold, given every constant defined so far
        through `builder.define`? The goal is not kept. Each call is one
        more question to the same interval cache, bit-blast cache and SAT
        solver, which keeps its learned clauses; `status` and the model
        (`value_of`, `model_value`) answer for the last call."""
        self.range_definitions()
        self.status = self._check([goal], assume=True)
        return self.status

    def _check(self, constraints: list[Term], assume: bool) -> str:
        """The interval pass first; then the constraints' cones are
        bit-blasted and solved, as clauses or (`assume`) as assumptions."""
        self.trivial_model, self._model = False, None
        bounds = [self.engine.eval(c) for c in constraints]
        if any(hi == 0 for _, hi in bounds):
            return "unsat"
        if all(lo == 1 for lo, _ in bounds):
            self.trivial_model = True
            return "sat"
        if self._expired():
            return "timeout"
        if self.blaster is None:
            self.blaster = BitBlaster(self.engine.cache)
        lits = [self.blaster.lit(c) for c in constraints]
        if self._expired():
            return "timeout"
        if assume:
            return self.blaster.sat.solve(deadline=self.deadline, assumptions=lits)
        for lit in lits:
            self.blaster.sat.add_clause([lit])
        return self.blaster.sat.solve(deadline=self.deadline)

    def value_of(self, name: str) -> tuple[int, int] | None:
        """(value, width) of a declared constant in the model of the last
        sat answer, Bool as 0/1 of width 1; None if `name` is undeclared."""
        t = self.builder.vars.get(name)
        if t is None:
            return None
        return self.model_value(t), (t.width if t.width != BOOL_SORT else 1)

    def model_value(self, t: Term) -> int:
        """A term's value in the model of the last sat answer. Constants no
        solved constraint mentions are 0; defined ones follow their
        definitions."""
        if self._model is None:
            self._model = {}
            for v in self.def_order:  # bottom-up, avoids deep recursion
                concrete_value(v, self._model, self._free_value)
        return concrete_value(t, self._model, self._free_value)

    def _free_value(self, var: Term) -> int:
        if self.trivial_model or self.blaster is None:
            return 0
        return self.blaster.model_of(var.name)

    def get_value(self, names) -> str:
        if self.status != "sat":
            return "(error \"model is not available\")"
        parts = []
        for sx in names:
            name = sx if isinstance(sx, str) else None
            if name is None:
                continue
            plain = name[1:-1] if name.startswith("|") else name
            got = self.value_of(plain)
            if got is None:
                return f"(error \"unknown constant {name}\")"
            value, width = got
            parts.append(f"({name} {_bv_text(value, width)})")
        return "(" + "\n ".join(parts) + ")"

    def get_model(self) -> str:
        if self.status != "sat":
            return "(error \"model is not available\")"
        parts = []
        for name, t in self.builder.vars.items():
            got = self.value_of(name)
            if got is None:
                continue
            value, width = got
            body = (_bv_text(value, width) if t.width != BOOL_SORT
                    else ("true" if value else "false"))
            parts.append(f"  (define-fun {name} () {sort_text(t.width)} {body})")
        return "(\n" + "\n".join(parts) + "\n)"


def concrete_value(t: Term, cache: dict[Term, int], free) -> int:
    """Evaluate `t` with every undefined constant `v` at `free(v)`; `cache`
    maps terms to values already known."""
    hit = cache.get(t)
    if hit is not None:
        return hit
    op = t.op
    if op == "const":
        return t.value
    if op == "var":
        v = free(t) if t.definition is None else concrete_value(t.definition, cache, free)
        cache[t] = v
        return v
    v = OPS[op].value(t, [concrete_value(x, cache, free) for x in t.args])
    cache[t] = v
    return v


def _sort_width(sort) -> int | None:
    if sort == "Bool":
        return BOOL_SORT
    if isinstance(sort, list) and len(sort) == 3 and sort[0] == "_" \
            and sort[1] == "BitVec":
        width = numeral(sort[2])
        if width == 0:
            raise SmtParseError("unsupported sort (_ BitVec 0)")
        return width
    return None


def _bv_text(value: int, width: int) -> str:
    return "#b" + format(value & ((1 << width) - 1), f"0{width}b")


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if args and args[0] not in ("-",):
        with open(args[0], "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    print(Session().run(text))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
