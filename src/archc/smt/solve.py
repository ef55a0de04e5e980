"""archc-smt: a standalone SMT-LIB2 (QF_BV) solver.

Pipeline: branch-refined interval analysis (decides most BMC unrollings
word-level) -> Tseitin bit-blasting of the undecided goal's cone onto a
CDCL SAT core. Supports (get-value ...) and (get-model) after a sat
answer. Reads a file argument or stdin. Terms are sort-checked as they are
read (`terms.OPS`); a command that cannot be taken in, an ill-sorted term
or a non-Bool assertion among them, is answered with (error ...), and
every later check-sat with unknown. A command outside the handled set is
answered with (error "unsupported command ...") and otherwise skipped.
Model values are evaluated by the same table.

A 0-ary `define-fun` is a constant with a definition (`builder.define`);
`declare-const` a free one. Declarations and definitions are global;
assertions are scoped by `push`/`pop`. A check-sat asks `check_assuming`
of the conjunction of the current assertions, so no assertion ever
becomes a clause and what the SAT solver learns stays valid after a pop.

`Session` is also the in-process API: after `run`, `out` holds the
answers, `status` the last check-sat answer, and `model_value` reads the
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
from .terms import (BOOL_SORT, OPS, Term, TermBuilder, check_arity, numeral,
                    sort_text, term_text)

# command -> the number of arguments it takes
_COMMAND_ARITY = {"declare-const": 2, "declare-fun": 3, "define-fun": 4, "assert": 1,
                  "get-value": 1, "check-sat": 0, "get-model": 0}
# a command that fails to take in one of these leaves every later check-sat undecidable
_TAKES_IN = ("declare-const", "declare-fun", "define-fun", "assert")


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
        self._ranged = 0                      # builder.defined entries with an interval
        # per `push n` still open: [len(builder.assertions) at it, levels left]
        self._scopes: list[list[int]] = []
        self._model: dict[Term, int] | None = None
        self.out: list[str] = []
        self.incomplete = False  # a declaration, definition or assertion was dropped

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
                detail = (f"{type(e).__name__}: term nested too deeply"
                          if isinstance(e, RecursionError) else str(e))
                self.out.append(f"(error \"{detail}\")")
                if cmd[0] in _TAKES_IN:
                    self.incomplete = True
                    self.status = "unknown"
        return "\n".join(self.out)

    def _command(self, cmd: list) -> None:
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info", "exit"):
            return
        if head in _COMMAND_ARITY:
            check_arity(head, len(cmd) - 1, _COMMAND_ARITY[head])
        tb = self.builder
        if head in ("declare-const", "declare-fun", "define-fun"):
            if head != "declare-const" and cmd[2] != []:
                raise SmtParseError(f"only 0-ary {head} supported")
            if not isinstance(cmd[1], str):
                raise SmtParseError(f"{head} takes a symbol, not {cmd[1]!r}")
            name = cmd[1][1:-1] if cmd[1].startswith("|") else cmd[1]
            sort = cmd[3] if head == "define-fun" else cmd[-1]
            width = _sort_width(sort)
            if width is None:
                raise SmtParseError(f"unsupported sort {sort}")
            if head != "define-fun":
                tb.declare(name, width)
                return
            body = tb.build(cmd[4])
            if body.width != width:
                raise SmtParseError(f"define-fun {cmd[1]} is declared {sort_text(width)} "
                                    f"but its body is {sort_text(body.width)}")
            tb.define(name, width, body)
        elif head == "assert":
            t = tb.build(cmd[1])
            if t.width != BOOL_SORT:
                raise SmtParseError(f"assert takes a Bool term, not {sort_text(t.width)}")
            tb.assertions.append(t)
        elif head in ("push", "pop"):
            if len(cmd) > 2:
                check_arity(head, len(cmd) - 1, 1)
            n = numeral(cmd[1]) if len(cmd) == 2 else 1
            scopes = self._scopes
            if head == "push":
                if n:
                    scopes.append([len(tb.assertions), n])
                return
            depth = sum(count for _, count in scopes)
            if n > depth:
                raise SmtParseError(f"pop {n} with {depth} open scopes")
            while n:  # each scope popped drops the assertions made in it
                del tb.assertions[scopes[-1][0]:]
                took = min(n, scopes[-1][1])
                n -= took
                scopes[-1][1] -= took
                if not scopes[-1][1]:
                    scopes.pop()
        elif head == "check-sat":
            self.out.append(self.check_sat())
        elif head == "get-value":
            if not isinstance(cmd[1], list):
                raise SmtParseError("get-value takes a list of terms")
            self.out.append(self.get_value(cmd[1]))
        elif head == "get-model":
            self.out.append(self.get_model())
        else:
            raise SmtParseError(f"unsupported command {head}")

    def _expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def check_sat(self) -> str:
        """Can every current assertion hold at once? Asked as one goal
        through `check_assuming`: no assertion becomes a clause, so a
        `pop` leaves nothing behind in the SAT solver."""
        if self.incomplete:
            self.status = "unknown"
            return self.status
        tb = self.builder
        facts = tb.assertions
        goal = (tb.const(1, BOOL_SORT) if not facts
                else facts[0] if len(facts) == 1 else tb.app("and", facts))
        return self.check_assuming(goal)

    def range_definitions(self) -> None:
        """Run the interval pass over the constants defined through
        `builder.define` since the last call (`check_assuming` does it too)."""
        defined = self.builder.defined
        for v in defined[self._ranged:]:  # in definition order: no deep recursion
            self.engine.eval(v)
        self._ranged = len(defined)

    def check_assuming(self, goal: Term) -> str:
        """Can the Bool term `goal` hold, given every constant defined so far
        through `builder.define`? The goal is not kept. Each call is one
        more question to the same interval cache, bit-blast cache and SAT
        solver, which keeps its learned clauses; `status` and the model
        (`model_value`) answer for the last call."""
        self.range_definitions()
        self.status = self._check(goal)
        return self.status

    def _check(self, goal: Term) -> str:
        """The interval pass first; then the goal's cone is bit-blasted and
        solved under the goal's literal as the one assumption."""
        self.trivial_model, self._model = False, None
        lo, hi = self.engine.eval(goal)
        if hi == 0:
            return "unsat"
        if lo == 1:
            self.trivial_model = True
            return "sat"
        if self._expired():
            return "timeout"
        if self.blaster is None:
            self.blaster = BitBlaster(self.engine.cache)
        lit = self.blaster.lit(goal)
        if self._expired():
            return "timeout"
        return self.blaster.sat.solve(deadline=self.deadline, assumptions=[lit])

    def model_value(self, t: Term) -> int:
        """A term's value in the model of the last sat answer, Bool as 0/1.
        Constants no solved goal mentions are 0; defined ones follow their
        definitions."""
        if self._model is None:
            self._model = {}
            for v in self.builder.defined:  # bottom-up, avoids deep recursion
                concrete_value(v, self._model, self._free_value)
        return concrete_value(t, self._model, self._free_value)

    def _free_value(self, var: Term) -> int:
        if self.trivial_model or self.blaster is None:
            return 0
        return self.blaster.model_of(var.name)

    def get_value(self, terms: list) -> str:
        if self.status != "sat":
            return "(error \"model is not available\")"
        built = [self.builder.build(sx) for sx in terms]
        parts = [f"({sx if isinstance(sx, str) else term_text(t)} "
                 f"{_bv_text(self.model_value(t), t.width or 1)})"
                 for sx, t in zip(terms, built)]
        return "(" + "\n ".join(parts) + ")"

    def get_model(self) -> str:
        if self.status != "sat":
            return "(error \"model is not available\")"
        parts = []
        for name, t in self.builder.vars.items():
            value = self.model_value(t)
            body = (_bv_text(value, t.width) if t.width != BOOL_SORT
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
