"""SMT solver choice, the external solvers on a pipe (`SolverPipe`), and
the one printer of BMC questions (`question_lines`).

Supported back ends: z3, boolector, bitwuzla, and the bundled `builtin`
solver. An external one is found through the ARCHC_SOLVER_PATH
environment variable (a colon-separated list of directories searched
before PATH) and then PATH. The pipe and `--emit-smt` (`encode_bmc`)
print a question stream the same way: `STREAM_HEAD`, then `question_lines`.
"""

from __future__ import annotations

import os
import shutil
import time

from ..smt.sexpr import SmtParseError, parse_all, parse_bv_literal, read_form

SOLVERS = ("z3", "bitwuzla", "boolector", "builtin")
# the flags that make each solver read commands from stdin as they come
_STDIN_FLAGS = {"z3": ["-in"], "boolector": ["--smt2", "--incremental"]}
# the commands that open a question stream
STREAM_HEAD = ("(set-option :produce-models true)", "(set-logic QF_BV)")


class SolverError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code  # E_SOLVER_MISSING | E_SOLVER_PARSE


def _lookup(name: str) -> str | None:
    extra = os.environ.get("ARCHC_SOLVER_PATH", "")
    for d in [p for p in extra.split(":") if p]:
        cand = os.path.join(d, name)
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
    return shutil.which(name)


def available_solvers() -> list[str]:
    return [name for name in SOLVERS if name == "builtin" or _lookup(name) is not None]


def pick_solver(choice: str) -> str:
    """`choice`, or for auto the first of SOLVERS that is available."""
    return choice if choice != "auto" else available_solvers()[0]


def question_lines(new_constants, goal, n: int) -> list[str]:
    """The commands of question `n` of a stream: the constants made since
    the last question (`declare-const` or `define-fun`), the Bool term
    `goal` as `__goal__<n>`, and `(check-sat-assuming (__goal__<n>))`."""
    from ..smt.terms import declaration_text, term_text
    name = f"__goal__{n}"
    return [*map(declaration_text, new_constants),
            f"(define-fun {name} () Bool {term_text(goal)})", f"(check-sat-assuming ({name}))"]


def run_solver(solver: str) -> SolverPipe:
    """A pipe to the external solver `solver`, whose process starts at the
    first question; E_SOLVER_MISSING if no such executable is found."""
    exe = _lookup(solver)
    if exe is None:
        raise SolverError("E_SOLVER_MISSING", f"solver `{solver}` not found on PATH "
                          f"(ARCHC_SOLVER_PATH also searched)")
    return SolverPipe(solver, [exe, *_STDIN_FLAGS.get(solver, [])])


class SolverPipe:
    """One external solver process, started at the first question and
    asked in SMT-LIB 2.6 over its stdin. Per question it is sent
    `question_lines` (the builder's constants made since the last one, the
    goal as a named Bool and `(check-sat-assuming (g))`), and on sat one
    `(get-value ...)` of the free constants, whose values go to `values`.
    An answer not read by the deadline kills the process and answers
    timeout; the next question starts another and sends it all."""

    def __init__(self, name: str, command: list[str]) -> None:
        self.name, self.command = name, command
        self.proc = None  # the subprocess.Popen, once started
        self.values: dict[str, int] = {}

    def ask(self, builder, goal, deadline: float | None) -> str:
        """sat, unsat, unknown or timeout: can the Bool term `goal` hold,
        given the constants of `builder`?"""
        lines = [] if self.proc else self._start()
        new = builder.constants[self._sent:]
        self._sent += len(new)
        self._free += [t.name for t in new if t.definition is None]
        self._goals += 1
        lines += question_lines(new, goal, self._goals)
        try:
            status = self._talk(lines, deadline).strip()
            if status not in ("sat", "unsat", "unknown"):
                raise SolverError("E_SOLVER_PARSE", f"solver `{self.name}` produced no verdict "
                                  f"({status.splitlines()[0] if status else 'no output'})")
            if status == "sat" and self._free:
                answer = self._talk([f"(get-value ({' '.join(self._free)}))"], deadline)
                self.values = _parse_values(answer, self.name)
            return status
        except TimeoutError:
            self.close()
            return "timeout"

    def close(self) -> None:
        """Stop the process, if one runs."""
        proc, self.proc = self.proc, None
        if proc is not None:
            proc.kill()
            with proc:  # closes the pipes and reaps the process
                pass

    def _start(self) -> list[str]:
        """Start the process; the commands that open its stream."""
        import subprocess  # here, as in `_wait`: only a pipe to a solver needs it
        try:
            self.proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError as e:
            raise SolverError("E_SOLVER_MISSING", f"cannot run `{self.name}`: {e}") from None
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._sent, self._free, self._goals, self._buf = 0, [], 0, b""
        return list(STREAM_HEAD)

    def _talk(self, lines: list[str], deadline: float | None) -> str:
        """Write `lines`, then read one answer (`read_form`)."""
        data = "".join(line + "\n" for line in lines).encode()
        fd = self.proc.stdin.fileno()
        while data:
            _wait([], [fd], deadline)
            try:
                data = data[os.write(fd, data):]
            except BrokenPipeError:  # it has stopped; its output may say why
                break
        return read_form(lambda: self._read(deadline))

    def _read(self, deadline: float | None) -> str:
        """The next line of output; at its end, the rest ('' for none)."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            _wait([fd], [], deadline)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                rest, self._buf = self._buf, b""
                return rest.decode(errors="replace")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode(errors="replace") + "\n"


def _wait(reads: list[int], writes: list[int], deadline: float | None) -> None:
    """Until a descriptor is ready; TimeoutError past `deadline`."""
    import select
    wait = None if deadline is None else max(0.0, deadline - time.monotonic())
    if not any(select.select(reads, writes, [], wait)):
        raise TimeoutError


def _parse_values(out: str, solver: str) -> dict[str, int]:
    """The values of a (get-value ...) answer by name; define-fun model
    forms are taken too."""
    model: dict[str, int] = {}

    def walk(sx) -> None:
        if not isinstance(sx, list):
            return
        pair = sx if len(sx) == 2 else [sx[1], sx[4]] if sx[:1] == ["define-fun"] and len(sx) == 5 else []
        if pair and isinstance(pair[0], str):
            lit = parse_bv_literal(pair[1])
            value = (lit[0] if lit else {"true": 1, "false": 0}.get(pair[1])
                     if isinstance(pair[1], str) else None)
            if value is not None:
                model[pair[0]] = value
                return
        for sub in sx:
            walk(sub)

    try:
        for form in parse_all(out):
            walk(form)
    except SmtParseError as e:
        raise SolverError("E_SOLVER_PARSE", f"malformed model from `{solver}`: {e}")
    if not model:
        raise SolverError("E_SOLVER_PARSE",
                          f"solver `{solver}` returned sat but no parsable model")
    return model
