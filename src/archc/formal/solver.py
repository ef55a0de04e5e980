"""SMT solver choice, and dispatch to the external solvers.

Supported back ends: z3, boolector, bitwuzla, and the bundled `builtin`
solver. `run_solver` runs an external solver as one process per query
(one script in, a status and a model out), found through the
ARCHC_SOLVER_PATH environment variable (a colon-separated list of
directories searched before PATH) and then PATH. The builtin solver never
goes through `run_solver`: `verify` keeps one live in-process
`archc.smt.solve.Session` per call (see `formal/verify.py`), which turns
its failures into solver errors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile

from ..smt.sexpr import SmtParseError, parse_all, parse_bv_literal

SOLVERS = ("z3", "bitwuzla", "boolector", "builtin")


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


def solver_command(choice: str, script_path: str) -> list[str] | None:
    exe = _lookup(choice)
    if exe is None:
        return None
    if choice == "z3":
        return [exe, "-smt2", script_path]
    if choice == "boolector":
        return [exe, "--smt2", script_path]
    return [exe, script_path]  # bitwuzla


def available_solvers() -> list[str]:
    out = []
    for name in SOLVERS:
        if name == "builtin" or _lookup(name) is not None:
            out.append(name)
    return out


def pick_solver(choice: str) -> str:
    if choice != "auto":
        return choice
    for name in ("z3", "bitwuzla", "boolector"):
        if _lookup(name) is not None:
            return name
    return "builtin"


class SolverResult:
    def __init__(self, status: str,  # sat | unsat | unknown | timeout
                 model: dict[str, int],  # var -> value (when sat and requested)
                 ) -> None:
        self.status, self.model = status, model


def run_solver(script_text: str, solver: str, timeout: float | None,
               want_values: list[str] | None = None) -> SolverResult:
    """Solve one script with the external solver `solver`; on sat, `model`
    holds the `want_values` constants. The solver gets the script in a temp
    file, with a (get-value ...) request appended, and its printed answer
    is parsed."""
    text = script_text
    if want_values:
        names = " ".join(want_values)
        text += f"(get-value ({names}))\n"
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False,
                                     encoding="utf-8") as f:
        f.write(text)
        path = f.name
    try:
        cmd = solver_command(solver, path)
        if cmd is None:
            raise SolverError("E_SOLVER_MISSING",
                              f"solver `{solver}` not found on PATH "
                              f"(ARCHC_SOLVER_PATH also searched)")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolverResult("timeout", {})
        except OSError as e:
            raise SolverError("E_SOLVER_MISSING", f"cannot run `{solver}`: {e}")
        out = proc.stdout
        status = None
        for line in out.splitlines():
            line = line.strip()
            if line in ("sat", "unsat", "unknown"):
                status = line
                break
        if status is None:
            detail = (out or proc.stderr or "").strip().splitlines()
            head = detail[0] if detail else "no output"
            raise SolverError("E_SOLVER_PARSE",
                              f"solver `{solver}` produced no verdict ({head})")
        model: dict[str, int] = {}
        if status == "sat" and want_values:
            model = _parse_values(out, solver)
        return SolverResult(status, model)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _parse_values(out: str, solver: str) -> dict[str, int]:
    """Parse (get-value ...) responses; tolerate define-fun model forms."""
    idx = out.find("sat")
    rest = out[idx + 3:]
    model: dict[str, int] = {}

    def walk(sx) -> None:
        if not isinstance(sx, list):
            return
        if len(sx) == 2 and isinstance(sx[0], str):
            lit = parse_bv_literal(sx[1])
            if lit is not None:
                model[sx[0]] = lit[0]
                return
            if sx[1] in ("true", "false"):
                model[sx[0]] = 1 if sx[1] == "true" else 0
                return
        if len(sx) >= 5 and sx[0] == "define-fun" and isinstance(sx[1], str):
            lit = parse_bv_literal(sx[4])
            if lit is not None:
                model[sx[1]] = lit[0]
                return
            if sx[4] in ("true", "false"):
                model[sx[1]] = 1 if sx[4] == "true" else 0
                return
        for sub in sx:
            walk(sub)

    try:
        for form in parse_all(rest):
            walk(form)
    except SmtParseError as e:
        raise SolverError("E_SOLVER_PARSE", f"malformed model from `{solver}`: {e}")
    if not model:
        raise SolverError("E_SOLVER_PARSE",
                          f"solver `{solver}` returned sat but no parsable model")
    return model
