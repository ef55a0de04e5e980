"""Structured diagnostics with stable codes and deterministic rendering.

Rendering format (one diagnostic):

    error[E_WIDTH_MISMATCH]: cannot assign UInt<8> to UInt<16>
      --> adder.arch:3:21
       |
     3 |   let b: UInt<16> = a;
       |                     ^
       = help: use `.zext<16>()` to widen explicitly

Ordering is by (file, byte offset, code) so output is byte-identical
across runs for a fixed input set.
"""

from __future__ import annotations

from .source import SourceFile, Span

# Stable diagnostic codes. Every code here is documented in the README
# error manual; tests pin the rendered text for a curated bad-input set.
LEX_CODES = ["E_LEX", "E_NO_PREPROCESSOR"]
PARSE_CODES = ["E_PARSE", "E_END_MISMATCH", "E_TOO_DEEP"]
ELAB_CODES = [
    "E_CONST_DIV0", "E_UNBOUND_PARAM", "E_CONST_OVERFLOW",
    "E_NONCONST_GENERATE", "E_DUP_NAME", "E_UNKNOWN_MODULE",
    "E_UNKNOWN_PORT", "E_RECURSIVE_INST",
]
TYPE_CODES = [
    "E_WIDTH_MISMATCH", "E_BAD_CONVERT", "E_LITERAL_RANGE",
    "E_CDC", "E_SYNC_TYPE",
    "E_MULTI_DRIVER", "E_DRIVE_INPUT", "E_UNDRIVEN", "E_ARROW_DIRECTION",
    "E_IMPLICIT_LATCH", "E_COMB_LOOP",
    "E_GUARD_NOT_BOOL", "E_GUARD_NO_RESET", "E_GUARD_DOMAIN",
    "E_UNKNOWN_NAME", "E_BAD_LHS", "E_BAD_WIDTH",
]
LOWER_CODES = [
    "E_NO_DEFAULT_STATE", "E_UNKNOWN_TARGET_STATE",
    "E_FIFO_DEPTH", "E_SYNC_WIDTH", "E_SYNC_STAGES",
    "E_UNKNOWN_STAGE", "E_STAGE_ORDER", "E_PORT_SET", "E_UNSUPPORTED",
]
TOOL_CODES = [
    "E_TODO_IN_BUILD", "E_NO_TOP", "E_STIM", "E_IO",
    "E_FORMAL_UNSUPPORTED", "E_SOLVER_MISSING", "E_SOLVER_PARSE",
]
ALL_CODES = frozenset(LEX_CODES + PARSE_CODES + ELAB_CODES + TYPE_CODES + LOWER_CODES + TOOL_CODES)


class Note:
    def __init__(self, message: str, span: Span | None = None) -> None:
        self.message, self.span = message, span


class Diagnostic:
    def __init__(self, code: str, message: str, span: Span,
                 severity: str = "error",  # error | warning | note
                 notes: list[Note] = None, help: str | None = None) -> None:
        assert code in ALL_CODES, f"unknown diagnostic code {code}"
        self.code, self.message, self.span, self.severity = code, message, span, severity
        self.notes = [] if notes is None else notes
        self.help = help

    def sort_key(self) -> tuple:
        return (self.span.file, self.span.start, self.span.end, self.code, self.message)

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
            "col": self.span.col,
        }
        if self.help:
            out["help"] = self.help
        if self.notes:
            out["notes"] = [
                {"message": n.message}
                | ({"file": n.span.file, "line": n.span.line, "col": n.span.col} if n.span else {})
                for n in self.notes
            ]
        return out


class CompileError(Exception):
    """Raised by phases that cannot continue; carries structured diagnostics."""

    def __init__(self, diags: list[Diagnostic] | Diagnostic) -> None:
        if isinstance(diags, Diagnostic):
            diags = [diags]
        self.diagnostics = diags
        super().__init__(diags[0].message if diags else "compile error")


def err(code: str, message: str, span: Span, *, notes: list[Note] | None = None,
        help: str | None = None) -> Diagnostic:
    return Diagnostic(code, message, span, notes=notes or [], help=help)


def _excerpt(files: dict[str, SourceFile], span: Span) -> list[str]:
    src = files.get(span.file)
    if src is None:
        return []
    text = src.line_text(span.line)
    gutter = f"{span.line:>4} "
    pad = " " * len(gutter)
    caret_col = span.col - 1
    width = max(1, min(span.end, span.start + len(text) - caret_col + 1) - span.start)
    if span.end > span.start:
        width = max(1, min(span.end - span.start, len(text) - caret_col)) if caret_col < len(text) else 1
    return [
        f"{pad}|",
        f"{gutter}| {text}",
        f"{pad}| {' ' * caret_col}{'^' * width}",
    ]


def render(diag: Diagnostic, files: dict[str, SourceFile]) -> str:
    lines = [f"{diag.severity}[{diag.code}]: {diag.message}"]
    lines.append(f"  --> {diag.span.point()}")
    for ln in _excerpt(files, diag.span):
        lines.append("  " + ln)
    for note in diag.notes:
        if note.span is not None:
            lines.append(f"  = note: {note.message} ({note.span.point()})")
            for ln in _excerpt(files, note.span):
                lines.append("  " + ln)
        else:
            lines.append(f"  = note: {note.message}")
    if diag.help:
        lines.append(f"  = help: {diag.help}")
    return "\n".join(lines)


def render_all(diags: list[Diagnostic], files: dict[str, SourceFile], *, as_json: bool = False) -> str:
    ordered = sorted(diags, key=Diagnostic.sort_key)
    if as_json:
        import json  # cold path, kept out of start-up
        return "\n".join(json.dumps(d.to_json(), sort_keys=True) for d in ordered)
    return "\n".join(render(d, files) for d in ordered)
