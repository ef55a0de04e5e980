"""Source files and source spans."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """A half-open byte range [start, end) in one file, with 1-based line/col."""

    file: str
    line: int
    col: int
    start: int
    end: int

    def merge(self, other: "Span") -> "Span":
        if other.start < self.start:
            return other.merge(self)
        return Span(self.file, self.line, self.col, self.start, max(self.end, other.end))

    def point(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


DUMMY_SPAN = Span("<builtin>", 1, 1, 0, 0)


class SourceFile:
    """One UTF-8 source file, with line lookup for diagnostics."""

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text
        self._lines: list[str] | None = None  # split on first lookup

    def line_text(self, line: int) -> str:
        if self._lines is None:
            self._lines = self.text.split("\n")
        if line < 1 or line > len(self._lines):
            return ""
        return self._lines[line - 1]
