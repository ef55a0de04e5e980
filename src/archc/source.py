"""Source files and source spans.

`Span` is an immutable named tuple: it compares and hashes by value, and
its fields cannot be assigned. The lexer makes one per token and the
parser one per `merge`, so both build it with `tuple.__new__(Span,
fields)`, in C, and skip the Python-level `__new__` of the named tuple's
constructor (see lexer.py).
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """A half-open byte range [start, end) in one file, with 1-based line/col."""

    file: str
    line: int
    col: int
    start: int
    end: int

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both, starting where the earlier one does."""
        first, last = (other, self) if other.start < self.start else (self, other)
        return tuple.__new__(Span, (first.file, first.line, first.col, first.start,
                                    max(first.end, last.end)))

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
