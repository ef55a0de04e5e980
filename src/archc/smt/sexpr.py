"""Minimal SMT-LIB2 s-expression reader."""

from __future__ import annotations

import re


class SmtParseError(Exception):
    pass


def tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield ch
            i += 1
            continue
        if ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtParseError("unterminated quoted symbol")
            yield text[i:j + 1]
            i = j + 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            yield text[i:j + 1]
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();|\"":
            j += 1
        yield text[i:j]
        i = j


def parse_all(text: str) -> list:
    """Parse every top-level s-expression into nested lists of strings."""
    stack: list[list] = [[]]
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SmtParseError("unbalanced )")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SmtParseError("unbalanced (")
    return stack[0]


def read_form(readline) -> str:
    """The lines of `readline()` up to the one that ends a top-level form,
    the end of input or a line the tokenizer refuses (for the parser to
    report): a command or an answer on a pipe is taken once it is whole."""
    text, depth = "", 0
    while True:
        line = readline()
        text += line
        try:
            depth += sum((tok == "(") - (tok == ")") for tok in tokenize(line))
        except SmtParseError:
            return text
        if not line or depth <= 0 and text.strip():
            return text


_LITERAL = re.compile(r"#b[01]+|#x[0-9a-fA-F]+")
_NUMERAL = re.compile(r"[0-9]+")


def numeral(sx) -> int:
    """The value of an SMT-LIB numeral. SmtParseError for any other token,
    and for a numeral longer than `int` reads (Python's limit on decimal
    text, 4,300 digits by default)."""
    if not (isinstance(sx, str) and _NUMERAL.fullmatch(sx)):
        raise SmtParseError(f"expected a numeral, found {sx!r}")
    try:
        return int(sx)
    except ValueError:
        raise SmtParseError(f"numeral of {len(sx)} digits is too long") from None


def parse_bv_literal(tok) -> tuple[int, int] | None:
    """#b/#x literals and (_ bvN w) forms -> (value, width); None for any
    other term, SmtParseError for a malformed literal."""
    if isinstance(tok, str):
        if not tok.startswith(("#b", "#x")):
            return None
        if not _LITERAL.fullmatch(tok):
            raise SmtParseError(f"bad bit-vector literal {tok}")
        if tok[1] == "b":
            return int(tok[2:], 2), len(tok) - 2
        return int(tok[2:], 16), (len(tok) - 2) * 4
    if isinstance(tok, list) and len(tok) == 3 and tok[0] == "_" \
            and isinstance(tok[1], str) and tok[1].startswith("bv"):
        value, width = tok[1][2:], tok[2]
        if not (_NUMERAL.fullmatch(value) and isinstance(width, str)
                and _NUMERAL.fullmatch(width) and numeral(width) > 0):
            raise SmtParseError(f"bad bit-vector literal (_ {tok[1]} {width})")
        return numeral(value), numeral(width)
    return None
