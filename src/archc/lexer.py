"""Lexer for Arch source.

No preprocessor of any kind: a backtick is rejected outright with a
dedicated message. `//` comments are dropped, `///` doc comments are kept
as tokens. Integer literals are decimal or 0x-hex. Multi-character
operators are max-munched (`<-` binds before `<`), and `end <keyword>`
closers fuse into a single token (see tokens.py).

One compiled alternation is matched at each position. No token spans a
line, so line and column are tracked from the newlines in whitespace runs.

Tokens and spans are named tuples (see source.py and tokens.py). The loop
builds them with `tuple.__new__(Token, fields)`, which runs in C: the named
tuple's own constructor first runs a Python-level `__new__`, about twice
the cost (0.4 against 0.2 us per tuple on CPython 3.11), and the loop
makes two tuples per token. Skipping that constructor also skips its
defaults, so the loop passes every field, `value` included.
"""

from __future__ import annotations

import re

from .diagnostics import CompileError, err
from .source import SourceFile, Span
from .tokens import END_FUSION, KEYWORDS, TK, Token

_PUNCT = [
    ("+%", TK.PLUS_WRAP), ("-%", TK.MINUS_WRAP), ("*%", TK.STAR_WRAP),
    ("<<", TK.SHL), (">>", TK.SHR), ("<=", TK.LE), (">=", TK.GE),
    ("==", TK.EQ), ("!=", TK.NE), ("&&", TK.AMPAMP), ("||", TK.PIPEPIPE),
    ("->", TK.ARROW_R), ("<-", TK.ARROW_L), ("=>", TK.FAT_ARROW),
    ("::", TK.COLONCOLON), ("..", TK.DOTDOT),
    ("(", TK.LPAREN), (")", TK.RPAREN), ("[", TK.LBRACKET), ("]", TK.RBRACKET),
    (",", TK.COMMA), (";", TK.SEMI), (":", TK.COLON), ("?", TK.QUESTION),
    (".", TK.DOT), ("=", TK.ASSIGN), ("<", TK.LT), (">", TK.GT),
    ("+", TK.PLUS), ("-", TK.MINUS), ("*", TK.STAR), ("/", TK.SLASH),
    ("%", TK.PERCENT), ("&", TK.AMP), ("|", TK.PIPE), ("^", TK.CARET),
    ("~", TK.TILDE), ("!", TK.BANG),
]
_PUNCT_KIND = dict(_PUNCT)

# Group numbers are the dispatch keys in Lexer.run. Identifiers are ASCII
# only; alternatives are tried in order, so `//` wins over `/`, `0x` over
# a decimal, and the two-character operators (listed first) over one.
_TOKEN = re.compile(
    r"([ \t\r\n]+)"                           # 1 whitespace
    r"|(//[^\n]*)"                            # 2 comment
    r"|(0[xX][A-Za-z0-9_]*)"                  # 3 hex literal
    r"|([0-9][A-Za-z0-9_]*)"                  # 4 decimal literal
    r"|([A-Za-z_][A-Za-z0-9_]*)"              # 5 word
    r"|(" + "|".join(re.escape(text) for text, _ in _PUNCT) + ")")  # 6 operator
_END_TAIL = re.compile(r"[ \t]*([A-Za-z0-9_]*)")


class Lexer:
    def __init__(self, source: SourceFile) -> None:
        self.src = source
        self.text = source.text
        self.tokens: list[Token] = []

    def run(self) -> list[Token]:
        text, name, tokens = self.text, self.src.name, self.tokens
        append, match, new = tokens.append, _TOKEN.match, tuple.__new__
        keywords, punct, end_fusion = KEYWORDS, _PUNCT_KIND, END_FUSION
        ident, kw_end, kw_todo = TK.IDENT, TK.KW_END, TK.KW_TODO
        n = len(text)
        pos, line, line_start = 0, 1, 0
        while pos < n:
            m = match(text, pos)
            if m is None:
                raise self._bad_char(pos, line, pos - line_start + 1)
            group, end = m.lastindex, m.end()
            if group == 1:
                newlines = text.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, end) + 1
                pos = end
                continue
            word, value = m[group], None
            if group == 5:
                kind = keywords.get(word, ident)
                if kind is kw_end:
                    # fuse `end <block-keyword>` into one closer token
                    tail = _END_TAIL.match(text, end)
                    fused = end_fusion.get(keywords.get(tail[1], ident))
                    if fused is not None:
                        kind, word, end = fused, f"end {tail[1]}", tail.end()
                elif kind is kw_todo and text.startswith("!", end):
                    kind, word, end = TK.TODO_BANG, "todo!", end + 1
            elif group == 6:
                kind = punct[word]
            elif group == 2:
                if not word.startswith("///"):
                    pos = end
                    continue
                kind = TK.DOC_COMMENT
            else:
                try:
                    value = int(word[2:], 16) if group == 3 else int(word, 10)
                except ValueError:
                    kind_name = "hex" if group == 3 else "integer"
                    raise CompileError(err("E_LEX", f"malformed {kind_name} literal {word!r}",
                                           Span(name, line, pos - line_start + 1, pos, end)))
                kind = TK.INT
            # both tuples are built in C (see the module docstring)
            append(new(Token, (kind, word, new(Span, (name, line, pos - line_start + 1, pos, end)),
                               value)))
            pos = end
        append(Token(TK.EOF, "", Span(name, line, pos - line_start + 1, pos, pos)))
        return tokens

    def _bad_char(self, pos: int, line: int, col: int) -> CompileError:
        ch = self.text[pos]
        span = Span(self.src.name, line, col, pos, pos + 1)
        if ch == "`":
            return CompileError(err(
                "E_NO_PREPROCESSOR",
                "no preprocessor in Arch: use `param` for constants and "
                "`generate_if` for conditional structure", span))
        if ch.isdigit():
            # a non-ASCII digit starts a number but no ASCII digit follows
            return CompileError(err("E_LEX", "malformed integer literal ''", span))
        return CompileError(err("E_LEX", f"unknown character {ch!r}", span))


def lex(source_text: str, file_name: str) -> tuple[SourceFile, list[Token]]:
    """Tokenize one file. Raises CompileError with an exact-offset span."""
    src = SourceFile(file_name, source_text)
    return src, Lexer(src).run()
