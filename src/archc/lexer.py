"""Lexer for Arch source.

No preprocessor of any kind: a backtick is rejected outright with a
dedicated message. `//` comments are dropped, `///` doc comments are kept
as tokens. Integer literals are decimal or 0x-hex. Multi-character
operators are max-munched (`<-` binds before `<`), and `end <keyword>`
closers fuse into a single token (see tokens.py).
"""

from __future__ import annotations

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


def _is_ident_start(ch: str) -> bool:
    return ch.isascii() and (ch.isalpha() or ch == "_")


def _is_ident_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


class Lexer:
    def __init__(self, source: SourceFile) -> None:
        self.src = source
        self.text = source.text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    def _span(self, start: int, start_line: int, start_col: int) -> Span:
        return Span(self.src.name, start_line, start_col, start, self.pos)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _peek(self, off: int = 0) -> str:
        idx = self.pos + off
        return self.text[idx] if idx < len(self.text) else ""

    def _error(self, code: str, message: str, start: int, line: int, col: int) -> CompileError:
        return CompileError(err(code, message, Span(self.src.name, line, col, start, max(start + 1, self.pos))))

    def run(self) -> list[Token]:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
                continue
            start, line, col = self.pos, self.line, self.col
            if ch == "`":
                self._advance()
                raise self._error("E_NO_PREPROCESSOR",
                                  "no preprocessor in Arch: use `param` for constants and "
                                  "`generate_if` for conditional structure", start, line, col)
            if ch == "/" and self._peek(1) == "/":
                is_doc = self._peek(2) == "/"
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
                if is_doc:
                    text = self.text[start:self.pos]
                    self.tokens.append(Token(TK.DOC_COMMENT, text, self._span(start, line, col)))
                continue
            if ch.isdigit():
                self._lex_number(start, line, col)
                continue
            if _is_ident_start(ch):
                self._lex_word(start, line, col)
                continue
            matched = False
            for text, kind in _PUNCT:
                if self.text.startswith(text, self.pos):
                    self._advance(len(text))
                    self.tokens.append(Token(kind, text, self._span(start, line, col)))
                    matched = True
                    break
            if not matched:
                self._advance()
                raise self._error("E_LEX", f"unknown character {ch!r}", start, line, col)
        self.tokens.append(Token(TK.EOF, "", Span(self.src.name, self.line, self.col, self.pos, self.pos)))
        return self.tokens

    def _lex_number(self, start: int, line: int, col: int) -> None:
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            digits_start = self.pos
            while _is_ident_char(self._peek()):
                self._advance()
            text = self.text[start:self.pos]
            hexpart = self.text[digits_start:self.pos]
            try:
                value = int(hexpart, 16)
            except ValueError:
                raise self._error("E_LEX", f"malformed hex literal {text!r}", start, line, col)
            self.tokens.append(Token(TK.INT, text, self._span(start, line, col), value))
            return
        while _is_ident_char(self._peek()):
            self._advance()
        text = self.text[start:self.pos]
        try:
            value = int(text, 10)
        except ValueError:
            raise self._error("E_LEX", f"malformed integer literal {text!r}", start, line, col)
        self.tokens.append(Token(TK.INT, text, self._span(start, line, col), value))

    def _lex_word(self, start: int, line: int, col: int) -> None:
        while _is_ident_char(self._peek()):
            self._advance()
        word = self.text[start:self.pos]
        kind = KEYWORDS.get(word)
        if kind is None:
            self.tokens.append(Token(TK.IDENT, word, self._span(start, line, col)))
            return
        if kind is TK.KW_TODO and self._peek() == "!":
            self._advance()
            self.tokens.append(Token(TK.TODO_BANG, "todo!", self._span(start, line, col)))
            return
        if kind is TK.KW_END:
            # fuse `end <block-keyword>` into one closer token
            save = (self.pos, self.line, self.col)
            while self._peek() in (" ", "\t"):
                self._advance()
            word_start = self.pos
            while _is_ident_char(self._peek()):
                self._advance()
            next_word = self.text[word_start:self.pos]
            fused = END_FUSION.get(KEYWORDS.get(next_word, TK.IDENT))
            if fused is not None:
                self.tokens.append(Token(fused, f"end {next_word}", self._span(start, line, col)))
                return
            self.pos, self.line, self.col = save
            self.tokens.append(Token(TK.KW_END, word, self._span(start, line, col)))
            return
        self.tokens.append(Token(kind, word, self._span(start, line, col)))


def lex(source_text: str, file_name: str) -> tuple[SourceFile, list[Token]]:
    """Tokenize one file. Raises CompileError with an exact-offset span."""
    src = SourceFile(file_name, source_text)
    return src, Lexer(src).run()
