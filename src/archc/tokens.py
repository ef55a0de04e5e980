"""Token kinds for the Arch lexer.

`end <keyword>` closers are fused into single tokens (END_MODULE, END_COMB,
...). This mirrors the language's fused `generate_for` / `generate_if`
keywords: it is what keeps the grammar decidable on a single token of
lookahead at the one spot where an item keyword and a block closer could
otherwise collide (`comb x = e;` shorthand vs. a one-statement comb block).

`Token` is an immutable named tuple, built in the lexer's loop with
`tuple.__new__` like `Span` (see source.py). Token kinds hash by identity:
each `TK` member is a singleton that compares by identity, and the
inherited `Enum.__hash__` is a Python-level call that every keyword,
closer and operator lookup would pay. No output may depend on the
iteration order of a set of kinds, since an address-based hash differs
between runs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .source import Span


class TK(enum.Enum):
    __hash__ = object.__hash__

    # literals / names
    IDENT = "identifier"
    INT = "integer literal"
    DOC_COMMENT = "doc comment"
    EOF = "end of file"

    # construct keywords
    KW_MODULE = "module"
    KW_FSM = "fsm"
    KW_FIFO = "fifo"
    KW_COUNTER = "counter"
    KW_SYNCHRONIZER = "synchronizer"
    KW_PIPELINE = "pipeline"

    # item keywords
    KW_PARAM = "param"
    KW_PORT = "port"
    KW_REG = "reg"
    KW_LET = "let"
    KW_COMB = "comb"
    KW_SEQ = "seq"
    KW_INST = "inst"
    KW_ASSERT = "assert"
    KW_COVER = "cover"
    KW_GENERATE_FOR = "generate_for"
    KW_GENERATE_IF = "generate_if"
    KW_STAGE = "stage"
    KW_STATE = "state"
    KW_DEFAULT = "default"
    KW_STALL = "stall"
    KW_FLUSH = "flush"
    KW_ENUM = "enum"
    KW_VARIANT = "variant"

    # secondary keywords
    KW_WHEN = "when"
    KW_ON = "on"
    KW_RISING = "rising"
    KW_FALLING = "falling"
    KW_IN = "in"
    KW_OUT = "out"
    KW_CONST = "const"
    KW_TYPE = "type"
    KW_RESET = "reset"
    KW_GUARD = "guard"
    KW_NONE = "none"
    KW_KIND = "kind"
    KW_IF = "if"
    KW_THEN = "then"
    KW_ELSE = "else"
    KW_MATCH = "match"
    KW_CASE = "case"
    KW_END = "end"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_IMPLIES = "implies"
    KW_ZEXT = "zext"
    KW_SEXT = "sext"
    KW_TRUNC = "trunc"
    KW_TODO = "todo"
    TODO_BANG = "todo!"

    # fused end-closers
    END_MODULE = "end module"
    END_FSM = "end fsm"
    END_FIFO = "end fifo"
    END_COUNTER = "end counter"
    END_SYNCHRONIZER = "end synchronizer"
    END_PIPELINE = "end pipeline"
    END_COMB = "end comb"
    END_SEQ = "end seq"
    END_INST = "end inst"
    END_IF = "end if"
    END_MATCH = "end match"
    END_GENERATE_FOR = "end generate_for"
    END_GENERATE_IF = "end generate_if"
    END_STAGE = "end stage"
    END_STATE = "end state"
    END_DEFAULT = "end default"
    END_ENUM = "end enum"

    # punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    COLONCOLON = "::"
    QUESTION = "?"
    DOT = "."
    DOTDOT = ".."
    ARROW_R = "->"
    ARROW_L = "<-"
    FAT_ARROW = "=>"
    ASSIGN = "="
    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    SHL = "<<"
    SHR = ">>"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_WRAP = "+%"
    MINUS_WRAP = "-%"
    STAR_WRAP = "*%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    AMPAMP = "&&"
    PIPEPIPE = "||"
    TILDE = "~"
    BANG = "!"


KEYWORDS: dict[str, TK] = {
    "module": TK.KW_MODULE, "fsm": TK.KW_FSM, "fifo": TK.KW_FIFO,
    "counter": TK.KW_COUNTER, "synchronizer": TK.KW_SYNCHRONIZER,
    "pipeline": TK.KW_PIPELINE,
    "param": TK.KW_PARAM, "port": TK.KW_PORT, "reg": TK.KW_REG,
    "let": TK.KW_LET, "comb": TK.KW_COMB, "seq": TK.KW_SEQ,
    "inst": TK.KW_INST, "assert": TK.KW_ASSERT, "cover": TK.KW_COVER,
    "generate_for": TK.KW_GENERATE_FOR, "generate_if": TK.KW_GENERATE_IF,
    "stage": TK.KW_STAGE, "state": TK.KW_STATE, "default": TK.KW_DEFAULT,
    "stall": TK.KW_STALL, "flush": TK.KW_FLUSH,
    "enum": TK.KW_ENUM, "variant": TK.KW_VARIANT,
    "when": TK.KW_WHEN, "on": TK.KW_ON, "rising": TK.KW_RISING,
    "falling": TK.KW_FALLING, "in": TK.KW_IN, "out": TK.KW_OUT,
    "const": TK.KW_CONST, "type": TK.KW_TYPE, "reset": TK.KW_RESET,
    "guard": TK.KW_GUARD, "none": TK.KW_NONE, "kind": TK.KW_KIND,
    "if": TK.KW_IF, "then": TK.KW_THEN, "else": TK.KW_ELSE,
    "match": TK.KW_MATCH, "case": TK.KW_CASE, "end": TK.KW_END,
    "true": TK.KW_TRUE, "false": TK.KW_FALSE, "implies": TK.KW_IMPLIES,
    "zext": TK.KW_ZEXT, "sext": TK.KW_SEXT, "trunc": TK.KW_TRUNC,
    "todo": TK.KW_TODO,
}

# keywords that may follow `end` and fuse into a closer token
END_FUSION: dict[TK, TK] = {
    TK.KW_MODULE: TK.END_MODULE, TK.KW_FSM: TK.END_FSM, TK.KW_FIFO: TK.END_FIFO,
    TK.KW_COUNTER: TK.END_COUNTER, TK.KW_SYNCHRONIZER: TK.END_SYNCHRONIZER,
    TK.KW_PIPELINE: TK.END_PIPELINE, TK.KW_COMB: TK.END_COMB,
    TK.KW_SEQ: TK.END_SEQ, TK.KW_INST: TK.END_INST, TK.KW_IF: TK.END_IF,
    TK.KW_MATCH: TK.END_MATCH, TK.KW_GENERATE_FOR: TK.END_GENERATE_FOR,
    TK.KW_GENERATE_IF: TK.END_GENERATE_IF, TK.KW_STAGE: TK.END_STAGE,
    TK.KW_STATE: TK.END_STATE, TK.KW_DEFAULT: TK.END_DEFAULT,
    TK.KW_ENUM: TK.END_ENUM,
}

CONSTRUCT_KEYWORDS = {
    TK.KW_MODULE: "module", TK.KW_FSM: "fsm", TK.KW_FIFO: "fifo",
    TK.KW_COUNTER: "counter", TK.KW_SYNCHRONIZER: "synchronizer",
    TK.KW_PIPELINE: "pipeline",
}


class Token(NamedTuple):
    kind: TK
    text: str
    span: Span
    value: int | None = None  # for INT tokens

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"
