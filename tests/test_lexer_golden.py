"""Lexer golden: every token (or lexer error) over the corpus, the bad
inputs, hand-picked corner cases and seeded character-level mutants,
hashed into one digest.

GOLDEN_SHA256 was recorded from the character-at-a-time lexer that the
single-regex lexer replaced; any change in a token's kind, text, value or
span, or in an error's code, message or span, changes the digest.
"""

import glob
import hashlib
import os
import random

from conftest import CORPUS

from archc.diagnostics import CompileError
from archc.lexer import lex

GOLDEN_SHA256 = "3c129bb426b1d17756356723a72368b8aad54365acb07024a1e76868c42164a1"

MUTANTS = 400

# characters the mutator inserts: every lexer branch, end-of-line and
# end-of-file corners, and non-ASCII letters and digits
_ALPHABET = (list(" \t\r\n\n/!`_0xX9eE") + ["end ", "end\t", "todo", "//", "///", "0x"]
             + list("+-*%<>=&|^~?:;.,()[]@$#\"'\\") + ["é", "٣", "²", " ", "\x0c"])

CORNERS = [
    "", "end", "end ", "end\tmodule", "end \t module X", "end  modulex", "end\nmodule",
    "end 9", "end_x", "todo!", "todo !", "todo!=", "0", "0x", "0X1f", "0xZZ", "0x_1",
    "1_000", "12abc", "007", "٣", "a٣", "é", "`define", "a // b\nc",
    "/// doc\r\nx", "//", "///", "/", "a\r\n\tb", "x\x0cy", "<-<=<<=->=>::..",
    "+%-%*%+-*/%", "&&||!=!~^", "end generate_for g", "end if",
]


def _serialise(name, text):
    try:
        _src, toks = lex(text, name)
    except CompileError as e:
        d = e.diagnostics[0]
        s = d.span
        return [f"ERR {d.code} {d.message!r} {s.file} {s.line} {s.col} {s.start} {s.end}"]
    return [f"{t.kind.name} {t.text!r} {t.value!r} {t.span.file} {t.span.line} "
            f"{t.span.col} {t.span.start} {t.span.end}" for t in toks]


def _mutant(rng, base):
    text = base
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:pos] + rng.choice(_ALPHABET) + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif op == 2:
            end = min(len(text), pos + rng.randint(1, 40))
            text = text[:end] + text[pos:end] + text[end:]
        else:
            text = text[:pos]
    return text


def _inputs():
    files = sorted(glob.glob(os.path.join(CORPUS, "*.arch"))
                   + glob.glob(os.path.join(CORPUS, "bad", "*.arch")))
    texts = []
    for path in files:
        with open(path, encoding="utf-8") as f:
            texts.append((os.path.relpath(path, CORPUS), f.read()))
    out = list(texts)
    out += [(f"corner{i}.arch", t) for i, t in enumerate(CORNERS)]
    rng = random.Random(20260418)
    for i in range(MUTANTS):
        _name, base = texts[rng.randrange(len(texts))]
        out.append((f"mutant{i}.arch", _mutant(rng, base)))
    return out


def test_lexer_output_matches_golden_digest():
    h = hashlib.sha256()
    errors = 0
    for name, text in _inputs():
        lines = _serialise(name, text)
        errors += lines[0].startswith("ERR ")
        h.update(("\n".join(lines) + "\n\n").encode("utf-8"))
    # the mutants must reach the error paths, or the digest pins little
    assert errors >= 40
    assert h.hexdigest() == GOLDEN_SHA256
