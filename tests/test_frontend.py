"""Lexer and parser: tokens, endings, round-trip, LL(1) localization."""

import glob
import os
import random
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT, build_text, corpus_path

from archc.diagnostics import CompileError
from archc.lexer import lex
from archc.parser import Parser, parse, parse_source, verify_endings
from archc.printer import pretty_print
from archc.source import SourceFile, Span
from archc.tokens import TK, Token


def kinds(text):
    _, toks = lex(text, "t.arch")
    return [t.kind for t in toks[:-1]]


class TestLexer:
    def test_smallest_program(self):
        assert kinds("module A\nend module A") == [TK.KW_MODULE, TK.IDENT, TK.END_MODULE, TK.IDENT]

    def test_paper_let_line(self):
        _, toks = lex("let a: UInt<8> = 255;", "t.arch")
        lit = [t for t in toks if t.kind is TK.INT]
        assert lit[1].value == 255
        assert [t.value for t in lit] == [8, 255]

    def test_no_preprocessor(self):
        with pytest.raises(CompileError) as e:
            lex("`define X 1", "t.arch")
        assert e.value.diagnostics[0].code == "E_NO_PREPROCESSOR"
        assert e.value.diagnostics[0].span.col == 1

    def test_hex_and_decimal(self):
        _, toks = lex("255 0xff 0xFF", "t.arch")
        assert [t.value for t in toks[:-1]] == [255, 255, 255]

    def test_comments_dropped_docs_kept(self):
        _, toks = lex("// plain\n/// doc line\nmodule", "t.arch")
        assert toks[0].kind is TK.DOC_COMMENT
        assert toks[0].text == "/// doc line"
        assert toks[1].kind is TK.KW_MODULE

    def test_unknown_char(self):
        with pytest.raises(CompileError) as e:
            lex("module @", "t.arch")
        assert e.value.diagnostics[0].code == "E_LEX"

    def test_spans_strictly_increase(self):
        text = open(corpus_path("fsm_controller.arch")).read()
        _, toks = lex(text, "t.arch")
        offsets = [(t.span.start, t.span.end) for t in toks[:-1]]
        for (s1, e1), (s2, _) in zip(offsets, offsets[1:]):
            assert e1 <= s2 and s1 < e1

    def test_maxmunch_arrows(self):
        assert kinds("a <- b") == [TK.IDENT, TK.ARROW_L, TK.IDENT]
        assert kinds("-> =%")[0] is TK.ARROW_R
        assert kinds("x +% y")[1] is TK.PLUS_WRAP

    def test_end_fusion(self):
        assert TK.END_COMB in kinds("comb x = 1; end comb")
        # `end` before a non-block word stays bare (and later fails parse)
        assert kinds("end banana") == [TK.KW_END, TK.IDENT]

    def test_todo_bang(self):
        assert kinds("todo!") == [TK.TODO_BANG]

    def test_bare_end_at_end_of_input_terminates(self, tmp_path):
        # run as a child with a time limit: this input once made the lexer
        # loop forever on the empty end-of-input sentinel
        path = tmp_path / "m.arch"
        path.write_text("module M\n  port a: in Bool;\nend")
        proc = subprocess.run(
            [sys.executable, "-m", "archc.cli", "check", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert proc.returncode == 1
        assert "error[E_END_MISMATCH]" in proc.stdout

    def test_zero_at_end_of_input(self):
        _, toks = lex("comb y = 0", "t.arch")
        assert (toks[-2].kind, toks[-2].value) == (TK.INT, 0)
        assert kinds("0") == [TK.INT]


class TestTokenContract:
    """Tokens and spans are immutable values: hashable, equal by value."""

    def test_fields_cannot_be_assigned(self):
        _, toks = lex("a", "t.arch")
        tok = toks[0]
        for obj, name in ((tok, "kind"), (tok, "text"), (tok, "value"),
                          (tok.span, "line"), (tok.span, "end")):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))

    def test_hashable_and_equal_by_value(self):
        (_, a), (_, b) = lex("x + 0x1f", "t.arch"), lex("x + 0x1f", "t.arch")
        assert a == b and a[0] is not b[0]
        assert set(a) == set(b) and len(set(a)) == len(a)
        assert {t.span for t in a} == {t.span for t in b}
        assert a[0].span == Span("t.arch", 1, 1, 0, 1)
        assert [t.value for t in a] == [None, None, 31, None]

    def test_merge_in_either_order(self):
        _, toks = lex("let a = b;\n  c", "t.arch")
        spans = [t.span for t in toks]
        assert all(s.merge(t) == t.merge(s) for s in spans for t in spans)
        assert spans[-2].merge(spans[1]) == Span("t.arch", 1, 5, 4, 14)

    def test_repr(self):
        _, toks = lex("x 0x1f", "t.arch")
        assert [repr(t) for t in toks] == ["Token(IDENT, 'x')", "Token(INT, '0x1f')",
                                           "Token(EOF, '')"]
        assert repr(toks[0].span) == "Span(file='t.arch', line=1, col=1, start=0, end=1)"


class TestParser:
    def test_listing1_shapes(self):
        text = """\
module Alu
end module Alu

pipeline Decode
  stage Fetch
  end stage Fetch
end pipeline Decode

fifo TxBuffer
end fifo TxBuffer
"""
        _, unit = parse_source(text, "t.arch")
        assert [(c.kind, c.name) for c in unit.constructs] == [
            ("module", "Alu"), ("pipeline", "Decode"), ("fifo", "TxBuffer")]

    def test_end_mismatch_points_at_closer(self):
        with pytest.raises(CompileError) as e:
            parse_source("module A\nend module B", "t.arch")
        d = e.value.diagnostics[0]
        assert d.code == "E_END_MISMATCH"
        assert (d.span.line, d.span.col) == (2, 12)

    def test_end_keyword_mismatch(self):
        with pytest.raises(CompileError) as e:
            parse_source("module A\nend fsm A", "t.arch")
        assert e.value.diagnostics[0].code == "E_END_MISMATCH"

    def test_fsm_unconditional_transition(self):
        text = ("fsm F\n default state Idle;\n state Idle\n -> Idle;\n"
                " end state Idle\nend fsm F")
        _, unit = parse_source(text, "t.arch")
        states = [i for i in unit.constructs[0].items
                  if type(i).__name__ == "StateDecl"]
        assert len(states) == 1
        assert states[0].transitions[0].cond is None

    def test_comb_shorthand_vs_block(self):
        short = "module A\n port y: out Bool;\n comb y = true;\nend module A"
        block = ("module A\n port y: out Bool;\n comb\n y = true;\n end comb\n"
                 "end module A")
        _, u1 = parse_source(short, "t.arch")
        _, u2 = parse_source(block, "t.arch")
        assert u1 == u2

    def test_case_sensitive_names(self):
        with pytest.raises(CompileError) as e:
            parse_source("module Abc\nend module ABC", "t.arch")
        assert e.value.diagnostics[0].code == "E_END_MISMATCH"

    def test_verify_endings_programmatic(self):
        _, unit = parse_source("module A\nend module A", "t.arch")
        verify_endings(unit)
        unit.constructs[0].end_kind = "fsm"
        with pytest.raises(CompileError) as e:
            verify_endings(unit)
        assert e.value.diagnostics[0].code == "E_END_MISMATCH"


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(glob.glob(f"{CORPUS}/*.arch")))
    def test_pretty_print_reparses_identically(self, path):
        text = open(path).read()
        _, unit = parse_source(text, path)
        printed = pretty_print(unit)
        _, unit2 = parse_source(printed, path)
        assert unit == unit2
        assert pretty_print(unit2) == printed


class TestLL1:
    """Truncating any valid prefix and appending an invalid token yields an
    error exactly at that token."""

    INVALID = ["?", ")", "=>", "]", ",", "~", "todo"]

    def test_prefix_fuzz(self):
        rng = random.Random(1234)
        for fname in ("fsm_controller.arch", "pipe3.arch", "gen_systolic.arch",
                      "fifo_async16.arch"):
            text = open(corpus_path(fname)).read()
            src, toks = lex(text, fname)
            positions = rng.sample(range(1, len(toks) - 1), min(40, len(toks) - 2))
            for pos in positions:
                bad_text = rng.choice(self.INVALID)
                _, bad_toks = lex(bad_text, fname)
                bad = Token(bad_toks[0].kind, bad_toks[0].text, toks[pos].span)
                eof = Token(TK.EOF, "", toks[pos].span)
                stream = toks[:pos] + [bad, eof]
                try:
                    parse(src, stream)
                except CompileError as e:
                    span = e.value if False else e.diagnostics[0].span
                    assert span.start == toks[pos].span.start or \
                        span == eof.span, (fname, pos, bad_text)


def _deep_module(expr):
    return f"""module D
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<8>;
  port c: in Bool;
  port y: out UInt<8>;
  reg r: UInt<8> reset rst => 0;
  seq on clk rising
    r <= {expr};
  end seq
  comb y = {expr};
  assert p: r != 7 implies r != 8;
end module D
"""


_DEEP_FORMS = {
    "wrap_chain": lambda n: " +% ".join(["a"] * n),       # depth n
    "parens": lambda n: "(" * (n - 1) + "a" + ")" * (n - 1),
    "unary": lambda n: "~" * (n - 1) + "a",
    "ternary": lambda n: "c ? a : " * (n - 1) + "a",
    "nested_rhs": lambda n: "a +% (" * (n // 2 - 1) + "a" + ")" * (n // 2 - 1),
}


def _nested_ifs(n):
    """n `if` statements, each inside the one before; r <= min(a, n)."""
    lines = [f"{'  ' * k}if a > {k} then" for k in range(n)] + [f"{'  ' * n}r <= {n};"]
    for k in reversed(range(n)):
        lines += [f"{'  ' * k}else", f"{'  ' * (k + 1)}r <= {k};", f"{'  ' * k}end if"]
    return "\n".join("    " + line for line in lines)


def _nested_module(n):
    return f"""module N
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<8>;
  port y: out UInt<8>;
  reg r: UInt<8> reset rst => 0;
  seq on clk rising
{_nested_ifs(n)}
  end seq
  comb y = r;
end module N
"""


class TestDepthLimit:
    @pytest.mark.parametrize("expr", ["(" * 3000 + "a" + ")" * 3000, " +% ".join(["a"] * 3000)],
                             ids=["parens3000", "wrap_chain3000"])
    def test_deep_input_is_a_diagnostic_not_a_traceback(self, tmp_path, expr):
        path = tmp_path / "deep.arch"
        path.write_text(_deep_module(expr))
        proc = subprocess.run(
            [sys.executable, "-m", "archc.cli", "check", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert proc.returncode == 1
        assert "error[E_TOO_DEEP]: expression nested more than 100 levels deep" in proc.stdout
        assert "Traceback" not in proc.stderr and proc.stderr == ""

    @pytest.mark.parametrize("form", sorted(_DEEP_FORMS))
    def test_limit_is_exact(self, form):
        from archc.parser import MAX_EXPR_DEPTH
        parse_source(_deep_module(_DEEP_FORMS[form](MAX_EXPR_DEPTH)), "t.arch")
        with pytest.raises(CompileError) as e:
            parse_source(_deep_module(_DEEP_FORMS[form](MAX_EXPR_DEPTH + 2)), "t.arch")
        assert [d.code for d in e.value.diagnostics] == ["E_TOO_DEEP"]

    def test_span_is_the_offending_subexpression(self):
        text = _deep_module(" +% ".join(["a"] * 150))
        with pytest.raises(CompileError) as e:
            parse_source(text, "t.arch")
        span = e.value.diagnostics[0].span
        start = text.index("r <= a") + len("r <= ")
        # the left-nested node holding the first 101 terms is the first too deep
        assert text[span.start:span.end] == " +% ".join(["a"] * 101)
        assert span.start == start and span.line == 9

    def test_parens_span_starts_at_a_parenthesis(self):
        text = _deep_module("(" * 3000 + "a" + ")" * 3000)
        with pytest.raises(CompileError) as e:
            parse_source(text, "t.arch")
        span = e.value.diagnostics[0].span
        assert text[span.start] == "(" and span.line == 9

    @pytest.mark.parametrize("form", sorted(_DEEP_FORMS))
    def test_later_passes_survive_the_limit_with_room(self, form):
        """At the depth limit, check, build, sim and formal all finish
        even when called 300 frames deep."""
        from archc.formal import verify
        from archc.parser import MAX_EXPR_DEPTH
        from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
        from archc.sv_emit import emit_module

        def everything():
            design, _ = build_text(_deep_module(_DEEP_FORMS[form](MAX_EXPR_DEPTH)))
            emit_module(design.cores["D"])
            image = build_sim(design.cores, "D", SimFlags())
            run_stimulus(image, parse_stimulus("run 3\n"))
            return verify(design.cores["D"], 2, "builtin")

        def nest(k):
            return everything() if k == 0 else nest(k - 1)

        assert nest(300).results

    def test_deep_statements_are_a_diagnostic_not_a_traceback(self, tmp_path):
        path = tmp_path / "nested.arch"
        path.write_text(_nested_module(1000))
        proc = subprocess.run(
            [sys.executable, "-m", "archc.cli", "check", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert proc.returncode == 1
        assert "error[E_TOO_DEEP]: statements nested more than 100 levels deep" in proc.stdout
        assert proc.stderr == ""

    def test_statement_limit_is_exact_and_points_at_the_statement(self):
        from archc.parser import MAX_EXPR_DEPTH
        parse_source(_nested_module(MAX_EXPR_DEPTH), "t.arch")
        text = _nested_module(MAX_EXPR_DEPTH + 1)
        with pytest.raises(CompileError) as e:
            parse_source(text, "t.arch")
        [d] = e.value.diagnostics
        assert d.code == "E_TOO_DEEP"
        assert text[d.span.start:].startswith(f"if a > {MAX_EXPR_DEPTH} then")

    def test_statements_at_the_limit_build_and_simulate(self):
        from archc.parser import MAX_EXPR_DEPTH
        from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
        from archc.sv_emit import emit_module
        design, _ = build_text(_nested_module(MAX_EXPR_DEPTH))
        emit_module(design.cores["N"])
        image = build_sim(design.cores, "N", SimFlags())
        report = run_stimulus(image, parse_stimulus(
            "set a 57\nrun 1\nexpect y 57\nset a 200\nrun 1\nexpect y 100\n"
            "set a 0\nrun 1\nexpect y 0\n"))
        assert report.passed and report.expect_count == 3, report.lines()
