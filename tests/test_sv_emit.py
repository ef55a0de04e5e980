"""SystemVerilog emission: determinism, structure, property section."""

import hashlib

import pytest

from conftest import CLEAN_CORPUS, build_files, build_text, corpus_path

from archc.sv_emit import SV_KEYWORDS, emit_module


def emit(fname, top):
    design, _ = build_files([corpus_path(fname)])
    return emit_module(design.cores[top])


class TestDeterminism:
    @pytest.mark.parametrize("fname,top,_s,_b", CLEAN_CORPUS)
    def test_identical_bytes_across_compiles(self, fname, top, _s, _b):
        hashes = set()
        for _ in range(2):
            hashes.add(hashlib.sha256(emit(fname, top).encode()).hexdigest())
        assert len(hashes) == 1

    def test_lf_endings_and_trailing_newline(self):
        text = emit("counter_wrap200.arch", "EvtCounter")
        assert "\r" not in text
        assert text.endswith("endmodule\n")


class TestStructure:
    def test_counter_shape(self):
        text = emit("counter_wrap200.arch", "EvtCounter")
        assert "module EvtCounter #(" in text
        assert "parameter int MAX = 200" in text
        assert "logic [7:0] count" in text
        assert "always_ff @(posedge clk)" in text
        assert "count_r <= 8'd0;" in text   # sync reset inside the clocked branch
        assert "'x" not in text and "'z" not in text

    def test_sync_vs_async_reset(self):
        sync_text = emit("seq_accum.arch", "Accum")
        assert "@(posedge clk)" in sync_text and "or posedge rst" not in sync_text
        design, _ = build_text("""\
module AsyncR
  port clk: in Clock<D>;
  port arst_n: in Reset<Async, Low>;
  port d: in Bool;
  port q: out Bool;
  reg r: Bool reset arst_n => false;
  seq on clk rising
    r <= d;
  end seq
  comb q = r;
end module AsyncR
""")
        text = emit_module(design.cores["AsyncR"])
        assert "@(posedge clk or negedge arst_n)" in text
        assert "if (!arst_n) begin" in text

    def test_fsm_case_structure(self):
        text = emit("fsm_controller.arch", "Controller")
        assert "localparam logic [1:0] S_Idle = 2'd0;" in text
        assert "unique case (state_r)" in text
        assert text.index("busy = 1'b0;") < text.index("busy = 1'b1;")  # defaults first

    def test_vec_unpacked_array(self):
        text = emit("seq_shiftreg.arch", "ShiftReg4")
        assert "logic [7:0] stages [0:3];" in text

    def test_instance_and_indexed_port_mangling(self):
        design, _ = build_files([corpus_path("gen_systolic.arch")])
        text = emit_module(design.cores["SystolicArray"])
        assert "SystolicPE pe_0 (" in text
        assert "data_in[0] -> data_in_0" in text  # header mapping comment
        assert ".sum_in(8'sd0)" in text

    def test_derived_param_keeps_expression_text(self):
        design, _ = build_text("""\
module Derived
  param DATA_WIDTH: const = 8;
  param COEFF_WIDTH: const = 8;
  param NBW_MULT: const = DATA_WIDTH + COEFF_WIDTH;
  port a: in UInt<16>;
  port y: out UInt<16>;
  comb y = a;
end module Derived
""")
        text = emit_module(design.cores["Derived"])
        assert "parameter int NBW_MULT = DATA_WIDTH + COEFF_WIDTH" in text

    def test_reserved_word_suffix(self):
        design, _ = build_text("""\
module Kw
  port logic: in Bool;
  port y: out Bool;
  comb y = logic;
end module Kw
""")
        text = emit_module(design.cores["Kw"])
        assert "logic_aq" in text
        for line in text.splitlines():
            if "input" in line:
                name = line.split()[-1].rstrip(",")
                assert name not in SV_KEYWORDS


class TestProperties:
    def test_translate_pragma_bracketing(self):
        text = emit("counter_wrap200.arch", "EvtCounter")
        before = text.index("// synopsys translate_off")
        after = text.index("// synopsys translate_on")
        assert before < text.index("_auto_count_range") < after

    def test_assert_cover_forms(self):
        text = emit("counter_cover8.arch", "CoverEight")
        assert ("reach_eight: cover property (@(posedge clk) disable iff (rst) "
                "(count == 8'd8));") in text

    def test_implies_lowering(self):
        text = emit("guard_ok.arch", "GoodProducer")
        assert "|->" not in text
        assert "(!valid || written)" in text

    def test_fifo_auto_properties_present(self):
        text = emit("fifo_sync8.arch", "SyncBuf")
        assert "_auto_no_overflow: assert property" in text
        assert "_auto_no_underflow: assert property" in text

    def test_dual_clock_properties_use_their_clock(self):
        text = emit("fifo_async16.arch", "AsyncBuf")
        assert "_auto_no_overflow: assert property (@(posedge clk_wr)" in text
        assert "_auto_no_underflow: assert property (@(posedge clk_rd)" in text

    def test_wrap_op_size_cast(self):
        text = emit("wrap_mac.arch", "WrapMac")
        assert "8'(" in text  # x *% k at 8 bits
        assert "16'(" in text  # acc +% (...) at 16 bits

    def test_sint_shift_right_is_arithmetic(self):
        """Arch's `>>` on SInt is arithmetic, so it is SV's `>>>`; SV's
        `>>` is always a logical shift (IEEE 1800-2017 11.4.10)."""
        design, _ = build_text("""\
module Shr
  port s: in SInt<8>;
  port u: in UInt<8>;
  port n: in UInt<3>;
  port y: out SInt<8>;
  port z: out UInt<8>;
  comb y = s >> n.zext<8>();
  comb z = u >> n.zext<8>();
end module Shr
""")
        text = emit_module(design.cores["Shr"])
        assert "y = s >>> 8'(n);" in text
        assert "z = u >> 8'(n);" in text

    def test_wrapping_multiply_keeps_its_precedence(self):
        """`*%` binds as `*` does: a sum on its left and a quotient on its
        right keep their parentheses inside the size cast."""
        design, _ = build_text("""\
module MulWrap
  port a: in UInt<8>;
  port b: in UInt<8>;
  port c: in UInt<8>;
  port y: out UInt<8>;
  port z: out UInt<8>;
  comb y = (a + b) *% c;
  comb z = a *% (b / c) +% (a - b) *% c;
end module MulWrap
""")
        text = emit_module(design.cores["MulWrap"])
        assert "y = 8'((a + b) * c);" in text
        assert "z = 8'(8'(a * (b / c)) + 8'((a - b) * c));" in text


# Every Arch operator on UInt and SInt operands (Bool for the logical
# ones): the wrapping ops at mixed widths, shifts by a constant and by a
# net, `/` and `%` (with their generated asserts), every comparison and
# `implies`.
OPERATORS_ARCH = """\
module Operators
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port a: in UInt<8>;
  port b: in UInt<8>;
  port c: in UInt<4>;
  port s: in SInt<8>;
  port t: in SInt<8>;
  port r: in SInt<4>;
  port p: in Bool;
  port q: in Bool;
  port u_arith: out UInt<8>;
  port s_arith: out SInt<8>;
  port u_wrap: out UInt<8>;
  port s_wrap: out SInt<8>;
  port u_div: out UInt<8>;
  port s_div: out SInt<8>;
  port u_shift: out UInt<8>;
  port s_shift: out SInt<8>;
  port u_bits: out UInt<8>;
  port s_bits: out SInt<8>;
  port u_cmp: out Bool;
  port s_cmp: out Bool;
  port logic: out Bool;
  reg acc: UInt<8> reset rst => 0;
  reg sacc: SInt<8> reset rst => -1;
  seq on clk rising
    acc <= acc +% (a *% c);
    sacc <= (sacc -% r) >> 1;
  end seq
  comb u_arith = (a + b) - (a * b) - ~a;
  comb s_arith = (s + t) - (s * t) + -s - ~t;
  comb u_wrap = (a +% c) -% (c *% b);
  comb s_wrap = (s +% r) -% (r *% t);
  comb u_div = a / b + a % (b | 1);
  comb s_div = s / t - s % (t | 1);
  comb u_shift = (a << 3) + (a >> 2) + (b << a) + (b >> a);
  comb s_shift = (s << 3) + (s >> 2) + (t << a) + (t >> a);
  comb u_bits = (a & b) | (a ^ b);
  comb s_bits = (s & t) | (s ^ t);
  comb u_cmp = a == b || a != b && a < b || a <= b && a > b || a >= b;
  comb s_cmp = s == t || s != t && s < t || s <= t && s > t || s >= t;
  comb logic = !p implies (p && q || q);
  assert order: (a < b) implies (a != b);
  cover wide: s_cmp && logic;
end module Operators
"""

# The SV of every core of every clean corpus design, then of OPERATORS_ARCH,
# hashed in `archc build` order: any byte of any emitted file changes it.
SV_SHA256 = "83fa87d21b716743e81f27c284bafc71b0d28f9a636c6ff3110bfd5b4ebcd746"


def test_sv_bytes_match_golden_digest():
    digest = hashlib.sha256()
    designs = [build_files([corpus_path(fname)])[0] for fname, *_ in CLEAN_CORPUS]
    designs.append(build_text(OPERATORS_ARCH)[0])
    files = 0
    for design in designs:
        for key in design.order:
            digest.update(emit_module(design.cores[key]).encode("utf-8"))
            files += 1
    assert files == 30
    assert digest.hexdigest() == SV_SHA256
