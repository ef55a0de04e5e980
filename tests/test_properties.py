"""Hypothesis property tests for the invariants that want adversarial
inputs rather than curated ones."""

from hypothesis import given, settings, strategies as st

from conftest import build_text

from archc.lexer import lex
from archc.ops import div_trunc, rem_trunc
from archc.parser import parse_source
from archc.printer import pretty_print
from archc.sim.image import wrap_signed
from archc.tokens import KEYWORDS


@given(st.integers(-(10 ** 12), 10 ** 12), st.integers(-(10 ** 6), 10 ** 6))
def test_div_rem_identity(a, b):
    if b == 0:
        return
    assert div_trunc(a, b) * b + rem_trunc(a, b) == a
    assert abs(rem_trunc(a, b)) < abs(b)


@given(st.integers(0, 2 ** 64), st.integers(1, 64))
def test_wrap_signed_range_and_pattern(v, w):
    s = wrap_signed(v, w)
    assert -(1 << (w - 1)) <= s < (1 << (w - 1))
    assert (s - v) % (1 << w) == 0


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@given(_ident, _ident, st.integers(1, 64))
def test_module_roundtrip_random_names(mod, port, width):
    if mod == port:
        return
    text = (f"module {mod}\n  port {port}: in UInt<{width}>;\n"
            f"  port y: out UInt<{width}>;\n  comb y = {port};\n"
            f"end module {mod}")
    if port == "y":
        return
    _, unit = parse_source(text, "t.arch")
    printed = pretty_print(unit)
    _, unit2 = parse_source(printed, "t.arch")
    assert unit == unit2


@given(st.lists(st.sampled_from("abc region"), min_size=0, max_size=6))
def test_lexer_never_hangs_on_identifier_soup(words):
    text = " ".join(words)
    try:
        _, toks = lex(text, "t.arch")
        assert toks[-1].kind.name == "EOF"
    except Exception as e:
        assert type(e).__name__ == "CompileError"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15))
def test_wrap_ops_match_modular_arithmetic(x, y, k):
    """+% / -% / *% are modular at the max operand width."""
    design, _ = build_text(f"""\
module W
  port a: in UInt<8>;
  port b: in UInt<8>;
  port k: in UInt<4>;
  port s: out UInt<8>;
  port d: out UInt<8>;
  port m: out UInt<8>;
  comb s = a +% b;
  comb d = a -% b;
  comb m = a *% k;
end module W
""")
    from archc.sim import SimFlags, build_sim
    from archc.sim.engine import Simulator
    sim = Simulator(build_sim(design.cores, "W", SimFlags()))
    sim.set_input("a", x)
    sim.set_input("b", y)
    sim.set_input("k", k)
    assert sim.peek("s") == (x + y) % 256
    assert sim.peek("d") == (x - y) % 256
    assert sim.peek("m") == (x * k) % 256
