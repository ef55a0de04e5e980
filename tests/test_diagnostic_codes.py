"""The full rendered text of the diagnostic codes that no `corpus/bad`
golden reaches, one test each. New goldens go here rather than into
`corpus/bad`, whose listing the `build` benchmark reads."""

import glob
import os

from conftest import CORPUS, ROOT
from test_cli import run_cli

from archc.diagnostics import ALL_CODES


def _check(tmp_path, monkeypatch, name, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    return run_cli("check", name)


def test_bad_lhs_instance_output_to_register(tmp_path, monkeypatch):
    rc, out = _check(tmp_path, monkeypatch, "bad_lhs.arch", """\
module Child
  port a: out UInt<8>;
  comb a = 1;
end module Child

module Top
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port y: out UInt<8>;
  reg r: UInt<8> reset rst => 0;
  inst c: Child
    a -> r;
  end inst c
  comb y = r;
end module Top
""")
    assert (rc, out) == (1, """\
error[E_BAD_LHS]: `r` is a register; route through a net and a seq block
  --> bad_lhs.arch:12:5
       |
    12 |     a -> r;
       |     ^^^^^^^
""")


def test_bad_width_zero_param(tmp_path, monkeypatch):
    rc, out = _check(tmp_path, monkeypatch, "bad_width.arch", """\
module W
  param N: const = 0;
  port a: in UInt<N>;
  port y: out Bool;
  comb y = true;
end module W
""")
    assert (rc, out) == (1, """\
error[E_BAD_WIDTH]: width must be a positive integer, got 0
  --> bad_width.arch:3:14
       |
     3 |   port a: in UInt<N>;
       |              ^^^^^^^
""")


def test_io_missing_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check", "missing.arch") == (
        1, "error[E_IO]: cannot read `missing.arch`: No such file or directory\n")


def test_port_set_clock_output(tmp_path, monkeypatch):
    rc, out = _check(tmp_path, monkeypatch, "port_set.arch", """\
module P
  port c: out Clock<D>;
  port y: out Bool;
  comb y = true;
end module P
""")
    assert (rc, out) == (1, """\
error[E_PORT_SET]: `c`: Clock<D> ports must be inputs
  --> port_set.arch:2:3
       |
     2 |   port c: out Clock<D>;
       |   ^^^^^^^^^^^^^^^^^^^^^
""")


def test_unknown_name_in_expression(tmp_path, monkeypatch):
    rc, out = _check(tmp_path, monkeypatch, "unknown_name.arch", """\
module U
  port a: in UInt<8>;
  port y: out UInt<8>;
  comb y = a + zz;
end module U
""")
    assert (rc, out) == (1, """\
error[E_UNKNOWN_NAME]: unknown name `zz`
  --> unknown_name.arch:4:16
       |
     4 |   comb y = a + zz;
       |                ^^
""")


def test_every_code_is_named_by_a_golden_or_a_test():
    """A code that no `corpus/bad` golden renders and no test names has
    nothing that pins its text."""
    named = ""
    for path in glob.glob(os.path.join(CORPUS, "bad", "*.diag")):
        with open(path, encoding="utf-8") as f:
            named += f.read()
    for path in glob.glob(os.path.join(ROOT, "tests", "test_*.py")):
        with open(path, encoding="utf-8") as f:
            named += f.read()
    assert sorted(c for c in ALL_CODES if c not in named) == []
