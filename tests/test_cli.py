"""CLI surface: subcommands, exit codes, --json, diagnostics rendering."""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from conftest import corpus_path

from archc import cli


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(args))
    return rc, buf.getvalue()


def _tables(out, head):
    """The trace tables of `out` whose first line starts with `head`,
    each with its indented rows."""
    lines, taking = [], False
    for line in out.splitlines():
        if line.startswith(head):
            taking = True
        elif not line.startswith("  "):
            taking = False
        if taking:
            lines.append(line)
    return lines


# The counterexample tables `archc formal` prints for every core in formal
# scope of the corpus at bounds 5, 12 and 20.
REFUTED_TABLES_SHA256 = "7cdbb44a5ba1ec145541785d8d2e0d51acb2ae842c37e72e270d889383667c00"


class TestCheck:
    def test_clean_counter_silent_exit0(self):
        rc, out = run_cli("check", corpus_path("counter_wrap200.arch"))
        assert rc == 0 and out == ""

    def test_listing3_error_line(self, tmp_path):
        f = tmp_path / "l3.arch"
        f.write_text("""\
module L3
  port y: out UInt<16>;
  let a: UInt<8> = 255;
  let c: UInt<16> = a;
  comb y = c;
end module L3
""")
        rc, out = run_cli("check", str(f))
        assert rc == 1
        assert "error[E_WIDTH_MISMATCH]" in out
        assert out.count("error[") == 1

    def test_todo_exits_zero_with_note(self):
        rc, out = run_cli("check", corpus_path("todo_stub.arch"))
        assert rc == 0
        assert "note: todo!" in out and "CacheStub" in out

    def test_json_diagnostics(self):
        rc, out = run_cli("check", corpus_path("bad/01_width_assign.arch"), "--json")
        assert rc == 1
        obj = json.loads(out.splitlines()[0])
        assert obj["code"] == "E_WIDTH_MISMATCH"
        assert obj["severity"] == "error"
        assert obj["line"] == 4

    def test_multi_file_universe(self, tmp_path):
        a = tmp_path / "a.arch"
        a.write_text("module A\n port x: in Bool;\n port y: out Bool;\n"
                     " comb y = !x;\nend module A\n")
        b = tmp_path / "b.arch"
        b.write_text("module B\n port p: in Bool;\n port q: out Bool;\n"
                     " inst u: A\n  x <- p;\n  y -> q;\n end inst u\nend module B\n")
        rc, _ = run_cli("check", str(b), str(a))
        assert rc == 0


class TestBuild:
    def test_emits_one_file_per_construct(self, tmp_path):
        rc, out = run_cli("build", corpus_path("gen_systolic.arch"),
                          "--out-dir", str(tmp_path))
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["SystolicArray.sv", "SystolicPE.sv"]
        assert str(tmp_path / "SystolicPE.sv") in out

    def test_refuses_todo(self, tmp_path):
        rc, out = run_cli("build", corpus_path("todo_stub.arch"),
                          "--out-dir", str(tmp_path))
        assert rc == 1
        assert "E_TODO_IN_BUILD" in out

    def test_fsm_encoding_flag(self, tmp_path):
        rc, _ = run_cli("build", corpus_path("fsm_controller.arch"),
                        "--out-dir", str(tmp_path), "--fsm-encoding", "onehot")
        assert rc == 0
        text = (tmp_path / "Controller.sv").read_text()
        assert "3'd1" in text or "3'b001" in text or "S_Idle = 3'd1" in text


class TestSim:
    def test_counter_stimulus_pass(self):
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"),
                          "--stim", corpus_path("counter_wrap200.stim"))
        assert rc == 0 and "PASS" in out

    def test_expect_mismatch_exit1(self, tmp_path):
        stim = tmp_path / "bad.stim"
        stim.write_text("clock SysDomain period 2\nset en 1\nrun 5\nexpect count 99\n")
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"),
                          "--stim", str(stim))
        assert rc == 1 and "EXPECT_MISMATCH" in out

    def test_abort_exit3_with_site(self, tmp_path):
        design = tmp_path / "oob.arch"
        design.write_text("""\
module Oob
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port idx: in UInt<3>;
  port d: in UInt<8>;
  port q: out UInt<8>;
  reg mem: Vec<UInt<8>, 4> reset rst => 0;
  seq on clk rising
    mem[idx] <= d;
  end seq
  comb q = mem[0];
end module Oob
""")
        stim = tmp_path / "oob.stim"
        stim.write_text("clock D period 2\nset idx 5\nrun 1\n")
        rc, out = run_cli("sim", str(design), "--stim", str(stim))
        assert rc == 3
        assert "OUT_OF_BOUNDS" in out and "oob.arch" in out

    def test_clockless_tick_abort_exit3_untraced(self, tmp_path):
        """A clockless `tick` settles, so a division by zero in comb logic
        aborts without `--wave` as it does with it."""
        design = tmp_path / "div.arch"
        design.write_text("""\
module Div
  port num: in UInt<8>;
  port den: in UInt<8>;
  port y: out UInt<8>;
  comb y = num / den;
end module Div
""")
        stim = tmp_path / "div.stim"
        stim.write_text("set num 5\nset den 0\ntick 1\n")
        rc, out = run_cli("sim", str(design), "--stim", str(stim))
        assert rc == 3
        assert "DIV_BY_ZERO" in out and "div.arch" in out

    @pytest.mark.parametrize("clock_port,stim,rc,last", [
        ("", "set num 5\nset den 3\ntick 1\nexpect y 1\n", 0,
         "PASS: 1/1 expects, 0 assertion failures, time 1"),
        ("  port clk: in Clock<D>;\n", "set num 5\nset den 0\ntick 1\n", 3,
         "ABORT: 0/0 expects, 0 assertion failures, time 1"),
    ], ids=["clockless_pass", "clock_port_abort"])
    def test_trace_does_not_change_the_report(self, tmp_path, clock_port, stim, rc, last):
        """The first VCD sample is taken after the time-0 `set`s, and a
        sample cannot abort the run, so `--wave` prints what the untraced
        run prints: no DIV_BY_ZERO on the all-zero inputs before the
        `set`s, and an abort at the time the untraced run reports."""
        design = tmp_path / "div.arch"
        design.write_text(f"module Div\n{clock_port}  port num: in UInt<8>;\n"
                          "  port den: in UInt<8>;\n  port y: out UInt<8>;\n"
                          "  comb y = num / den;\nend module Div\n")
        (tmp_path / "div.stim").write_text(stim)
        args = ("sim", str(design), "--stim", str(tmp_path / "div.stim"))
        untraced = run_cli(*args)
        assert untraced[0] == rc and untraced[1].splitlines()[-1] == last
        assert run_cli(*args, "--wave", str(tmp_path / "w.vcd")) == untraced

    def test_trace_adds_no_warning(self, tmp_path):
        """`stall_in` is set after the first tick, before the first edge
        step reads it. A trace samples (and settles) at every tick, but
        its settles read nothing in the run's name, so `--wave` warns of
        no undriven input that the untraced run does not read."""
        (tmp_path / "p.stim").write_text(
            "clock SysDomain period 6\nset rst 1\nset din 5\nset flush_in 0\ntick 1\n"
            "set stall_in 0\ntick 5\nset rst 0\nrun 3\n")
        args = ("sim", corpus_path("pipe3.arch"), "--stim", str(tmp_path / "p.stim"),
                "--inputs-start-uninit")
        want = (0, "PASS: 0/0 expects, 0 assertion failures, time 21\n")
        assert run_cli(*args) == want
        assert run_cli(*args, "--wave", str(tmp_path / "p.vcd")) == want

    def test_todo_abort_exit3(self, tmp_path):
        stim = tmp_path / "t.stim"
        stim.write_text("set req_addr 1\nexpect resp 0\n")
        rc, out = run_cli("sim", corpus_path("todo_stub.arch"), "--stim", str(stim))
        assert rc == 3 and "TODO_REACHED" in out

    def test_wave_writes_vcd(self, tmp_path):
        out_vcd = tmp_path / "w.vcd"
        rc, _ = run_cli("sim", corpus_path("counter_wrap200.arch"),
                        "--stim", corpus_path("counter_wrap200.stim"),
                        "--wave", str(out_vcd))
        assert rc == 0 and out_vcd.exists()
        assert "$enddefinitions" in out_vcd.read_text()

    def test_ambiguous_top(self):
        rc, out = run_cli("sim", corpus_path("hier_top.arch"))
        assert rc == 1 and "E_NO_TOP" in out and "HierTop" in out

    def test_clockless_without_stim_names_the_missing_stim(self):
        rc, out = run_cli("sim", corpus_path("comb_alu.arch"))
        assert rc == 1
        assert out == ("error[E_STIM]: design has no clock domain to run; "
                       "give a stimulus program with --stim\n")

    def test_stim_parse_error(self, tmp_path):
        stim = tmp_path / "junk.stim"
        stim.write_text("warp 9\n")
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"),
                          "--stim", str(stim))
        assert rc == 1 and "E_STIM" in out

    @pytest.mark.parametrize("line", ["tick abc", "run 1.5", "clock SysDomain period x",
                                      "tick 1000000000000", "tick -3", "--cycles -4"])
    def test_stim_bad_count_is_a_diagnostic(self, tmp_path, line):
        """A count that is not a whole number from 0 to the cap, in a
        stimulus line or in --cycles (a `line` that starts with `--`)."""
        stim = tmp_path / "count.stim"
        stim.write_text(f"set en 1\n{line}\nexpect count 0\n")
        args = line.split() if line.startswith("--") else ["--stim", str(stim)]
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"), *args)
        where = "--cycles" if line.startswith("--") else "stimulus line 2"
        assert rc == 1
        assert out.startswith(f"error[E_STIM]: {where}: bad count")

    def test_count_cap(self, tmp_path):
        """A count above the cap is refused before anything runs, in a
        stimulus line or in --cycles; the cap itself is taken."""
        from archc.sim.stimulus import MAX_COUNT, parse_stimulus
        assert parse_stimulus(f"run {MAX_COUNT}\n").forms[f"run {MAX_COUNT}"][1] == MAX_COUNT
        stim = tmp_path / "count.stim"
        stim.write_text(f"run {MAX_COUNT + 1}\n")
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"), "--stim", str(stim))
        assert (rc, out) == (1, f"error[E_STIM]: stimulus line 1: bad count "
                                f"'{MAX_COUNT + 1}': above the cap of {MAX_COUNT}\n")
        rc, out = run_cli("sim", corpus_path("counter_wrap200.arch"),
                          "--cycles", str(10 ** 12))
        assert (rc, out) == (1, f"error[E_STIM]: --cycles: bad count "
                                f"'{10 ** 12}': above the cap of {MAX_COUNT}\n")

    def test_guard_violation_under_check_uninit(self, tmp_path):
        stim = tmp_path / "g.stim"
        stim.write_text("clock SysDomain period 2\nset start 1\nrun 3\n")
        rc, out = run_cli("sim", corpus_path("guard_bug.arch"),
                          "--stim", str(stim), "--check-uninit")
        assert rc == 1  # assert guard_contract fails
        assert "GUARD_VIOLATION" in out

    def test_stop_on_assert(self, tmp_path):
        stim = tmp_path / "s.stim"
        stim.write_text("clock SysDomain period 2\nset en 1\nrun 20\n")
        rc, out = run_cli("sim", corpus_path("counter_wrap15.arch"),
                          "--stim", str(stim), "--stop-on-assert")
        assert rc == 1
        assert out.count("ASSERT_FAIL") == 1


class TestFormal:
    def test_counter_suite_exit0(self):
        rc, out = run_cli("formal", corpus_path("counter_wrap200.arch"),
                          "--bound", "50", "--solver", "builtin")
        assert rc == 0
        assert "range_ok: PROVED (bound 50)" in out

    def test_refuted_exit1_with_table(self):
        rc, out = run_cli("formal", corpus_path("counter_wrap15.arch"),
                          "--bound", "20", "--solver", "builtin")
        assert rc == 1
        assert "never_full: REFUTED at cycle 15" in out
        assert "counterexample for never_full:" in out
        assert "cycle" in out and "en" in out

    def test_hit_prints_its_witness(self):
        rc, out = run_cli("formal", corpus_path("counter_cover8.arch"),
                          "--bound", "10", "--solver", "builtin")
        assert rc == 0
        assert _tables(out, "witness for ") == [
            "witness for reach_eight:", "  cycle  count_r  en",
            *(f"  {k:>5}  {k}  1" for k in range(8)), "      8  8  0"]

    def test_solver_missing_exit2(self, monkeypatch):
        monkeypatch.setenv("PATH", "/nonexistent")
        monkeypatch.delenv("ARCHC_SOLVER_PATH", raising=False)
        rc, out = run_cli("formal", corpus_path("counter_wrap200.arch"),
                          "--bound", "5", "--solver", "z3")
        assert rc == 2 and "E_SOLVER_MISSING" in out

    def test_unsupported_exit2(self):
        rc, out = run_cli("formal", corpus_path("fifo_sync3.arch"),
                          "--bound", "5", "--solver", "builtin")
        assert rc == 2 and "E_FORMAL_UNSUPPORTED" in out

    def test_flattened_hierarchy_exit0(self):
        for fname, top in (("hier_top.arch", "HierTop"), ("gen_condport.arch", "DebugTop")):
            rc, out = run_cli("formal", corpus_path(fname), "--top", top,
                              "--bound", "5", "--solver", "builtin")
            assert rc == 0, out

    def test_two_clocks_and_no_clock_still_refused(self):
        for fname, top in (("cdc_flag.arch", "CdcTop"), ("comb_alu.arch", "Alu8")):
            rc, out = run_cli("formal", corpus_path(fname), "--top", top,
                              "--bound", "5", "--solver", "builtin")
            assert rc == 2 and "E_FORMAL_UNSUPPORTED" in out and "clock ports" in out

    def test_not_reached_exit1(self):
        rc, out = run_cli("formal", corpus_path("counter_cover8.arch"),
                          "--bound", "5", "--solver", "builtin")
        assert rc == 1 and "NOT-REACHED" in out

    def test_refuted_tables_match_golden_digest(self):
        from test_formal_golden import _formal_cores
        lines = []
        for fname, name, _core in _formal_cores():
            for bound in ("5", "12", "20"):
                _, out = run_cli("formal", corpus_path(fname), "--top", name,
                                 "--bound", bound, "--solver", "builtin")
                lines.append(f"{fname} {name} {bound}")
                lines += _tables(out, "counterexample for ")
        text = "\n".join(lines) + "\n"
        assert text.count("counterexample for ") == 4
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REFUTED_TABLES_SHA256
