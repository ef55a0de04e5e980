"""Cross-cutting robustness: foreign solver output formats, combined sim
flags, reset polarities, and CLI defaults."""

import io
from contextlib import redirect_stdout

import pytest

from conftest import CLEAN_CORPUS, build_files, build_text, corpus_path, settle_checked

from archc import cli
from archc.formal.solver import run_solver
from archc.smt.solve import ExternalSession
from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
from archc.sim.engine import Simulator


class TestForeignSolverFormats:
    """Answers in other solvers' styles, read off the pipe. The fakes print
    their answers without reading the stream."""

    @staticmethod
    def _ask(tmp_path, monkeypatch, name, body):
        from test_formal import fake_solver
        fake_solver(tmp_path, monkeypatch, body, name)
        session = ExternalSession(run_solver(name))
        tb = session.builder
        count, en = tb.declare("count__15", 4), tb.declare("en__0", 1)
        try:  # neither value is decided by the interval pass
            status = session.check_assuming(tb.app("=", [count, tb.const(15, 4)]))
            return status, session.model_value(count), session.model_value(en)
        finally:
            session.solver.close()

    def test_z3_style_hex_get_value(self, tmp_path, monkeypatch):
        body = "echo sat\nprintf '((count__15 #xf)\\n (en__0 #b1))\\n'\n"
        assert self._ask(tmp_path, monkeypatch, "z3", body) == ("sat", 15, 1)

    def test_define_fun_model_form(self, tmp_path, monkeypatch):
        body = ("echo sat\nprintf '(\\n  (define-fun count__15 () (_ BitVec 4) #b0101)"
                "\\n  (define-fun en__0 () (_ BitVec 1) #b1)\\n)\\n'\n")
        assert self._ask(tmp_path, monkeypatch, "bitwuzla", body) == ("sat", 5, 1)

    def test_garbage_output_is_parse_error(self, tmp_path, monkeypatch):
        from archc.formal.solver import SolverError
        with pytest.raises(SolverError) as e:
            self._ask(tmp_path, monkeypatch, "boolector", "echo kaboom\n")
        assert e.value.code == "E_SOLVER_PARSE"
        assert str(e.value) == "solver `boolector` produced no verdict (kaboom)"


class TestResetPolarity:
    def test_async_active_low(self):
        design, _ = build_text("""\
module LowReset
  port clk: in Clock<D>;
  port rst_n: in Reset<Async, Low>;
  port d: in UInt<8>;
  port q: out UInt<8>;
  reg r: UInt<8> reset rst_n => 42;
  seq on clk rising
    r <= d;
  end seq
  comb q = r;
end module LowReset
""")
        sim = Simulator(build_sim(design.cores, "LowReset", SimFlags()))
        sim.set_input("d", 7)
        sim.run_cycles("D", 2)
        assert sim.peek("q") == 42  # rst_n=0 (default) means "in reset"
        sim.set_input("rst_n", 1)
        sim.run_cycles("D", 1)
        assert sim.peek("q") == 7
        sim.set_input("rst_n", 0)  # async assert takes effect immediately
        assert sim.peek("q") == 42


class TestCombinedFlags:
    @pytest.mark.parametrize("fname,top,stim,_b", CLEAN_CORPUS)
    def test_corpus_clean_under_all_checks(self, fname, top, stim, _b):
        """Every clean design stays clean with every runtime check on."""
        design, _ = build_files([corpus_path(fname)])
        image = settle_checked(build_sim(design.cores, top, SimFlags(
            check_uninit=True, cdc_random=True, seed=3)))
        report = run_stimulus(image, parse_stimulus(open(corpus_path(stim)).read()))
        assert report.passed, (fname, report.lines())
        assert not [e for e in report.events if e.kind == "GUARD_VIOLATION"]


class TestCliDefaults:
    def test_cycles_without_stimulus(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["sim", corpus_path("counter_wrap200.arch"),
                           "--cycles", "5"])
        assert rc == 0 and "PASS" in buf.getvalue()

    def test_formal_auto_solver(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["formal", corpus_path("counter_sat10.arch"),
                           "--bound", "6"])
        assert rc == 0
        assert "PROVED" in buf.getvalue()
