"""Formal backend: encoding scope, solver driver, verdicts, monotonicity,
and sim/formal agreement."""

import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from conftest import ROOT, build_files, build_text, corpus_path

from archc import cli
from archc.ast_nodes import expr_reads
from archc.flatten import flatten
from archc.formal import (
    FormalUnsupported, SolverError, available_solvers, encode_bmc,
    formal_scope_check, run_solver, trace_to_stimulus, verify,
)
from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
from archc.types import Bool, UInt


FACTOR_ARCH = """\
module Factor
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<16>;
  port b: in UInt<16>;
  port p: out UInt<32>;
  comb p = a.zext<32>() *% b.zext<32>();
  assert no_factor: (p != 4000000007) || (a == 1) || (b == 1);
end module Factor
"""


SDIV_ARCH = """\
module SDiv
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in SInt<4>;
  port q: out SInt<4>;
  reg cnt: UInt<4> reset rst => 0;
  seq on clk rising
    cnt <= cnt +% 1;
  end seq
  comb q = a / 3;
  cover c0: cnt == 0;
end module SDiv
"""


LOW_RESET_ARCH = """\
module LowRst
  port clk: in Clock<SysDomain>;
  port rst_n: in Reset<Sync, Low>;
  port en: in Bool;
  port count: out UInt<4>;
  reg cnt: UInt<4> reset rst_n => 0;
  seq on clk rising
    if en then
      cnt <= cnt +% 1;
    end if
  end seq
  comb count = cnt;
  assert small: cnt != 5;
  cover three: cnt == 3;
end module LowRst
"""


# `b` is a free divisor that no property but the generated `_auto_div0_q`
# needs; the simulator aborts on a zero divisor, SMT-LIB does not
DIV_ARCH = """\
module Div
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<4>;
  port b: in UInt<4>;
  port q: out UInt<4>;
  reg cnt: UInt<4> reset rst => 0;
  seq on clk rising
    cnt <= cnt +% 1;
  end seq
  comb q = a / b;
  cover c: cnt == 3;
  assert small: cnt != 5;
end module Div
"""

DIV_RESULTS = [("c", "HIT", 3), ("small", "REFUTED", 5), ("_auto_div0_q", "REFUTED", 0)]


# `wide` can only hit with a bit index the simulator aborts on; `guarded`
# needs an index the simulator never uses, and a nonzero free divisor
BIT_INDEX_ARCH = """\
module Bits
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port x: in UInt<4>;
  port i: in UInt<3>;
  port b: in UInt<4>;
  port bit: out Bool;
  port q: out UInt<4>;
  reg cnt: UInt<4> reset rst => 0;
  seq on clk rising
    cnt <= cnt +% 1;
  end seq
  comb bit = (i != 7) ? x[i] : false;
  comb q = x / b;
  cover wide: i == 5 && cnt == 2;
  cover guarded: i == 7 && cnt == 2;
end module Bits
"""


def _subterms(terms):
    seen, stack = set(), list(terms)  # terms hash by identity
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(t.args)
    return seen


def core_of(fname, top):
    design, _ = build_files([corpus_path(fname)])
    return design, design.cores[top]


class TestScope:
    def test_instances_rejected(self):
        design, core = core_of("hier_top.arch", "HierTop")
        with pytest.raises(FormalUnsupported) as e:
            formal_scope_check(core)
        assert "sub" in str(e.value)

    def test_vec_rejected(self):
        _, core = core_of("seq_shiftreg.arch", "ShiftReg4")
        with pytest.raises(FormalUnsupported):
            formal_scope_check(core)

    def test_multi_clock_rejected(self):
        _, core = core_of("fifo_async16.arch", "AsyncBuf")
        with pytest.raises(FormalUnsupported):
            formal_scope_check(core)

    def test_todo_rejected(self):
        _, core = core_of("todo_stub.arch", "CacheStub")
        with pytest.raises(FormalUnsupported):
            formal_scope_check(core)

    def test_flat_counter_in_scope(self):
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        formal_scope_check(core)


class TestEncoding:
    def test_script_is_self_contained(self):
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        stream = encode_bmc(core, 5)
        assert stream.startswith("(set-option :produce-models true)\n(set-logic QF_BV)\n")
        # one question per (cycle, property)
        assert stream.count("(check-sat-assuming (__goal__") == 6 * len(core.properties) == 12
        assert "(check-sat)" not in stream and "__prop__" not in stream
        assert "(declare-const en__0 (_ BitVec 1))" in stream  # inputs are free
        assert "(define-fun count_r__0 () (_ BitVec 8) #b00000000)" in stream
        assert "(define-fun rst__3 () (_ BitVec 1) #b0)" in stream  # reset held inactive
        assert "(assert " not in stream  # every definition is a define-fun
        assert stream.count("(declare-const en__3 ") == 1  # each constant printed once

    def test_emitted_script_reruns_standalone(self, tmp_path):
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        out = tmp_path / "out.smt2"
        v = verify(core, 5, "builtin", emit_smt=str(out))
        assert [r.status for r in v.results] == ["PROVED", "PROVED"]
        assert [p.name for p in tmp_path.iterdir()] == ["out.smt2"]  # one file per call
        from archc.smt.solve import Session
        assert Session().run(out.read_text()).splitlines() == ["unsat"] * 12


class TestSolverDriver:
    def test_builtin_is_always_available(self):
        assert "builtin" in available_solvers()

    def test_missing_solver_error(self):
        with pytest.raises(SolverError) as e:
            run_solver("z3-but-not-really")
        assert e.value.code == "E_SOLVER_MISSING"

    def test_builtin_starts_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("the builtin solver started a process")
        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin")
        r = [r for r in v.results if r.name == "never_full"][0]
        assert (r.status, r.cycle) == ("REFUTED", 15)

    def test_builtin_timeout_is_inconclusive(self, tmp_path):
        # the interval pass cannot rule out a 16x16-bit factoring of a
        # 32-bit prime, so the CDCL loop runs until the deadline; the child
        # process bounds the test if the deadline is ever ignored
        path = tmp_path / "factor.arch"
        path.write_text(FACTOR_ARCH)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "archc.cli", "formal", str(path), "--bound", "1",
             "--solver", "builtin", "--timeout", "0.5"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert time.monotonic() - t0 < 10
        assert proc.returncode == 2
        assert "no_factor: INCONCLUSIVE (timeout)" in proc.stdout

    def test_builtin_needs_no_pythonpath(self, tmp_path):
        src = os.path.join(ROOT, "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from archc import cli; "
                "raise SystemExit(cli.main(sys.argv[2:]))")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code, src, "formal",
             corpus_path("counter_wrap15.arch"), "--bound", "20", "--solver", "builtin"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "never_full: REFUTED at cycle 15" in proc.stdout

    def test_archc_smt_runs_emitted_scripts(self, tmp_path):
        """archc-smt answers the stream one line per (cycle, property),
        cycle-major; each property's first sat is at its reported cycle."""
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin", emit_smt=str(tmp_path / "out.smt2"))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "archc.smt.solve", str(tmp_path / "out.smt2")],
            capture_output=True, text=True, env=env, timeout=120)
        answers = proc.stdout.split()
        assert len(answers) == 21 * 2
        columns = {r.name: answers[i::2] for i, r in enumerate(v.results)}
        assert columns["_auto_count_range"] == ["unsat"] * 21
        assert columns["never_full"] == ["unsat"] * 15 + ["sat"] * 6
        assert v.results[1].cycle == 15

    def test_external_solver_answers_over_one_pipe(self, tmp_path, monkeypatch):
        """An external solver (here archc-smt behind a `z3` name) is one
        process per `verify` call, asked over its stdin only what the
        interval pass leaves open; the trace comes from its sat answer.
        `--emit-smt` writes the same stream as with the builtin solver."""
        log = fake_solver(tmp_path, monkeypatch, ARCHC_SMT)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "z3", emit_smt=str(tmp_path / "z3.smt2"))
        assert [(r.name, r.status, r.cycle) for r in v.results] == [
            ("_auto_count_range", "PROVED", None), ("never_full", "REFUTED", 15)]
        assert v.results[1].trace[-1]["count_r"] == 15  # replayed, so it matches the sim
        assert_exited(log, 1)  # the parent started 6: the bound 20 twice, then 4 probes
        verify(core, 20, "builtin", emit_smt=str(tmp_path / "builtin.smt2"))
        assert (tmp_path / "z3.smt2").read_text() == (tmp_path / "builtin.smt2").read_text()

    def test_archc_solver_path_env(self, tmp_path, monkeypatch):
        from archc.smt.solve import ExternalSession
        fake_solver(tmp_path, monkeypatch, "echo unsat\n")
        pipe = run_solver("z3")
        assert pipe.command == [str(tmp_path / "z3"), "-in"]
        session = ExternalSession(pipe)
        tb = session.builder
        a = tb.declare("a", 4)
        try:  # a goal the interval pass leaves open
            assert session.check_assuming(tb.app("=", [a, tb.const(3, 4)])) == "unsat"
        finally:
            pipe.close()

    def test_unanswered_question_times_out(self, tmp_path, monkeypatch):
        log = fake_solver(tmp_path, monkeypatch, "exec sleep 60\n")
        _, core = core_of("counter_wrap15.arch", "Nibble")
        t0 = time.monotonic()
        v = verify(core, 20, "z3", timeout=0.5)
        assert time.monotonic() - t0 < 5
        assert [r.line(20) for r in v.results] == [
            "assert _auto_count_range: PROVED (bound 20)",
            "assert never_full: INCONCLUSIVE (timeout)"]
        assert v.exit_code == 2
        assert_exited(log, 1)

    @pytest.mark.parametrize("body", ["echo kaboom\nexec sleep 60\n", "echo sat\n"],
                             ids=["garbage", "exits-after-one-line"])
    def test_bad_answer_is_a_parse_error(self, tmp_path, monkeypatch, body):
        log = fake_solver(tmp_path, monkeypatch, body)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["formal", corpus_path("counter_wrap15.arch"), "--solver", "z3"])
        assert rc == 2
        assert buf.getvalue().startswith("error[E_SOLVER_PARSE]: solver `z3` ")
        assert "Traceback" not in buf.getvalue()
        assert_exited(log, 1)

    def test_timeout_starts_a_new_process(self, tmp_path, monkeypatch):
        """The factoring question outlives its deadline, which kills the
        solver; the next property's question starts another."""
        log = fake_solver(tmp_path, monkeypatch, ARCHC_SMT)
        text = FACTOR_ARCH.replace("end module", "  cover a_is_3: a == 3;\nend module")
        v = verify(build_text(text)[0].cores["Factor"], 1, "z3", timeout=0.5)
        assert [r.line(1) for r in v.results] == [
            "assert no_factor: INCONCLUSIVE (timeout)", "cover a_is_3: HIT at cycle 0"]
        assert_exited(log, 2)


# a fake solver's body: archc-smt reading the stream on stdin
ARCHC_SMT = f"exec {sys.executable} -m archc.smt.solve -\n"


def fake_solver(tmp_path, monkeypatch, body, name="z3"):
    """An executable `name` on ARCHC_SOLVER_PATH running the shell `body`;
    each process it starts appends its pid to the returned log."""
    log = tmp_path / "pids.log"
    fake = tmp_path / name
    fake.write_text(f"#!/bin/sh\necho $$ >> {log}\n{body}")
    fake.chmod(0o755)
    monkeypatch.setenv("ARCHC_SOLVER_PATH", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    return log


def assert_exited(log, processes):
    """`processes` solvers were started, and none is left running."""
    pids = [int(line) for line in log.read_text().split()]
    assert len(pids) == processes
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestIncrementalBuiltin:
    def test_builtin_makes_no_script(self, monkeypatch):
        """The builtin path unrolls once, in-process: no per-bound script
        and no script solve."""
        verify_mod = sys.modules["archc.formal.verify"]  # the package's `verify` shadows it

        def no_script(*args, **kwargs):
            raise AssertionError("the builtin path built or solved a script")
        monkeypatch.setattr(verify_mod, "encode_bmc", no_script)
        monkeypatch.setattr(verify_mod, "run_solver", no_script)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin")
        assert [(r.name, r.status, r.cycle) for r in v.results] == [
            ("_auto_count_range", "PROVED", None), ("never_full", "REFUTED", 15)]

    def test_one_question_per_open_property_and_frame(self, monkeypatch):
        from archc.smt.solve import Session
        asked = []
        original = Session.check_assuming

        def counted(self, goal):
            asked.append(id(self))
            return original(self, goal)
        monkeypatch.setattr(Session, "check_assuming", counted)
        for fname, top, bound, questions in [
            # `_auto_count_range` is settled by the interval invariant;
            # reach_eight is asked at frames 0..8, until its hit
            ("counter_cover8.arch", "CoverEight", 20, 9),
            # `_auto_legal_state` is settled; the six covers are asked at
            # frame 0, the four left at frame 1 and the two left at frame 2
            ("fsm_controller.arch", "Controller", 10, 6 + 4 + 2),
        ]:
            asked.clear()
            _, core = core_of(fname, top)
            v = verify(core, bound, "builtin")
            assert all(r.status in ("PROVED", "HIT") for r in v.results)
            assert len(set(asked)) == 1  # one session for every property
            assert len(asked) == questions

    def test_signed_division_decided_by_intervals(self, tmp_path):
        # the interval pass answers sat alone, and the trace is then
        # evaluated through the signed division
        path = tmp_path / "sdiv.arch"
        path.write_text(SDIV_ARCH)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["formal", str(path), "--solver", "builtin"])
        assert rc == 0, buf.getvalue()
        assert "cover c0: HIT at cycle 0" in buf.getvalue()

    def test_active_low_reset_replays(self):
        # the replay holds an active-low reset inactive, as the unrolling does
        design, _ = build_text(LOW_RESET_ARCH)
        v = verify(design.cores["LowRst"], 20, "builtin")
        assert [(r.name, r.status, r.cycle) for r in v.results] == [
            ("small", "REFUTED", 5), ("three", "HIT", 3)]

    def test_signed_register_replays(self):
        """A trace holds a signed register's value, not its bit pattern,
        so the replay's `expect` lines match the simulator."""
        design, _ = build_text("""\
module SReg
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port y: out SInt<4>;
  reg r: SInt<4> reset rst => -1;
  seq on clk rising
    r <= r -% 1;
  end seq
  comb y = r;
  cover low: r == (-3);
end module SReg
""")
        [r] = verify(design.cores["SReg"], 5, "builtin").results
        assert r.line(5) == "cover low: HIT at cycle 2"
        assert [row["r"] for row in r.trace] == [-1, -2, -3]

    def test_free_divisor_replays(self):
        """A property that does not need the divisor still gets a trace on
        which the simulator does not divide by zero, and the generated
        division property's failure is the simulator's abort."""
        design, _ = build_text(DIV_ARCH)
        v = verify(design.cores["Div"], 20, "builtin")
        assert [(r.name, r.status, r.cycle) for r in v.results] == DIV_RESULTS
        assert all(row["b"] != 0 for row in v.results[0].trace + v.results[1].trace)
        assert v.results[2].trace == [{"a": 0, "b": 0, "cnt": 0}]

    def test_replay_abort_is_named(self):
        """A trace that aborts in the simulator becomes INCONCLUSIVE, and
        the detail names the abort and its cycle. (`verify` asks for
        traces that pass the runtime checks, so this trace is made by
        hand: bit 5 of the 4-bit `x` at cycle 2.)"""
        from archc.formal.verify import PropResult, _replay_all
        design, _ = build_text(BIT_INDEX_ARCH)
        trace = [{"x": 9, "i": 7, "b": 1, "cnt": 0}, {"x": 9, "i": 7, "b": 1, "cnt": 1},
                 {"x": 9, "i": 5, "b": 1, "cnt": 2}]
        r = PropResult("wide", "cover", "HIT", 2, trace)
        _replay_all(design.cores["Bits"], [r])
        assert (r.status, r.cycle) == ("INCONCLUSIVE", 2)
        assert r.detail.startswith(
            "replay mismatch: the simulator aborts at cycle 2 "
            "(OUT_OF_BOUNDS: bit 5 out of bounds for width 4 at ")

    def test_exception_is_a_solver_error(self, monkeypatch):
        from archc.smt.solve import Session

        def broken(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(Session, "check_assuming", broken)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        with pytest.raises(SolverError) as e:
            verify(core, 20, "builtin")
        assert e.value.code == "E_SOLVER_PARSE"
        assert str(e.value) == ("solver `builtin` produced no verdict "
                                "(RecursionError: maximum recursion depth exceeded)")
        # the same from the interval invariant, before any question
        from archc.smt import intervals
        monkeypatch.undo()
        monkeypatch.setattr(intervals, "invariant", broken)
        with pytest.raises(SolverError) as e:
            verify(core, 20, "builtin")
        assert str(e.value) == ("solver `builtin` produced no verdict "
                                "(RecursionError: maximum recursion depth exceeded)")

    def test_negative_bound_is_refused(self):
        _, core = core_of("counter_wrap15.arch", "Nibble")
        with pytest.raises(FormalUnsupported):
            verify(core, -1, "builtin")

    def test_scope_error_comes_before_negative_bound(self):
        _, core = core_of("hier_top.arch", "HierTop")
        with pytest.raises(FormalUnsupported) as e:
            verify(core, -1, "builtin")
        assert "sub-modules" in str(e.value)

    def test_one_scope_check_per_verify(self, tmp_path, monkeypatch):
        """The scope check runs once per call, not again per unrolling or
        per emitted script."""
        verify_mod = sys.modules["archc.formal.verify"]
        calls = []
        original = verify_mod.formal_scope_check

        def counted(core):
            calls.append(core.name)
            original(core)
        monkeypatch.setattr(verify_mod, "formal_scope_check", counted)
        monkeypatch.setattr(sys.modules["archc.formal.encode"], "formal_scope_check", counted)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin", emit_smt=str(tmp_path / "out.smt2"))
        assert [r.status for r in v.results] == ["PROVED", "REFUTED"]
        assert len(list(tmp_path.iterdir())) == 1
        assert calls == ["Nibble"]

    def test_proved_run_loads_no_simulator(self):
        """The simulator is loaded only to replay a trace."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from archc import cli; "
                "rc = cli.main(sys.argv[2:]); "
                "print(rc, sorted(m for m in sys.modules if m.startswith('archc.sim')))")
        proc = subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), "formal",
             corpus_path("counter_sat10.arch"), "--bound", "20", "--solver", "builtin"],
            capture_output=True, text=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout + proc.stderr

    def test_frames_replay_the_translation(self, monkeypatch):
        """The expressions and the runtime checks are translated when the
        unrolling is made; a frame only calls the builders, and each
        literal is one term."""
        from archc.formal import encode
        from archc.formal.encode import Unrolling
        from archc.smt.terms import TermBuilder, term_text
        design, _ = build_text(DIV_ARCH)
        core = design.cores["Div"]
        unroll = Unrolling(core, TermBuilder())

        def walked(*args):
            raise AssertionError(f"a frame walked {args[-1]!r}")
        for name in ("_word", "_bool", "_checks"):
            monkeypatch.setattr(Unrolling, name, walked)
        monkeypatch.setattr(encode, "runtime_checks", walked)
        frames = [unroll.extend() for _ in range(3)]
        # one Bool constant per frame: no check fired up to its sample
        assert [(ok.name, term_text(ok.definition)) for ok in unroll.oks] == [
            ("__ok__0", "(not (= b__0 #b0000))"),
            ("__ok__1", "(and __ok__0 (not (= b__1 #b0000)))"),
            ("__ok__2", "(and __ok__1 (not (= b__2 #b0000)))")]
        c, small, div0 = core.properties
        assert unroll.assumption(c, 2) is unroll.assumption(small, 2) is unroll.oks[2]
        # the generated assert on `a / b` is asked before its own net
        assert unroll.assumption(div0, 2) is unroll.oks[1]
        assert unroll.assumption(div0, 0) is None
        goals = [unroll.goal(p, 2) for p in core.properties]
        built = goals + unroll.oks + [f["cnt"].definition for f in frames[1:]]
        consts = {t for t in _subterms(built) if t.op == "const"}
        assert consts and len({(t.value, t.width) for t in consts}) == len(consts)

    def test_replay_mismatch_is_inconclusive(self, monkeypatch):
        """A trace the simulator does not reproduce is never reported."""
        from archc.smt.solve import Session
        original = Session.model_value

        def corrupted(self, t):
            value = original(self, t)
            return 1 - value if t.name == "en__3" else value
        monkeypatch.setattr(Session, "model_value", corrupted)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin")
        r = {r.name: r for r in v.results}["never_full"]
        assert r.status == "INCONCLUSIVE"
        assert r.detail == "replay mismatch: a register differs from the trace"
        assert v.exit_code == 2
        assert r.line(20) == ("assert never_full: INCONCLUSIVE "
                              "(replay mismatch: a register differs from the trace)")

    def test_replay_mismatch_at_another_cycle(self, monkeypatch):
        # a trace without register values can only disagree on the cycle
        verify_mod = sys.modules["archc.formal.verify"]
        original = verify_mod._model_trace

        def inputs_only(unroll, session, upto):
            rows = original(unroll, session, upto)
            return [{"en": 1 if k < 14 else 0} for k, _ in enumerate(rows)]
        monkeypatch.setattr(verify_mod, "_model_trace", inputs_only)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        r = {r.name: r for r in verify(core, 20, "builtin").results}["never_full"]
        assert (r.status, r.detail) == (
            "INCONCLUSIVE", "replay mismatch: the simulator fails at cycle None, not 15")


class TestVerdicts:
    def test_trio_proved(self):
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        v = verify(core, 300, "builtin")
        assert all(r.status == "PROVED" for r in v.results)
        assert v.exit_code == 0
        assert "PROVED (bound 300)" in v.results[0].line(300)

    def test_trio_refuted_at_cycle_15(self):
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin")
        ref = {r.name: r for r in v.results}["never_full"]
        assert ref.status == "REFUTED" and ref.cycle == 15
        assert v.exit_code == 1
        # trace drives en for the first 15 cycles and shows count reaching 15
        assert ref.trace[-1]["count_r"] == 15
        assert all(row["en"] == 1 for row in ref.trace[:15])

    def test_trio_cover_hit_and_not_reached(self):
        _, core = core_of("counter_cover8.arch", "CoverEight")
        hit = {r.name: r for r in verify(core, 10, "builtin").results}["reach_eight"]
        assert hit.status == "HIT" and hit.cycle == 8
        low = {r.name: r for r in verify(core, 5, "builtin").results}["reach_eight"]
        assert low.status == "NOT_REACHED"
        v = verify(core, 5, "builtin")
        assert v.exit_code == 1  # NOT_REACHED fails the run

    def test_monotonicity(self):
        _, core = core_of("counter_sat10.arch", "SatTen")
        for bound in (1, 5, 10, 20):
            v = verify(core, bound, "builtin")
            assert all(r.status == "PROVED" for r in v.results), bound
        _, cover_core = core_of("counter_cover8.arch", "CoverEight")
        for bound in (8, 12, 20):
            r = {x.name: x for x in verify(cover_core, bound, "builtin").results}
            assert r["reach_eight"].status == "HIT"
            assert r["reach_eight"].cycle == 8

    def test_guard_contract_pair(self):
        _, good = core_of("guard_ok.arch", "GoodProducer")
        assert verify(good, 12, "builtin").exit_code == 0
        _, bad = core_of("guard_bug.arch", "BadProducer")
        v = verify(bad, 12, "builtin")
        ref = {r.name: r for r in v.results}["guard_contract"]
        assert ref.status == "REFUTED"

    def test_enum_typed_register_in_scope(self):
        """An enum is its variant index, as in the simulator."""
        text = open(corpus_path("enum_match.arch")).read().replace(
            "end module EnumDemo", "  cover fast: mode == Mode::Fast;\n"
            "  assert never_fast: rate != 15;\nend module EnumDemo")
        design, _ = build_text(text)
        v = verify(design.cores["EnumDemo"], 5, "builtin")  # each sat answer replayed
        assert [r.line(5) for r in v.results] == [
            "cover fast: HIT at cycle 2", "assert never_fast: REFUTED at cycle 2"]


# two wrapping 4-bit counters; `b` counts every other cycle that `a` does
PAIR_ARCH = open(corpus_path("counter_wrap15.arch")).read() + """\
module Pair
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port total: out UInt<4>;
  inst a: Nibble
    clk <- clk;
    rst <- rst;
    en <- en;
  end inst a
  inst b: Nibble
    clk <- clk;
    rst <- rst;
    en <- en && a.count[0];
  end inst b
  comb total = a.count +% b.count;
  assert same: a.count >= b.count;
end module Pair
"""


# two instances of one divider, both dividing by `y`
DIV_PAIR_ARCH = """\
module Div
  port clk: in Clock<SysDomain>;
  port a: in UInt<8>;
  port b: in UInt<8>;
  port q: out UInt<8>;
  comb q = a / b;
end module Div

module Two
  port clk: in Clock<SysDomain>;
  port x: in UInt<8>;
  port y: in UInt<8>;
  port o: out UInt<8>;
  inst d1: Div
    clk <- clk;
    a <- x;
    b <- y;
  end inst d1
  inst d2: Div
    clk <- clk;
    a <- y;
    b <- y;
  end inst d2
  comb o = d1.q +% d2.q;
end module Two
"""


class TestHierarchy:
    """A hierarchy comes to formal flattened: the properties of an
    instance under its dotted path, its ports nets of the flat core."""

    def test_flat_top_is_its_own_core(self):
        design, core = core_of("counter_wrap15.arch", "Nibble")
        assert flatten(design.cores, "Nibble") is core

    def test_ports_become_nets(self):
        design, _ = build_text(PAIR_ARCH)
        core = flatten(design.cores, "Pair")
        assert not core.instances and list(core.regs) == ["a.count_r", "b.count_r"]
        assert sorted(expr_reads(core.nets["b.en"].expr)) == ["a.count", "en"]
        assert core.nets["a.count"].kind == "inst-out"
        assert expr_reads(core.nets["a.count"].expr) == {"a.count_r"}
        assert core.nets["a.clk"].expr is None  # driven by the clock schedule
        assert [p.name for p in core.properties] == [
            "same", "a._auto_count_range", "a.never_full", "b._auto_count_range",
            "b.never_full"]

    def test_two_counters(self):
        design, _ = build_text(PAIR_ARCH)
        core = flatten(design.cores, "Pair")
        got = {r.name: (r.status, r.cycle) for r in verify(core, 20, "builtin").results}
        assert got == {"same": ("REFUTED", 16), "a.never_full": ("REFUTED", 15),
                       "b.never_full": ("PROVED", None),
                       "a._auto_count_range": ("PROVED", None),
                       "b._auto_count_range": ("PROVED", None)}
        v = verify(core, 40, "builtin")
        found = [r for r in v.results if r.status == "REFUTED"]
        assert [(r.name, r.cycle) for r in found] == [
            ("same", 16), ("a.never_full", 15), ("b.never_full", 30)]
        # each trace also replays on the simulator's image of the hierarchy
        image = build_sim(design.cores, "Pair", SimFlags())
        for r in found:
            report = run_stimulus(image, parse_stimulus(trace_to_stimulus(core, r)))
            fails = [e.cycle for e in report.events
                     if e.kind == "ASSERT_FAIL" and e.name == r.name]
            assert report.expect_failures == 0 and fails[:1] == [r.cycle], r.name

    def test_each_instance_reports_its_own_site(self):
        """Both instances' `_auto_div0_q` have the same site span; each is
        cut at its own instance's net, so, as of two divisions by one
        divisor in a flat module, only the one evaluated first fails."""
        design, _ = build_text(DIV_PAIR_ARCH)
        v = verify(flatten(design.cores, "Two"), 3, "builtin")
        assert [r.line(3) for r in v.results] == [
            "assert d1._auto_div0_q: REFUTED at cycle 0",
            "assert d2._auto_div0_q: PROVED (bound 3)"]

    def test_archc_smt_answers_the_flat_stream(self, tmp_path):
        """Each property's first sat in archc-smt's answers to the
        `--emit-smt` stream is at its reported cycle."""
        design, _ = build_text(PAIR_ARCH)
        path = tmp_path / "pair.smt2"
        v = verify(flatten(design.cores, "Pair"), 20, "builtin", emit_smt=str(path))
        assert "(define-fun a.count_r__3 " in path.read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "archc.smt.solve", str(path)], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), timeout=120)
        answers, n = proc.stdout.split(), len(v.results)
        assert len(answers) == 21 * n
        for i, r in enumerate(v.results):
            column = answers[i::n]
            assert (column.index("sat") if "sat" in column else None) == r.cycle, r.name


class TestSimFormalAgreement:
    @pytest.mark.parametrize("fname,top,prop", [
        ("counter_wrap15.arch", "Nibble", "never_full"),
        ("guard_bug.arch", "BadProducer", "guard_contract"),
    ])
    def test_replay_reproduces_cycle_exactly(self, fname, top, prop):
        design, core = core_of(fname, top)
        v = verify(core, 20, "builtin")
        ref = {r.name: r for r in v.results}[prop]
        assert ref.status == "REFUTED"
        stim = parse_stimulus(trace_to_stimulus(core, ref))
        image = build_sim(design.cores, top, SimFlags())
        report = run_stimulus(image, stim)
        fails = [e for e in report.events
                 if e.kind == "ASSERT_FAIL" and e.name == prop]
        assert fails, report.lines()
        assert fails[0].cycle == ref.cycle  # exact, no tolerance
        assert report.expect_failures == 0  # every reg matches the model

    def test_hit_witness_replays_to_cover(self):
        design, core = core_of("counter_cover8.arch", "CoverEight")
        r = {x.name: x for x in verify(core, 12, "builtin").results}["reach_eight"]
        stim = parse_stimulus(trace_to_stimulus(core, r))
        image = build_sim(design.cores, "CoverEight", SimFlags())
        report = run_stimulus(image, stim)
        assert report.cover_table["reach_eight"] == r.cycle == 8


FREE32_ARCH = """\
module Free32
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port y: out UInt<32>;
  reg r: UInt<32> reset rst => 0;
  seq on clk rising
    r <= r +% 1;
  end seq
  comb y = r;
  assert small: y < 4000000000;
  cover seven: y == 7;
end module Free32
"""


def _feedback_text(rng, i):
    """A module whose register reads itself (counting under a condition,
    wrapping, saturating; through a comb net or not), with asserts and
    covers over the register and the output that shows it."""
    from test_sim import random_expr
    width = rng.choice([4, 6, 8])
    top = (1 << width) - 1
    m = rng.randrange(3, top)
    low = rng.randrange(m)
    init = rng.choice([0, low, rng.randrange(top + 1)])
    cond = random_expr(rng, {"a": UInt(8), "e": Bool()}, 2, Bool())
    nxt = rng.choice([
        f"{cond} ? r +% {rng.choice([1, 1, 2, 3])} : r",
        f"r == {m} ? {low} : r +% {rng.choice([1, 2, 3])}",
        f"r >= {m} ? r : r +% 1",
        f"({cond} && r < {m}) ? r +% 1 : r",
        f"r == {m} ? {low} : ({cond} ? r +% 1 : r)",
    ])
    values = [0, low, m - 1, m, m + 1, init, rng.randrange(top + 1)]
    props = []
    for j in range(3):
        kind, form = rng.choice([("assert", "{x} <= {t}"), ("assert", "{x} != {t}"),
                                 ("assert", "{x} < {t}"), ("cover", "{x} == {t}"),
                                 ("cover", "{x} > {t}")])
        x, t = rng.choice(["r", "y"]), min(rng.choice(values), top)
        props.append(f"  {kind} p{j}: {form.format(x=x, t=t)};\n")
    reset = "none" if init == 0 and rng.random() < 0.3 else f"rst => {init}"
    via_net = rng.random() < 0.5
    return (f"module F{i}\n  port clk: in Clock<T>;\n  port rst: in Reset<Sync>;\n"
            f"  port a: in UInt<8>;\n  port e: in Bool;\n  port y: out UInt<{width}>;\n"
            f"  reg r: UInt<{width}> reset {reset};\n"
            + (f"  let n: UInt<{width}> = {nxt};\n" if via_net else "")
            + f"  seq on clk rising\n    r <= {'n' if via_net else nxt};\n  end seq\n"
            + "  comb y = r;\n" + "".join(props) + f"end module F{i}\n")


class TestIntervalInvariant:
    """The interval invariant settles, before the frame loop, properties
    that can fire at no cycle; everything else is asked frame by frame."""

    @staticmethod
    def _spy(monkeypatch):
        """The names of the properties each later `verify` call settles."""
        verify_mod = sys.modules["archc.formal.verify"]
        settled = []
        original = verify_mod._settled

        def spy(unroll, engine, props):
            got = original(unroll, engine, props)
            settled.extend(f"{unroll.core.name}.{props[i].name}" for i in got)
            return got
        monkeypatch.setattr(verify_mod, "_settled", spy)
        return settled

    def test_settled_set_on_corpus(self, monkeypatch):
        """The ten true corpus asserts that a register interval decides;
        `guard_contract` relates two registers, so it stays with BMC."""
        from test_formal_golden import _formal_cores
        settled = self._spy(monkeypatch)
        for _, _, core in _formal_cores():
            verify(core, 20, "builtin")
        assert sorted(settled) == [
            "BitSel._auto_bound_picked", "Controller._auto_legal_state",
            "CoverEight._auto_count_range", "EvtCounter._auto_count_range",
            "EvtCounter.range_ok", "Nibble._auto_count_range",
            "ReqAck._auto_legal_state", "SafeDiv._auto_div0_q_r",
            "SatTen._auto_count_range", "SatTen.stays_in_range"]

    def test_property_failing_after_the_bound_stays_with_bmc(self, monkeypatch):
        """A threshold below the register's real range is widened past, not
        kept: `count` passes 30 on cycle 31, after `le30` had widened to 30."""
        with open(corpus_path("counter_wrap200.arch"), encoding="utf-8") as f:
            text = f.read().replace("end counter", "  assert lt30: count < 30;\n"
                                    "  assert le30: count <= 30;\nend counter")
        design, _ = build_text(text)
        core = design.cores["EvtCounter"]
        settled = self._spy(monkeypatch)
        lines = {bound: [r.line(bound) for r in verify(core, bound, "builtin").results]
                 for bound in (20, 40)}
        assert lines[20][2:] == ["assert lt30: PROVED (bound 20)", "assert le30: PROVED (bound 20)"]
        assert lines[40][2:] == ["assert lt30: REFUTED at cycle 30",
                                 "assert le30: REFUTED at cycle 31"]
        assert sorted(set(settled)) == ["EvtCounter._auto_count_range", "EvtCounter.range_ok"]

    def test_free_running_counter_settles_nothing(self):
        """A 32-bit counter that wraps widens to its full range within a
        few rounds, so no property over it is settled."""
        from archc.formal.encode import Unrolling
        from archc.smt import intervals
        from archc.smt.solve import Session
        verify_mod = sys.modules["archc.formal.verify"]
        design, _ = build_text(FREE32_ARCH)
        core = design.cores["Free32"]
        session = Session()
        unroll = Unrolling(core, session.builder)
        frame = unroll.state_frame()
        [(name, _, _, step)] = unroll.regs
        nxt = step(frame)
        rounds = []

        class Counting(intervals.IntervalEngine):
            def eval(self, t, refine=None):
                if t is nxt:
                    rounds.append(t)
                return super().eval(t, refine)
        hits = [unroll.hit(p, frame) for p in core.properties]
        inv = intervals.invariant(Counting(), [(frame[name], 0, nxt)], [frame["y"]],
                                  intervals.constants([nxt] + hits))
        assert inv[frame["r"]] == inv[frame["y"]] == (0, (1 << 32) - 1)
        # three rounds to [0, 3]; then widened to the thresholds 7 and
        # 4000000000 and to the full range, and one closing round
        assert len(rounds) == 7
        assert verify_mod._settled(unroll, session.engine, list(core.properties)) == []
        assert [r.line(10) for r in verify(core, 10, "builtin").results] == [
            "assert small: PROVED (bound 10)", "cover seven: HIT at cycle 7"]

    def test_no_round_cap_settles_nothing(self, monkeypatch):
        """Without a fixpoint within the cap the pass settles nothing."""
        from archc.smt import intervals
        monkeypatch.setattr(intervals, "MAX_ROUNDS", 2)
        settled = self._spy(monkeypatch)
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        assert [r.status for r in verify(core, 5, "builtin").results] == ["PROVED"] * 2
        assert settled == []

    def test_verdicts_match_plain_bmc(self, monkeypatch):
        """Seeded differential test: for modules whose register reads
        itself, every verdict and cycle is the same with the invariant as
        with the frame loop alone, and every settled property is PROVED or
        NOT-REACHED by the frame loop alone."""
        from archc.smt import intervals
        original = intervals.invariant
        rng = random.Random(1977)
        n_settled = 0
        for i in range(30):
            text = _feedback_text(rng, i)
            core = build_text(text)[0].cores[f"F{i}"]
            for bound in (0, 7, 20):
                settled = self._spy(monkeypatch)
                monkeypatch.setattr(intervals, "invariant", original)
                on = [(r.name, r.status, r.cycle)
                      for r in verify(core, bound, "builtin").results]
                monkeypatch.setattr(intervals, "invariant", lambda *args, **kw: None)
                off = [(r.name, r.status, r.cycle)
                       for r in verify(core, bound, "builtin").results]
                assert on == off, (bound, text)
                for name, status, _ in off:
                    if f"F{i}.{name}" in settled:
                        assert status in ("PROVED", "NOT_REACHED")
                n_settled += len(settled)
        # the modules must keep the pass busy, or the test shows little
        assert n_settled >= 40


def _counter_text(name, kind, max_value, prop):
    return f"""counter {name}
  param MAX: const = {max_value};
  kind {kind};
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port count: out UInt<{max_value.bit_length()}>;
  {prop};
end counter {name}
"""


def _generated_counters(seed):
    """The seeded counters of the `formal` benchmark: a refuted assert, a
    hit cover, an unreached cover and a true assert on wrapping and
    saturating counters whose MAX and targets the seed picks."""
    rng = random.Random(f"formal:{seed}")
    out = []
    for i, (kind, expect) in enumerate([("wrapping", "refuted"), ("saturating", "hit"),
                                        ("wrapping", "not_reached"), ("saturating", "proved")]):
        max_value = rng.randint(26, 30)
        low, high = rng.randint(17, 23), rng.randint(25, max_value)
        prop = {"refuted": f"assert never_at: count != {low}",
                "hit": f"cover reach: count == {low}",
                "not_reached": f"cover reach: count == {high}",
                "proved": f"assert bounded: count <= {max_value}"}[expect]
        name = f"Gen{i}"
        out.append(build_text(_counter_text(name, kind, max_value, prop))[0].cores[name])
    return out


class TestBacktraceInBmc:
    """The backtrace (`smt.intervals.backtrace`) answers open BMC goals
    whose inputs it can walk back to, and changes no verdict."""

    def test_verdicts_match_the_sat_step_alone(self, monkeypatch):
        """Every verdict and cycle on the formal corpus and on the seeded
        counters is the same with the backtrace as with the SAT step
        answering every open goal; the backtrace must answer many."""
        import archc.smt.solve as solve
        from test_formal_golden import _formal_cores
        original = solve.backtrace
        steps = {True: 0, False: 0}
        sat_step = solve.Session._sat_step

        def counted(self, goal):
            steps[solve.backtrace is original] += 1
            return sat_step(self, goal)
        monkeypatch.setattr(solve.Session, "_sat_step", counted)
        cases = [(core, bound) for _, _, core in _formal_cores() for bound in (5, 12, 20)]
        cases += [(core, bound) for seed in range(1, 13)
                  for core in _generated_counters(seed) for bound in (8, 20, 30)]
        for core, bound in cases:
            monkeypatch.setattr(solve, "backtrace", original)
            on = [(r.name, r.status, r.cycle) for r in verify(core, bound, "builtin").results]
            monkeypatch.setattr(solve, "backtrace", lambda engine, goal: {})
            off = [(r.name, r.status, r.cycle) for r in verify(core, bound, "builtin").results]
            assert on == off, (core.name, bound)
        assert steps[True] + 40 <= steps[False]

    def test_four_hundred_cycle_counter(self):
        """A 10-bit wrapping counter reaches 400 at cycle 400 only with
        `en` high at every cycle before: the backtrace walks the 400 frames
        without recursing and without bit-blasting (the SAT step took
        about 19 s on this question)."""
        core = build_text(_counter_text("Wide", "wrapping", 1000,
                                        "assert never_at: count != 400"))[0].cores["Wide"]
        t0 = time.monotonic()
        verdict = verify(core, 410, "builtin")
        assert time.monotonic() - t0 < 5.0
        assert [r.line(410) for r in verdict.results] == [
            "assert _auto_count_range: PROVED (bound 410)", "assert never_at: REFUTED at cycle 400"]
        assert [row["en"] for row in verdict.results[1].trace] == [1] * 400 + [0]
