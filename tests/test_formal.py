"""Formal backend: encoding scope, solver driver, verdicts, monotonicity,
and sim/formal agreement."""

import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from conftest import ROOT, build_files, build_text, corpus_path

from archc import cli
from archc.formal import (
    FormalUnsupported, SolverError, available_solvers, encode_bmc,
    formal_scope_check, run_solver, trace_to_stimulus, verify,
)
from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus


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
        prop = [p for p in core.properties if p.name == "range_ok"][0]
        script = encode_bmc(core, prop, 5)
        assert script.text.startswith("(set-logic QF_BV)")
        assert script.text.count("(check-sat)") == 1
        assert "(declare-const en__0 (_ BitVec 1))" in script.text  # inputs are free
        assert "(define-fun count_r__0 () (_ BitVec 8) #b00000000)" in script.text
        assert "(define-fun rst__3 () (_ BitVec 1) #b0)" in script.text  # reset held inactive
        assert "(assert (= " not in script.text  # every definition is a define-fun

    def test_emitted_script_reruns_standalone(self, tmp_path):
        _, core = core_of("counter_wrap200.arch", "EvtCounter")
        out = tmp_path / "out.smt2"
        verify(core, 5, "builtin", emit_smt=str(out))
        # one file per property, name inserted before the extension
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["out._auto_count_range.smt2", "out.range_ok.smt2"]
        from archc.smt.solve import Session
        text = (tmp_path / "out.range_ok.smt2").read_text()
        assert Session().run(text).splitlines()[0] == "unsat"


class TestSolverDriver:
    def test_builtin_is_always_available(self):
        assert "builtin" in available_solvers()

    def test_missing_solver_error(self):
        with pytest.raises(SolverError) as e:
            run_solver("(check-sat)\n", "z3-but-not-really", None)
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
        _, core = core_of("counter_wrap15.arch", "Nibble")
        verify(core, 20, "builtin", emit_smt=str(tmp_path / "out.smt2"))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        answers = {}
        for prop in ("never_full", "_auto_count_range"):
            proc = subprocess.run(
                [sys.executable, "-m", "archc.smt.solve", str(tmp_path / f"out.{prop}.smt2")],
                capture_output=True, text=True, env=env, timeout=120)
            answers[prop] = proc.stdout.split()
        assert answers == {"never_full": ["sat"], "_auto_count_range": ["unsat"]}

    def test_external_solver_search_reads_the_last_model(self, tmp_path, monkeypatch):
        """An external solver (here archc-smt behind a `z3` name) gets one
        script per query: the whole bound, then the search over bounds. The
        model of the last sat answer is the trace; no bound is solved twice."""
        log = tmp_path / "queries.log"
        fake = tmp_path / "z3"
        fake.write_text(f"#!/bin/sh\necho \"$2\" >> {log}\n"
                        f"exec {sys.executable} -m archc.smt.solve \"$2\"\n")
        fake.chmod(0o755)
        monkeypatch.setenv("ARCHC_SOLVER_PATH", str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "z3")
        assert [(r.name, r.status, r.cycle) for r in v.results] == [
            ("_auto_count_range", "PROVED", None), ("never_full", "REFUTED", 15)]
        assert v.results[1].trace[-1]["count_r"] == 15  # replayed, so it matches the sim
        # bound 20 for each property, then 10, 15, 13 and 14 for never_full
        assert len(log.read_text().splitlines()) == 6

    def test_archc_solver_path_env(self, tmp_path, monkeypatch):
        fake = tmp_path / "z3"
        fake.write_text("#!/bin/sh\necho unsat\n")
        fake.chmod(0o755)
        monkeypatch.setenv("ARCHC_SOLVER_PATH", str(tmp_path))
        res = run_solver("(check-sat)\n", "z3", 30)
        assert res.status == "unsat"


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
        _, core = core_of("counter_cover8.arch", "CoverEight")
        v = verify(core, 20, "builtin")
        by = {r.name: (r.status, r.cycle) for r in v.results}
        assert by == {"_auto_count_range": ("PROVED", None), "reach_eight": ("HIT", 8)}
        assert len(set(asked)) == 1  # one session for every property
        assert len(asked) == 21 + 9  # frames 0..20, and 0..8 until the hit

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

        def broken(self, goal):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(Session, "check_assuming", broken)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        with pytest.raises(SolverError) as e:
            verify(core, 20, "builtin")
        assert e.value.code == "E_SOLVER_PARSE"
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
        assert len(list(tmp_path.iterdir())) == 2
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
