"""Formal backend: encoding scope, solver driver, verdicts, monotonicity,
and sim/formal agreement."""

import os
import subprocess
import sys
import time

import pytest

from conftest import ROOT, build_files, build_text, corpus_path

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
        assert "(declare-const count_r__0 (_ BitVec 8))" in script.text
        assert "(assert (= count_r__0 #b00000000))" in script.text
        assert "(assert (= rst__3 #b0))" in script.text  # reset held inactive
        assert script.decode["count_r__3"] == ("count_r", 3)

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

    def test_sat_unsat_roundtrip_in_process(self):
        res = run_solver("(set-logic QF_BV)\n(declare-const a (_ BitVec 4))\n"
                         "(assert (= a #x3))\n(check-sat)\n", "builtin", 30,
                         want_values=["a"])
        assert res.status == "sat"
        assert res.model["a"] == 3
        res2 = run_solver("(set-logic QF_BV)\n(declare-const a (_ BitVec 4))\n"
                          "(assert (bvult a #x1))\n(assert (bvugt a #x2))\n"
                          "(check-sat)\n", "builtin", 30)
        assert res2.status == "unsat"

    def test_builtin_starts_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("the builtin solver started a process")
        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        _, core = core_of("counter_wrap15.arch", "Nibble")
        v = verify(core, 20, "builtin")
        r = [r for r in v.results if r.name == "never_full"][0]
        assert (r.status, r.cycle) == ("REFUTED", 15)

    def test_deep_script_is_a_solver_error(self):
        depth = 5000
        text = ("(declare-const a (_ BitVec 4))\n(assert (= a "
                + "(bvnot " * depth + "a" + ")" * depth + "))\n(check-sat)\n")
        with pytest.raises(SolverError) as e:
            run_solver(text, "builtin", 30)
        assert e.value.code == "E_SOLVER_PARSE"
        assert "RecursionError" in str(e.value)

    def test_error_answer_is_a_solver_error(self):
        # an assertion the solver cannot read must not leave a verdict
        # computed without it
        text = ("(declare-const a (_ BitVec 4))\n(assert (bvfrob a))\n"
                "(assert (= a #x3))\n(check-sat)\n")
        with pytest.raises(SolverError) as e:
            run_solver(text, "builtin", 30)
        assert e.value.code == "E_SOLVER_PARSE"
        assert "unsupported operator" in str(e.value)

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

    def test_archc_solver_path_env(self, tmp_path, monkeypatch):
        fake = tmp_path / "z3"
        fake.write_text("#!/bin/sh\necho unsat\n")
        fake.chmod(0o755)
        monkeypatch.setenv("ARCHC_SOLVER_PATH", str(tmp_path))
        res = run_solver("(check-sat)\n", "z3", 30)
        assert res.status == "unsat"


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
