"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import glob
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from conftest import (CLEAN_CORPUS, CORPUS, ROOT, build_files, build_text, corpus_path,
                      settle_checked)

from archc import cli
from archc.formal import available_solvers, trace_to_stimulus, verify
from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
from archc.sim.engine import Simulator


def _core(fname, top):
    design, _ = build_files([corpus_path(fname)])
    return design, design.cores[top]


def _ok(n, msg):
    print(f"\nACCEPTANCE {n}: PASS — {msg}")


class TestCriterion1FormalTrio:
    def test_trio_verdicts_and_runtime(self):
        t0 = time.time()
        _, c200 = _core("counter_wrap200.arch", "EvtCounter")
        v = verify(c200, 300, "builtin")
        proved = {r.name: r for r in v.results}["range_ok"]
        assert proved.status == "PROVED"

        _, c15 = _core("counter_wrap15.arch", "Nibble")
        v15 = verify(c15, 20, "builtin")
        ref = {r.name: r for r in v15.results}["never_full"]
        assert ref.status == "REFUTED"
        assert ref.trace[-1]["count_r"] == 15  # concrete counterexample reaches 15

        _, c8 = _core("counter_cover8.arch", "CoverEight")
        hit = {r.name: r for r in verify(c8, 10, "builtin").results}["reach_eight"]
        assert hit.status == "HIT" and hit.cycle == 8
        low = {r.name: r for r in verify(c8, 5, "builtin").results}["reach_eight"]
        assert low.status == "NOT_REACHED"
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"trio took {elapsed:.1f}s (budget 10s)"
        _ok(1, f"PROVED/REFUTED/HIT+NOT-REACHED reproduced in {elapsed:.1f}s < 10s")

    def test_solver_agreement(self):
        solvers = available_solvers()
        if len(solvers) < 2:
            pytest.skip(
                f"only {solvers} installed on this machine; the two-solver "
                f"agreement leg needs a second SMT solver (z3/boolector/"
                f"bitwuzla) — see the decisions ledger")
        verdicts = {}
        for solver in solvers:
            row = []
            for fname, top, bound in (
                    ("counter_wrap200.arch", "EvtCounter", 300),
                    ("counter_wrap15.arch", "Nibble", 20),
                    ("counter_cover8.arch", "CoverEight", 10)):
                _, core = _core(fname, top)
                v = verify(core, bound, solver)
                row.append(tuple((r.name, r.status, r.cycle) for r in v.results))
            verdicts[solver] = row
        assert len(set(map(tuple, verdicts.values()))) == 1, verdicts
        _ok(1, f"identical verdicts across solvers: {', '.join(solvers)}")


class TestCriterion2GuardContract:
    def test_pair_and_guard_violation_cycle(self):
        _, good = _core("guard_ok.arch", "GoodProducer")
        vg = verify(good, 12, "builtin")
        assert {r.name: r.status for r in vg.results}["guard_contract"] == "PROVED"

        design, bad = _core("guard_bug.arch", "BadProducer")
        vb = verify(bad, 12, "builtin")
        ref = {r.name: r for r in vb.results}["guard_contract"]
        assert ref.status == "REFUTED"

        stim = parse_stimulus(trace_to_stimulus(bad, ref, expects=False))
        image = build_sim(design.cores, "BadProducer", SimFlags(check_uninit=True))
        report = run_stimulus(image, stim)
        guard_events = [e for e in report.events if e.kind == "GUARD_VIOLATION"]
        assert guard_events, report.lines()
        assert guard_events[0].cycle == ref.cycle  # +-0
        _ok(2, f"correct=PROVED, broken=REFUTED at cycle {ref.cycle}, "
               f"GUARD_VIOLATION at the same cycle")


class TestCriterion3CrossValidation:
    REFUTED_FIXTURES = [
        ("counter_wrap15.arch", "Nibble", "never_full", 20),
        ("guard_bug.arch", "BadProducer", "guard_contract", 12),
    ]

    def test_every_refuted_fixture_replays_exactly(self):
        for fname, top, prop, bound in self.REFUTED_FIXTURES:
            design, core = _core(fname, top)
            v = verify(core, bound, "builtin")
            ref = {r.name: r for r in v.results}[prop]
            assert ref.status == "REFUTED"
            stim = parse_stimulus(trace_to_stimulus(core, ref))
            image = build_sim(design.cores, top, SimFlags())
            report = run_stimulus(image, stim)
            fails = [e for e in report.events
                     if e.kind == "ASSERT_FAIL" and e.name == prop]
            assert fails and fails[0].cycle == ref.cycle, (fname, report.lines())
            assert report.expect_failures == 0
        _ok(3, "every REFUTED counterexample replays to the identical cycle")


class TestCriterion4ErrorSuite:
    def test_at_least_25_goldens_byte_exact(self, monkeypatch):
        monkeypatch.chdir(ROOT)  # goldens carry repo-relative paths
        goldens = sorted(glob.glob(os.path.join(CORPUS, "bad", "*.diag")))
        assert len(goldens) >= 25
        required = {"E_WIDTH_MISMATCH", "E_CDC", "E_MULTI_DRIVER",
                    "E_IMPLICIT_LATCH", "E_COMB_LOOP", "E_END_MISMATCH",
                    "E_CONST_DIV0"}
        seen = set()
        for golden in goldens:
            arch = os.path.relpath(golden[:-5] + ".arch", ROOT)
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(["check", arch])
            assert rc == 1, arch
            got = buf.getvalue()
            want = open(golden).read()
            assert got == want, f"diagnostic drift for {os.path.basename(arch)}"
            for tok in got.split("["):
                if tok.startswith("E_"):
                    seen.add(tok.split("]")[0])
        assert required <= seen, required - seen
        # the non-widening shift case is specifically pinned
        shift = open(os.path.join(CORPUS, "bad", "02_width_shift.diag")).read()
        assert "E_WIDTH_MISMATCH" in shift and "<<" in open(
            os.path.join(CORPUS, "bad", "02_width_shift.arch")).read()
        _ok(4, f"{len(goldens)} curated bad inputs, byte-exact diagnostics, "
               f"codes {sorted(required)} all covered")


class TestCriterion5Determinism:
    def test_sv_byte_identical_across_hash_seeds(self, tmp_path):
        buildable = [corpus_path(f) for f, _, _, _ in CLEAN_CORPUS]
        digests = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"sv{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.join(ROOT, "src"))
            subprocess.run(
                [sys.executable, "-m", "archc.cli", "build", *buildable,
                 "--out-dir", str(out_dir)],
                check=True, capture_output=True, env=env, cwd=ROOT)
            digest = {}
            for p in sorted(out_dir.iterdir()):
                digest[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            digests.append(digest)
        assert digests[0] == digests[1]
        assert len(digests[0]) >= 20  # the 20-design corpus, compiled twice
        _ok(5, f"{len(digests[0])} .sv files byte-identical across hash seeds")

    def test_check_diagnostics_identical_across_hash_seeds(self):
        # one child per seed checks every bad input, as text and as JSON
        bad = sorted(os.path.relpath(p, ROOT)
                     for p in glob.glob(os.path.join(CORPUS, "bad", "*.arch")))
        script = ("import sys\nfrom archc import cli\n"
                  "for path in sys.argv[1:]:\n"
                  "    for extra in ([], ['--json']):\n"
                  "        print('==', path, *extra, flush=True)\n"
                  "        print('exit', cli.main(['check', path, *extra]))\n")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.join(ROOT, "src"))
            outs.append(subprocess.run(
                [sys.executable, "-c", script, *bad],
                check=True, capture_output=True, env=env, cwd=ROOT).stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(b"\nexit 1\n") == 2 * len(bad) >= 50
        _ok(5, f"`archc check` on {len(bad)} bad inputs: byte-identical "
               f"diagnostics across hash seeds")

    def test_sim_reports_and_vcd_reproducible(self, tmp_path):
        outs = []
        for run in range(2):
            design, _ = build_files([corpus_path("cdc_flag.arch")])
            image = build_sim(design.cores, "CdcTop",
                              SimFlags(cdc_random=True, seed=7))
            program = parse_stimulus(
                "clock SysDomain period 2\nclock UsbDomain period 3\n"
                "set flag_in 1\ntick 40\nset flag_in 0\ntick 40\n")
            vcd = tmp_path / f"r{run}.vcd"
            report = run_stimulus(image, program, trace_path=str(vcd))
            outs.append(("\n".join(report.lines()), vcd.read_bytes()))
        assert outs[0] == outs[1]
        _ok(5, "seeded --cdc-random sim: byte-identical report and VCD")


class TestCriterion6Fifo:
    def test_single_clock_oracle_10000_ops(self):
        from collections import deque
        design, _ = build_files([corpus_path("fifo_sync8.arch")])
        sim = Simulator(build_sim(design.cores, "SyncBuf", SimFlags()))
        rng = random.Random(66)
        oracle = deque()
        mismatches = 0
        for _ in range(10000):
            do_push = rng.random() < 0.55 and not sim.peek("full")
            do_pop = rng.random() < 0.5 and not sim.peek("empty")
            data = rng.randrange(1 << 16)
            sim.set_input("push_valid", 1 if do_push else 0)
            if do_push:
                sim.set_input("push_data", data)
            sim.set_input("pop_ready", 1 if do_pop else 0)
            if do_pop and sim.peek("pop_data") != oracle[0]:
                mismatches += 1
            sim.run_cycles("SysDomain", 1)
            if do_push:
                oracle.append(data)
            if do_pop:
                oracle.popleft()
            assert 0 <= len(oracle) <= 8
        assert mismatches == 0
        assert sim.report.assert_failures == 0
        _ok(6, "single-clock FIFO: 10,000 randomized ops, zero mismatches")

    def test_dual_clock_10000_words_cdc_random(self):
        design, _ = build_files([corpus_path("fifo_async16.arch")])
        image = build_sim(design.cores, "AsyncBuf", SimFlags(cdc_random=True, seed=42))
        sim = Simulator(image)
        sim.set_period("WriteDomain", 3)
        sim.set_period("ReadDomain", 5)
        rng = random.Random(7)
        n = 10000
        sent = [rng.randrange(1 << 32) for _ in range(n)]
        recv = []
        si = 0
        wr_edge = lambda t: t % 3 == 2
        rd_edge = lambda t: t % 5 == 3
        guard = 0
        while len(recv) < n and guard < 400000:
            guard += 1
            t_next = sim.time + 1
            if wr_edge(t_next):
                ok = si < n and not sim.peek("full")
                sim.set_input("push_valid", 1 if ok else 0)
                if ok:
                    sim.set_input("push_data", sent[si])
            if rd_edge(t_next):
                sim.set_input("pop_ready", 0 if sim.peek("empty") else 1)
            will_push = wr_edge(t_next) and sim.peek("push_valid") \
                and not sim.peek("full")
            will_pop = rd_edge(t_next) and sim.peek("pop_ready") \
                and not sim.peek("empty")
            if will_pop:
                recv.append(sim.peek("pop_data"))
            sim.tick(1)
            if will_push:
                si += 1
        assert recv == sent, "corruption or reordering"
        assert sim.report.assert_failures == 0
        _ok(6, "dual-clock gray FIFO under --cdc-random (periods 3/5): "
               "10,000 words, zero corruption or reordering")

    def test_auto_props_fire_within_one_cycle_on_illegal_push(self):
        design, _ = build_files([corpus_path("fifo_sync3.arch")])
        sim = Simulator(build_sim(design.cores, "TriBuf", SimFlags()))
        sim.set_input("push_valid", 1)
        sim.set_input("push_data", 9)
        sim.run_cycles("SysDomain", 3)  # exactly full, all legal
        assert sim.peek("full") == 1
        assert sim.report.assert_failures == 0
        full_cycle = sim.cycles["SysDomain"]
        sim.run_cycles("SysDomain", 1)  # deliberately push while full
        fails = [e for e in sim.report.events if e.name == "_auto_no_overflow"]
        assert len(fails) == 1 and fails[0].cycle == full_cycle
        _ok(6, "_auto_no_overflow silent on legal stimulus, fires within "
               "1 cycle of an illegal push-when-full")


class TestCriterion7PipelineGoldenTrace:
    # hand-derived before implementation: (v1, v2, v3, V1, V2, V3) after
    # each edge, driving din/stall/flush as in `inputs`
    INPUTS = [
        (10, 0, 0), (20, 0, 0), (30, 0, 0),
        (40, 1, 0), (40, 1, 0), (40, 0, 0),
        (50, 0, 1), (60, 0, 0), (70, 0, 0),
        (70, 0, 0), (70, 0, 0), (70, 0, 0),
    ]
    GOLDEN = [
        (10, 1, 1, 1, 0, 0),
        (20, 11, 2, 1, 1, 0),
        (30, 21, 12, 1, 1, 1),
        (30, 21, 22, 1, 1, 0),   # stall: S1/S2 frozen, bubble into S3
        (30, 21, 22, 1, 1, 0),
        (40, 31, 22, 1, 1, 1),   # released
        (0, 41, 32, 0, 1, 1),    # flush S1: valid_r cleared, data reset
        (60, 1, 42, 1, 0, 1),    # bubble moves to S2
        (70, 61, 2, 1, 1, 0),
        (70, 71, 62, 1, 1, 1),
        (70, 71, 72, 1, 1, 1),
        (70, 71, 72, 1, 1, 1),
    ]

    def test_12_cycle_golden_trace(self):
        design, _ = build_files([corpus_path("pipe3.arch")])
        sim = Simulator(build_sim(design.cores, "Pipe3", SimFlags()))
        for cycle, ((din, stall, flush), want) in enumerate(
                zip(self.INPUTS, self.GOLDEN), start=1):
            sim.set_input("din", din)
            sim.set_input("stall_in", stall)
            sim.set_input("flush_in", flush)
            sim.run_cycles("SysDomain", 1)
            got = (sim.peek("S1.v1"), sim.peek("S2.v2"), sim.peek("S3.v3"),
                   sim.peek("S1.valid_r"), sim.peek("S2.valid_r"),
                   sim.peek("S3.valid_r"))
            assert got == want, f"cycle {cycle}: got {got}, want {want}"
        _ok(7, "3-stage pipeline matches the hand-derived 12-cycle golden "
               "trace (no-stall flow, 2-cycle stall, flush)")


class TestCriterion8SettleInvariant:
    def test_extra_pass_changes_nothing_corpus_wide(self):
        for fname, top, stim, _ in CLEAN_CORPUS:
            design, _ = build_files([corpus_path(fname)])
            image = settle_checked(build_sim(design.cores, top, SimFlags()))
            program = parse_stimulus(open(corpus_path(stim)).read())
            report = run_stimulus(image, program)
            assert report.passed, (fname, report.lines())
        _ok(8, f"settle invariant holds on all {len(CLEAN_CORPUS)} corpus "
               f"designs (debug re-evaluation pass changes no net)")


class TestCriterion9ExpressionOracle:
    def test_10000_expressions_vs_reference(self):
        from test_sim import TestExpressionOracle
        TestExpressionOracle().test_10000_random_expressions()
        _ok(9, "10,000 random well-typed expressions agree with the "
               "big-integer reference evaluator (incl. +% -% *%)")


class TestCriterion10CorpusEndToEnd:
    def test_under_60s_total(self):
        t0 = time.time()
        kinds = set()
        for fname, top, stim, bound in CLEAN_CORPUS:
            design, _ = build_files([corpus_path(fname)])
            kinds.add(design.cores[top].kind)
            image = build_sim(design.cores, top, SimFlags())
            program = parse_stimulus(open(corpus_path(stim)).read())
            report = run_stimulus(image, program)
            assert report.passed, (fname, report.lines())
            if bound is not None:
                v = verify(design.cores[top], bound, "builtin")
                assert v.exit_code == 0, (fname, v.summary_lines())
        elapsed = time.time() - t0
        assert len(CLEAN_CORPUS) + 3 >= 20  # incl. intentional-failure fixtures
        assert kinds >= {"module", "fsm", "fifo", "counter", "synchronizer",
                         "pipeline"}
        assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
        _ok(10, f"{len(CLEAN_CORPUS)}-design corpus compiles, simulates, and "
                f"verifies in {elapsed:.1f}s < 60s (VerilogEval/CVDP/synthesis "
                f"numbers are explicitly not reproduced at desk scale)")

    def test_check_under_100ms_per_file(self):
        from conftest import ALL_ARCH
        worst = 0.0
        for fname in ALL_ARCH:
            t0 = time.perf_counter()
            build_files([corpus_path(fname)])
            worst = max(worst, time.perf_counter() - t0)
        assert worst < 0.100, f"slowest corpus check {worst * 1000:.0f}ms"
        _ok(10, f"`archc check` <= {worst * 1000:.0f}ms per corpus file "
                f"(budget 100ms)")
