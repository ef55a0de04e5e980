"""Runtime checks under their path condition (`ir.runtime_checks`).

A division, modulo or dynamic index that the simulator only evaluates on
a guarded path is checked under that path everywhere: the generated
`_auto_div0_*`/`_auto_bound_*` asserts (SV, sim and formal alike) state
`path implies check`, and every formal question assumes that no check
that such an assert reports fires before the property is sampled, so a
sat answer is a trace the simulator runs. A check that no generated
assert reports (a comb bit index, a division in a property) is not
assumed: a trace through it fails its replay.
"""

import io
import os
from contextlib import redirect_stdout

import pytest

from conftest import ROOT, build_text

from archc import cli
from archc.formal import verify

# the division only happens when the divisor is nonzero
GUARD_SEQ_ARCH = """\
module GuardSeq
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port num: in UInt<8>;
  port den: in UInt<8>;
  port q: out UInt<8>;
  reg q_r: UInt<8> reset rst => 0;
  seq on clk rising
    if den != 0 then
      q_r <= num / den;
    end if
  end seq
  comb q = q_r;
end module GuardSeq
"""

# the lazy `?:` never divides by zero
GUARD_COMB_ARCH = """\
module GuardComb
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port num: in UInt<8>;
  port den: in UInt<8>;
  port q: out UInt<8>;
  reg q_r: UInt<8> reset rst => 0;
  let q_c: UInt<8> = (den == 0) ? 0 : num / den;
  seq on clk rising
    q_r <= q_c;
  end seq
  comb q = q_r;
end module GuardComb
"""

# `wide` can only hit with a bit index the simulator aborts on, and no
# generated assert reports a comb bit index; `guarded` needs an index the
# guard keeps the simulator from using
WIDE_ARCH = """\
module Wide
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port x: in UInt<4>;
  port i: in UInt<3>;
  port bit: out Bool;
  reg cnt: UInt<4> reset rst => 0;
  seq on clk rising
    cnt <= cnt +% 1;
  end seq
  comb bit = (i != 7) ? x[i] : false;
  cover wide: i == 5 && cnt == 2;
  cover guarded: i == 7 && cnt == 2;
end module Wide
"""

# a match arm, a match else, `&&` and `||` guards
PATHS_ARCH = """\
module Paths
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port num: in UInt<8>;
  port den: in UInt<8>;
  port gd: out Bool;
  port either: out Bool;
  port q: out UInt<8>;
  reg q_r: UInt<8> reset rst => 0;
  reg r_r: UInt<8> reset rst => 0;
  seq on clk rising
    match den
      case 0:
        q_r <= 0;
      case else:
        q_r <= num / den;
    end match
    match den == 0
      case false:
        r_r <= num % den;
      case true:
        r_r <= 1;
    end match
  end seq
  comb gd = (den != 0) && (num / den > 3);
  comb either = (den == 0) || (num % den == 1);
  comb q = q_r ^ r_r;
end module Paths
"""

# two comb sites on one divisor: the simulator aborts on the first one
TWIN_ARCH = """\
module Twin
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<4>;
  port b: in UInt<4>;
  port q: out UInt<4>;
  port r: out UInt<4>;
  reg cnt: UInt<4> reset rst => 0;
  seq on clk rising
    cnt <= cnt +% 1;
  end seq
  comb q = a / b;
  comb r = a % b;
  cover three: cnt == 3;
end module Twin
"""

ZERO_STIM = """\
clock SysDomain period 2
set num 7
set den 0
run 3
set den 2
run 2
"""

WIDE_STIM = """\
clock SysDomain period 2
set x 9
set i 7
run 3
set i 2
run 2
"""


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main([str(a) for a in args])
    return rc, buf.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def check_probe(tmp_path, arch, stim, formal_lines, sv_asserts):
    design = write(tmp_path, "probe.arch", arch)
    rc, out = run_cli("sim", design, "--stim", write(tmp_path, "p.stim", stim))
    assert (rc, "ASSERT_FAIL" in out, "ABORT" in out) == (0, False, False), out
    rc, out = run_cli("formal", design, "--solver", "builtin")
    out = out.replace(str(design), "probe.arch")
    assert out.splitlines()[:len(formal_lines)] == formal_lines, out
    rc_build, _ = run_cli("build", design, "--out-dir", tmp_path / "sv")
    [sv] = [p.read_text() for p in (tmp_path / "sv").iterdir()]
    assert rc_build == 0
    assert [line.strip() for line in sv.splitlines() if "assert property" in line] == sv_asserts
    return rc


class TestGuardedSites:
    def test_seq_if_guard(self, tmp_path):
        rc = check_probe(
            tmp_path, GUARD_SEQ_ARCH, ZERO_STIM,
            ["assert _auto_div0_q_r: PROVED (bound 20)"],
            ["_auto_div0_q_r: assert property (@(posedge clk) disable iff (rst) "
             "((!(den != 8'd0) || den != 8'd0)));"])
        assert rc == 0

    def test_comb_ternary_guard(self, tmp_path):
        rc = check_probe(
            tmp_path, GUARD_COMB_ARCH, ZERO_STIM,
            ["assert _auto_div0_q_c: PROVED (bound 20)"],
            ["_auto_div0_q_c: assert property (@(posedge clk) disable iff (rst) "
             "((!!(den == 8'd0) || den != 8'd0)));"])
        assert rc == 0

    def test_guarded_bit_index(self, tmp_path):
        """The cover that needs an aborting index gets that trace, and the
        replay names the abort; the one that needs the guard off is hit."""
        rc = check_probe(
            tmp_path, WIDE_ARCH, WIDE_STIM,
            ["cover wide: INCONCLUSIVE (replay mismatch: the simulator aborts at cycle 2 "
             "(OUT_OF_BOUNDS: bit 5 out of bounds for width 4 at probe.arch:11:25))",
             "cover guarded: HIT at cycle 2"], [])
        assert rc == 2

    def test_match_and_logic_paths(self, tmp_path):
        rc = check_probe(
            tmp_path, PATHS_ARCH, ZERO_STIM,
            ["assert _auto_div0_q_r: PROVED (bound 20)",
             "assert _auto_div0_r_r: PROVED (bound 20)",
             "assert _auto_div0_gd: PROVED (bound 20)",
             "assert _auto_div0_either: PROVED (bound 20)"],
            ["_auto_div0_q_r: assert property (@(posedge clk) disable iff (rst) "
             "((!!(den == 8'd0) || den != 8'd0)));",
             "_auto_div0_r_r: assert property (@(posedge clk) disable iff (rst) "
             "((!(den == 8'd0 == 1'b0) || den != 8'd0)));",
             "_auto_div0_gd: assert property (@(posedge clk) disable iff (rst) "
             "((!(den != 8'd0) || den != 8'd0)));",
             "_auto_div0_either: assert property (@(posedge clk) disable iff (rst) "
             "((!!(den == 8'd0) || den != 8'd0)));"])
        assert rc == 0

    def test_unguarded_site_keeps_the_plain_check(self):
        design, _ = build_text(TWIN_ARCH)
        from archc.printer import print_expr
        assert {p.name: print_expr(p.expr) for p in design.cores["Twin"].properties
                if p.origin == "auto"} == {"_auto_div0_q": "b != 0", "_auto_div0_r": "b != 0"}


class TestAssumedChecks:
    def test_only_the_first_aborting_site_fails(self):
        """With b == 0 the simulator aborts on `a / b`, the first comb net,
        and never evaluates `a % b`: that site's assert is PROVED, and
        every trace keeps b nonzero where the run goes on."""
        design, _ = build_text(TWIN_ARCH)
        v = verify(design.cores["Twin"], 10, "builtin")
        assert [(r.name, r.status, r.cycle) for r in v.results] == [
            ("three", "HIT", 3), ("_auto_div0_q", "REFUTED", 0), ("_auto_div0_r", "PROVED", None)]
        assert all(row["b"] != 0 for row in v.results[0].trace)

    def test_unreported_bit_index_is_not_assumed(self):
        """No generated assert reports a comb bit index, so formal does not
        assume it in range: `i < 4` is not PROVED while `x[i]` aborts on
        every larger `i`."""
        design, _ = build_text("""\
module SmallI
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port x: in UInt<4>;
  port i: in UInt<3>;
  port bit: out Bool;
  comb bit = x[i];
  assert small_i: i < 4;
end module SmallI
""")
        v = verify(design.cores["SmallI"], 5, "builtin")
        [r] = v.results
        assert (r.status, r.cycle, v.exit_code) == ("INCONCLUSIVE", 0, 2)
        assert r.detail.startswith("replay mismatch: the simulator aborts at cycle 0 "
                                   "(OUT_OF_BOUNDS: bit ")

    def test_division_in_a_property_is_not_assumed(self):
        """Nor a division inside a property: the cover that only the
        simulator's zero divisor could hit is not NOT-REACHED."""
        design, _ = build_text("""\
module PropDiv
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<4>;
  port b: in UInt<4>;
  port y: out UInt<4>;
  comb y = a;
  cover by_zero: a == 0 && a / b == 15;
end module PropDiv
""")
        [r] = verify(design.cores["PropDiv"], 5, "builtin").results
        assert (r.status, r.cycle) == ("INCONCLUSIVE", 0)
        assert r.detail.startswith("replay mismatch: the simulator aborts at cycle 0 "
                                   "(DIV_BY_ZERO: ")

    def test_a_site_is_found_or_refused(self):
        """A generated assert whose site is in no next state or net would
        be asked under its own check and PROVED; formal refuses it."""
        from archc.formal.encode import FormalUnsupported
        from archc.source import DUMMY_SPAN
        design, _ = build_text(TWIN_ARCH)
        core = design.cores["Twin"]
        [div0_q] = [p for p in core.properties if p.name == "_auto_div0_q"]
        div0_q.site = DUMMY_SPAN
        with pytest.raises(FormalUnsupported) as e:
            verify(core, 3, "builtin")
        assert "_auto_div0_q" in str(e.value)


class TestSolversAgree:
    """archc-smt behind a `z3` name, asked over one pipe, answers what the
    builtin session answers: one BMC loop serves both, with the same
    assumptions in every goal and no query spent on a second witness."""

    def test_builtin_and_external_give_one_verdict(self, tmp_path, monkeypatch):
        from test_formal import ARCHC_SMT, BIT_INDEX_ARCH, DIV_ARCH, DIV_RESULTS, fake_solver
        log = fake_solver(tmp_path, monkeypatch, ARCHC_SMT)
        for text, top in ((DIV_ARCH, "Div"), (BIT_INDEX_ARCH, "Bits"),
                          (GUARD_SEQ_ARCH, "GuardSeq"), (GUARD_COMB_ARCH, "GuardComb"),
                          (WIDE_ARCH, "Wide"), (TWIN_ARCH, "Twin")):
            core = build_text(text)[0].cores[top]
            log.write_text("")
            external = verify(core, 8, "z3")
            builtin = verify(core, 8, "builtin")
            assert external.summary_lines()[:-1] == builtin.summary_lines()[:-1], top
            for r in external.results:
                if r.trace is not None and "b" in r.trace[0] and r.status == "HIT":
                    assert all(row["b"] != 0 for row in r.trace)
            if top == "Div":
                assert [(r.name, r.status, r.cycle) for r in external.results] == DIV_RESULTS
                # one process for the three properties; the parent started
                # 13, the whole bound and a bisection per property
                assert len(log.read_text().split()) == 1

    @pytest.mark.parametrize("bound", [5, 20])
    def test_corpus_output_matches_builtin(self, tmp_path, monkeypatch, bound):
        """`archc formal` prints the same summary lines and trace tables
        through the pipe as in process, apart from the solver's name, on
        every corpus design in formal scope; each run starts at most one
        solver process."""
        from test_formal import ARCHC_SMT, fake_solver
        from test_formal_golden import _formal_cores
        log = fake_solver(tmp_path, monkeypatch, ARCHC_SMT)
        for fname, top, _ in _formal_cores():
            outputs = {}
            for solver in ("z3", "builtin"):
                log.write_text("")
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = cli.main(["formal", os.path.join(ROOT, "corpus", fname), "--top", top,
                                   "--bound", str(bound), "--solver", solver])
                outputs[solver] = (rc, buf.getvalue().replace(f"(solver {solver},", "(solver -,"))
                assert len(log.read_text().split()) <= (solver == "z3"), fname
            assert outputs["z3"] == outputs["builtin"], fname


class TestNoChecksNoCost:
    @pytest.mark.parametrize("source, top, bound, checked", [
        pytest.param("guard_ok.arch", "GoodProducer", 300, [],  # no runtime check
                     id="guard_ok-300"),
        # the guarded division's assert, which the interval invariant
        # leaves open; its check is on a next state, so frame 0 has none
        pytest.param(GUARD_SEQ_ARCH, "GuardSeq", 10, list(range(1, 11)), id="GuardSeq-10"),
    ])
    def test_questions_per_run(self, monkeypatch, source, top, bound, checked):
        """One question per open property and frame, with or without
        runtime checks: the checks ride in the question, not in another."""
        from conftest import build_files, corpus_path
        from archc.smt.solve import Session
        asked = []
        original = Session.check_assuming

        def counted(self, goal):
            asked.append(goal)
            return original(self, goal)
        monkeypatch.setattr(Session, "check_assuming", counted)
        design = (build_files([corpus_path(source)]) if source.endswith(".arch")
                  else build_text(source))[0]
        [result] = verify(design.cores[top], bound, "builtin").results
        assert result.status == "PROVED"
        assert len(asked) == bound + 1
        assert [k for k, goal in enumerate(asked) if goal.op == "and"
                and goal.args[1].name == f"__ok__{k}"] == checked
