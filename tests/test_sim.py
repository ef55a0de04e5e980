"""Simulator semantics: expression oracle, two-phase commit, settle
invariant and settle work, runtime checks, CDC randomization, VCD output,
metamorphic runs, stimulus errors."""

import random

import pytest

from conftest import CLEAN_CORPUS, build_text, corpus_path, settle_checked

from archc.sim import (
    SimFlags, StimulusError, StimulusProgram, build_sim, parse_stimulus, run_stimulus,
)
from archc.sim.engine import Simulator
from archc.sim.image import SimAbortError, wrap_signed
from archc.sim.stimulus import RUN
from archc.sim.vcd import VcdTrace
from archc.types import SInt, Vec


def sim_for(design, top, **kw):
    return Simulator(build_sim(design.cores, top, SimFlags(**kw)))


# ── independent big-integer reference evaluator ──────────────────

def ref_eval(e, env):
    """Reference semantics written against the AST, independent of the
    closure compiler: plain Python big ints, masked by hand."""
    from archc.ast_nodes import (Binary, BoolLit, Convert, Index, IntLit,
                                 NameRef, Slice, Ternary, Unary)
    from archc.types import SInt, UInt

    def width(ty):
        return ty.width if isinstance(ty, (UInt, SInt)) else 1

    def mask(v, ty):
        w = width(ty)
        if isinstance(ty, SInt):
            v &= (1 << w) - 1
            return v - (1 << w) if v >= (1 << (w - 1)) else v
        return v & ((1 << w) - 1)

    if isinstance(e, IntLit):
        return mask(e.value, e.ty)
    if isinstance(e, BoolLit):
        return int(e.value)
    if isinstance(e, NameRef):
        return env[e.name]
    if isinstance(e, Unary):
        v = ref_eval(e.operand, env)
        if e.op == "!":
            return 0 if v else 1
        if e.op == "~":
            return mask(~v, e.ty)
        return mask(-v, e.ty)
    if isinstance(e, Ternary):
        return ref_eval(e.then, env) if ref_eval(e.cond, env) else ref_eval(e.els, env)
    if isinstance(e, Slice):
        base = ref_eval(e.base, env) & ((1 << width(e.base.ty)) - 1)
        return (base >> e.lo.value) & ((1 << (e.hi.value - e.lo.value + 1)) - 1)
    if isinstance(e, Index):
        base = ref_eval(e.base, env) & ((1 << width(e.base.ty)) - 1)
        return (base >> ref_eval(e.index, env)) & 1
    if isinstance(e, Convert):
        return mask(ref_eval(e.base, env), e.ty)
    assert isinstance(e, Binary)
    op = e.op
    if op in ("&&", "||", "implies"):
        a = ref_eval(e.lhs, env)
        if op == "&&":
            return 1 if a and ref_eval(e.rhs, env) else 0
        if op == "||":
            return 1 if a or ref_eval(e.rhs, env) else 0
        return 1 if (not a or ref_eval(e.rhs, env)) else 0
    a, b = ref_eval(e.lhs, env), ref_eval(e.rhs, env)
    if op in ("==", "!="):
        return int((a == b) == (op == "=="))
    if op in ("<", "<=", ">", ">="):
        import operator
        f = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge}[op]
        return int(f(a, b))
    w = width(e.ty)
    if op in ("+", "+%"):
        return mask(a + b, e.ty)
    if op in ("-", "-%"):
        return mask(a - b, e.ty)
    if op in ("*", "*%"):
        return mask(a * b, e.ty)
    if op == "/":
        q = abs(a) // abs(b)
        return mask(-q if (a < 0) != (b < 0) else q, e.ty)
    if op == "%":
        r = abs(a) % abs(b)
        return mask(-r if a < 0 else r, e.ty)
    if op == "<<":
        return mask(a << min(b, w), e.ty)
    if op == ">>":
        from archc.types import SInt
        if isinstance(e.lhs.ty, SInt):
            return a >> min(b, w)
        return a >> b if b < w else 0
    if op == "&":
        return mask(a & b, e.ty)
    if op == "|":
        return mask(a | b, e.ty)
    return mask(a ^ b, e.ty)


def random_expr(rng, inputs, depth, want_ty):
    """Random well-typed expression text over the input ports."""
    from archc.types import Bool, SInt, UInt
    same = [n for n, t in inputs.items() if t == want_ty]
    if depth == 0:
        if same and rng.random() < 0.8:
            return rng.choice(same)
        if isinstance(want_ty, Bool):
            return rng.choice(["true", "false"])
        if isinstance(want_ty, SInt):
            # symmetric range so generated unary negation always fits
            bound = (1 << (want_ty.width - 1)) - 1
            v = rng.randint(-bound, bound)
        else:
            v = rng.randrange(1 << want_ty.width)
        return f"({v})" if v < 0 else str(v)
    if isinstance(want_ty, Bool):
        kind = rng.choice(["cmp", "logic", "not"])
        if kind == "logic":
            a = random_expr(rng, inputs, depth - 1, want_ty)
            b = random_expr(rng, inputs, depth - 1, want_ty)
            return f"({a} {rng.choice(['&&', '||', 'implies'])} {b})"
        if kind == "not":
            return f"(!{random_expr(rng, inputs, depth - 1, want_ty)})"
        anchor, uty = rng.choice(
            [(n, t) for n, t in inputs.items() if not isinstance(t, Bool)])
        b = random_expr(rng, inputs, depth - 1, uty)
        return f"({anchor} {rng.choice(['==', '!=', '<', '<=', '>', '>='])} {b})"
    kind = rng.choice(["bin", "wrap", "unary", "ternary", "atom"])
    if kind == "atom":
        return random_expr(rng, inputs, 0, want_ty)
    if kind == "unary":
        inner = random_expr(rng, inputs, depth - 1, want_ty)
        op = "~" if not isinstance(want_ty, SInt) else rng.choice(["~", "-"])
        return f"({op}{inner})"
    if kind == "ternary":
        from archc.types import Bool as B
        c = random_expr(rng, inputs, depth - 1, B())
        a = random_expr(rng, inputs, depth - 1, want_ty)
        b = random_expr(rng, inputs, depth - 1, want_ty)
        return f"({c} ? {a} : {b})"
    if kind == "wrap":
        a = random_expr(rng, inputs, depth - 1, want_ty)
        b = random_expr(rng, inputs, depth - 1, want_ty)
        return f"({a} {rng.choice(['+%', '-%', '*%'])} {b})"
    a = random_expr(rng, inputs, depth - 1, want_ty)
    op = rng.choice(["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"])
    if op in ("<<", ">>"):
        from archc.types import SInt as S, UInt as U
        if isinstance(want_ty, S):
            # a standalone poly value side would adopt UInt; anchor it
            a = rng.choice([n for n, t in inputs.items() if t == want_ty])
        b = random_expr(rng, inputs, depth - 1, U(want_ty.width))
    else:
        b = random_expr(rng, inputs, depth - 1, want_ty)
    if op in ("/", "%"):
        # nonzero by construction, so that no input value makes the
        # simulator abort on a zero divisor
        b = f"({b} | 1)"
    return f"({a} {op} {b})"


class TestExpressionOracle:
    def test_10000_random_expressions(self):
        """Sim evaluation == independent reference on 10k random exprs,
        including wrap operators at max operand width."""
        from archc.types import Bool, SInt, UInt
        rng = random.Random(31337)
        inputs = {"u8a": UInt(8), "u8b": UInt(8), "u5": UInt(5),
                  "s8": SInt(8), "flag": Bool()}
        port_decls = "".join(f"  port {n}: in {t};\n" for n, t in inputs.items())
        checked = 0
        batch = 0
        while checked < 10000:
            batch += 1
            outs = []
            for i in range(40):
                want = rng.choice([UInt(8), UInt(5), SInt(8), Bool()])
                outs.append((f"y{i}", want, random_expr(rng, inputs, 3, want)))
            out_decls = "".join(f"  port {n}: out {t};\n" for n, t, _ in outs)
            combs = "".join(f"  comb {n} = {e};\n" for n, _, e in outs)
            text = f"module X{batch}\n{port_decls}{out_decls}{combs}end module X{batch}"
            design, _ = build_text(text)
            core = design.cores[f"X{batch}"]
            sim = sim_for(design, f"X{batch}")
            for _ in range(3):
                env = {}
                for n, t in inputs.items():
                    if isinstance(t, Bool):
                        env[n] = rng.randint(0, 1)
                    elif isinstance(t, SInt):
                        env[n] = rng.randint(-(1 << 7), (1 << 7) - 1)
                    else:
                        env[n] = rng.randrange(1 << t.width)
                    sim.set_input(n, env[n])
                for n, _, _ in outs:
                    got = sim.peek(n)
                    want = ref_eval(core.nets[n].expr, env)
                    assert got == want, (n, core.nets[n])
                    checked += 1
        assert checked >= 10000


class TestCommitAtomicity:
    def test_permuted_commit_order_is_equivalent(self):
        """Metamorphic: register next-values depend on pre-tick state only,
        so reversing the commit order never changes results."""
        text = """\
module Swap
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port q: out UInt<8>;
  reg a: UInt<8> reset rst => 1;
  reg b: UInt<8> reset rst => 7;
  seq on clk rising
    a <= b;
    b <= a;
  end seq
  comb q = a;
end module Swap
"""
        design, _ = build_text(text)
        results = []
        for reverse in (False, True):
            sim = sim_for(design, "Swap")
            if reverse:
                for d in sim.image.regs_by_domain:
                    sim.image.regs_by_domain[d] = list(
                        reversed(sim.image.regs_by_domain[d]))
            seq = []
            for _ in range(5):
                sim.run_cycles("D", 1)
                seq.append((sim.peek("a"), sim.peek("b")))
            results.append(seq)
        assert results[0] == results[1]
        assert results[0][0] == (7, 1)  # genuinely swapped, no ordering artifact


class TestSettle:
    @pytest.mark.parametrize("fname,top,stim,_b", CLEAN_CORPUS)
    def test_settle_invariant_whole_corpus(self, fname, top, stim, _b):
        """Table-6 contract: one extra evaluation pass changes nothing."""
        from conftest import build_files
        design, _ = build_files([corpus_path(fname)])
        image = settle_checked(build_sim(design.cores, top, SimFlags()))
        program = parse_stimulus(open(corpus_path(stim)).read())
        report = run_stimulus(image, program)
        assert report.passed, report.lines()

    def test_settle_writes_each_net_once(self):
        """hier_top feeds a let into a child input; its generated settle
        still assigns every defined net exactly once, and a second pass
        over the settled state changes nothing (`settle_checked`)."""
        from conftest import build_files
        design, _ = build_files([corpus_path("hier_top.arch")])
        image = build_sim(design.cores, "HierTop", SimFlags())
        writes = []

        class Recording(list):
            def __setitem__(self, index, value):
                writes.append(index)
                super().__setitem__(index, value)

        image.settle(Recording(image.initial))
        defined = {image.builder.index_of(name) for name in image.builder.defs}
        assert sorted(writes) == sorted(defined)
        program = parse_stimulus(open(corpus_path("hier_top.stim")).read())
        assert run_stimulus(settle_checked(image), program).passed


class TestRuntimeChecks:
    OOB = """\
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
"""

    def test_out_of_bounds_aborts_with_site(self):
        design, _ = build_text(self.OOB)
        sim = sim_for(design, "Oob")
        sim.set_input("idx", 3)
        sim.run_cycles("D", 1)  # in range: fine
        sim.set_input("idx", 4)
        with pytest.raises(SimAbortError) as e:
            sim.run_cycles("D", 1)
        assert e.value.kind == "OUT_OF_BOUNDS"
        assert "test.arch" in e.value.message

    def test_div_by_zero_aborts(self):
        design, _ = build_text("""\
module Div
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port den: in UInt<8>;
  port q: out UInt<8>;
  reg r: UInt<8> reset rst => 0;
  seq on clk rising
    r <= 100 / den;
  end seq
  comb q = r;
end module Div
""")
        sim = sim_for(design, "Div")
        sim.set_input("den", 5)
        sim.run_cycles("D", 1)
        assert sim.peek("q") == 20
        sim.set_input("den", 0)
        with pytest.raises(SimAbortError) as e:
            sim.run_cycles("D", 1)
        assert e.value.kind == "DIV_BY_ZERO"

    def test_lazy_branches_guard_division(self):
        design, _ = build_text("""\
module Guarded
  port den: in UInt<8>;
  port num: in UInt<8>;
  port q: out UInt<8>;
  comb q = den == 0 ? 0 : num / den;
end module Guarded
""")
        sim = sim_for(design, "Guarded")
        sim.set_input("num", 42)
        sim.set_input("den", 0)
        assert sim.peek("q") == 0  # untaken branch is not evaluated

    def test_todo_aborts(self):
        design, _ = build_text(open(corpus_path("todo_stub.arch")).read())
        image = build_sim(design.cores, "CacheStub", SimFlags())
        program = parse_stimulus("set req_addr 5\nexpect mem_addr 5\n")
        report = run_stimulus(image, program)
        assert report.aborted is not None
        assert "TODO_REACHED" in report.aborted.message

    def test_abort_at_the_first_waveform_sample_is_reported(self, tmp_path):
        design, _ = build_text(open(corpus_path("todo_stub.arch")).read())
        image = build_sim(design.cores, "CacheStub", SimFlags())
        report = run_stimulus(image, parse_stimulus("tick 1\n"),
                              trace_path=str(tmp_path / "w.vcd"))
        assert report.aborted is not None
        assert "TODO_REACHED" in report.aborted.message
        assert report.lines()[-1].startswith("ABORT: ")

    def test_uninit_read_warns_once(self):
        design, _ = build_text("""\
module Cold
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port go: in Bool;
  port q: out UInt<8>;
  reg lazy: UInt<8> reset none;
  seq on clk rising
    if go then
      lazy <= 9;
    end if
  end seq
  comb q = lazy;
end module Cold
""")
        sim = sim_for(design, "Cold", check_uninit=True)
        sim.run_cycles("D", 3)
        warns = [e for e in sim.report.events if e.kind == "UNINIT_READ"]
        assert len(warns) == 1  # once per (reg, site)
        sim.set_input("go", 1)
        sim.run_cycles("D", 1)
        assert sim.peek("q") == 9

    def test_inputs_start_uninit_warns_once_per_port(self):
        design, _ = build_text("""\
module Ports
  port a: in UInt<8>;
  port b: in UInt<8>;
  port y: out UInt<8>;
  comb y = a + b;
end module Ports
""")
        sim = sim_for(design, "Ports", inputs_start_uninit=True)
        sim.peek("y")
        sim.peek("y")
        warns = [e for e in sim.report.events if e.kind == "UNDRIVEN_INPUT"]
        assert len(warns) == 2  # one per port, not per read
        sim2 = sim_for(design, "Ports", inputs_start_uninit=True)
        sim2.set_input("a", 1)
        sim2.set_input("b", 2)
        assert sim2.peek("y") == 3
        assert not [e for e in sim2.report.events if e.kind == "UNDRIVEN_INPUT"]

    def test_simulators_on_one_image_keep_their_own_run_state(self):
        """Each simulator has its own warn-once state, written/driven
        bitmaps and warning sink, also when they share one image."""
        design, _ = build_text("""\
module One
  port clk: in Clock<D>;
  port go: in Bool;
  port a: in UInt<8>;
  port y: out UInt<8>;
  reg lazy: UInt<8> reset none;
  seq on clk rising
    if go then
      lazy <= 9;
    end if
  end seq
  comb y = a + lazy;
end module One
""")
        image = build_sim(design.cores, "One", SimFlags(check_uninit=True,
                                                        inputs_start_uninit=True))

        def warned(sim):
            return sorted(e.kind for e in sim.report.events)
        s1, s2 = Simulator(image), Simulator(image)
        s1.peek("y")
        assert (warned(s1), warned(s2)) == (["UNDRIVEN_INPUT", "UNINIT_READ"], [])
        s2.set_input("a", 1)
        s2.set_input("go", 1)
        s2.run_cycles("D", 1)  # writes `lazy` in s2 only
        assert warned(s2) == ["UNINIT_READ"]
        assert s2.peek("y") == 10 and warned(s2) == ["UNINIT_READ"]
        s3 = Simulator(image)
        s3.peek("y")
        assert warned(s3) == ["UNDRIVEN_INPUT", "UNINIT_READ"]
        assert warned(s1) == ["UNDRIVEN_INPUT", "UNINIT_READ"]


class TestCdcRandom:
    def test_seeded_determinism(self):
        from conftest import build_files
        design, _ = build_files([corpus_path("cdc_flag.arch")])
        logs = []
        for _ in range(2):
            image = build_sim(design.cores, "CdcTop", SimFlags(cdc_random=True, seed=11))
            sim = Simulator(image)
            sim.set_period("SysDomain", 2)
            sim.set_period("UsbDomain", 3)
            trace = []
            for t in range(60):
                sim.set_input("flag_in", (t // 7) % 2)
                sim.tick(1)
                trace.append(sim.peek("flag_out"))
            logs.append(trace)
        assert logs[0] == logs[1]

    def test_latency_in_allowed_set(self):
        """Observable synchronizer latency is STAGES or STAGES+1 dst cycles."""
        from conftest import build_files
        design, _ = build_files([corpus_path("sync_ff2.arch")])
        seen = set()
        for seed in range(12):
            image = build_sim(design.cores, "SysToUsb", SimFlags(cdc_random=True, seed=seed))
            sim = Simulator(image)
            sim.set_period("SysDomain", 2)
            sim.set_period("UsbDomain", 2)
            sim.run_cycles("UsbDomain", 2)
            sim.set_input("data_in", 1)
            latency = 0
            while sim.peek("data_out") == 0 and latency < 10:
                sim.run_cycles("UsbDomain", 1)
                latency += 1
            seen.add(latency)
        assert seen <= {2, 3}
        assert seen == {2, 3}  # both outcomes occur across seeds


class TestVcd:
    def test_counter_waveform(self, tmp_path):
        from conftest import build_files
        design, _ = build_files([corpus_path("counter_wrap200.arch")])
        image = build_sim(design.cores, "EvtCounter", SimFlags())
        program = parse_stimulus("clock SysDomain period 2\nset en 1\nrun 10\n")
        out = tmp_path / "wave.vcd"
        report = run_stimulus(image, program, trace_path=str(out))
        text = out.read_text()
        assert "$timescale 1ns $end" in text
        assert "$var wire 1" in text and "$var wire 8" in text
        assert "count" in text and "clk" in text
        assert text.count("#") > 10  # value-change timestamps
        assert "$date archc deterministic build $end" in text

    def test_two_domain_clocks_present(self, tmp_path):
        from conftest import build_files
        design, _ = build_files([corpus_path("cdc_flag.arch")])
        image = build_sim(design.cores, "CdcTop", SimFlags())
        program = parse_stimulus(
            "clock SysDomain period 2\nclock UsbDomain period 3\ntick 12\n")
        out = tmp_path / "two.vcd"
        run_stimulus(image, program, trace_path=str(out))
        text = out.read_text()
        assert "sys_clk" in text and "usb_clk" in text

    def test_change_lines_match_plain_formatting(self):
        """The sampler's change lines, tabled or formatted, are what
        `f"b{x & mask:0{w}b} {ref}"` and `f"{x & 1}{ref}"` give, for
        every width, signed values and Vec elements, with ids that
        contain `{` and `}`."""
        widths = (1, 2, 7, 8, 9, 16, 17, 32, 33, 64)
        ports = "".join(f"  port u{w}: in UInt<{w}>;\n" for w in widths)
        ports += "".join(f"  port s{w}: in SInt<{w}>;\n" for w in (2, 8, 9, 33))
        design, _ = build_text(f"""\
module Widths
{ports}  port flag: in Bool;
  port vs: in Vec<SInt<3>, 96>;
  port y: out UInt<8>;
  comb y = u8;
end module Widths
""")
        image = build_sim(design.cores, "Widths", SimFlags())
        values = list(image.initial)
        trace = VcdTrace(image)
        trace.sample(0, values)
        assert {"{", "}"} <= set("".join(trace.refs))
        rng = random.Random(7)
        prev = [None] * len(trace.vars)
        want = []

        def plain(time):
            out = []
            for k, (_name, idx, elem, width, _signed) in enumerate(trace.vars):
                x = values[idx] if elem < 0 else values[idx][elem]
                if x != prev[k]:
                    prev[k] = x
                    ref = trace.refs[k]
                    out.append(f"{x & 1}{ref}" if width == 1
                               else f"b{x & (1 << width) - 1:0{width}b} {ref}")
            if out:
                want.append(f"#{time}")
                want.extend(out)

        def draw(ty):
            w = ty.width
            return rng.randrange(-(1 << w - 1), 1 << w - 1) if isinstance(ty, SInt) \
                else rng.getrandbits(w)

        plain(0)
        for time in range(1, 60):
            for name, net in image.inputs.items():
                if rng.random() < 0.5:
                    ty = net.ty
                    values[net.index] = tuple(draw(ty.elem) for _ in range(ty.size)) \
                        if isinstance(ty, Vec) else rng.getrandbits(1) \
                        if name == "flag" else draw(ty)
            trace.sample(time, values)
            plain(time)
        assert trace.changes == want
        # negative Vec elements, and ids with braces, were written
        elements = {trace.refs[k] for k, var in enumerate(trace.vars) if var[2] >= 0}
        assert any(line[:2] == "b1" and line.split()[1] in elements for line in want)
        assert any("{" in line or "}" in line for line in want if line[0] != "#")

    def test_empty_trace_header_only(self, tmp_path):
        from conftest import build_files
        design, _ = build_files([corpus_path("comb_alu.arch")])
        image = build_sim(design.cores, "Alu8", SimFlags())
        program = parse_stimulus("")
        out = tmp_path / "empty.vcd"
        run_stimulus(image, program, trace_path=str(out))
        text = out.read_text()
        assert "$enddefinitions $end" in text


class TestClocklessProperties:
    def test_comb_assert_checked_per_tick(self):
        design, _ = build_text("""\
module Claim
  port a: in UInt<8>;
  port b: in UInt<8>;
  port y: out UInt<8>;
  comb y = a & b;
  assert disjoint: (a & b) == 0;
  cover overlap_seen: (a & b) != 0;
end module Claim
""")
        sim = Simulator(build_sim(design.cores, "Claim", SimFlags()))
        sim.set_input("a", 0x0f)
        sim.set_input("b", 0xf0)
        sim.tick(2)
        assert sim.report.assert_failures == 0
        sim.set_input("b", 0x1f)
        sim.tick(2)  # persistent violation reports once, cover hits
        assert sim.report.assert_failures == 1
        assert sim.report.cover_table["overlap_seen"] is not None
        sim.set_input("b", 0xf0)
        sim.tick(1)
        sim.set_input("b", 0x01)
        sim.tick(1)  # a new violation after recovery reports again
        assert sim.report.assert_failures == 2


class TestFallingEdge:
    DUAL_EDGE = """\
module DualEdge
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port din: in UInt<8>;
  port q_rise: out UInt<8>;
  port q_fall: out UInt<8>;
  reg a: UInt<8> reset rst => 0;
  reg b: UInt<8> reset rst => 0;
  seq on clk rising
    a <= din;
  end seq
  seq on clk falling
    b <= a;
  end seq
  comb q_rise = a;
  comb q_fall = b;
end module DualEdge
"""

    def test_half_cycle_transfer(self):
        design, _ = build_text(self.DUAL_EDGE)
        sim = Simulator(build_sim(design.cores, "DualEdge", SimFlags()))
        sim.set_period("D", 4)  # posedge at t%4==2, negedge at t%4==0
        sim.set_input("din", 55)
        sim.tick(2)
        assert (sim.peek("q_rise"), sim.peek("q_fall")) == (55, 0)
        sim.tick(2)  # negedge: b captures a
        assert sim.peek("q_fall") == 55
        sim.set_input("din", 77)
        sim.tick(2)
        assert (sim.peek("q_rise"), sim.peek("q_fall")) == (77, 55)

    def test_falling_commit_is_settled_before_the_next_read(self):
        """Nothing is set between the edges: only the falling step's
        commit can make the next `peek` settle again."""
        design, _ = build_text(self.DUAL_EDGE)
        image = build_sim(design.cores, "DualEdge", SimFlags())
        calls = _count_settles(image)
        sim = Simulator(image)
        sim.set_period("D", 4)
        sim.set_input("din", 55)
        sim.tick(2)
        assert (sim.peek("q_rise"), sim.peek("q_fall")) == (55, 0)
        before = len(calls)
        sim.tick(2)  # negedge: b captures a
        assert sim.peek("q_fall") == 55
        assert len(calls) == before + 1


def _count_settles(image) -> list:
    """Make `image.settle` record each call in the returned list."""
    calls = []
    settle = image.settle

    def counted(values):
        calls.append(None)
        settle(values)

    image.settle = counted
    return calls


class _EagerSimulator(Simulator):
    """Settles at every observation, as if every write changed data."""
    _dirty = property(lambda self: True, lambda self, value: None)


class TestSettleWork:
    @pytest.mark.parametrize("fname,top,cycle", [
        ("counter_wrap200.arch", "EvtCounter", "set en {bit}\nrun 1\nexpect count {k}\n"),
        ("hier_top.arch", "HierTop", "set a {k}\nset b {bit}\nrun 1\nexpect q {k}\n"),
    ], ids=["counter_wrap200", "hier_top"])
    def test_at_most_two_settles_per_cycle(self, fname, top, cycle, clean_corpus_designs):
        """A period-2 `run 1` settles on its falling edge, where the
        `set`s are seen, and the `expect` after the rising edge's commit;
        the rising edge itself changes no data net. (Only the number of
        settles is checked, not the expected values.)"""
        image = build_sim(clean_corpus_designs[fname][0].cores, top, SimFlags())
        calls = _count_settles(image)
        cycles = 40
        text = "clock SysDomain period 2\n" + "".join(
            cycle.format(k=k, bit=k % 2) for k in range(cycles))
        report = run_stimulus(image, parse_stimulus(text))
        assert report.cycles["SysDomain"] == cycles and report.expect_count == cycles
        assert 0 < len(calls) <= 2 * cycles

    @pytest.mark.parametrize("fname,top,stim,_b", CLEAN_CORPUS)
    def test_same_output_as_settling_at_every_observation(
            self, fname, top, stim, _b, clean_corpus_designs, tmp_path, monkeypatch):
        """Skipping the settles of an unchanged state changes no report
        line and no VCD byte, with the warn-once read checks and the CDC
        capture draws on."""
        import archc.sim.stimulus as stimulus
        design = clean_corpus_designs[fname][0]
        program = parse_stimulus(open(corpus_path(stim)).read())
        flags = SimFlags(check_uninit=True, inputs_start_uninit=True, cdc_random=True, seed=7)
        outputs = []
        for simulator in (Simulator, _EagerSimulator):
            monkeypatch.setattr(stimulus, "Simulator", simulator)
            plain = run_stimulus(build_sim(design.cores, top, flags), program)
            wave = tmp_path / f"{simulator.__name__}.vcd"
            traced = run_stimulus(build_sim(design.cores, top, flags), program, str(wave))
            outputs.append((plain.lines(), plain.cover_table, traced.lines(),
                            wave.read_bytes()))
        assert outputs[0] == outputs[1]


def _split_lines(text: str, kind: str) -> str:
    """`text` with every `<kind> n` line written as n `<kind> 1` lines."""
    out = []
    for line in text.splitlines():
        words = line.split("#")[0].split()
        out += [f"{kind} 1"] * int(words[1]) if words[:1] == [kind] else [line]
    return "\n".join(out) + "\n"


def _runs_as_ticks(text: str, domain: str | None) -> str:
    """`text` with every `run n` written as the `tick` that ends on the
    n-th next rising edge of `domain`, which rises at each tick t with
    t % P == ceil(P / 2) % P; P follows the `clock` lines."""
    period, time, out = 2, 0, []
    for line in text.splitlines():
        words = line.split("#")[0].split()
        if words[:2] == ["clock", domain]:
            period = int(words[3])
        elif words[:1] == ["run"]:
            end = time
            for _ in range(int(words[1])):
                end += 1
                while end % period != (period - period // 2) % period:
                    end += 1
            line = f"tick {end - time}"
            words = line.split()
        if words[:1] == ["tick"]:
            time += int(words[1])
        out.append(line)
    return "\n".join(out) + "\n"


class TestMetamorphic:
    """Reports (every line, the cover table and the cycle counts) that
    must not change when a program is written another way or traced."""

    @staticmethod
    def _report(design, top, text, wave=None):
        r = run_stimulus(build_sim(design.cores, top, SimFlags()), parse_stimulus(text), wave)
        return r.lines(), r.cover_table, r.cycles

    @pytest.mark.parametrize("fname,top,stim,_b", CLEAN_CORPUS)
    def test_split_runs_and_a_trace_leave_the_report_unchanged(
            self, fname, top, stim, _b, clean_corpus_designs, tmp_path):
        """`run n` as n x `run 1`, and the same program with a VCD trace,
        report exactly what the plain run does."""
        design = clean_corpus_designs[fname][0]
        text = open(corpus_path(stim)).read()
        plain = self._report(design, top, text)
        assert self._report(design, top, _split_lines(text, "run")) == plain
        assert self._report(design, top, text, str(tmp_path / "w.vcd")) == plain

    @pytest.mark.parametrize("fname,top,stim,_b", CLEAN_CORPUS)
    def test_tick_n_as_single_ticks_leaves_the_report_unchanged(
            self, fname, top, stim, _b, clean_corpus_designs, tmp_path):
        """With every `run` written as its `tick`, `tick n` as n x `tick 1`
        reports what the plain run does, traced or not."""
        design = clean_corpus_designs[fname][0]
        image = build_sim(design.cores, top, SimFlags())
        text = open(corpus_path(stim)).read()
        ticks = _runs_as_ticks(text, image.primary_domain)
        plain = self._report(design, top, text)
        single = _split_lines(ticks, "tick")
        assert self._report(design, top, ticks) == plain
        assert self._report(design, top, single) == plain
        assert self._report(design, top, single, str(tmp_path / "w.vcd")) == plain


class TestStimulusDirectives:
    @pytest.mark.parametrize("line,message", [
        ("set nosuch 1", "'`nosuch` is not a primary input'"),
        ("set count 1", "'`count` is not a primary input'"),
        ("expect nosuch 1", "'unknown net `nosuch`'"),
    ])
    def test_unknown_name_names_its_first_line(self, line, message, clean_corpus_designs):
        """Every distinct line is resolved before the first runs, but a
        line naming no net raises only when it is reached, after the
        lines before it have run."""
        design = clean_corpus_designs["counter_wrap200.arch"][0]
        image = build_sim(design.cores, "EvtCounter", SimFlags())
        text = f"clock SysDomain period 2\nset en 1\nrun 2\n{line}\nrun 1\n{line}\n"
        with pytest.raises(StimulusError) as e:
            run_stimulus(image, parse_stimulus(text))
        assert str(e.value) == f"stimulus line 4: {message}"
        assert e.value.line_no == 4
        assert image.steps != {}

    def test_peek_of_an_unknown_name(self, clean_corpus_designs):
        design = clean_corpus_designs["hier_top.arch"][0]
        sim = Simulator(build_sim(design.cores, "HierTop", SimFlags()))
        with pytest.raises(KeyError) as e:
            sim.peek("nosuch")
        assert e.value.args == ("unknown net `nosuch`",)
        assert sim.peek("q_r") == 0  # a register

    def test_set_asserts_an_async_reset_at_once(self):
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
        image = build_sim(design.cores, "LowReset", SimFlags())
        text = "set d 7\nset rst_n 1\nrun 1\nexpect q 7\nset rst_n 0\nexpect q 42\n"
        report = run_stimulus(image, parse_stimulus(text))
        assert report.passed and report.expect_count == 2, report.lines()

    def test_set_asserts_an_async_reset_through_a_child_port(self):
        """A child's async reset port copies its parent's, and a `set` of
        the parent's takes effect at once, as in the flat module."""
        design, _ = build_text("""\
module Leaf
  port clk: in Clock<D>;
  port rst_n: in Reset<Async, Low>;
  port d: in UInt<8>;
  port q: out UInt<8>;
  reg r: UInt<8> reset rst_n => 42;
  seq on clk rising
    r <= d;
  end seq
  comb q = r;
end module Leaf

module Top
  port clk: in Clock<D>;
  port rst_n: in Reset<Async, Low>;
  port d: in UInt<8>;
  port q: out UInt<8>;
  inst leaf: Leaf
    clk <- clk;
    rst_n <- rst_n;
    d <- d;
    q -> q;
  end inst leaf
end module Top
""")
        image = build_sim(design.cores, "Top", SimFlags())
        text = ("set d 7\nset rst_n 1\nrun 1\nexpect q 7\nset rst_n 0\nexpect q 42\n"
                "expect leaf.r 42\n")
        report = run_stimulus(image, parse_stimulus(text))
        assert report.passed and report.expect_count == 3, report.lines()

    def test_hand_built_program_runs(self, clean_corpus_designs):
        """A program made from its lines and their parsed forms runs as
        the parsed text does."""
        design = clean_corpus_designs["counter_wrap200.arch"][0]
        reports = [run_stimulus(build_sim(design.cores, "EvtCounter", SimFlags()), program)
                   for program in (StimulusProgram(["run 3"], {"run 3": (RUN, 3)}),
                                   parse_stimulus("run 3\n"))]
        assert reports[0].cycles == {"SysDomain": 3}
        assert reports[0].lines() == reports[1].lines()

    def test_a_bad_line_is_reported_at_its_first_line(self):
        """Each distinct line is parsed once; an error names the first
        line with the bad text, whichever the line repeats."""
        text = "set en 1\nrun 1\nset en x\nrun 2\nset en x\nwarp 9\nwarp 9\n"
        with pytest.raises(StimulusError) as e:
            parse_stimulus(text)
        assert str(e.value) == "stimulus line 3: bad value 'x'"
        with pytest.raises(StimulusError) as e:
            parse_stimulus(text.replace("set en x", "set en 0"))
        assert (e.value.line_no, e.value.message) == (6, "unknown directive 'warp'")

    def test_a_syntax_error_stops_the_program_before_it_runs(self, clean_corpus_designs):
        """A malformed line after a failing `expect` is still found before
        the first tick: no step is made and nothing is settled."""
        design = clean_corpus_designs["counter_wrap200.arch"][0]
        image = build_sim(design.cores, "EvtCounter", SimFlags())
        calls = _count_settles(image)
        with pytest.raises(StimulusError) as e:
            run_stimulus(image, parse_stimulus(
                "set en 1\nrun 2\nexpect count 99\nrun 1\ntick abc\n"))
        assert str(e.value) == "stimulus line 5: bad count 'abc'"
        assert calls == [] and image.steps == {}

    def test_mismatches_keep_their_source_line_numbers(self, clean_corpus_designs):
        """Blank and comment lines count, and a repeated `expect` line
        reports each place it fails."""
        design = clean_corpus_designs["counter_wrap200.arch"][0]
        image = build_sim(design.cores, "EvtCounter", SimFlags())
        text = ("# counts enabled cycles\n\nset en 1\n  # two cycles\nrun 2\n"
                "expect count 5\n\nexpect count 2\nrun 1   # one more\n"
                "expect count 5\n")
        report = run_stimulus(image, parse_stimulus(text))
        assert [e.message for e in report.events] == [
            "line 6: `count` expected 5, got 2", "line 10: `count` expected 5, got 3"]
        assert (report.expect_count, report.expect_failures) == (3, 2)


class TestSignedSemantics:
    def test_wrap_signed_helper(self):
        assert wrap_signed(255, 8) == -1
        assert wrap_signed(128, 8) == -128
        assert wrap_signed(127, 8) == 127

    def test_signed_division_truncates_toward_zero(self):
        design, _ = build_text("""\
module SDiv
  port a: in SInt<8>;
  port b: in SInt<8>;
  port q: out SInt<8>;
  comb q = a / b;
end module SDiv
""")
        sim = sim_for(design, "SDiv")
        sim.set_input("a", -7)
        sim.set_input("b", 2)
        assert sim.peek("q") == -3  # not floor(-3.5) = -4


class TestGeneratedCode:
    def test_expressions_deeper_than_the_split_depth(self):
        """Chains at the parser's depth limit are split into helper
        functions and still evaluate exactly."""
        from archc.sim.image import SPLIT_DEPTH
        design, _ = build_text(f"""\
module Deep
  port s: in SInt<8>;
  port u: in UInt<8>;
  port y: out SInt<8>;
  port z: out SInt<8>;
  comb y = s{" << u" * 99};
  comb z = {"s -% (" * 49}s{")" * 49};
end module Deep
""")
        image = build_sim(design.cores, "Deep", SimFlags())
        assert any(name.startswith("_e") for name in image.builder.ns)
        sim = Simulator(image)
        for s in (-128, -3, 0, 5, 127):
            for u in (0, 1, 9):
                sim.set_input("s", s)
                sim.set_input("u", u)
                y = s
                for _ in range(99):
                    y = wrap_signed(y << min(u, 8), 8)
                z = s
                for _ in range(49):
                    z = wrap_signed(s - z, 8)
                assert (sim.peek("y"), sim.peek("z")) == (y, z), (s, u)
        assert 99 > SPLIT_DEPTH

    def test_clock_schedule_follows_period_changes(self):
        """Edge counts equal the clocking rule (rise at t % P == P - P//2)
        across co-prime periods whose schedule is longer than the table
        keeps, and across a period change mid-run."""
        from conftest import build_files
        from archc.sim.engine import _TABLE_LIMIT
        design, _ = build_files([corpus_path("cdc_flag.arch")])
        sim = Simulator(build_sim(design.cores, "CdcTop", SimFlags()))
        want = {"SysDomain": 0, "UsbDomain": 0}

        def run(periods, ticks):
            for d, p in periods.items():
                sim.set_period(d, p)
            for t in range(sim.time + 1, sim.time + ticks + 1):
                for d, p in periods.items():
                    want[d] += t % p == (0 if p == 1 else p - p // 2)
            sim.tick(ticks)
            assert sim.cycles == want
            assert len(sim._table) <= _TABLE_LIMIT

        run({"SysDomain": 97, "UsbDomain": 89}, 9000)
        run({"SysDomain": 1, "UsbDomain": 4}, 37)
        run({"SysDomain": 3, "UsbDomain": 5}, 61)
