"""Construct lowering semantics: FSM hold/encoding, FIFO vs software
queue, gray pointers, pipeline latency, counters, auto-property sets."""

import random

import pytest

from conftest import build_text, corpus_path, diag_codes

from archc.diagnostics import CompileError
from archc.sim import SimFlags, build_sim
from archc.sim.engine import Simulator
from archc.sim.image import ExprCompiler


def sim_for(design, top, **flag_kw):
    image = build_sim(design.cores, top, SimFlags(**flag_kw))
    return Simulator(image)


def fsm_text(name, n_states, encoding_comment=""):
    states = [f"S{i}" for i in range(n_states)]
    body = []
    for i, s in enumerate(states):
        nxt = states[(i + 1) % n_states]
        body.append(f"  state {s}\n    -> {nxt} when go;\n  end state {s}")
    return f"""\
fsm {name}
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port go: in Bool;
  port busy: out Bool;
  default state {states[0]};
  default
    comb busy = false;
  end default
{chr(10).join(body)}
end fsm {name}
"""


class TestFsm:
    def test_listing5_controller(self):
        design, _ = build_text(open(corpus_path("fsm_controller.arch")).read())
        core = design.cores["Controller"]
        state = core.regs["state_r"]
        assert str(state.ty) == "UInt<2>"  # 3 states -> width 2
        assert state.reset_value.value == 0  # Idle is the reset state
        names = {p.name for p in core.properties}
        assert "_auto_legal_state" in names
        assert {"_auto_state_Idle", "_auto_state_Active", "_auto_state_Done"} <= names
        assert "_auto_trans_Idle_Active" in names

    def test_single_state_holds(self):
        design, _ = build_text("""\
fsm One
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port busy: out Bool;
  default state Only;
  default
    comb busy = false;
  end default
  state Only
    let busy = true;
  end state Only
end fsm One
""")
        core = design.cores["One"]
        assert str(core.regs["state_r"].ty) == "UInt<1>"
        sim = sim_for(design, "One")
        sim.run_cycles("D", 4)
        assert sim.peek("state_r") == 0
        assert sim.peek("busy") == 1

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_hold_when_no_transition_fires(self, n):
        design, _ = build_text(fsm_text("Ring", n))
        sim = sim_for(design, "Ring")
        sim.set_input("go", 1)
        sim.run_cycles("D", 2)
        state_before = sim.peek("state_r")
        sim.set_input("go", 0)
        for _ in range(5):
            sim.run_cycles("D", 1)
            assert sim.peek("state_r") == state_before

    def test_onehot_encoding(self):
        design, _ = build_text(fsm_text("Hot", 3), fsm_encoding="onehot")
        core = design.cores["Hot"]
        assert str(core.regs["state_r"].ty) == "UInt<3>"
        assert core.regs["state_r"].reset_value.value == 1  # one-hot S0
        sim = sim_for(design, "Hot")
        sim.set_input("go", 1)
        seen = set()
        for _ in range(6):
            sim.run_cycles("D", 1)
            v = sim.peek("state_r")
            seen.add(v)
            assert v in (1, 2, 4) and bin(v).count("1") == 1
        assert seen == {1, 2, 4}

    def test_onehot_legal_state_popcount(self):
        """One-hot legality = exactly-one-hot, validated against brute force
        over all 8 encodings of a 3-state register."""
        design, _ = build_text(fsm_text("Hot3", 3), fsm_encoding="onehot")
        core = design.cores["Hot3"]
        prop = [p for p in core.properties if p.name == "_auto_legal_state"][0]
        image = build_sim(design.cores, "Hot3", SimFlags())
        fprop = [p for p in image.props if p.name == "_auto_legal_state"][0]
        fn = compile(ExprCompiler(image.builder).value(fprop.expr), fprop.name, "eval")
        sim = Simulator(image)
        idx = image.regs["state_r"].index
        for encoding in range(8):
            sim.values[idx] = encoding
            want = 1 if bin(encoding).count("1") == 1 else 0
            assert eval(fn, image.builder.ns, {"v": sim.values}) == want, encoding

    def test_no_default_state(self):
        with pytest.raises(CompileError) as e:
            build_text("""\
fsm Lost
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port busy: out Bool;
  default
    comb busy = false;
  end default
  state A
    -> A;
  end state A
end fsm Lost
""")
        assert "E_NO_DEFAULT_STATE" in diag_codes(e.value)

    def test_unknown_target_state(self):
        with pytest.raises(CompileError) as e:
            build_text("""\
fsm Astray
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port go: in Bool;
  port busy: out Bool;
  default state A;
  default
    comb busy = false;
  end default
  state A
    -> Gone when go;
  end state A
end fsm Astray
""")
        assert "E_UNKNOWN_TARGET_STATE" in diag_codes(e.value)


FIFO_TMPL = """\
fifo Q
  param DEPTH: const = {depth};
  param TYPE: type = UInt<16>;
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port push_valid: in Bool;
  port push_ready: out Bool;
  port push_data: in UInt<16>;
  port pop_valid: out Bool;
  port pop_ready: in Bool;
  port pop_data: out UInt<16>;
  port full: out Bool;
  port empty: out Bool;
end fifo Q
"""


def drive_fifo(sim, rng, n_ops, oracle_depth):
    """Randomized legal push/pop against a software queue oracle."""
    from collections import deque
    oracle = deque()
    mismatches = 0
    pushed = popped = 0
    for _ in range(n_ops):
        do_push = rng.random() < 0.55 and not sim.peek("full")
        do_pop = rng.random() < 0.5 and not sim.peek("empty")
        data = rng.randrange(1 << 16)
        sim.set_input("push_valid", 1 if do_push else 0)
        if do_push:
            sim.set_input("push_data", data)
        sim.set_input("pop_ready", 1 if do_pop else 0)
        if do_pop:
            got = sim.peek("pop_data")
            want = oracle[0]
            if got != want:
                mismatches += 1
        sim.run_cycles("D", 1)
        if do_push:
            oracle.append(data)
            pushed += 1
        if do_pop:
            oracle.popleft()
            popped += 1
        assert len(oracle) <= oracle_depth
        occupancy = sim.peek("occupancy")
        assert occupancy == len(oracle)
    return mismatches, pushed, popped


class TestFifo:
    @pytest.mark.parametrize("depth", [1, 3, 8])
    def test_software_queue_oracle(self, depth):
        design, _ = build_text(FIFO_TMPL.format(depth=depth))
        sim = sim_for(design, "Q")
        rng = random.Random(1000 + depth)
        mism, pushed, popped = drive_fifo(sim, rng, 2000, depth)
        assert mism == 0
        assert pushed > 100 and popped > 100
        assert sim.report.assert_failures == 0

    def test_depth1_full_after_one_push(self):
        design, _ = build_text(FIFO_TMPL.format(depth=1))
        sim = sim_for(design, "Q")
        assert sim.peek("empty") == 1
        sim.set_input("push_valid", 1)
        sim.set_input("push_data", 7)
        sim.run_cycles("D", 1)
        sim.set_input("push_valid", 0)
        assert sim.peek("full") == 1 and sim.peek("pop_data") == 7

    def test_overflow_property_fires_within_one_cycle(self):
        design, _ = build_text(FIFO_TMPL.format(depth=2))
        sim = sim_for(design, "Q")
        sim.set_input("push_valid", 1)
        sim.set_input("push_data", 1)
        sim.run_cycles("D", 2)   # fill to depth 2
        assert sim.peek("full") == 1
        assert sim.report.assert_failures == 0
        sim.run_cycles("D", 1)   # illegal: push while full
        fails = [e for e in sim.report.events if e.name == "_auto_no_overflow"]
        assert len(fails) == 1

    def test_underflow_property(self):
        design, _ = build_text(FIFO_TMPL.format(depth=2))
        sim = sim_for(design, "Q")
        sim.set_input("pop_ready", 1)
        sim.run_cycles("D", 1)   # illegal: pop while empty
        fails = [e for e in sim.report.events if e.name == "_auto_no_underflow"]
        assert len(fails) == 1

    def test_lifo_unsupported(self):
        with pytest.raises(CompileError) as e:
            build_text(FIFO_TMPL.format(depth=4).replace(
                "param DEPTH", "kind lifo;\n  param DEPTH"))
        assert "E_UNSUPPORTED" in diag_codes(e.value)

    def test_dual_clock_rejects_non_pow2(self):
        text = open(corpus_path("fifo_async16.arch")).read().replace(
            "const = 16", "const = 12")
        with pytest.raises(CompileError) as e:
            build_text(text)
        assert "E_FIFO_DEPTH" in diag_codes(e.value)

    def test_gray_pointer_single_bit_steps(self):
        """Exhaustive over the pointer range: successive gray codes differ
        in exactly one bit (checked против the closed form, then observed
        live on the write pointer)."""
        w = 5
        gray = [(i >> 1) ^ i for i in range(1 << w)]
        for a, b in zip(gray, gray[1:] + gray[:1]):
            assert bin(a ^ b).count("1") == 1
        design, _ = build_text(open(corpus_path("fifo_async16.arch")).read())
        sim = sim_for(design, "AsyncBuf")
        sim.set_period("WriteDomain", 2)
        sim.set_period("ReadDomain", 2)
        sim.set_input("push_valid", 1)
        sim.set_input("pop_ready", 1)
        sim.set_input("push_data", 5)
        last = sim.peek("wr_gray")
        for _ in range(40):
            sim.run_cycles("WriteDomain", 1)
            cur = sim.peek("wr_gray")
            if cur != last:
                assert bin(cur ^ last).count("1") == 1
                last = cur


class TestCounter:
    def test_wrap200_fixture_widths(self):
        design, _ = build_text(open(corpus_path("counter_wrap200.arch")).read())
        core = design.cores["EvtCounter"]
        assert str(core.regs["count_r"].ty) == "UInt<8>"  # ceil(log2 201)
        assert any(p.name == "_auto_count_range" for p in core.properties)

    def test_wrap_15th_enabled_cycle(self):
        design, _ = build_text(open(corpus_path("counter_wrap15.arch")).read())
        sim = sim_for(design, "Nibble")
        sim.set_input("en", 1)
        sim.run_cycles("SysDomain", 15)
        assert sim.peek("count") == 15
        # cycle-15 state is sampled at the 16th posedge, which also wraps
        sim.run_cycles("SysDomain", 1)
        fails = [e for e in sim.report.events if e.name == "never_full"]
        assert fails and fails[0].cycle == 15
        assert sim.peek("count") == 0

    def test_saturating_holds(self):
        design, _ = build_text(open(corpus_path("counter_sat10.arch")).read())
        sim = sim_for(design, "SatTen")
        sim.set_input("en", 1)
        sim.run_cycles("SysDomain", 25)
        assert sim.peek("count") == 10

    def test_saturating_max1(self):
        design, _ = build_text("""\
counter One
  param MAX: const = 1;
  kind saturating;
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port count: out UInt<1>;
end counter One
""")
        sim = sim_for(design, "One")
        sim.set_input("en", 1)
        sim.run_cycles("D", 3)
        assert sim.peek("count") == 1

    def test_bad_kind(self):
        with pytest.raises(CompileError) as e:
            build_text("""\
counter Jo
  param MAX: const = 3;
  kind johnson;
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port count: out UInt<2>;
end counter Jo
""")
        assert "E_UNSUPPORTED" in diag_codes(e.value)


class TestSynchronizer:
    def test_stages_latency(self):
        design, _ = build_text(open(corpus_path("sync_ff2.arch")).read())
        sim = sim_for(design, "SysToUsb")
        sim.set_input("data_in", 1)
        sim.run_cycles("UsbDomain", 1)
        assert sim.peek("data_out") == 0
        sim.run_cycles("UsbDomain", 1)
        assert sim.peek("data_out") == 1  # nominal latency = 2 dst cycles

    def test_min_stages(self):
        text = open(corpus_path("sync_ff2.arch")).read().replace("const = 2", "const = 1")
        with pytest.raises(CompileError) as e:
            build_text(text)
        assert "E_SYNC_STAGES" in diag_codes(e.value)

    def test_multibit_rejected(self):
        text = open(corpus_path("sync_ff2.arch")).read().replace(
            "data_in: in Bool", "data_in: in UInt<8>").replace(
            "data_out: out Bool", "data_out: out UInt<8>")
        with pytest.raises(CompileError) as e:
            build_text(text)
        d = [x for x in e.value.diagnostics if x.code == "E_SYNC_WIDTH"][0]
        assert "fifo" in d.message  # directs bulk data to an async fifo


class TestPipeline:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_latency_no_stall(self, k):
        """Token entering stage 1 at cycle t appears at stage k at t+k-1."""
        stages = "\n".join(f"""\
  stage P{i}
    reg v: UInt<8> reset rst => 0;
    seq on clk rising
      v <= {'din' if i == 0 else f'P{i-1}.v'};
    end seq
  end stage P{i}""" for i in range(k))
        text = f"""\
pipeline Lat{k}
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port din: in UInt<8>;
  port dout: out UInt<8>;
{stages}
  comb dout = P{k-1}.v;
end pipeline Lat{k}
"""
        design, _ = build_text(text)
        sim = sim_for(design, f"Lat{k}")
        sim.set_input("din", 99)
        sim.run_cycles("D", 1)   # token enters stage 1 (cycle 1 state)
        sim.set_input("din", 0)
        for _ in range(k - 1):
            sim.run_cycles("D", 1)
        assert sim.peek(f"P{k-1}.v") == 99
        assert sim.peek(f"P{k-1}.valid_r") == 1

    def test_stall_freezes_earlier_stages_only(self):
        design, _ = build_text(open(corpus_path("pipe3.arch")).read())
        sim = sim_for(design, "Pipe3")
        sim.set_input("din", 10)
        sim.run_cycles("SysDomain", 3)
        sim.set_input("stall_in", 1)
        v1, v2 = sim.peek("S1.v1"), sim.peek("S2.v2")
        sim.run_cycles("SysDomain", 2)
        assert (sim.peek("S1.v1"), sim.peek("S2.v2")) == (v1, v2)
        assert sim.peek("S3.valid_r") == 0  # bubble entered S3

    def test_flush_clears_valid_next_cycle_only(self):
        design, _ = build_text(open(corpus_path("pipe3.arch")).read())
        sim = sim_for(design, "Pipe3")
        sim.set_input("din", 7)
        sim.run_cycles("SysDomain", 3)
        assert sim.peek("S1.valid_r") == 1
        exec_valid_before = sim.peek("S2.valid_r")
        sim.set_input("flush_in", 1)
        sim.run_cycles("SysDomain", 1)
        sim.set_input("flush_in", 0)
        assert sim.peek("S1.valid_r") == 0
        assert sim.peek("S2.valid_r") == exec_valid_before  # unaffected that cycle

    def test_unknown_flush_stage(self):
        text = open(corpus_path("pipe3.arch")).read().replace(
            "flush S1 when", "flush S9 when")
        with pytest.raises(CompileError) as e:
            build_text(text)
        assert "E_UNKNOWN_STAGE" in diag_codes(e.value)

    def test_stage_order(self):
        with pytest.raises(CompileError) as e:
            build_text(open(corpus_path("bad/28_stage_order.arch")).read())
        assert "E_STAGE_ORDER" in diag_codes(e.value)


class TestAutoProps:
    def test_name_sets_stable_across_compiles(self):
        text = open(corpus_path("fifo_sync8.arch")).read()
        names = []
        for _ in range(2):
            design, _ = build_text(text)
            names.append([p.name for p in design.cores["SyncBuf"].properties])
        assert names[0] == names[1]
        assert {"_auto_no_overflow", "_auto_no_underflow"} <= set(names[0])

    def test_div0_property_emitted(self):
        design, _ = build_text(open(corpus_path("safe_div.arch")).read())
        names = [p.name for p in design.cores["SafeDiv"].properties]
        assert any(n.startswith("_auto_div0") for n in names)

    def test_bound_property_for_dynamic_bitselect(self):
        design, _ = build_text(open(corpus_path("bit_sel.arch")).read())
        names = [p.name for p in design.cores["BitSel"].properties]
        assert any(n.startswith("_auto_bound") for n in names)

    def test_constant_index_no_property(self):
        design, _ = build_text("""\
module ConstIdx
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port d: in UInt<8>;
  port q: out UInt<8>;
  reg mem: Vec<UInt<8>, 8> reset rst => 0;
  seq on clk rising
    mem[7] <= d;
  end seq
  comb q = mem[7];
end module ConstIdx
""")
        names = [p.name for p in design.cores["ConstIdx"].properties]
        assert not any(n.startswith("_auto_bound") for n in names)
