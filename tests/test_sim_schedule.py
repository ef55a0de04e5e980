"""The clock schedule: which edges each tick runs, across period changes,
unaligned starts, stops and aborts in the middle of a `run`, and periods
whose schedule is long. The pinned values (cycles, peeks, report lines,
final times, VCD bytes) were recorded from the simulator that dispatched
every tick from Python, before the generated tick loop replaced it."""

import hashlib
import random

import pytest

from conftest import build_files, build_text, corpus_path

from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
from archc.sim.engine import Simulator
from archc.sim.image import ImageBuilder
from archc.sim.vcd import VcdTrace


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def _image(fname, top, **flags):
    design, _ = build_files([corpus_path(fname)])
    return build_sim(design.cores, top, SimFlags(**flags))


class TestTickByTick:
    """Testbench-driven runs: one `Simulator.tick(1)` at a time."""

    def test_fifo_async16_at_periods_3_and_5(self):
        sim = Simulator(_image("fifo_async16.arch", "AsyncBuf"))
        sim.set_period("WriteDomain", 3)
        sim.set_period("ReadDomain", 5)
        rng = random.Random("schedule:fifo16")
        rows = []
        for k in range(600):
            if k % 4 == 0:
                sim.set_input("rst_wr", int(k < 8))
                sim.set_input("rst_rd", int(k < 8))
                sim.set_input("push_valid", int(rng.random() < 0.6))
                sim.set_input("push_data", rng.getrandbits(32))
                sim.set_input("pop_ready", int(rng.random() < 0.5))
            sim.tick(1)
            rows.append((sim.time, dict(sim.cycles), sim.peek("push_ready"),
                         sim.peek("pop_valid"), sim.peek("pop_data"), sim.peek("full"),
                         sim.peek("empty")))
        assert sim.time == 600
        assert sim.cycles == {"ReadDomain": 120, "WriteDomain": 200}
        lines = sim.report.lines()
        assert (lines[-1], _digest(lines), _digest(rows)) == ('PASS: 0/0 expects, 59 assertion failures, time 0', '4b182adbf93f226c', 'dfa602d3bac366f8')

    def test_cdc_flag_at_periods_2_and_3_under_cdc_random(self):
        sim = Simulator(_image("cdc_flag.arch", "CdcTop", cdc_random=True, seed=11))
        sim.set_period("SysDomain", 2)
        sim.set_period("UsbDomain", 3)
        rng = random.Random("schedule:cdc")
        rows, flag = [], 0
        for k in range(900):
            if k % 5 == 0 and rng.random() < 0.5:
                flag ^= 1
                sim.set_input("flag_in", flag)
            sim.tick(1)
            rows.append((sim.time, dict(sim.cycles), sim.peek("sys_flag"),
                         sim.peek("bridge.data_out"), sim.peek("flag_out")))
        assert sim.cycles == {"SysDomain": 450, "UsbDomain": 300}
        lines = sim.report.lines()
        assert (lines[-1], _digest(lines), _digest(rows)) == ('PASS: 0/0 expects, 0 assertion failures, time 0', '047813e2ba07800d', 'e7cfa80954975dd1')

    def test_tick_n_from_an_unaligned_time(self):
        """`tick(n)` and `run_cycles` from times that are not on an edge,
        across period changes. A clock net keeps its value from a period
        change until the next tick, also over a `tick(0)`."""
        sim = Simulator(_image("counter_wrap200.arch", "EvtCounter"))
        sim.set_input("en", 1)
        rows = []
        for op, arg in [("period", 5), ("tick", 3), ("run", 2), ("tick", 4), ("run", 1),
                        ("tick", 1), ("period", 7), ("tick", 2), ("period", 1), ("tick", 0),
                        ("period", 7), ("run", 3), ("tick", 0), ("period", 1), ("run", 2),
                        ("tick", 3), ("period", 4), ("run", 1), ("period", 6), ("tick", 2)]:
            if op == "period":
                sim.set_period("SysDomain", arg)
            elif op == "tick":
                sim.tick(arg)
            else:
                sim.run_cycles("SysDomain", arg)
            rows.append((op, arg, sim.time, sim.cycles["SysDomain"], sim.peek("count"),
                         sim.peek("clk")))
        assert rows == [
            ("period", 5, 0, 0, 0, 0), ("tick", 3, 3, 1, 1, 1), ("run", 2, 13, 3, 3, 1),
            ("tick", 4, 17, 3, 3, 0), ("run", 1, 18, 4, 4, 1), ("tick", 1, 19, 4, 4, 1),
            ("period", 7, 19, 4, 4, 1), ("tick", 2, 21, 4, 4, 0), ("period", 1, 21, 4, 4, 0),
            ("tick", 0, 21, 4, 4, 0), ("period", 7, 21, 4, 4, 0), ("run", 3, 39, 7, 7, 1),
            ("tick", 0, 39, 7, 7, 1), ("period", 1, 39, 7, 7, 1), ("run", 2, 41, 9, 9, 1),
            ("tick", 3, 44, 12, 12, 1), ("period", 4, 44, 12, 12, 1), ("run", 1, 46, 13, 13, 1),
            ("period", 6, 46, 13, 13, 1), ("tick", 2, 48, 13, 13, 0)]

    def test_a_trace_attached_between_ticks_samples_the_next_ones(self):
        """Attaching a trace mid-run makes the next tick sample: first the
        state it starts from, then every tick (the clock toggles at each)."""
        image = _image("counter_wrap200.arch", "EvtCounter")
        sim = Simulator(image)
        sim.set_input("en", 1)
        sim.tick(4)
        sim.trace = VcdTrace(image)
        sim.tick(3)
        assert [line for line in sim.trace.changes if line[0] == "#"] == ["#4", "#5", "#6", "#7"]
        assert sim.cycles == {"SysDomain": 4}


COUNTER_MID_CLOCK = """\
clock SysDomain period 2
set en 1
run 3
clock SysDomain period 5
tick 2
expect count 3
run 2
clock SysDomain period 1
run 4
expect count 9
clock SysDomain period 4
tick 3
set en 0
tick 1
clock SysDomain period 3
run 2
tick 2
"""

CDC_MID_CLOCK = """\
clock SysDomain period 2
clock UsbDomain period 3
set flag_in 1
run 4
clock UsbDomain period 1
tick 3
set flag_in 0
clock SysDomain period 5
run 2
tick 1
clock UsbDomain period 4
run 3
"""


class TestProgram:
    @pytest.mark.parametrize("fname,top,text,flags,want", [
        ("counter_wrap200.arch", "EvtCounter", COUNTER_MID_CLOCK, {},
         (["PASS: 2/2 expects, 0 assertion failures, time 28"], {"SysDomain": 12},
          "35753f5bcbd910f2")),
        ("cdc_flag.arch", "CdcTop", CDC_MID_CLOCK, {"cdc_random": True, "seed": 3},
         (["PASS: 0/0 expects, 0 assertion failures, time 33"],
          {"SysDomain": 10, "UsbDomain": 17}, "82ad0b1638f7b1ea")),
    ], ids=["counter", "cdc_flag"])
    def test_clock_line_in_the_middle(self, fname, top, text, flags, want, tmp_path):
        """`clock` lines between runs: the report and the VCD (which shows
        the clock nets) are the pinned ones, and untraced reports the same."""
        wave = tmp_path / "w.vcd"
        traced = run_stimulus(_image(fname, top, **flags), parse_stimulus(text), str(wave))
        plain = run_stimulus(_image(fname, top, **flags), parse_stimulus(text))
        assert traced.lines() == plain.lines() and traced.cycles == plain.cycles
        assert (traced.lines(), traced.cycles,
                hashlib.sha256(wave.read_bytes()).hexdigest()[:16]) == want

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_stop_on_assert_in_the_middle_of_a_run(self, traced, tmp_path):
        image = _image("counter_wrap15.arch", "Nibble", stop_on_assert=True)
        text = "clock SysDomain period 3\nset en 1\n" + "run 5\n" * 5
        wave = str(tmp_path / "w.vcd") if traced else None
        report = run_stimulus(image, parse_stimulus(text), wave)
        assert (report.lines(), report.final_time, report.cycles) == (
            ["[ASSERT_FAIL] cycle 15 (SysDomain): assertion `never_full` failed",
             "FAIL: 0/0 expects, 1 assertion failures, time 47"], 47, {"SysDomain": 16})

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_abort_in_the_middle_of_a_run(self, traced, tmp_path):
        design, _ = build_text("""\
module Div
  port clk: in Clock<D>;
  port y: out UInt<8>;
  reg c: UInt<8> reset none;
  seq on clk rising
    c <= c +% 1;
  end seq
  comb y = 100 / (c ^ 7);
end module Div
""")
        image = build_sim(design.cores, "Div", SimFlags())
        wave = str(tmp_path / "w.vcd") if traced else None
        report = run_stimulus(image, parse_stimulus("clock D period 3\nrun 5\nrun 5\nrun 5\n"),
                              wave)
        assert (report.lines(), report.final_time, report.cycles) == (
            ["[ABORT] cycle 7 (): DIV_BY_ZERO: division by zero at test.arch:8:12",
             "ABORT: 0/0 expects, 0 assertion failures, time 21"], 21, {"D": 7})


def _generated_chars(monkeypatch) -> list:
    """Record the length of every generated source compiled from now on."""
    sizes = []
    run = ImageBuilder.run

    def counted(self, source):
        sizes.append(len("".join(self._pending) + source))
        return run(self, source)

    monkeypatch.setattr(ImageBuilder, "run", counted)
    return sizes


class TestLongSchedule:
    def test_coprime_periods(self, monkeypatch):
        """Periods 97 and 89 repeat only every 8,633 ticks. Over 10,000
        ticks each domain sees the edges the clocking rule gives (a rise
        at t % P == P - P // 2, so (t + P // 2) // P of them by tick t)
        and its clock net holds the value the rule gives, and the
        generated code is no larger than for periods 3 and 5, which have
        the same eight edge sets in a 15-tick schedule."""
        sizes = {}
        for periods in ((3, 5), (97, 89)):
            sim = Simulator(_image("cdc_flag.arch", "CdcTop"))
            chars = _generated_chars(monkeypatch)
            clocks = {"SysDomain": ("sys_clk", periods[0]), "UsbDomain": ("usb_clk", periods[1])}
            for d, (_clk, p) in clocks.items():
                sim.set_period(d, p)
            sim.set_input("flag_in", 1)
            for _ in range(270):  # 270 * 37 = 9,990 ticks, ending at every phase
                sim.tick(37)
                for d, (clk, p) in clocks.items():
                    assert sim.cycles[d] == (sim.time + p // 2) // p
                    assert sim.peek(clk) == int(sim.time % p >= p - p // 2)
            sim.tick(10)
            assert sim.time == 10_000
            assert sim.peek("flag_out") == 1
            sizes[periods] = sum(chars)
            monkeypatch.undo()
        assert sizes[(97, 89)] <= 1.2 * sizes[(3, 5)], sizes


class TestReplayCompileCost:
    def test_a_replaying_verify_compiles_two_functions(self, monkeypatch):
        """A replay image compiles its settle and one tick loop: a replayed
        trace runs at period 1, one edge set at every tick. Compiling is a
        large part of a replaying `verify`, so the count may not grow."""
        from archc.formal import verify
        design, _ = build_files([corpus_path("fsm_controller.arch")])
        chars = _generated_chars(monkeypatch)
        result = verify(design.cores["Controller"], 10, "builtin")
        assert [r.status for r in result.results].count("HIT") == 6
        assert len(chars) == 2
