"""`sim` workload: one op is `build_sim` plus one long seeded test.

Stimulus tests run a generated program through `run_stimulus`, with
`expect` lines computed by the reference models in refmodels.py.
Reactive tests drive `Simulator.set_input/tick/peek` the way a cocotb
testbench would and keep a scoreboard. Sizes are fixed; the seed only
picks the values, so every seed does the same amount of simulation.
"""

from __future__ import annotations

import os
import random
import sys
from collections import deque

import refmodels
from harness import Op, compile_text

IMPORTS = ["archc.cli", "archc.sim"]

CYCLES = {
    "counter": 6000, "fsm": 2500, "pipe3": 2500, "accum": 4000, "mac": 4000,
    "fifo_sync8": 2500, "fifo_async16": 600, "cdc_toggles": 600,
    "systolic_steps": 200, "vcd": 3000,
}
SYSTOLIC_SIZE = 64
VCD_NETS = ("a", "b", "doubled", "core.x", "core.y", "core.s", "q_r", "q")


# ── stimulus programs ───────────────────────────────────────────


def counter_program(rng, max_value: int, saturating: bool, cycles: int) -> str:
    model = refmodels.Counter(max_value, saturating)
    lines = ["clock SysDomain period 2"]
    left = cycles
    while left:
        en = int(rng.random() < 0.85)
        rst = int(rng.random() < 0.03)
        n = min(left, rng.randint(1, 24))
        lines += [f"set en {en}", f"set rst {rst}", f"run {n}"]
        for _ in range(n):
            model.step(en, rst)
        lines.append(f"expect count {model.count}")
        left -= n
    return "\n".join(lines) + "\n"


def fsm_program(rng, ports: tuple[str, str, str, str], cycles: int) -> str:
    go, fin, out1, out2 = ports
    model = refmodels.Fsm()
    lines = ["clock SysDomain period 2"]
    for _ in range(cycles):
        g, f, r = int(rng.random() < 0.4), int(rng.random() < 0.4), int(rng.random() < 0.02)
        lines += [f"set {go} {g}", f"set {fin} {f}", f"set rst {r}", "run 1"]
        model.step(g, f, r)
        lines += [f"expect {out1} {int(model.state == 1)}",
                  f"expect {out2} {int(model.state == 2)}"]
    return "\n".join(lines) + "\n"


def pipe3_program(rng, cycles: int) -> str:
    model = refmodels.Pipe3()
    lines = ["clock SysDomain period 2"]
    for _ in range(cycles):
        din = rng.getrandbits(8)
        stall, flush = int(rng.random() < 0.25), int(rng.random() < 0.1)
        rst = int(rng.random() < 0.01)
        lines += [f"set din {din}", f"set stall_in {stall}", f"set flush_in {flush}",
                  f"set rst {rst}", "run 1"]
        model.step(din, stall, flush, rst)
        lines += [f"expect dout {model.v[2]}", f"expect S1.v1 {model.v[0]}",
                  f"expect S2.v2 {model.v[1]}"]
        lines += [f"expect S{i + 1}.valid_r {model.valid[i]}" for i in range(3)]
    return "\n".join(lines) + "\n"


def accum_program(rng, cycles: int) -> str:
    model = refmodels.Accum()
    lines = ["clock SysDomain period 2"]
    left = cycles
    while left:
        en, d, rst = int(rng.random() < 0.8), rng.getrandbits(8), int(rng.random() < 0.02)
        n = min(left, rng.randint(1, 8))
        lines += [f"set en {en}", f"set d {d}", f"set rst {rst}", f"run {n}"]
        for _ in range(n):
            model.step(en, d, rst)
        lines.append(f"expect total {model.acc}")
        left -= n
    return "\n".join(lines) + "\n"


def mac_program(rng, cycles: int) -> str:
    model = refmodels.WrapMac()
    lines = ["clock SysDomain period 2"]
    left = cycles
    while left:
        en, x, k = int(rng.random() < 0.8), rng.getrandbits(8), rng.getrandbits(4)
        rst = int(rng.random() < 0.02)
        n = min(left, rng.randint(1, 8))
        lines += [f"set en {en}", f"set x {x}", f"set k {k}", f"set rst {rst}", f"run {n}"]
        for _ in range(n):
            model.step(en, x, k, rst)
        lines.append(f"expect acc_out {model.acc}")
        left -= n
    return "\n".join(lines) + "\n"


def systolic_program(rng, size: int, steps: int) -> str:
    lines = []
    for _ in range(steps):
        values = [rng.randrange(-128, 128) for _ in range(size)]
        lines += [f"set data_in_{i} {v}" for i, v in enumerate(values)]
        lines.append("tick 1")
        j = rng.randrange(size)
        lines.append(f"expect pe_{j}.sum_out {refmodels.systolic_total(values[:j + 1], 8)}")
        lines.append(f"expect total {refmodels.systolic_total(values, 8)}")
    return "\n".join(lines) + "\n"


def vcd_program(rng, cycles: int) -> tuple[str, dict]:
    """hier_top with a waveform; returns the program and the final value of
    every net in VCD_NETS."""
    model = refmodels.HierTop()
    lines = ["clock SysDomain period 2"]
    a = b = 0
    for k in range(cycles):
        a, b, rst = rng.getrandbits(8), rng.getrandbits(8), int(rng.random() < 0.02)
        lines += [f"set a {a}", f"set b {b}", f"set rst {rst}", "run 1"]
        model.step(a, b, rst)
        if k % 8 == 7:
            lines.append(f"expect q {model.q}")
    final = dict(refmodels.HierTop.comb(a, b), a=a, b=b, q_r=model.q, q=model.q)
    lines += [f"expect {name} {final[name]}" for name in VCD_NETS]
    return "\n".join(lines) + "\n", final


def count_expects(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("expect "))


def read_vcd_final(path: str) -> dict:
    """Last value of every variable in a VCD file, by dotted name below
    the top scope."""
    names: dict[str, str] = {}
    scopes: list[str] = []
    final: dict[str, int] = {}
    in_body = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if not in_body:
                if parts[0] == "$scope":
                    scopes.append(parts[2])
                elif parts[0] == "$upscope":
                    scopes.pop()
                elif parts[0] == "$var":
                    names[parts[3]] = ".".join(scopes[1:] + [parts[4]])
                elif parts[0] == "$enddefinitions":
                    in_body = True
            elif parts[0].startswith("b"):
                final[names[parts[1]]] = int(parts[0][1:], 2)
            elif parts[0][0] in "01":
                final[names[parts[0][1:]]] = int(parts[0][0])
    return final


# ── reactive testbenches ────────────────────────────────────────


def fifo_sync_bench(archc, image, rng, cycles: int, depth: int = 8) -> dict:
    sim = archc.sim.Simulator(image)
    queue: deque = deque()
    problems = []
    for _ in range(cycles):
        push_ready, pop_valid = sim.peek("push_ready"), sim.peek("pop_valid")
        empty, full = sim.peek("empty"), sim.peek("full")
        if (empty, full, pop_valid, push_ready) != (
                int(not queue), int(len(queue) == depth), int(bool(queue)),
                int(len(queue) < depth)):
            problems.append(f"flags {empty, full, pop_valid, push_ready} "
                            f"with {len(queue)} words stored")
            break
        pop = int(pop_valid and rng.random() < 0.5)
        if pop and sim.peek("pop_data") != queue.popleft():
            problems.append("pop_data out of order")
            break
        push = int(push_ready and rng.random() < 0.55)
        data = rng.getrandbits(16)
        sim.set_input("pop_ready", pop)
        sim.set_input("push_valid", push)
        sim.set_input("push_data", data)
        if push:
            queue.append(data)
        sim.tick(2)
    return {"problems": problems, "report": sim.report,
            "cycles": sum(sim.cycles.values())}


def fifo_async_bench(archc, image, rng, pushes: int) -> dict:
    sim = archc.sim.Simulator(image)
    sim.set_period("WriteDomain", 3)
    sim.set_period("ReadDomain", 5)
    queue: deque = deque()
    problems = []
    left, ticks, limit = pushes, 0, pushes * 40 + 400
    while (left or queue) and ticks < limit:
        # state changes only at edges, so these are the pre-edge values
        push_ready, pop_valid = sim.peek("push_ready"), sim.peek("pop_valid")
        pop_data = sim.peek("pop_data") if pop_valid else None
        push = int(bool(left) and push_ready and rng.random() < 0.7)
        pop = int(pop_valid and rng.random() < 0.6)
        data = rng.getrandbits(32)
        sim.set_input("push_valid", push)
        sim.set_input("push_data", data)
        sim.set_input("pop_ready", pop)
        wr, rd = sim.cycles["WriteDomain"], sim.cycles["ReadDomain"]
        while sim.cycles["WriteDomain"] == wr and sim.cycles["ReadDomain"] == rd:
            sim.tick(1)
            ticks += 1
        if push and sim.cycles["WriteDomain"] > wr:
            queue.append(data)
            left -= 1
        if pop and sim.cycles["ReadDomain"] > rd:
            if not queue or pop_data != queue.popleft():
                problems.append("pop_data out of order")
                break
    if left or queue:
        problems.append(f"{left} words not pushed and {len(queue)} not popped "
                        f"after {ticks} ticks")
    return {"problems": problems, "report": sim.report,
            "cycles": sum(sim.cycles.values())}


def cdc_bench(archc, image, rng, toggles: int, stages: int = 2) -> dict:
    """Toggle flag_in; the bridge output must follow sys_flag after STAGES
    or STAGES+1 destination edges, and flag_out one edge after that."""
    sim = archc.sim.Simulator(image)
    sim.set_period("SysDomain", 2)
    sim.set_period("UsbDomain", 3)
    problems = []
    flag = 0

    def wait_for(net: str) -> int:
        start = sim.cycles["UsbDomain"]
        for _ in range(64):
            if sim.peek(net) == flag:
                return sim.cycles["UsbDomain"] - start
            sim.tick(1)
        return -1

    for _ in range(toggles):
        flag ^= 1
        sim.set_input("flag_in", flag)
        wait_for("sys_flag")
        latency = wait_for("bridge.data_out")
        if not stages <= latency <= stages + 1:
            problems.append(f"flag crossed in {latency} destination cycles")
            break
        if wait_for("flag_out") != 1:
            problems.append("flag_out did not follow the bridge by one cycle")
            break
        sim.tick(rng.randrange(6))
    return {"problems": problems, "report": sim.report,
            "cycles": sum(sim.cycles.values())}


# ── ops ─────────────────────────────────────────────────────────


def _stimulus_op(archc, name, design, top, text, trace_path=None, final=None):
    expects = count_expects(text)

    def run():
        image = archc.sim.build_sim(design.cores, top, archc.sim.SimFlags())
        program = archc.sim.parse_stimulus(text)
        return archc.sim.run_stimulus(image, program, trace_path=trace_path)

    def check(report) -> list[str]:
        problems = []
        if not report.passed or report.expect_count != expects:
            problems.append(f"{report.expect_count - report.expect_failures}/"
                            f"{expects} expects passed; " + "; ".join(report.lines()[:3]))
        if final is not None:
            got = read_vcd_final(trace_path)
            wrong = {n: (got.get(n), v) for n, v in final.items() if got.get(n) != v}
            if wrong:
                problems.append(f"final VCD values differ: {wrong}")
        return problems

    def work(report) -> dict:
        return {"sim.cycles": sum(report.cycles.values())}

    return Op(name, run, check, work)


def _reactive_op(archc, name, design, top, bench, seed_tag, flags=None, **kw):
    def run():
        image = archc.sim.build_sim(design.cores, top, flags or archc.sim.SimFlags())
        return bench(archc, image, random.Random(seed_tag), **kw)

    def check(result) -> list[str]:
        report = result["report"]
        problems = list(result["problems"])
        if report.assert_failures or report.aborted is not None:
            problems.append("; ".join(report.lines()[:3]))
        return problems

    return Op(name, run, check, lambda result: {"sim.cycles": result["cycles"]})


def prepare(root: str, seed: int) -> list[Op]:
    archc = sys.modules["archc"]
    corpus = os.path.join(root, "corpus")

    def load(fname, replace=None):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            text = f.read()
        if replace:
            text = text.replace(*replace)
        return compile_text(archc, text, f"corpus/{fname}")

    def rng(tag):
        return random.Random(f"sim:{tag}:{seed}")

    vcd_path = os.path.join(root, "perfbench", "out", f"sim-{seed}.vcd")
    os.makedirs(os.path.dirname(vcd_path), exist_ok=True)
    vcd_text, vcd_final = vcd_program(rng("vcd"), CYCLES["vcd"])
    c = CYCLES
    ops = [
        _stimulus_op(archc, "counter_wrap200", load("counter_wrap200.arch"), "EvtCounter",
                     counter_program(rng("wrap"), 200, False, c["counter"])),
        _stimulus_op(archc, "counter_sat10", load("counter_sat10.arch"), "SatTen",
                     counter_program(rng("sat"), 10, True, c["counter"])),
        _stimulus_op(archc, "fsm_controller", load("fsm_controller.arch"), "Controller",
                     fsm_program(rng("ctl"), ("start", "count_done", "busy", "done"),
                                 c["fsm"])),
        _stimulus_op(archc, "fsm_reqack", load("fsm_reqack.arch"), "ReqAck",
                     fsm_program(rng("reqack"), ("req", "ack_in", "busy", "ack_out"),
                                 c["fsm"])),
        _stimulus_op(archc, "pipe3", load("pipe3.arch"), "Pipe3",
                     pipe3_program(rng("pipe3"), c["pipe3"])),
        _stimulus_op(archc, "seq_accum", load("seq_accum.arch"), "Accum",
                     accum_program(rng("accum"), c["accum"])),
        _stimulus_op(archc, "wrap_mac", load("wrap_mac.arch"), "WrapMac",
                     mac_program(rng("mac"), c["mac"])),
        _stimulus_op(archc, f"gen_systolic{SYSTOLIC_SIZE}",
                     load("gen_systolic.arch", ("const = 4;", f"const = {SYSTOLIC_SIZE};")),
                     "SystolicArray",
                     systolic_program(rng("systolic"), SYSTOLIC_SIZE, c["systolic_steps"])),
        _stimulus_op(archc, "hier_top_vcd", load("hier_top.arch"), "HierTop",
                     vcd_text, trace_path=vcd_path, final=vcd_final),
        _reactive_op(archc, "fifo_sync8", load("fifo_sync8.arch"), "SyncBuf",
                     fifo_sync_bench, f"fifo8:{seed}", cycles=c["fifo_sync8"]),
        _reactive_op(archc, "fifo_async16", load("fifo_async16.arch"), "AsyncBuf",
                     fifo_async_bench, f"fifo16:{seed}", pushes=c["fifo_async16"]),
        _reactive_op(archc, "cdc_flag", load("cdc_flag.arch"), "CdcTop", cdc_bench,
                     f"cdc:{seed}", flags=archc.sim.SimFlags(cdc_random=True, seed=seed),
                     toggles=c["cdc_toggles"]),
    ]
    return ops


def install_tracing(archc, tracer) -> None:
    from archc.sim.engine import Simulator
    from archc.sim.vcd import VcdTrace

    def vcd_bytes(t, _result, args, _kwargs):
        t.count("sim.vcd.bytes", os.path.getsize(args[1]))

    tracer.patch(archc.sim, "build_sim", "sim.image.build")
    tracer.patch(Simulator, "tick", "sim.engine.tick")
    tracer.patch(Simulator, "settle", "sim.engine.settle")
    tracer.patch(Simulator, "set_input", "sim.engine.set_input")
    tracer.patch_counter(Simulator, "peek", "sim.engine.peek_calls")
    tracer.patch(VcdTrace, "sample", "sim.vcd.sample")
    tracer.patch(VcdTrace, "write", "sim.vcd.write", vcd_bytes)
