"""Tests of the benchmark itself: the reference models agree with the
simulator on a short seed, and every checker rejects a planted wrong
answer. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)

import archc.cli  # noqa: E402
import archc.formal  # noqa: E402
import archc.sim  # noqa: E402
import archc.sv_emit  # noqa: E402

import refmodels  # noqa: E402
import run  # noqa: E402
import wl_build  # noqa: E402
import wl_formal  # noqa: E402
import wl_sim  # noqa: E402
from harness import compile_text  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def _corpus(name: str) -> str:
    with open(os.path.join(ROOT, "corpus", name), encoding="utf-8") as f:
        return f.read()


@pytest.fixture()
def short_sim(monkeypatch):
    monkeypatch.setitem(wl_sim.__dict__, "CYCLES", {k: max(4, v // 20)
                                                    for k, v in wl_sim.CYCLES.items()})
    return wl_sim.prepare(ROOT, SEED)


# ── build ───────────────────────────────────────────────────────


def test_build_checks_pass_on_every_input():
    for op in wl_build.prepare(ROOT, SEED):
        if op.name.startswith("deep/"):
            continue
        assert op.check(op.run()) == [], op.name


def test_build_rejects_a_changed_diagnostic_code():
    golden = _corpus("bad/01_width_assign.diag")
    built = wl_build._compile(archc, _corpus("bad/01_width_assign.arch"),
                              "corpus/bad/01_width_assign.arch")
    assert wl_build._bad_check(golden)(built) == []
    planted = golden.replace("E_WIDTH_MISMATCH", "E_CDC", 1)
    assert wl_build._bad_check(planted)(built)


def test_build_rejects_a_missing_port_and_a_wrong_instance_count():
    text = wl_build.systolic_text(12, 8)
    built = wl_build._compile(archc, text, "s.arch")
    assert wl_build._clean_check(archc, text, False, "systolic", 12)(built) == []
    assert wl_build._clean_check(archc, text, False, "systolic", 13)(built)
    built.sv = [sv.replace("output logic signed [7:0] total", "output logic signed [7:0] t0")
                for sv in built.sv]
    assert any("total" in p for p in wl_build.check_ports(text, built.sv))


def test_build_rejects_a_clean_input_that_reports_diagnostics():
    text = _corpus("comb_alu.arch")
    built = wl_build._compile(archc, _corpus("bad/07_comb_loop.arch"), "x.arch")
    assert wl_build._clean_check(archc, text, False)(built)


def test_arch_ports_reads_generate_loops_and_skips_conditional_ports():
    ports = wl_build.arch_ports(_corpus("gen_systolic.arch"))
    assert set(ports["SystolicArray"]) == {f"data_in_{i}" for i in range(4)} | {"total"}
    assert "debug_state" not in wl_build.arch_ports(_corpus("gen_condport.arch"))["CacheGen"]


# ── sim ─────────────────────────────────────────────────────────


def test_reference_models_agree_with_the_simulator(short_sim):
    for op in short_sim:
        assert op.check(op.run()) == [], op.name


def test_sim_rejects_a_changed_expected_value():
    design = compile_text(archc, _corpus("pipe3.arch"), "pipe3.arch")
    text = wl_sim.pipe3_program(random.Random(1), 40)
    good = wl_sim._stimulus_op(archc, "p", design, "Pipe3", text)
    assert good.check(good.run()) == []
    lines = text.splitlines()
    i = max(k for k, line in enumerate(lines) if line.startswith("expect dout"))
    name, value = lines[i].rsplit(" ", 1)
    lines[i] = f"{name} {(int(value) + 1) % 256}"
    bad = wl_sim._stimulus_op(archc, "p", design, "Pipe3", "\n".join(lines) + "\n")
    assert bad.check(bad.run())


def test_sim_rejects_a_wrong_final_vcd_value(tmp_path):
    design = compile_text(archc, _corpus("hier_top.arch"), "hier_top.arch")
    text, final = wl_sim.vcd_program(random.Random(1), 30)
    path = str(tmp_path / "w.vcd")
    good = wl_sim._stimulus_op(archc, "v", design, "HierTop", text, path, final)
    assert good.check(good.run()) == []
    planted = dict(final, q=(final["q"] + 1) % 256)
    bad = wl_sim._stimulus_op(archc, "v", design, "HierTop", text, path, planted)
    assert any("VCD" in p for p in bad.check(bad.run()))


def test_fifo_scoreboard_rejects_a_wrong_depth():
    design = compile_text(archc, _corpus("fifo_sync8.arch"), "f.arch")
    image = archc.sim.build_sim(design.cores, "SyncBuf", archc.sim.SimFlags())
    assert wl_sim.fifo_sync_bench(archc, image, random.Random(3), 300)["problems"] == []
    image = archc.sim.build_sim(design.cores, "SyncBuf", archc.sim.SimFlags())
    assert wl_sim.fifo_sync_bench(archc, image, random.Random(3), 300, depth=7)["problems"]


def test_cdc_check_rejects_a_wrong_stage_count():
    design = compile_text(archc, _corpus("cdc_flag.arch"), "c.arch")
    flags = archc.sim.SimFlags(cdc_random=True, seed=5)
    image = archc.sim.build_sim(design.cores, "CdcTop", flags)
    assert wl_sim.cdc_bench(archc, image, random.Random(5), 30)["problems"] == []
    image = archc.sim.build_sim(design.cores, "CdcTop", flags)
    assert wl_sim.cdc_bench(archc, image, random.Random(5), 30, stages=3)["problems"]


def test_counter_model_wraps_and_saturates():
    wrap, sat = refmodels.Counter(3, False), refmodels.Counter(3, True)
    for _ in range(4):
        wrap.step(1, 0)
        sat.step(1, 0)
    assert (wrap.count, sat.count) == (0, 3)


# ── formal ──────────────────────────────────────────────────────


def _formal(fname: str, top: str, bound: int):
    design = compile_text(archc, _corpus(fname), fname)
    core = design.cores[top]
    return design, core, archc.formal.verify(core, bound, "builtin")


def test_formal_rejects_a_swapped_verdict_and_a_wrong_cycle():
    design, core, verdict = _formal("counter_wrap15.arch", "Nibble", 20)
    answers = {"_auto_count_range": ("PROVED", None), "never_full": ("REFUTED", 15)}
    assert wl_formal.check_verdict(archc, design, "Nibble", core, answers, verdict) == []
    for planted in ({**answers, "never_full": ("PROVED", None)},
                    {**answers, "never_full": ("REFUTED", 14)}):
        assert wl_formal.check_verdict(archc, design, "Nibble", core, planted, verdict)


def test_formal_replay_rejects_a_wrong_reported_cycle():
    design, core, verdict = _formal("counter_cover8.arch", "CoverEight", 10)
    hit = [r for r in verdict.results if r.status == "HIT"][0]
    assert wl_formal.replay(archc, design, "CoverEight", core, hit) is None
    hit.cycle += 1
    assert wl_formal.replay(archc, design, "CoverEight", core, hit)


def test_generated_counter_answers_hold():
    for name, text, top, bound, answers in wl_formal.generated_items(SEED):
        design = compile_text(archc, text, name)
        verdict = archc.formal.verify(design.cores[top], bound, "builtin")
        assert wl_formal.check_verdict(archc, design, top, design.cores[top],
                                       answers, verdict) == [], name


# ── tracing and the benchmark's declared metrics ────────────────


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    class Box:
        @staticmethod
        def inner():
            sum(range(20000))

        @staticmethod
        def outer():
            Box.inner()
            Box.inner()

    original = Box.inner
    tracer.patch(Box, "inner", "inner")
    tracer.patch(Box, "outer", "outer")
    tracer.install(True)
    tracer.active = True
    Box.outer()
    tracer.install(False)
    assert Box.inner is original
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert abs(tracer.total_ms("outer") - tracer.total_ms("inner")
               - tracer.self_ms("outer")) < 1e-6


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
