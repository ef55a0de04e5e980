"""`formal` workload: one op is `verify(core, bound, "builtin")` for one item.

Every verdict and cycle is compared with a known answer worked out by
hand (corpus designs) or by arithmetic (generated counters). Every
REFUTED or HIT trace is replayed through `trace_to_stimulus` and the
simulator, which must fail or hit the property at the reported cycle.
"""

from __future__ import annotations

import importlib
import os
import random
import sys

from harness import Op, compile_text

IMPORTS = ["archc.cli", "archc.formal"]

_FSM_CTL = {"_auto_legal_state": ("PROVED", None),
            "_auto_state_Idle": ("HIT", 0), "_auto_state_Active": ("HIT", 1),
            "_auto_state_Done": ("HIT", 2), "_auto_trans_Idle_Active": ("HIT", 0),
            "_auto_trans_Active_Done": ("HIT", 1), "_auto_trans_Done_Idle": ("HIT", 2)}
_FSM_REQACK = {"_auto_legal_state": ("PROVED", None),
               "_auto_state_Idle": ("HIT", 0), "_auto_state_Wait": ("HIT", 1),
               "_auto_state_Reply": ("HIT", 2), "_auto_trans_Idle_Wait": ("HIT", 0),
               "_auto_trans_Wait_Reply": ("HIT", 1), "_auto_trans_Reply_Idle": ("HIT", 2)}
_RANGE = ("PROVED", None)

# (file, top, bound, {property: (status, cycle)}). The first twelve are the
# corpus designs in formal scope, at the bounds the test suite uses.
CORPUS_ITEMS = [
    ("seq_accum.arch", "Accum", 8, {}),
    ("fsm_controller.arch", "Controller", 10, _FSM_CTL),
    ("fsm_reqack.arch", "ReqAck", 10, _FSM_REQACK),
    ("counter_wrap200.arch", "EvtCounter", 20,
     {"_auto_count_range": _RANGE, "range_ok": _RANGE}),
    ("counter_sat10.arch", "SatTen", 20,
     {"_auto_count_range": _RANGE, "stays_in_range": _RANGE}),
    ("counter_cover8.arch", "CoverEight", 20,
     {"_auto_count_range": _RANGE, "reach_eight": ("HIT", 8)}),
    ("pipe_intpipe.arch", "IntPipe", 8, {}),
    ("pipe3.arch", "Pipe3", 8, {}),
    ("guard_ok.arch", "GoodProducer", 12, {"guard_contract": _RANGE}),
    ("wrap_mac.arch", "WrapMac", 8, {}),
    ("safe_div.arch", "SafeDiv", 10, {"_auto_div0_q_r": _RANGE}),
    ("bit_sel.arch", "BitSel", 10, {"_auto_bound_picked": _RANGE}),
    ("counter_wrap15.arch", "Nibble", 20,
     {"_auto_count_range": _RANGE, "never_full": ("REFUTED", 15)}),
    ("guard_bug.arch", "BadProducer", 12, {"guard_contract": ("REFUTED", 1)}),
    ("counter_cover8.arch", "CoverEight", 5,
     {"_auto_count_range": _RANGE, "reach_eight": ("NOT_REACHED", None)}),
    ("counter_cover8.arch", "CoverEight", 10,
     {"_auto_count_range": _RANGE, "reach_eight": ("HIT", 8)}),
    ("counter_wrap200.arch", "EvtCounter", 300,
     {"_auto_count_range": _RANGE, "range_ok": _RANGE}),
]

# Generated counters: (kind, property). The seed picks MAX and the target
# within ranges that keep the work the same: a sat answer always runs the
# same binary search over [0, GEN_BOUND], an unsat one solves once.
GENERATED = [("wrapping", "refuted"), ("saturating", "hit"),
             ("wrapping", "not_reached"), ("saturating", "proved")]
GEN_BOUND = 24


def counter_text(name: str, kind: str, max_value: int, prop: str) -> str:
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


def generated_items(seed: int) -> list[tuple[str, str, str, int, dict]]:
    """(name, text, top, bound, known answers). The count is 0 in the reset
    state (cycle 0) and rises by at most one per cycle, so the earliest
    cycle at which it can equal v <= MAX is v, and never within a bound
    below v; it never exceeds MAX."""
    rng = random.Random(f"formal:{seed}")
    out = []
    for i, (kind, expect) in enumerate(GENERATED):
        max_value = rng.randint(GEN_BOUND + 2, 30)
        low = rng.randint(17, GEN_BOUND - 1)      # reachable within the bound
        high = rng.randint(GEN_BOUND + 1, max_value)  # not reachable
        top = f"Gen{kind.capitalize()}{i}"
        prop, answer = {
            "refuted": (f"assert never_at: count != {low}", ("never_at", ("REFUTED", low))),
            "hit": (f"cover reach: count == {low}", ("reach", ("HIT", low))),
            "not_reached": (f"cover reach: count == {high}", ("reach", ("NOT_REACHED", None))),
            "proved": (f"assert bounded: count <= {max_value}", ("bounded", _RANGE)),
        }[expect]
        answers = {"_auto_count_range": _RANGE, answer[0]: answer[1]}
        out.append((f"gen/{top}_max{max_value}_{expect}.arch",
                    counter_text(top, kind, max_value, prop), top, GEN_BOUND, answers))
    return out


def replay(archc, design, top: str, core, result) -> str | None:
    """Replay a REFUTED or HIT trace in the simulator; None when the
    property fails or hits at the reported cycle."""
    importlib.import_module("archc.sim")  # `archc formal` itself does not load it
    text = archc.formal.trace_to_stimulus(core, result)
    image = archc.sim.build_sim(design.cores, top, archc.sim.SimFlags())
    report = archc.sim.run_stimulus(image, archc.sim.parse_stimulus(text))
    if report.expect_failures:
        return f"{result.name}: replayed state differs from the trace"
    if result.status == "REFUTED":
        fails = [e.cycle for e in report.events
                 if e.kind == "ASSERT_FAIL" and e.name == result.name]
        if not fails or fails[0] != result.cycle:
            return f"{result.name}: replay fails at {fails[:1]}, reported {result.cycle}"
    elif report.cover_table.get(result.name) != result.cycle:
        return (f"{result.name}: replay hits at {report.cover_table.get(result.name)}, "
                f"reported {result.cycle}")
    return None


def check_verdict(archc, design, top: str, core, answers: dict, verdict) -> list[str]:
    got = {r.name: (r.status, r.cycle) for r in verdict.results}
    problems = []
    if got != answers:
        problems.append(f"verdicts {got}, expected {answers}")
    for r in verdict.results:
        if r.status in ("REFUTED", "HIT"):
            why = replay(archc, design, top, core, r)
            if why:
                problems.append(why)
    return problems


def prepare(root: str, seed: int) -> list[Op]:
    archc = sys.modules["archc"]
    corpus = os.path.join(root, "corpus")
    items = []
    for fname, top, bound, answers in CORPUS_ITEMS:
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            text = f.read()
        items.append((f"corpus/{fname}@{bound}", text, top, bound, answers))
    items += generated_items(seed)
    ops = []
    designs = {}
    for name, text, top, bound, answers in items:
        source = name.split("@")[0]
        if source not in designs:
            designs[source] = compile_text(archc, text, source)
        design = designs[source]
        core = design.cores[top]
        ops.append(Op(
            name,
            lambda core=core, bound=bound: archc.formal.verify(core, bound, "builtin"),
            lambda v, design=design, top=top, core=core, answers=answers:
                check_verdict(archc, design, top, core, answers, v)))
    return ops


def install_tracing(archc, tracer) -> list:
    """Wrap encode_bmc and run_solver where `verify` looks them up. The
    package's `verify` function shadows the submodule of the same name, so
    the submodule comes from sys.modules. Returns the list that collects
    the solver scripts for the in-process Session comparison."""
    verify_mod = sys.modules["archc.formal.verify"]
    scripts: list = []

    def encoded(t, script, _args, _kwargs):
        t.count("formal.encode.bytes", len(script.text.encode("utf-8")))

    def solved(_t, result, args, kwargs):
        scripts.append((args[0], kwargs.get("want_values"), result.status))

    tracer.patch(verify_mod, "encode_bmc", "formal.encode", encoded)
    tracer.patch(verify_mod, "run_solver", "formal.solver", solved)
    return scripts
