"""Benchmark for `archc build`, `sim` and `formal`, driven in-process.

    python3 perfbench/run.py --workload build|sim|formal --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from passes that alternate with untraced passes.
Problems found by the output checks go to standard error. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import harness
import wl_build
import wl_formal
import wl_sim
from tracing import Tracer

WORKLOADS = {"build": wl_build, "sim": wl_sim, "formal": wl_formal}

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_ms": "ms",
    "lexer.ms": "ms", "lexer.tokens": "count",
    "parser.ms": "ms",
    "elaborate.ms": "ms",
    "typecheck.analyze_comb.ms": "ms", "typecheck.analyze_domains.ms": "ms",
    "lower.self_ms": "ms",
    "sv_emit.ms": "ms", "sv_emit.bytes": "bytes",
    "diagnostics.render_ms": "ms",
    "sim.image.build_ms": "ms",
    "sim.engine.tick_self_ms": "ms",
    "sim.engine.settle_ms": "ms", "sim.engine.settle_calls": "count",
    "sim.engine.set_input_ms": "ms", "sim.engine.set_input_calls": "count",
    "sim.engine.peek_calls": "count",
    "sim.cycles": "count", "sim.cycles_per_s": "1/s",
    "sim.vcd.write_ms": "ms", "sim.vcd.bytes": "bytes",
    "formal.encode.ms": "ms", "formal.encode.calls": "count",
    "formal.encode.bytes": "bytes",
    "formal.solver.ms": "ms", "formal.solver.calls": "count",
    "formal.solver.ms_per_call": "ms",
    "smt.solve.session_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, op_seconds: float, session_ms: float) -> dict:
    """Per-layer figures for one traced pass. Layers that do not run in
    the workload read 0. Time is per pass, in ms, unless the name says
    otherwise."""
    t, c = tracer, tracer.counts
    sim_loop_s = op_seconds - t.total_ms("sim.image.build") / 1000.0
    solver_calls = t.calls("formal.solver")
    return {
        "lexer.ms": t.total_ms("lexer"),
        "lexer.tokens": c["lexer.tokens"],
        "parser.ms": t.self_ms("parser"),
        "elaborate.ms": t.total_ms("elaborate"),
        "typecheck.analyze_comb.ms": t.total_ms("typecheck.analyze_comb"),
        "typecheck.analyze_domains.ms": t.total_ms("typecheck.analyze_domains"),
        "lower.self_ms": t.self_ms("lower"),
        "sv_emit.ms": t.total_ms("sv_emit"),
        "sv_emit.bytes": c["sv_emit.bytes"],
        "diagnostics.render_ms": t.total_ms("diagnostics.render"),
        "sim.image.build_ms": t.total_ms("sim.image.build"),
        "sim.engine.tick_self_ms": t.self_ms("sim.engine.tick"),
        "sim.engine.settle_ms": t.total_ms("sim.engine.settle"),
        "sim.engine.settle_calls": t.calls("sim.engine.settle"),
        "sim.engine.set_input_ms": t.total_ms("sim.engine.set_input"),
        "sim.engine.set_input_calls": t.calls("sim.engine.set_input"),
        "sim.engine.peek_calls": c["sim.engine.peek_calls"],
        "sim.cycles": c["sim.cycles"],
        "sim.cycles_per_s": c["sim.cycles"] / sim_loop_s if c["sim.cycles"] else 0.0,
        "sim.vcd.write_ms": t.total_ms("sim.vcd.sample") + t.total_ms("sim.vcd.write"),
        "sim.vcd.bytes": c["sim.vcd.bytes"],
        "formal.encode.ms": t.total_ms("formal.encode"),
        "formal.encode.calls": t.calls("formal.encode"),
        "formal.encode.bytes": c["formal.encode.bytes"],
        "formal.solver.ms": t.total_ms("formal.solver"),
        "formal.solver.calls": solver_calls,
        "formal.solver.ms_per_call":
            t.total_ms("formal.solver") / solver_calls if solver_calls else 0.0,
        "smt.solve.session_ms": session_ms,
    }


def solve_in_process(scripts: list, log: harness.PassLog) -> float:
    """Solve the scripts the solver children received with smt.solve.Session
    in this process; returns the total ms. A verdict that differs from the
    child's is a wrong output."""
    from archc.smt.solve import Session
    total = 0.0
    for text, want, status in scripts:
        if want:
            text += f"(get-value ({' '.join(want)}))\n"
        t0 = time.perf_counter()
        out = Session().run(text)
        total += time.perf_counter() - t0
        got = out.split("\n", 1)[0].strip()
        if got != status:
            log.problems.append(("smt.solve.Session", "wrong",
                                 f"in-process verdict {got}, solver child said {status}"))
    scripts.clear()
    return total * 1000.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    workload = WORKLOADS[workload_name]
    harness.mark_baseline()
    ops, setup_s, import_s = harness.set_up(workload, root, seed)
    started = time.perf_counter()
    pass_times: list[float] = []
    plain = harness.new_log(ops)
    if not trace:
        while harness.keep_going(started, seconds, pass_times, len(pass_times), 2):
            pass_times.append(harness.run_pass(ops, harness.pass_rng(seed, len(pass_times)),
                                               plain))
        metrics = dict(setup_s=setup_s, **harness.end_to_end(plain),
                       peak_rss_mb=harness.peak_rss_mb())
        logs = [plain]
    else:
        tracer = Tracer()
        scripts = workload.install_tracing(sys.modules["archc"], tracer)
        traced = harness.new_log(ops)
        per_pass = []
        while harness.keep_going(started, seconds, pass_times, len(pass_times), 2):
            i = len(pass_times)
            if i % 2 == 0:
                pass_times.append(harness.run_pass(ops, harness.pass_rng(seed, i), plain))
                continue
            tracer.reset()
            tracer.install(True)
            pass_times.append(harness.run_pass(ops, harness.pass_rng(seed, i), traced,
                                               tracer))
            tracer.install(False)
            op_seconds = sum(ts[-1] for ts in traced.times.values())
            session_ms = solve_in_process(scripts, traced) if scripts is not None else 0.0
            per_pass.append(layer_metrics(tracer, op_seconds, session_ms))
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["cli.import_ms"] = import_s * 1000.0
        metrics["trace.overhead_pct"] = 100.0 * (
            harness.end_to_end(traced)["wall_s"] / harness.end_to_end(plain)["wall_s"] - 1)
        write_json(root, f"trace-{workload_name}-{seed}.json", tracer.table())
        logs = [plain, traced]
    for log in logs:
        harness.report_problems(log)
    units = PER_LAYER if trace else END_TO_END
    write_json(root, f"ops-{workload_name}-{seed}-trace{int(trace)}.json",
               {"passes": [log.passes for log in logs],
                "op_ms": {name: [1000.0 * t for t in ts] for name, ts in logs[0].times.items()}})
    return {
        "correct": all(harness.correct(log) for log in logs),
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def write_json(root: str, name: str, data) -> None:
    out = harness.ensure_dir(os.path.join(root, "perfbench", "out"))
    with open(os.path.join(out, name), "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "archc", "__init__.py")):
        print(f"perfbench: no archc sources under {src}", file=sys.stderr)
        return 2
    # The builtin solver runs as `python -m archc.smt.solve`; it finds archc
    # only through PYTHONPATH. Its script files go under perfbench/out.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = harness.ensure_dir(os.path.join(root, "perfbench", "out", "tmp"))
    sys.path.insert(0, src)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    write_json(root, f"result-{args.workload}-{args.seed}-trace{args.trace}.json", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
