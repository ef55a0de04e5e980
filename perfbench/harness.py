"""Timing loop, set-up rounds and result assembly shared by the workloads.

A workload module provides `IMPORTS` (the archc modules its CLI command
imports), `prepare(root, seed)` returning a list of `Op`, and
`install_tracing(archc, tracer)` registering its wrappers. The harness owns everything else: fresh
imports, the pass loop, medians and the result line.
"""

from __future__ import annotations

import gc
import importlib
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Modules loaded before the first import of archc (set by mark_baseline).
# Each set-up round drops every module loaded after that point, so a round
# pays what a fresh `archc` process pays: archc itself and the standard
# library modules it pulls in that the benchmark does not use itself.
_baseline: frozenset = frozenset()

SETUP_ROUNDS = 9


@dataclass
class Op:
    """One in-process equivalent of one `archc` command on one input.

    `run` is the timed call. `check` gets its result, untimed, and returns
    a list of problems (empty when the output is right). `work` returns
    the work counts the traced run adds up (for example simulated cycles).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: Callable[[object], dict] = lambda result: {}


def mark_baseline() -> None:
    global _baseline
    _baseline = frozenset(sys.modules)


def fresh_import(names: list[str]) -> float:
    """Drop every module loaded since mark_baseline, then import `names`
    again. Returns the import time in seconds."""
    for name in list(sys.modules):
        if name not in _baseline:
            del sys.modules[name]
    t0 = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    return time.perf_counter() - t0


def set_up(workload, root: str, seed: int) -> tuple[list[Op], float, float]:
    """Run SETUP_ROUNDS set-up rounds; the ops of the last round are kept.
    Returns (ops, median set-up s, median import s)."""
    setup_times, import_times = [], []
    ops: list[Op] = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        t0 = time.perf_counter()
        import_times.append(fresh_import(workload.IMPORTS))
        ops = workload.prepare(root, seed)
        setup_times.append(time.perf_counter() - t0)
    return ops, statistics.median(setup_times), statistics.median(import_times)


@dataclass
class PassLog:
    times: dict          # op name -> list of seconds, one per pass
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # (op name, kind, text)
    passes: int = 0


def run_pass(ops: list[Op], rng: random.Random, log: PassLog, tracer=None) -> float:
    """Run every op once, in a shuffled order, and check each output. With
    a tracer, spans are recorded inside the ops only (not in the checks)
    and each op's work counts are added to the tracer's counts."""
    order = list(ops)
    rng.shuffle(order)
    gc.collect()
    t_pass = time.perf_counter()
    for op in order:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an escaping exception is a failed operation
            log.times[op.name].append(time.perf_counter() - t0)
            log.attempted += 1
            log.failed += 1
            log.problems.append((op.name, "failed", type(exc).__name__))
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        log.times[op.name].append(time.perf_counter() - t0)
        log.attempted += 1
        for problem in op.check(result):
            log.problems.append((op.name, "wrong", problem))
        if tracer is not None:
            for name, amount in op.work(result).items():
                tracer.counts[name] += amount
    log.passes += 1
    return time.perf_counter() - t_pass


def new_log(ops: list[Op]) -> PassLog:
    return PassLog(times={op.name: [] for op in ops})


def keep_going(started: float, seconds: float, pass_times: list[float],
               done: int, minimum: int) -> bool:
    """Start another pass only if it should end within the run length,
    after at least `minimum` passes (so each op has two times or more,
    even when one pass takes over half the run, as `formal` can)."""
    if done < minimum:
        return True
    return time.perf_counter() - started + max(pass_times) <= seconds


def end_to_end(log: PassLog) -> dict:
    """wall_s: one pass, as the sum of each op's median time over passes.
    op_ms_p50: the median over ops of each op's median time."""
    med = {name: statistics.median(ts) for name, ts in log.times.items()}
    return {
        "wall_s": sum(med.values()),
        "op_ms_p50": statistics.median(med.values()) * 1000.0,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child
    (solver children run one at a time, while this process is alive)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def report_problems(log: PassLog) -> None:
    seen = set()
    for name, kind, text in log.problems:
        key = (name, kind, text)
        if key in seen:
            continue
        seen.add(key)
        print(f"{kind}: {name}: {text}", file=sys.stderr)


def correct(log: PassLog) -> bool:
    return not any(kind == "wrong" for _name, kind, _text in log.problems)


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"order:{seed}:{index}")


def compile_text(archc, text: str, name: str):
    """Parse, elaborate and compile one source text (set-up work)."""
    src, unit = archc.parser.parse_source(text, name)
    program = archc.elaborate.elaborate_program([unit], {src.name: src})
    return archc.lower.compile_design(program)


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
