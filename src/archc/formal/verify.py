"""Bounded model checking: unroll, solve, decode, replay, classify.

Verdicts: PROVED (assert unviolated up to the bound), REFUTED (+decoded
counterexample trace), HIT (cover witness at its earliest cycle),
NOT_REACHED, INCONCLUSIVE.

The builtin solver runs as one `smt.solve.Session` per `verify` call,
shared by every property. The design is unrolled one frame at a time,
k = 0, 1, ..., bound (`encode.Unrolling`), and at each frame every open
property gets one question: can it fail (assert) or hit (cover) at
exactly cycle k? Each question is solved under an assumption, so the
interval cache, the bit-blast cache and the learned clauses carry over to
the next. The first sat frame is the reported cycle, and the trace is
read from that same answer. `timeout` bounds the solver time spent on
each property.

An external solver holds no state between processes, so it gets one
self-contained script per query (`encode_bmc`, in which only the inputs
are declared free and every other constant is a `define-fun`): the whole
bound first, then a binary search over bounds for the earliest cycle (sat
at bound k but not k-1 pins cycle k). Every query asks for the model
values, and the trace comes from the last sat answer.

Either way each goal carries `Unrolling.assumption`: no runtime check (a
zero divisor, an out-of-range bit index, where SMT-LIB gives a value and
the simulator aborts) that a generated `_auto_*` assert reports fires
before the property is sampled. So a property that only such an aborting
step reaches is PROVED or NOT_REACHED, and the abort is reported by the
assert of its site. Every REFUTED or HIT trace is replayed in the
simulator before it is reported; one that does not fail or hit at the
reported cycle, or aborts at a check no assert reports, becomes
INCONCLUSIVE (replay mismatch: ...).

Exit code: 0 iff every assert PROVED and every cover HIT; 1 if any
REFUTED or NOT_REACHED; 2 on unknown/timeout/replay mismatch.
"""

from __future__ import annotations

import time
from typing import Optional

from ..consteval import wrap_signed
from ..ir import CoreModule, CoreProperty
from ..types import Reset, SInt
from .encode import (FormalUnsupported, SmtScript, Unrolling, encode_bmc,
                     formal_scope_check, inactive_level)
from .solver import SolverError, pick_solver, run_solver


class PropResult:
    def __init__(self, name: str, kind: str,
                 status: str,  # PROVED | REFUTED | HIT | NOT_REACHED | INCONCLUSIVE
                 cycle: Optional[int] = None,
                 trace: Optional[list[dict[str, int]]] = None,  # per-cycle net -> value
                 detail: str = "") -> None:
        self.name, self.kind, self.status, self.cycle = name, kind, status, cycle
        self.trace, self.detail = trace, detail

    def line(self, bound: int) -> str:
        if self.status == "PROVED":
            return f"{self.kind} {self.name}: PROVED (bound {bound})"
        if self.status == "REFUTED":
            return f"{self.kind} {self.name}: REFUTED at cycle {self.cycle}"
        if self.status == "HIT":
            return f"{self.kind} {self.name}: HIT at cycle {self.cycle}"
        if self.status == "NOT_REACHED":
            return f"{self.kind} {self.name}: NOT-REACHED (bound {bound})"
        return f"{self.kind} {self.name}: INCONCLUSIVE ({self.detail})"


class FormalVerdict:
    def __init__(self, results: list[PropResult], bound: int, solver: str,
                 exit_code: int = 0) -> None:
        self.results, self.bound, self.solver, self.exit_code = results, bound, solver, exit_code

    def summary_lines(self) -> list[str]:
        out = [r.line(self.bound) for r in self.results]
        n_bad = sum(1 for r in self.results if r.status in ("REFUTED", "NOT_REACHED"))
        n_unk = sum(1 for r in self.results if r.status == "INCONCLUSIVE")
        ok = len(self.results) - n_bad - n_unk
        out.append(f"summary: {ok} ok, {n_bad} failing, {n_unk} inconclusive "
                   f"(solver {self.solver}, bound {self.bound})")
        return out


def _classify_exit(results: list[PropResult]) -> int:
    if any(r.status in ("REFUTED", "NOT_REACHED") for r in results):
        return 1
    if any(r.status == "INCONCLUSIVE" for r in results):
        return 2
    return 0


def _found(prop: CoreProperty, cycle: int, trace: list[dict[str, int]]) -> PropResult:
    status = "REFUTED" if prop.kind == "assert" else "HIT"
    return PropResult(prop.name, prop.kind, status, cycle, trace)


def _not_found(prop: CoreProperty) -> PropResult:
    status = "PROVED" if prop.kind == "assert" else "NOT_REACHED"
    return PropResult(prop.name, prop.kind, status)


def verify(core: CoreModule, bound: int, solver_choice: str = "auto", *,
           timeout: float | None = None, emit_smt: str | None = None) -> FormalVerdict:
    """Check every property of `core` up to `bound`."""
    formal_scope_check(core)
    if bound < 0:
        raise FormalUnsupported(f"bound {bound} is negative")
    solver = pick_solver(solver_choice)
    props = list(core.properties)
    if emit_smt is not None:
        for prop in props:
            path = emit_smt
            if len(props) > 1:
                stem, dot, ext = emit_smt.rpartition(".")
                path = (f"{stem}.{prop.name}.{ext}" if dot
                        else f"{emit_smt}.{prop.name}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(encode_bmc(core, prop, bound).text)
    if solver == "builtin":
        results = _check_builtin(core, props, bound, timeout)
    else:
        results = [_check_external(core, prop, bound, solver, timeout) for prop in props]
    _replay_all(core, results)
    verdict = FormalVerdict(results, bound, solver)
    verdict.exit_code = _classify_exit(results)
    return verdict


def _check_builtin(core: CoreModule, props: list[CoreProperty], bound: int,
                   timeout: float | None) -> list[PropResult]:
    if not props:
        return []  # nothing to ask, so nothing to translate
    from ..smt.solve import Session  # imported here: other paths never load it
    session = Session()
    unroll = Unrolling(core, session.builder)
    results: list[PropResult | None] = [None] * len(props)
    spent = [0.0] * len(props)  # solver seconds per property
    for k in range(bound + 1):
        open_props = [i for i, r in enumerate(results) if r is None]
        if not open_props:
            break
        unroll.extend()
        goals = [unroll.goal(props[i], k) for i in open_props]  # not a solver failure
        try:
            session.range_definitions()  # the frame's share, charged to no property
            for i, goal in zip(open_props, goals):
                prop = props[i]
                t0 = time.monotonic()
                if timeout is not None:
                    session.deadline = t0 + timeout - spent[i]
                status = session.check_assuming(goal)
                spent[i] += time.monotonic() - t0
                if status == "sat":
                    results[i] = _found(prop, k, _model_trace(unroll, session, k))
                elif status != "unsat":
                    results[i] = PropResult(prop.name, prop.kind, "INCONCLUSIVE", detail=status)
        except Exception as e:  # e.g. a term nested too deeply
            raise SolverError("E_SOLVER_PARSE", f"solver `builtin` produced no verdict "
                              f"({type(e).__name__}: {e})") from None
    return [r if r is not None else _not_found(p) for r, p in zip(results, props)]


def _model_trace(unroll: Unrolling, session, upto: int) -> list[dict[str, int]]:
    """Inputs and registers of cycles 0..upto in the last sat answer."""
    names = [name for name, _ in unroll.inputs] + list(unroll.core.regs)
    return _as_signed(unroll.core, [{name: session.model_value(frame[name]) for name in names}
                                    for frame in unroll.frames[:upto + 1]])


def _as_signed(core: CoreModule, trace: list[dict[str, int]]) -> list[dict[str, int]]:
    """`trace` with the bit pattern of each signed input and register read
    as its signed value, the value the simulator holds and compares."""
    widths = {p.name: p.ty.width for p in core.ports if isinstance(p.ty, SInt)}
    widths.update((name, reg.ty.width) for name, reg in core.regs.items()
                  if isinstance(reg.ty, SInt))
    for row in trace:
        for name, width in widths.items():
            if name in row:
                row[name] = wrap_signed(row[name], width)
    return trace


def _check_external(core: CoreModule, prop: CoreProperty, bound: int, solver: str,
                    timeout: float | None) -> PropResult:
    script = encode_bmc(core, prop, bound)
    res = run_solver(script.text, solver, timeout, want_values=script.all_vars)
    if res.status == "unsat":
        return _not_found(prop)
    lo, hi, model = 0, bound, res.model  # invariant: sat at hi, with `model`
    while res.status in ("sat", "unsat") and lo < hi:
        mid = (lo + hi) // 2
        mid_script = encode_bmc(core, prop, mid)
        res = run_solver(mid_script.text, solver, timeout, want_values=mid_script.all_vars)
        if res.status == "sat":
            hi, model, script = mid, res.model, mid_script
        elif res.status == "unsat":
            lo = mid + 1
    if res.status not in ("sat", "unsat"):
        return PropResult(prop.name, prop.kind, "INCONCLUSIVE", detail=res.status)
    return _found(prop, hi, _as_signed(core, _decode_trace(script, model, hi)))


def _decode_trace(script: SmtScript, model: dict[str, int],
                  upto: int) -> list[dict[str, int]]:
    trace: list[dict[str, int]] = []
    for k in range(upto + 1):
        row: dict[str, int] = {}
        for name in script.input_names + script.state_names:
            var = f"{name}__{k}"
            if var in model:
                row[name] = model[var]
        trace.append(row)
    return trace


def _replay_all(core: CoreModule, results: list[PropResult]) -> None:
    """Replay every REFUTED or HIT trace in the simulator; one that does
    not fail or hit at its reported cycle becomes INCONCLUSIVE."""
    found = [r for r in results if r.status in ("REFUTED", "HIT")]
    if not found:
        return
    # imported here, so that a run with nothing to replay never loads the simulator
    from ..sim import SimFlags, build_sim, parse_stimulus, run_stimulus
    image = build_sim({core.key: core}, core.key, SimFlags())
    props = {p.name: p for p in core.properties}
    for r in found:
        report = run_stimulus(image, parse_stimulus(trace_to_stimulus(core, r)))
        aborted = report.aborted
        if r.status == "REFUTED":
            fails = [e.cycle for e in report.events
                     if e.kind == "ASSERT_FAIL" and e.name == r.name]
            got = fails[0] if fails else None
            if got is None and aborted is not None and _guards(props[r.name], aborted.message):
                got = aborted.cycle
        else:
            got = report.cover_table.get(r.name)
        if report.expect_failures:
            why = "a register differs from the trace"
        elif got == r.cycle:
            continue
        elif aborted is not None:
            why = f"the simulator aborts at cycle {aborted.cycle} ({aborted.message})"
        else:
            verb = "fails" if r.status == "REFUTED" else "hits"
            why = f"the simulator {verb} at cycle {got}, not {r.cycle}"
        r.status, r.detail = "INCONCLUSIVE", f"replay mismatch: {why}"


def _guards(prop: CoreProperty, abort_message: str) -> bool:
    """Is `prop` the generated property of the division the simulator
    aborted on? On a comb division the abort comes while settling, before
    the property is sampled, so it stands for the property's failure."""
    return (prop.origin == "auto" and abort_message.startswith("DIV_BY_ZERO:")
            and abort_message.endswith(f" at {prop.span.point()}"))


def trace_to_stimulus(core: CoreModule, result: PropResult,
                      expects: bool = True) -> str:
    """Counterexample/witness trace -> replayable stimulus text. Period 1,
    resets held inactive as in the unrolling, one set block per cycle; the
    assertion fires during the final tick."""
    assert result.trace is not None
    clock_domain = core.clock_ports()[0][1]
    lines = [f"clock {clock_domain} period 1"]
    lines += [f"set {p.name} {inactive_level(p.ty)}"
              for p in core.ports if isinstance(p.ty, Reset)]
    state_names = list(core.regs)
    for k, row in enumerate(result.trace):
        for name, value in row.items():
            if name in state_names:
                continue
            lines.append(f"set {name} {value}")
        if expects:
            for name in state_names:
                if name in row:
                    lines.append(f"expect {name} {row[name]}")
        lines.append("tick 1")
    return "\n".join(lines) + "\n"
