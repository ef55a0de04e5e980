"""Bounded model checking: unroll, solve, decode, replay, classify.

Verdicts: PROVED (assert unviolated up to the bound), REFUTED (+decoded
counterexample trace), HIT (cover witness at its earliest cycle),
NOT_REACHED, INCONCLUSIVE.

Every solver runs as one `smt.solve.Session` per `verify` call, shared
by every property: the builtin one in process, an external one as an
`ExternalSession` whose SAT step is one solver process on a pipe
(`solver.SolverPipe`). First an interval invariant of the registers
(`smt.intervals.invariant`, over `Unrolling.state_frame`) settles every
property whose failure (assert) or hit (cover) it rules out at every
cycle: it is reported PROVED or NOT_REACHED, as the frames would report
it, and gets no question. Then the design is unrolled one frame at a
time, k = 0, 1, ..., bound (`encode.Unrolling`), and at each frame every
open property gets one question: can it fail (assert) or hit (cover) at
exactly cycle k? The loop stops once no property is open. Each question
is solved under an assumption, so the interval cache, the bit-blast
cache and the learned clauses carry over to the next. The first sat
frame is the reported cycle, and the trace is read from that same
answer. `timeout` bounds the solver time spent on each property; the
invariant's time is charged to none.

Each goal carries `Unrolling.assumption`: no runtime check (a
zero divisor, an out-of-range bit index, where SMT-LIB gives a value and
the simulator aborts) that a generated `_auto_*` assert reports fires
before the property is sampled. So a property that only such an aborting
step reaches is PROVED or NOT_REACHED, and the abort is reported by the
assert of its site. Every REFUTED or HIT trace is replayed in the
simulator before it is reported; one that does not fail or hit at the
reported cycle, or aborts at a check no assert reports, becomes
INCONCLUSIVE (replay mismatch: ...).

PROVED (bound N) means no violation within the bound, also for a
property that the invariant settled for every cycle.

Exit code: 0 iff every assert PROVED and every cover HIT; 1 if any
REFUTED or NOT_REACHED; 2 on unknown/timeout/replay mismatch.
"""

from __future__ import annotations

import time
from typing import Optional

from ..consteval import wrap_signed
from ..ir import CoreModule, CoreProperty
from ..types import Reset, SInt
from .encode import FormalUnsupported, Unrolling, encode_bmc, formal_scope_check, inactive_level
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
    """Check every property of `core` up to `bound`; `emit_smt` names a
    file for `encode_bmc`'s stream of the same questions, none skipped."""
    formal_scope_check(core)
    if bound < 0:
        raise FormalUnsupported(f"bound {bound} is negative")
    solver = pick_solver(solver_choice)
    pipe = None if solver == "builtin" else run_solver(solver)  # not found: fails here
    props = list(core.properties)
    if emit_smt is not None:
        with open(emit_smt, "w", encoding="utf-8") as f:
            f.write(encode_bmc(core, bound))
    try:
        results = _check(core, props, bound, timeout, pipe)
    except (FormalUnsupported, SolverError):
        raise
    except Exception as e:  # e.g. a term nested too deeply
        raise SolverError("E_SOLVER_PARSE", f"solver `{solver}` produced no verdict "
                          f"({type(e).__name__}: {e})") from None
    finally:  # no solver process outlives the call
        if pipe is not None:
            pipe.close()
    _replay_all(core, results)
    verdict = FormalVerdict(results, bound, solver)
    verdict.exit_code = _classify_exit(results)
    return verdict


def _check(core: CoreModule, props: list[CoreProperty], bound: int,
           timeout: float | None, pipe) -> list[PropResult]:
    if not props:
        return []  # nothing to ask, so nothing to translate
    from ..smt.solve import ExternalSession, Session  # imported here: other paths never load it
    session = Session() if pipe is None else ExternalSession(pipe)
    unroll = Unrolling(core, session.builder)
    results: list[PropResult | None] = [None] * len(props)
    # the invariant is charged to no property, as the frames' interval pass is
    for i in _settled(unroll, session.engine, props):
        results[i] = _not_found(props[i])
    spent = [0.0] * len(props)  # solver seconds per property
    for k in range(bound + 1):
        open_props = [i for i, r in enumerate(results) if r is None]
        if not open_props:
            break
        unroll.extend()
        goals = [unroll.goal(props[i], k) for i in open_props]
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
    return [r if r is not None else _not_found(p) for r, p in zip(results, props)]


def _settled(unroll: Unrolling, engine, props: list[CoreProperty]) -> list[int]:
    """Indices of the properties that can fire at no cycle: their hit is
    false under an interval invariant of the registers
    (`intervals.invariant`), over `unroll`'s frame in any state. The
    invariant leaves `Unrolling.assumption` out, so it settles no goal
    that a frame could answer sat."""
    from ..smt.intervals import constants, invariant  # looked up per call
    frame = unroll.state_frame()
    regs = [(frame[name], init.value, step(frame)) for name, _, init, step in unroll.regs]
    hits = [unroll.hit(p, frame) for p in props]
    inv = invariant(engine, regs, [frame[name] for name, _, _ in unroll.nets],
                    constants([step for _, _, step in regs] + hits))
    if inv is None:
        return []
    return [i for i, hit in enumerate(hits) if engine.eval(hit, inv) == (0, 0)]


def _model_trace(unroll: Unrolling, session, upto: int) -> list[dict[str, int]]:
    """Inputs and registers of cycles 0..upto in the last sat answer, the
    bit pattern of a signed one read as its signed value, the value the
    simulator holds and compares."""
    core = unroll.core
    widths = {p.name: p.ty.width for p in core.ports if isinstance(p.ty, SInt)}
    widths.update((name, reg.ty.width) for name, reg in core.regs.items() if isinstance(reg.ty, SInt))
    names = [name for name, _ in unroll.inputs] + list(core.regs)
    rows = [{name: session.model_value(frame[name]) for name in names}
            for frame in unroll.frames[:upto + 1]]
    return [{name: wrap_signed(v, widths[name]) if name in widths else v for name, v in row.items()}
            for row in rows]


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
