"""Cycle engine: dirty-tracked settle, two-phase commit, runtime checks,
property sampling, and CDC latency randomization.

The comb state is settled (one pass of the image's schedule) only when
it is about to be observed, by an edge step, `peek`, a clockless property
or a VCD sample, and only if a data net changed since the last settle: a
`set_input`, an async reset, or an edge step that committed registers.
Each generated edge step opens with that settle itself, so a tick without
a trace or clockless properties is one table lookup, one step call and
the clock writes. A design with no clock domain gets the settle-only step
at every tick, so a tick after a `set` settles there too, and a runtime
check in its comb logic fires whether or not the run is observed. Clock
nets are not data, and the clock schedule writes every one of them, child
instance clocks included, so changing a clock leaves the state settled.

Clocking model: global time advances in ticks. A domain with period P
rises at every tick t > 0 with t % P == P - P // 2 (P == 1 rises every tick),
so clocks start low and stimulus applied at time 0 is seen by the first
edge. Properties sample pre-edge values: the check for cycle k runs at
the (k+1)-th posedge on state_k plus current inputs, which makes sim
cycle numbering coincide exactly with the formal unrolling.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import groupby
from typing import Optional

from ..source import Span
from ..types import SInt, Vec, width_of
from .image import (
    ExprCompiler, FlatReg, SimAbortError, SimImage, mask_of, wrap_signed,
)

SimAbort = SimAbortError

_TABLE_LIMIT = 4096  # schedule entries kept at once


class SimEvent:
    def __init__(self, kind: str,  # ASSERT_FAIL | COVER_HIT | GUARD_VIOLATION | UNINIT_READ |
                                   # UNDRIVEN_INPUT | EXPECT_MISMATCH | ABORT
                 cycle: int, domain: str, message: str, name: str = "") -> None:
        self.kind, self.cycle, self.domain, self.message, self.name = (
            kind, cycle, domain, message, name)


class SimReport:
    def __init__(self, passed: bool = True, events: list[SimEvent] = None,
                 cover_table: dict[str, Optional[int]] = None, expect_count: int = 0,
                 expect_failures: int = 0, assert_failures: int = 0,
                 aborted: Optional[SimEvent] = None, final_time: int = 0,
                 cycles: dict[str, int] = None) -> None:
        self.passed = passed
        self.events = [] if events is None else events
        self.cover_table = {} if cover_table is None else cover_table
        self.expect_count, self.expect_failures = expect_count, expect_failures
        self.assert_failures, self.aborted, self.final_time = assert_failures, aborted, final_time
        self.cycles = {} if cycles is None else cycles

    def lines(self) -> list[str]:
        out = []
        for e in self.events:
            out.append(f"[{e.kind}] cycle {e.cycle} ({e.domain}): {e.message}")
        status = "PASS" if self.passed else "FAIL"
        if self.aborted is not None:
            status = "ABORT"
        out.append(f"{status}: {self.expect_count - self.expect_failures}/"
                   f"{self.expect_count} expects, {self.assert_failures} assertion "
                   f"failures, time {self.final_time}")
        return out


class Simulator:
    def __init__(self, image: SimImage) -> None:
        self.image = image
        self.values: list = list(image.initial)
        self.time = 0
        self.cycles: dict[str, int] = {d: 0 for d in image.domains}
        self.periods: dict[str, int] = {d: 2 for d in image.domains}
        self.report = SimReport(cycles=self.cycles)
        self.rng = random.Random(image.flags.seed)
        self._dirty = True
        self._pending_bits: dict[str, int] = {}  # cdc chain reg -> delayed bitmask
        self._guard_seen: set[str] = set()
        self._cover_first: dict[str, int] = {}
        self.trace = None  # optional VcdTrace
        for p in image.props:
            if p.kind == "cover":
                self.report.cover_table[p.name] = None
        # properties of clockless (pure-comb) constructs sample per tick
        self._clockless = [p for p in image.props if p.domain is None] \
            if not image.domains else []
        self._clockless_state: dict[str, int] = {}
        # this run's state for the read checks and the guards: written
        # registers, driven inputs, the sites already warned of
        self._written = [False] * len(image.regs)
        self._driven = [False] * len(image.inputs)
        self._warned: set = set()
        if image.run_slot is not None:
            self.values[image.run_slot] = self  # where the read hooks find it
        self._inputs = {name: (net.index, slot, _coercion(net.ty))
                        for slot, (name, net) in enumerate(image.inputs.items())}
        # what `peek` reads: a net shadows a register of the same name
        self._names = {name: reg.index for name, reg in image.regs.items()}
        self._names.update((name, net.index) for name, net in image.nets.items())
        self._async_regs = [r for r in image.regs.values()
                            if r.reset_async and r.reset_net is not None]
        # clock schedule: time % lcm(periods) -> (step function or None,
        # ((clock net index, value), ...)), filled as phases are reached
        self._lcm = 2
        self._table: dict[int, tuple] = {}
        for idx, value in self._clock_values(0):
            self.values[idx] = value

    # ── plumbing ─────────────────────────────────────────────────

    def _warn(self, kind: str, message: str, span: Span) -> None:
        domain = ""
        self.report.events.append(SimEvent(kind, self._max_cycle(), domain, message))

    def _max_cycle(self) -> int:
        return max(self.cycles.values(), default=0)

    def set_period(self, domain: str, period: int) -> None:
        if domain not in self.periods:
            raise KeyError(f"unknown clock domain `{domain}`")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.periods[domain] = period
        self._lcm = math.lcm(*self.periods.values())
        self._table.clear()

    def settle(self) -> None:
        if not self._dirty:
            return
        self.image.settle(self.values)
        self._dirty = False

    def set_input(self, name: str, value: int) -> None:
        entry = self._inputs.get(name)
        if entry is None:
            raise not_an_input(name)
        index, slot, coerce = entry
        self.values[index] = coerce(value)
        self._driven[slot] = True
        self._dirty = True
        if self._async_regs:
            self._async_resets()

    def peek(self, name: str):
        if self._dirty:
            self.settle()
        index = self._names.get(name)
        if index is None:
            raise unknown_net(name)
        return self.values[index]

    def _async_resets(self) -> None:
        """Async reset assertion takes effect without waiting for an edge."""
        for reg in self._async_regs:
            if self.values[reg.reset_net] == (1 if reg.reset_active_high else 0):
                self.values[reg.index] = reg.reset_value
                self._dirty = True

    # ── the clock schedule ───────────────────────────────────────

    def _clock_values(self, phase: int) -> tuple:
        """Clock net values at a phase: low in the first half of the
        period, high in the second; the rising edge lands at phase ==
        ceil(p/2) == p - p//2."""
        out = []
        for domain, nets in self.image.clock_nets.items():
            p = self.periods.get(domain, 2)
            value = 1 if (p == 1 or phase % p >= (p - p // 2)) else 0
            out.extend((idx, value) for idx in nets)
        return tuple(out)

    def _phase(self, phase: int) -> tuple:
        """The schedule entry of a phase; the step function of its edge set
        (the settle alone in a design with no clock domain) is generated on
        first use and kept on the image."""
        rising, falling = [], []
        for d in self.image.domains:
            p = self.periods.get(d, 2)
            if phase % p == (0 if p == 1 else (p - p // 2)):
                rising.append(d)
            if phase % p == 0:
                falling.append(d)
        step = None
        if rising or falling or not self.image.domains:
            key = (tuple(rising), tuple(falling))
            step = self.image.steps.get(key)
            if step is None:
                step = self.image.steps[key] = generate_step(self.image, *key)
        if len(self._table) >= _TABLE_LIMIT:
            self._table.clear()  # co-prime periods: keep memory bounded
        entry = self._table[phase] = (step, self._clock_values(phase))
        return entry

    # ── the tick ─────────────────────────────────────────────────

    def tick(self, n: int = 1) -> None:
        """Advance n global ticks, processing any clock edges encountered.
        An edge step settles, samples properties, checks guards and
        commits the registers of the edges that fired (rising edges also
        count cycles)."""
        values, table, lcm = self.values, self._table, self._lcm
        t = self.time
        if self.trace is None and not self._clockless:
            end = t + n
            try:
                while t < end:
                    t += 1
                    step, clocks = table.get(t % lcm) or self._phase(t % lcm)
                    if step is not None and step(values, self):
                        raise _StopSim()
                    for idx, value in clocks:
                        values[idx] = value
            finally:
                self.time = t
            return
        clockless, trace = self._clockless, self.trace
        if trace is not None and not trace.changes:
            self.sample_trace()  # the first sample: the state this tick starts from
        sample = trace._sample if trace is not None else None
        for t in range(t + 1, t + n + 1):
            self.time = t
            step, clocks = table.get(t % lcm) or self._phase(t % lcm)
            if step is not None and step(values, self):
                raise _StopSim()
            for idx, value in clocks:
                values[idx] = value
            if clockless:
                self._check_clockless()
            if sample is not None:
                if self._dirty:
                    try:
                        self.settle()
                    except SimAbortError:
                        continue  # left out, as `sample_trace` says
                sample(t, values)

    def sample_trace(self) -> None:
        """Sample the trace at the current time. A trace only observes: a
        settle that aborts leaves the sample out, and the run aborts where
        and when it would untraced (at the next edge step or `expect`)."""
        if self._dirty:
            try:
                self.settle()
            except SimAbortError:
                return
        self.trace.sample(self.time, self.values)

    def _check_clockless(self) -> None:
        """Pure-comb constructs have no sampling edge; their properties are
        checked per tick, reporting each new violation once."""
        self.settle()
        for prop in self._clockless:
            val = prop.fn(self.values)
            if prop.kind == "assert":
                prev = self._clockless_state.get(prop.name, 1)
                if not val and prev:
                    self.report.assert_failures += 1
                    self.report.events.append(SimEvent(
                        "ASSERT_FAIL", self.time, "",
                        f"assertion `{prop.name}` failed", prop.name))
                self._clockless_state[prop.name] = 1 if val else 0
            elif val and self.report.cover_table.get(prop.name) is None:
                self.report.cover_table[prop.name] = self.time
                self.report.events.append(SimEvent(
                    "COVER_HIT", self.time, "",
                    f"cover `{prop.name}` hit", prop.name))

    def run_cycles(self, domain: str, n: int) -> None:
        """Advance until `domain` has seen n more posedges."""
        target = self.cycles[domain] + n
        if n <= 0:
            return
        p = self.periods[domain]
        rise = 0 if p == 1 else p - p // 2
        first = self.time + 1 + (rise - self.time - 1) % p  # the next posedge
        self.tick(first + (n - 1) * p - self.time)
        if self.cycles[domain] < target:
            raise RuntimeError("clock scheduling failed to advance")

    def _randomize_capture(self, reg: FlatReg, nxt: int) -> int:
        """--cdc-random: per crossing event (bit change), capture now or one
        destination cycle late, pending bits forced through next edge."""
        cur = self.values[reg.index]
        if isinstance(reg.ty, SInt):
            cur &= mask_of(reg.width)
            nxt &= mask_of(reg.width)
        pending = self._pending_bits.get(reg.name, 0)
        diff = (cur ^ nxt) & mask_of(reg.width)
        out = nxt
        new_pending = 0
        bit = 1
        for _ in range(reg.width):
            if diff & bit:
                if pending & bit:
                    pass  # delayed last edge; must capture now
                elif self.rng.getrandbits(1):
                    out = (out & ~bit) | (cur & bit)  # hold one more cycle
                    new_pending |= bit
            bit <<= 1
        self._pending_bits[reg.name] = new_pending
        if isinstance(reg.ty, SInt):
            out = wrap_signed(out, reg.width)
        return out


class _StopSim(Exception):
    pass


def unknown_net(name: str) -> KeyError:
    return KeyError(f"unknown net `{name}`")


def not_an_input(name: str) -> KeyError:
    return KeyError(f"`{name}` is not a primary input")


def _coercion(ty):
    """The wrap or mask `set_input` applies to a value for an input of `ty`."""
    if isinstance(ty, SInt):
        w = ty.width
        return lambda value: wrap_signed(value, w)
    if isinstance(ty, Vec):
        return lambda value: value
    m = mask_of(width_of(ty))
    return lambda value: value & m


def _fire(kind: str, domain: str, message: str, name: str, rep: SimReport,
          cycle: int) -> bool:
    """Record property `name` failing (ASSERT_FAIL) or hit (COVER_HIT) at
    `cycle`. Generated edge steps call it, bound to one property, only when
    the property fires; True is the stop of --stop-on-assert."""
    if kind == "ASSERT_FAIL":
        rep.assert_failures += 1
    else:
        rep.cover_table[name] = cycle
    rep.events.append(SimEvent(kind, cycle, domain, message, name))
    return True


def generate_step(image: SimImage, rising: tuple, falling: tuple):
    """Straight-line step function `step(v, sim) -> stop` for one set of
    clock edges, in the order the events happen: the settle when a data
    net changed since the last one (`image.settle` as it is when the step
    is made), property sampling on pre-edge values (with `disable iff`),
    guard checks (--check-uninit), every next value of the registers
    clocked by these edges (reset, `assigned`), then the commit
    (--cdc-random capture, written bookkeeping, and the dirty mark when any
    register is committed) and the cycle counts of the rising domains. Register order follows
    `image.regs_by_domain` as it stands at first use."""
    b = image.builder
    flags = image.flags
    track_written = flags.check_uninit  # only the uninit checks read it
    b.ns["_Event"] = SimEvent
    props = [p for p in image.props
             if (p.domain in rising if p.domain is not None else rising)]
    guards = [r for r in image.regs.values()
              if flags.check_uninit and r.guard_index is not None and r.domain in rising]
    regs = [r for d in rising for r in image.regs_by_domain.get(d, ()) if r.edge == "rising"]
    regs += [r for d in falling for r in image.regs_by_domain.get(d, ()) if r.edge == "falling"]

    lines = ["    if s._dirty:", f"        {b.bind(image.settle, '_settle')}(v)",
             "        s._dirty = False"]
    if track_written:
        lines.append("    wr = s._written")
    # props and guards sample only on rising edges
    if rising:
        lines.append("    cyc = s.cycles")
    if props or guards:
        lines.append("    rep = s.report")
    stops = flags.stop_on_assert and any(p.kind == "assert" for p in props)
    if stops:
        lines.append("    stop = False")
    # one line per property; properties on one reset share its test
    for (reset_net, high), group in groupby(props, lambda p: (p.reset_net, p.reset_active_high)):
        pad = "    "
        if reset_net is not None:
            lines.append(f"    if v[{reset_net}] != {1 if high else 0}:")
            pad += "    "
        for p in group:
            cycle = f"cyc[{p.domain!r}]" if p.domain is not None else "max(cyc.values(), default=0)"
            cond = ExprCompiler(b).cond(p.expr)
            event = ("ASSERT_FAIL", f"assertion `{p.name}` failed") if p.kind == "assert" \
                else ("COVER_HIT", f"cover `{p.name}` hit")
            fire = b.bind(partial(_fire, event[0], p.domain or "", event[1], p.name), "_fire")
            if p.kind == "assert":
                stop = "stop = " if flags.stop_on_assert else ""
                lines.append(f"{pad}if not {cond}: {stop}{fire}(rep, {cycle})")
            else:
                lines.append(f"{pad}if {cond} and rep.cover_table.get({p.name!r}) is None: "
                             f"{fire}(rep, {cycle})")

    if guards:
        lines.append("    seen = s._guard_seen")
    for r in guards:
        message = f"guard of `{r.name}` is high but the register was never written"
        lines += [f"    if v[{r.guard_index}] == 1 and not wr[{r.written_index}] "
                  f"and {r.name!r} not in seen:",
                  f"        seen.add({r.name!r})",
                  f"        rep.events.append(_Event('GUARD_VIOLATION', cyc[{r.domain!r}], "
                  f"{r.domain!r}, {message!r}, {r.name!r}))"]

    # two-phase commit: every next value, then every update; consecutive
    # registers on the same reset share its test
    for (reset_net, high), group in groupby(
            enumerate(regs), lambda jr: (jr[1].reset_net, jr[1].reset_active_high)):
        group = list(group)
        pad = "    "
        if reset_net is not None:
            lines.append(f"    if v[{reset_net}] == {1 if high else 0}:")
            for j, r in group:
                value = r.reset_value
                lines.append(f"        n{j} = {value if type(value) is int else b.bind(value, '_k')}")
                if track_written:
                    lines.append(f"        w{j} = False")
            lines.append("    else:")
            pad = "        "
        for j, r in group:
            compiler = ExprCompiler(b, suppress_hook_for=r.name)
            lines.append(f"{pad}n{j} = {compiler.value(r.next_expr)}")
            if r.assigned_expr is None:
                if track_written:
                    lines.append(f"{pad}w{j} = True")
                continue
            compiler = ExprCompiler(b, suppress_hook_for=r.name)
            assigned = compiler.cond(r.assigned_expr)
            if track_written:
                lines.append(f"{pad}w{j} = {assigned}")
            elif compiler.impure:
                lines.append(f"{pad}{assigned}")  # for its runtime checks only
    for j, r in enumerate(regs):
        if r.cdc_chain is not None and flags.cdc_random and not isinstance(r.ty, Vec):
            lines.append(f"    v[{r.index}] = s._randomize_capture({b.bind(r, '_r')}, n{j})")
        else:
            lines.append(f"    v[{r.index}] = n{j}")
        if track_written:
            lines.append(f"    if w{j}:\n        wr[{r.written_index}] = True")
    if regs:
        lines.append("    s._dirty = True")
    lines += [f"    cyc[{d!r}] += 1" for d in rising]
    lines.append("    return stop\n" if stops else "    return False\n")
    name = b.fresh("_step")
    return b.run(f"def {name}(v, s):\n" + "\n".join(lines))[name]
