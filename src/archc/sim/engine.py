"""Cycle engine: dirty-tracked settle, two-phase commit, runtime checks,
property sampling, and CDC latency randomization.

The comb state is settled (one pass of the image's schedule) only when
it is about to be observed, by an edge step, `peek` or a VCD sample, and
only if a data net changed since the last settle: a `set_input`, an
async reset, or an edge step that committed registers. Ticks run in one
generated function per clock schedule (`generate_loop`), which runs a
whole span of ticks: a tick with clock edges settles, writes their
clock nets and runs the step of its edge set, all inline, and a tick
without edges is one table lookup. `tick`, `run_cycles` and each `run`
or `tick` line of a stimulus program make one call of it; a traced run
has its own loop that samples the trace after every tick. A design with
no clock domain gets a step at every tick that settles and samples its
properties, so a tick after a `set` settles there too, and a runtime
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
from ..types import SInt, Vec
from .image import (
    ExprCompiler, FlatReg, SimAbortError, SimImage, mask_of, wrap_signed,
)

SimAbort = SimAbortError

_TABLE_LIMIT = 4096  # the longest schedule whose edges are tabled per phase
_LOOPS_KEPT = 64  # tick loops kept per image


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
        self.rng = random.Random(image.flags.seed) if image.flags.cdc_random else None
        self._dirty = True
        self._pending_bits: dict[str, int] = {}  # cdc chain reg -> delayed bitmask
        self._guard_seen: set[str] = set()
        self._trace = None  # optional VcdTrace
        for p in image.props:
            if p.kind == "cover":
                self.report.cover_table[p.name] = None
        self._failing: set[str] = set()  # clockless asserts that fail now
        # this run's state for the read checks and the guards: written
        # registers, driven inputs, the sites already warned of
        self._written = [False] * len(image.regs)
        self._driven = [False] * len(image.inputs)
        self._warned: set = set()
        if image.run_slot is not None:
            self.values[image.run_slot] = self  # where the read hooks find it
        self._inputs, self._names = image.setters, image.names
        self._async_regs = [r for r in image.regs.values()
                            if r.reset_async and r.reset_net is not None]
        # the tick loop of the current periods and trace, None until the
        # next tick asks for it (`_schedule`); while `_stale`, the clock
        # nets may hold values of no period or of others (at first their
        # zeros, the values at time 0), which the next tick rewrites
        self._loop = None
        self._stale = True

    # ── plumbing ─────────────────────────────────────────────────

    def _warn(self, kind: str, message: str, span: Span) -> None:
        domain = ""
        self.report.events.append(SimEvent(kind, self._max_cycle(), domain, message))

    def _max_cycle(self) -> int:
        return max(self.cycles.values(), default=0)

    @property
    def trace(self):
        return self._trace

    @trace.setter
    def trace(self, trace) -> None:
        self._trace = trace
        self._loop = None  # a traced run samples in its own loop

    def set_period(self, domain: str, period: int) -> None:
        if domain not in self.periods:
            raise KeyError(f"unknown clock domain `{domain}`")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.periods[domain] = period
        self._loop = None
        self._stale = True

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

    def _sync_clocks(self, t: int) -> None:
        """Write every clock net's value at tick t: low in the first half
        of the period, high in the second; the rising edge lands at phase
        == ceil(p/2) == p - p//2. The tick loop calls it before tick t
        when the clock nets are stale."""
        for domain, nets in self.image.clock_nets.items():
            p = self.periods[domain]
            for idx in nets:
                self.values[idx] = 1 if (p == 1 or t % p >= (p - p // 2)) else 0
        self._stale = False

    def _schedule(self):
        """The tick loop of the current periods, traced when a trace is
        attached: generated on first use and kept on the image."""
        key = (tuple(self.periods.values()), self._trace is not None)
        loops = self.image.loops
        loop = loops.get(key)
        if loop is None:
            if len(loops) >= _LOOPS_KEPT:
                loops.clear()  # many schedules: keep memory bounded
            loop = loops[key] = generate_loop(self.image, *key)
        self._loop = loop
        return loop

    # ── the tick ─────────────────────────────────────────────────

    def tick(self, n: int = 1) -> None:
        """Advance n global ticks, processing any clock edges encountered,
        in one call of the tick loop. An edge step settles, samples
        properties, checks guards and commits the registers of the edges
        that fired (rising edges also count cycles)."""
        (self._loop or self._schedule())(self.values, self, self.time, self.time + n)

    def sample_trace(self) -> None:
        """Sample the trace at the current time. A trace only observes: its
        settle reads nothing in the run's name (`SimImage.sample_settle`),
        a settle that aborts leaves the sample out, and the run aborts where
        and when it would untraced (at the next edge step or `expect`)."""
        if self._dirty:
            settle = self.image.sample_settle()
            try:
                settle(self.values)
            except SimAbortError:
                return
            if settle is self.image.settle:
                self._dirty = False
        self._trace.sample(self.time, self.values)

    def run_cycles(self, domain: str, n: int) -> None:
        """Advance until `domain` has seen n more posedges."""
        if n <= 0:
            return
        target = self.cycles[domain] + n
        t, p = self.time, self.periods[domain]
        first = t + 1 + ((p - p // 2) % p - t - 1) % p  # the next rising edge
        (self._loop or self._schedule())(self.values, self, t, first + (n - 1) * p)
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


def _fire(kind: str, domain: str, message: str, name: str, rep: SimReport,
          cycle: int) -> bool:
    """Record property `name` failing (ASSERT_FAIL) or hit (COVER_HIT) at
    `cycle`. Generated tick loops call it, bound to one property, only when
    the property fires; True is the stop of --stop-on-assert."""
    if kind == "ASSERT_FAIL":
        rep.assert_failures += 1
    else:
        rep.cover_table[name] = cycle
    rep.events.append(SimEvent(kind, cycle, domain, message, name))
    return True


def _edges(periods: tuple, t: int) -> int:
    """The edges at tick t as a code: bit 2i is domain i rising, bit
    2i + 1 domain i falling (both at every tick for period 1)."""
    code = 0
    for i, p in enumerate(periods):
        phase = t % p
        code |= (phase == (p - p // 2) % p) << 2 * i | (phase == 0) << 2 * i + 1
    return code


def generate_loop(image: SimImage, periods: tuple, traced: bool):
    """The tick loop `loop(v, s, t, end)` of one clock schedule: it runs
    ticks t+1 .. end with the periods `periods` (one per `image.domains`),
    and stores the time reached in `s.time`, also when a step raises.

    A tick's edges are a code (`_edges`), read from a per-phase table
    when the schedule repeats within `_TABLE_LIMIT` ticks, else worked
    out from each domain's phase. A tick with edges settles when a data
    net changed since the last settle (`image.settle` as it is when the
    loop is made), then runs the step of its edge set, written inline
    (`_step_lines`). So the code grows with the number of edge sets, not
    with the length of the schedule. A step writes the clock nets of the
    domains that edge; the others keep their values, which
    `Simulator._sync_clocks` makes right after a period change. A traced
    loop samples the trace after every tick, settling with
    `image.sample_settle`, so the run's own settles and read checks
    happen as they do untraced."""
    b = image.builder
    domains = image.domains
    lcm = math.lcm(*periods) if periods else 1
    if not domains:
        table, codes = None, [0]  # a step at every tick
    elif lcm <= _TABLE_LIMIT:
        table = [_edges(periods, t) for t in range(lcm)]
        codes = sorted(set(table) - {0})
    else:  # every combination of edges, as the phases are not enumerated
        table, codes = None, [0]
        for i, p in enumerate(periods):
            codes = [c | e << 2 * i for c in codes for e in ((3,) if p == 1 else (0, 1, 2))]
        codes = sorted(set(codes) - {0})
    gaps = bool(domains) and (table is None or 0 in table)  # ticks without edges

    body = ["while t < end:", "    t += 1"]
    pad = "    "
    if table is not None and (gaps or len(codes) > 1):
        body.append(f"    k = {b.bind(table, '_ids')}[t % {lcm}]")
    elif table is None and domains:
        body.append("    k = " + " | ".join(
            f"{3 << 2 * i}" if p == 1 else
            f"(1 if (x{i} := t % {p}) == {p - p // 2} else 2 if x{i} == 0 else 0) << {2 * i}"
            for i, p in enumerate(periods)))
    if gaps:
        body.append("    if k:")
        pad = "        "
    body += [f"{pad}if s._dirty:", f"{pad}    {b.bind(image.settle, '_settle')}(v)",
             f"{pad}    s._dirty = False"]
    uses: set = set()
    last = len(codes) - 1
    for n, code in enumerate(codes):
        lines = _step_lines(image, [d for i, d in enumerate(domains) if code >> 2 * i & 1],
                            [d for i, d in enumerate(domains) if code >> 2 * i & 2], uses)
        indent = pad
        if last:
            body.append(pad + ("if" if n == 0 else "elif" if n < last else "else")
                        + (f" k == {code}:" if n < last else ":"))
            indent += "    "
        body += [indent + line for line in lines] or [indent + "pass"]
    if traced:
        settle = image.sample_settle()
        body += ["    if s._dirty:", "        try:",
                 f"            {b.bind(settle, '_sample_settle')}(v)",
                 "        except _Abort:",
                 "            continue  # left out, as `sample_trace` says"]
        if settle is image.settle:
            body.append("        s._dirty = False")
        body.append("    sample(t, v)")
    name = b.fresh("_loop")
    head = [f"def {name}(v, s, t, end):"]
    head += [f"    {local} = {value}" for local, value in (
        ("cyc", "s.cycles"), ("rep", "s.report"), ("wr", "s._written"),
        ("seen", "s._guard_seen"), ("failing", "s._failing")) if local in uses]
    if traced:
        head += ["    sample = s._trace._sample",
                 "    if not s._trace.changes:",
                 "        s.sample_trace()  # the first: the state the run starts from"]
    head += ["    if s._stale and t < end:", "        s._sync_clocks(t + 1)", "    try:"]
    b.ns["_Abort"], b.ns["_Stop"], b.ns["_Event"] = SimAbortError, _StopSim, SimEvent
    return b.run("\n".join(head) + "\n        " + "\n        ".join(body)
                 + "\n    finally:\n        s.time = t\n")[name]


def _step_lines(image: SimImage, rising: list, falling: list, uses: set) -> list:
    """The step of one set of clock edges, as lines of the tick loop (the
    loop settles before them): the writes of these domains' clock nets,
    then, in the order the events happen, property sampling on pre-edge
    values (with `disable iff`; in a design with no clock domain, at
    every tick, by time), guard checks (--check-uninit), every next value
    of the registers clocked by these edges (reset, `assigned`), the
    commit (--cdc-random capture, written bookkeeping, and the dirty mark
    when any register is committed), the cycle counts of the rising
    domains and the --stop-on-assert stop. Adds to `uses` the loop
    locals the lines read. Register order follows `image.regs_by_domain`
    as it stands when the loop is made."""
    b = image.builder
    flags = image.flags
    track_written = flags.check_uninit  # only the uninit checks read it
    clockless = not image.domains  # its properties sample at every tick
    props = image.props if clockless else [
        p for p in image.props if (p.domain in rising if p.domain is not None else rising)]
    guards = [r for r in image.regs.values()
              if flags.check_uninit and r.guard_index is not None and r.domain in rising]
    regs = [r for d in rising for r in image.regs_by_domain.get(d, ()) if r.edge == "rising"]
    regs += [r for d in falling for r in image.regs_by_domain.get(d, ()) if r.edge == "falling"]

    # clock nets are never read as data, so their writes come first
    lines = [f"v[{idx}] = {int(d in rising)}"
             for d in rising + [d for d in falling if d not in rising]
             for idx in image.clock_nets.get(d, ())]
    if rising:
        uses.add("cyc")
    if props or guards:
        uses.add("rep")
    if guards:
        uses.add("seen")
    if track_written and (regs or guards):
        uses.add("wr")
    stops = flags.stop_on_assert and not clockless and any(p.kind == "assert" for p in props)
    if stops:
        lines.append("stop = False")
    if clockless and props:
        uses.add("failing")
    # one line per property; properties on one reset share its test
    for (reset_net, high), group in groupby(props, lambda p: (p.reset_net, p.reset_active_high)):
        pad = ""
        if reset_net is not None:
            lines.append(f"if v[{reset_net}] != {1 if high else 0}:")
            pad = "    "
        for p in group:
            cycle = "t" if clockless else (
                f"cyc[{p.domain!r}]" if p.domain is not None else "max(cyc.values(), default=0)")
            cond = ExprCompiler(b).cond(p.expr)
            event = ("ASSERT_FAIL", f"assertion `{p.name}` failed") if p.kind == "assert" \
                else ("COVER_HIT", f"cover `{p.name}` hit")
            fire = b.bind(partial(_fire, event[0], p.domain or "", event[1], p.name), "_fire")
            if p.kind == "assert" and clockless:  # reported when a violation starts
                lines += [f"{pad}if {cond}: failing.discard({p.name!r})",
                          f"{pad}elif {p.name!r} not in failing: "
                          f"failing.add({p.name!r}); {fire}(rep, {cycle})"]
            elif p.kind == "assert":
                stop = "stop = " if flags.stop_on_assert else ""
                lines.append(f"{pad}if not {cond}: {stop}{fire}(rep, {cycle})")
            else:
                lines.append(f"{pad}if {cond} and rep.cover_table.get({p.name!r}) is None: "
                             f"{fire}(rep, {cycle})")

    for r in guards:
        message = f"guard of `{r.name}` is high but the register was never written"
        lines += [f"if v[{r.guard_index}] == 1 and not wr[{r.written_index}] "
                  f"and {r.name!r} not in seen:",
                  f"    seen.add({r.name!r})",
                  f"    rep.events.append(_Event('GUARD_VIOLATION', cyc[{r.domain!r}], "
                  f"{r.domain!r}, {message!r}, {r.name!r}))"]

    # two-phase commit: every next value, then every update; consecutive
    # registers on the same reset share its test
    for (reset_net, high), group in groupby(
            enumerate(regs), lambda jr: (jr[1].reset_net, jr[1].reset_active_high)):
        group = list(group)
        pad = ""
        if reset_net is not None:
            lines.append(f"if v[{reset_net}] == {1 if high else 0}:")
            for j, r in group:
                value = r.reset_value
                lines.append(f"    n{j} = {value if type(value) is int else b.bind(value, '_k')}")
                if track_written:
                    lines.append(f"    w{j} = False")
            lines.append("else:")
            pad = "    "
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
            lines.append(f"v[{r.index}] = s._randomize_capture({b.bind(r, '_r')}, n{j})")
        else:
            lines.append(f"v[{r.index}] = n{j}")
        if track_written:
            lines += [f"if w{j}:", f"    wr[{r.written_index}] = True"]
    if regs:
        lines.append("s._dirty = True")
    lines += [f"cyc[{d!r}] += 1" for d in rising]
    if stops:
        lines += ["if stop:", "    raise _Stop()"]
    return lines
