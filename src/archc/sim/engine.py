"""Cycle engine: bounded-settle evaluation, two-phase commit, runtime
checks, property sampling, and CDC latency randomization.

Clocking model: global time advances in ticks. A domain with period P
rises at every tick t > 0 with t % P == P // 2 (P == 1 rises every tick),
so clocks start low and stimulus applied at time 0 is seen by the first
edge. Properties sample pre-edge values: the check for cycle k runs at
the (k+1)-th posedge on state_k plus current inputs, which makes sim
cycle numbering coincide exactly with the formal unrolling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..source import Span
from ..types import SInt, Vec
from .image import (
    FlatReg, SimAbortError, SimImage, mask_of, type_width, wrap_signed,
)

SimAbort = SimAbortError


@dataclass
class SimEvent:
    kind: str       # ASSERT_FAIL | COVER_HIT | GUARD_VIOLATION | UNINIT_READ |
                    # UNDRIVEN_INPUT | EXPECT_MISMATCH | ABORT
    cycle: int
    domain: str
    message: str
    name: str = ""


@dataclass
class SimReport:
    passed: bool = True
    events: list[SimEvent] = field(default_factory=list)
    cover_table: dict[str, Optional[int]] = field(default_factory=dict)
    expect_count: int = 0
    expect_failures: int = 0
    assert_failures: int = 0
    aborted: Optional[SimEvent] = None
    final_time: int = 0
    cycles: dict[str, int] = field(default_factory=dict)

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
        image.builder.sink = self._warn
        self._written = image.builder.written
        self._driven = image.builder.driven
        self._input_slot = {name: i for i, name in enumerate(image.inputs)}
        self._async_regs = [r for r in image.regs.values()
                            if r.reset_async and r.reset_net is not None]
        self._update_clock_nets()

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

    def settle(self) -> None:
        if not self._dirty:
            return
        values = self.values
        for _ in range(self.image.settle_depth):
            for idx, fn in self.image.schedule:
                values[idx] = fn(values)
        if self.image.flags.debug_settle:
            before = list(values)
            for idx, fn in self.image.schedule:
                values[idx] = fn(values)
            assert values == before, "settle invariant violated: extra pass changed nets"
        self._dirty = False

    def set_input(self, name: str, value: int) -> None:
        net = self.image.inputs.get(name)
        if net is None:
            raise KeyError(f"`{name}` is not a primary input")
        if isinstance(net.ty, SInt):
            value = wrap_signed(value, net.ty.width)
        elif not isinstance(net.ty, Vec):
            value &= mask_of(type_width(net.ty))
        self.values[net.index] = value
        self._driven[self._input_slot[name]] = True
        self._dirty = True
        self._async_resets()

    def peek(self, name: str):
        self.settle()
        if name in self.image.nets:
            return self.values[self.image.nets[name].index]
        if name in self.image.regs:
            return self.values[self.image.regs[name].index]
        raise KeyError(f"unknown net `{name}`")

    def _async_resets(self) -> None:
        """Async reset assertion takes effect without waiting for an edge."""
        for reg in self._async_regs:
            if self.values[reg.reset_net] == (1 if reg.reset_active_high else 0):
                self.values[reg.index] = reg.reset_value
                self._dirty = True

    def _update_clock_nets(self) -> None:
        t = self.time
        for domain, nets in self.image.clock_nets.items():
            p = self.periods.get(domain, 2)
            phase = t % p
            value = 1 if (p == 1 or phase >= (p - p // 2)) else 0
            # clock is low in the first half of the period, high in the second;
            # the rising edge lands at phase == ceil(p/2) == p - p//2
            for idx in nets:
                if self.values[idx] != value:
                    self.values[idx] = value
                    self._dirty = True

    def _edge_domains(self, t: int) -> list[str]:
        out = []
        for d in self.image.domains:
            p = self.periods.get(d, 2)
            if t > 0 and (t % p) == (0 if p == 1 else (p - p // 2)):
                out.append(d)
        return out

    def _neg_edge_domains(self, t: int) -> list[str]:
        out = []
        for d in self.image.domains:
            p = self.periods.get(d, 2)
            if t > 0 and (t % p) == 0:
                out.append(d)
        return out

    # ── the tick ─────────────────────────────────────────────────

    def tick(self, n: int = 1) -> None:
        """Advance n global ticks, processing any clock edges encountered."""
        for _ in range(n):
            self.time += 1
            rising = self._edge_domains(self.time)
            falling = self._neg_edge_domains(self.time)
            if rising or falling:
                self._edge_step(rising, falling)
            self._update_clock_nets()
            if self._clockless:
                self._check_clockless()
            if self.trace is not None:
                self.settle()
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
        guard = 0
        while self.cycles[domain] < target:
            self.tick(1)
            guard += 1
            if guard > n * max(self.periods.values()) + 16:
                raise RuntimeError("clock scheduling failed to advance")

    def _edge_step(self, edging: list[str], falling: list[str]) -> None:
        """One global time step: rising edges drive property sampling,
        guard checks, and cycle counting; registers commit on whichever of
        their clock's edges fired."""
        self.settle()
        values = self.values
        flags = self.image.flags

        # property sampling (pre-edge values = cycle k state)
        stop = False
        for prop in self.image.props:
            if prop.domain is not None and prop.domain not in edging:
                continue
            if prop.domain is None and not edging:
                continue
            if prop.reset_net is not None:
                rv = values[prop.reset_net]
                if rv == (1 if prop.reset_active_high else 0):
                    continue  # disable iff (reset active)
            cycle = self.cycles[prop.domain] if prop.domain in self.cycles \
                else self._max_cycle()
            try:
                val = prop.fn(values)
            except SimAbortError as e:
                raise e
            if prop.kind == "assert":
                if not val:
                    self.report.assert_failures += 1
                    self.report.events.append(SimEvent(
                        "ASSERT_FAIL", cycle, prop.domain or "",
                        f"assertion `{prop.name}` failed", prop.name))
                    if flags.stop_on_assert:
                        stop = True
            else:
                if val and self.report.cover_table.get(prop.name) is None:
                    self.report.cover_table[prop.name] = cycle
                    self.report.events.append(SimEvent(
                        "COVER_HIT", cycle, prop.domain or "",
                        f"cover `{prop.name}` hit", prop.name))

        # guard checks: valid high while the data register was never written
        for reg in self.image.regs.values():
            if reg.guard_index is None or reg.domain not in edging:
                continue
            if reg.name in self._guard_seen:
                continue
            if flags.check_uninit and values[reg.guard_index] == 1 \
                    and not self._written[reg.written_index]:
                self._guard_seen.add(reg.name)
                self.report.events.append(SimEvent(
                    "GUARD_VIOLATION", self.cycles[reg.domain], reg.domain,
                    f"guard of `{reg.name}` is high but the register was never "
                    f"written", reg.name))

        # two-phase commit: compute every next value, then update;
        # a register commits only on its own clock edge polarity
        updates: list[tuple[FlatReg, object, bool]] = []
        for d, want_edge in [(d, "rising") for d in edging] + \
                            [(d, "falling") for d in falling]:
            for reg in self.image.regs_by_domain.get(d, ()):
                if reg.edge != want_edge:
                    continue
                if reg.reset_net is not None:
                    rv = values[reg.reset_net]
                    if rv == (1 if reg.reset_active_high else 0):
                        updates.append((reg, reg.reset_value, False))
                        continue
                nxt = reg.next_fn(values)
                wrote = bool(reg.assigned_fn(values)) if reg.assigned_fn else True
                updates.append((reg, nxt, wrote))
        for reg, nxt, wrote in updates:
            if reg.cdc_chain is not None and flags.cdc_random \
                    and not isinstance(reg.ty, Vec):
                nxt = self._randomize_capture(reg, nxt)
            values[reg.index] = nxt
            if wrote:
                self._written[reg.written_index] = True
        for d in edging:
            self.cycles[d] += 1
        self._dirty = True
        if stop:
            raise _StopSim()

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
