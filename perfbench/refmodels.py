"""Python reference models of the corpus designs the `sim` workload drives.

Each model is written from the Arch language rules in the README (counter
kinds, FSM transitions, pipeline stall/flush, wrapping operators), not
from archc's code. A model steps one clock cycle at a time: it takes the
inputs present before the rising edge and returns the state after it.
"""

from __future__ import annotations


def wrap_signed(value: int, width: int) -> int:
    value &= (1 << width) - 1
    return value - (1 << width) if value >> (width - 1) else value


class Counter:
    """`counter` construct: count 0..MAX; at MAX a wrapping counter goes
    to 0 and a saturating one holds. Sync reset to 0 wins over enable."""

    def __init__(self, max_value: int, saturating: bool) -> None:
        self.max = max_value
        self.saturating = saturating
        self.count = 0

    def step(self, en: int, rst: int) -> None:
        if rst:
            self.count = 0
        elif en:
            if self.count != self.max:
                self.count += 1
            elif not self.saturating:
                self.count = 0


class Fsm:
    """Three-state FSM: state 0 -> 1 on `go`, 1 -> 2 on `fin`, 2 -> 0.
    Covers both fsm_controller (Idle/Active/Done) and fsm_reqack
    (Idle/Wait/Reply). Sync reset to state 0."""

    def __init__(self) -> None:
        self.state = 0

    def step(self, go: int, fin: int, rst: int) -> None:
        if rst:
            self.state = 0
        elif self.state == 0:
            self.state = 1 if go else 0
        elif self.state == 1:
            self.state = 2 if fin else 1
        else:
            self.state = 0


class Pipe3:
    """corpus/pipe3.arch. S1 takes din, S2 = S1 + 1, S3 = S2 + 1 (8-bit
    wrap). `stall when stall_in && S2.valid_r` freezes S1 and S2 (the
    latest stage it references and everything earlier); S3 keeps flowing
    and takes a bubble. `flush S1` clears S1 and wins over stall."""

    def __init__(self) -> None:
        self.v = [0, 0, 0]
        self.valid = [0, 0, 0]

    def step(self, din: int, stall_in: int, flush_in: int, rst: int) -> None:
        if rst:
            self.v = [0, 0, 0]
            self.valid = [0, 0, 0]
            return
        v, valid = self.v, self.valid
        stall = stall_in and valid[1]
        if flush_in:
            n1, nv1 = 0, 0
        elif stall:
            n1, nv1 = v[0], valid[0]
        else:
            n1, nv1 = din, 1
        if stall:
            n2, nv2 = v[1], valid[1]
        else:
            n2, nv2 = (v[0] + 1) & 0xFF, valid[0]
        n3 = (v[1] + 1) & 0xFF
        nv3 = 0 if stall else valid[1]
        self.v = [n1, n2, n3]
        self.valid = [nv1, nv2, nv3]


class Accum:
    """corpus/seq_accum.arch: acc <= acc +% d when en (16-bit)."""

    def __init__(self) -> None:
        self.acc = 0

    def step(self, en: int, d: int, rst: int) -> None:
        if rst:
            self.acc = 0
        elif en:
            self.acc = (self.acc + d) & 0xFFFF


class WrapMac:
    """corpus/wrap_mac.arch: acc <= acc +% (x *% k). `*%` wraps at the
    widest operand (8 bits), `+%` at 16."""

    def __init__(self) -> None:
        self.acc = 0

    def step(self, en: int, x: int, k: int, rst: int) -> None:
        if rst:
            self.acc = 0
        elif en:
            self.acc = (self.acc + ((x * k) & 0xFF)) & 0xFFFF


class HierTop:
    """corpus/hier_top.arch: q_r <= (a +% a) + b, all 8-bit."""

    def __init__(self) -> None:
        self.q = 0

    @staticmethod
    def comb(a: int, b: int) -> dict:
        doubled = (a + a) & 0xFF
        return {"doubled": doubled, "core.x": doubled, "core.y": b,
                "core.s": (doubled + b) & 0xFF}

    def step(self, a: int, b: int, rst: int) -> None:
        self.q = 0 if rst else self.comb(a, b)["core.s"]


def systolic_total(values: list[int], width: int) -> int:
    """gen_systolic: a chain of `sum_in + a` at SInt<width>, which wraps."""
    return wrap_signed(sum(values), width)
