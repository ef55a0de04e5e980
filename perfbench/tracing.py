"""Spans around archc's public functions, recorded from outside the program.

`Tracer.patch(owner, attr, span)` registers a wrapper for `owner.attr`
that records a span: its name, duration, and the span that was open when
it started (its parent). `install(True)` puts the wrappers in place and
`install(False)` restores the originals, so untraced passes run the
program exactly as it is. Patching happens where the callers look the
function up: `archc.lower.analyze_domains` rather than
`archc.typecheck.analyze_domains`, because `lower` imported the name.

Spans are aggregated in memory by (name, parent) as they close, since
the simulator's tick and settle spans number in the hundreds of
thousands per pass. A span's self time is its duration minus the
durations of the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._stack: list[_Frame] = []
        # (name, parent name or "") -> [calls, total s, self s]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, span: str, fn, on_result=None):
        """Wrap `fn` so each call records a span named `span`. `on_result`
        gets (tracer, result, args, kwargs) after a call that returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(span)
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent.child += dt
                rec = tracer.spans[(span, parent.name if parent else "")]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame.child
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap `fn` so each call only adds one to the count `name`."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, span: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(span, original, on_result)))

    def patch_counter(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.counter(name, original)))

    def install(self, on: bool) -> None:
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)

    # ── aggregation ─────────────────────────────────────────────

    def calls(self, span: str) -> int:
        return sum(rec[0] for (name, _p), rec in self.spans.items() if name == span)

    def total_ms(self, span: str) -> float:
        return 1000.0 * sum(rec[1] for (name, _p), rec in self.spans.items()
                            if name == span)

    def self_ms(self, span: str) -> float:
        return 1000.0 * sum(rec[2] for (name, _p), rec in self.spans.items()
                            if name == span)

    def table(self) -> list[dict]:
        """Every (span, parent) pair with its calls, total and self time."""
        return [
            {"span": name, "parent": parent, "calls": rec[0],
             "total_ms": round(rec[1] * 1000.0, 3), "self_ms": round(rec[2] * 1000.0, 3)}
            for (name, parent), rec in sorted(self.spans.items())
        ]
