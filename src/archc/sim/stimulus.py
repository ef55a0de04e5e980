"""Line-oriented stimulus programs.

    # comment
    clock <domain> period <ticks>
    set <net> <value>
    tick <n>
    run <cycles>          # cycles of the top's first-declared clock
    expect <net> <value>

Values are decimal (optionally negative) or 0x-hex, plus true/false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import SimEvent, SimReport, Simulator, _StopSim
from .image import SimAbortError, SimImage


class StimulusError(Exception):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"stimulus line {line_no}: {message}")
        self.line_no = line_no


class Directive(NamedTuple):
    kind: str
    args: tuple
    line_no: int


@dataclass
class StimulusProgram:
    directives: list[Directive]


def _parse_value(text: str, line_no: int) -> int:
    if text == "true":
        return 1
    if text == "false":
        return 0
    try:
        return int(text, 0)
    except ValueError:
        raise StimulusError(line_no, f"bad value {text!r}")


def _parse_count(text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise StimulusError(line_no, f"bad count {text!r}")


# directive -> (word count, usage message)
_FORMS = {
    "set": (3, "usage: set <net> <value>"),
    "expect": (3, "usage: expect <net> <value>"),
    "run": (2, "usage: run <cycles>"),
    "tick": (2, "usage: tick <n>"),
    "clock": (4, "usage: clock <domain> period <ticks>"),
}


def _parse_line(line: str, line_no: int) -> tuple:
    """(kind, args) of one line, or () for a blank or comment line."""
    if "#" in line:
        line = line[:line.index("#")]
    parts = line.split()
    if not parts:
        return ()
    head = parts[0]
    form = _FORMS.get(head)
    if form is None:
        raise StimulusError(line_no, f"unknown directive {head!r}")
    if len(parts) != form[0] or (head == "clock" and parts[2] != "period"):
        raise StimulusError(line_no, form[1])
    if form[0] == 3:
        return head, (parts[1], _parse_value(parts[2], line_no))
    if form[0] == 2:
        return head, (_parse_count(parts[1], line_no),)
    return head, (parts[1], _parse_count(parts[3], line_no))


def parse_stimulus(text: str) -> StimulusProgram:
    directives: list[Directive] = []
    seen: dict[str, tuple] = {}  # line text -> parsed; programs repeat lines
    for line_no, line in enumerate(text.splitlines(), start=1):
        parsed = seen.get(line)
        if parsed is None:
            parsed = seen[line] = _parse_line(line, line_no)
        if parsed:
            directives.append(Directive(parsed[0], parsed[1], line_no))
    return StimulusProgram(directives)


def run_stimulus(image: SimImage, program: StimulusProgram,
                 trace_path: str | None = None) -> SimReport:
    sim = Simulator(image)
    report = sim.report
    run_domain = image.primary_domain or (image.domains[0] if image.domains else None)
    try:
        if trace_path is not None:
            from .vcd import VcdTrace
            sim.settle()  # the first sample can abort too
            sim.trace = VcdTrace(image, sim.values)
        for kind, args, line_no in program.directives:
            if kind == "set":
                try:
                    sim.set_input(*args)
                except KeyError as exc:
                    raise StimulusError(line_no, str(exc))
            elif kind == "expect":
                name, want = args
                try:
                    got = sim.peek(name)
                except KeyError as exc:
                    raise StimulusError(line_no, str(exc))
                report.expect_count += 1
                if got != want:
                    report.expect_failures += 1
                    report.events.append(SimEvent(
                        "EXPECT_MISMATCH", sim._max_cycle(), "",
                        f"line {line_no}: `{name}` expected {want}, got {got}"))
            elif kind == "run":
                if run_domain is None:
                    raise StimulusError(line_no, "design has no clock domain to run")
                sim.run_cycles(run_domain, args[0])
            elif kind == "tick":
                sim.tick(args[0])
            elif kind == "clock":
                try:
                    sim.set_period(*args)
                except (KeyError, ValueError) as exc:
                    raise StimulusError(line_no, str(exc))
    except _StopSim:
        pass
    except SimAbortError as e:
        event = SimEvent("ABORT", sim._max_cycle(), "", f"{e.kind}: {e.message}")
        report.events.append(event)
        report.aborted = event
    report.final_time = sim.time
    report.passed = (report.expect_failures == 0 and report.assert_failures == 0
                     and report.aborted is None)
    if trace_path is not None and sim.trace is not None:
        sim.trace.write(trace_path)
    return report
