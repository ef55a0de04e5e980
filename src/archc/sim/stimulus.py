"""Line-oriented stimulus programs.

    # comment
    clock <domain> period <ticks>
    set <net> <value>
    tick <n>
    run <cycles>          # cycles of the top's first-declared clock
    expect <net> <value>

Values are decimal (optionally negative) or 0x-hex, plus true/false.
A count is decimal and at most `MAX_COUNT`.

A program is its list of lines plus a table from each distinct line to
its parsed form: `parse_stimulus` parses every distinct line once, so a
syntax error anywhere stops the program before anything runs, reported
at the first line with that text. `run_stimulus` resolves every distinct
line against the simulator before the first one runs (a `set` to its
value index, coerced value and driven slot, an `expect` to its net
index), then walks the program's actions in line order, so a line costs
one dispatch on its action's kind. A line that cannot run on the design
(an unknown name, a `run` with no clock) resolves to an action that
raises its error when it is reached, so the lines before it still run.
"""

from __future__ import annotations

from .engine import SimEvent, SimReport, Simulator, _StopSim, not_an_input, unknown_net
from .image import SimAbortError, SimImage

# action kinds, the first element of a parsed or resolved line
SKIP, SET, EXPECT, RUN, TICK, CLOCK, FAIL = range(7)


class StimulusError(Exception):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"stimulus line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class StimulusProgram:
    def __init__(self, lines: list[str],   # the program text, one entry per line
                 forms: dict[str, tuple],  # distinct line -> parsed form, (SKIP,) if blank
                 ) -> None:
        self.lines, self.forms = lines, forms


def _parse_value(text: str) -> int:
    if text == "true":
        return 1
    if text == "false":
        return 0
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"bad value {text!r}") from None


# the largest count a `tick`, `run` or `clock ... period` line takes; a
# longer run is split into several lines
MAX_COUNT = 10 ** 8


def _parse_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise ValueError(f"bad count {text!r}") from None
    if count < 0:
        raise ValueError(f"bad count {text!r}: below zero")
    if count > MAX_COUNT:
        raise ValueError(f"bad count {text!r}: above the cap of {MAX_COUNT}")
    return count


def _parse_line(line: str) -> tuple:
    """The parsed form of one line; a malformed line raises ValueError
    with the message to report."""
    if "#" in line:
        line = line[:line.index("#")]
    parts = line.split()
    if not parts:
        return (SKIP,)
    head = parts[0]
    words = len(parts)
    if head == "set" or head == "expect":
        if words != 3:
            raise ValueError(f"usage: {head} <net> <value>")
        return SET if head == "set" else EXPECT, parts[1], _parse_value(parts[2])
    if head == "run" or head == "tick":
        if words != 2:
            raise ValueError("usage: run <cycles>" if head == "run" else "usage: tick <n>")
        return RUN if head == "run" else TICK, _parse_count(parts[1])
    if head == "clock":
        if words != 4 or parts[2] != "period":
            raise ValueError("usage: clock <domain> period <ticks>")
        return CLOCK, parts[1], _parse_count(parts[3])
    raise ValueError(f"unknown directive {head!r}")


def parse_stimulus(text: str) -> StimulusProgram:
    lines = text.splitlines()
    forms: dict[str, tuple] = {}
    for line in dict.fromkeys(lines):
        try:
            forms[line] = _parse_line(line)
        except ValueError as exc:
            raise StimulusError(lines.index(line) + 1, str(exc)) from None
    return StimulusProgram(lines, forms)


def _resolve(sim: Simulator, form: tuple, run_domain: str | None) -> tuple:
    """The action of a parsed line on `sim`: (SET, value index, coerced
    value, driven slot), (EXPECT, net index, wanted value, name) or
    (FAIL, message) for a line that cannot run on this design; other
    forms run as parsed."""
    kind = form[0]
    if kind == SET:
        _, name, value = form
        entry = sim._inputs.get(name)
        if entry is None:
            return FAIL, str(not_an_input(name))
        index, slot, coerce = entry
        return SET, index, coerce(value), slot
    if kind == EXPECT:
        _, name, want = form
        index = sim._names.get(name)
        if index is None:
            return FAIL, str(unknown_net(name))
        return EXPECT, index, want, name
    if kind == RUN and run_domain is None:
        return FAIL, "design has no clock domain to run"
    return form


def run_stimulus(image: SimImage, program: StimulusProgram,
                 trace_path: str | None = None) -> SimReport:
    """Run `program` on a new simulator. A `set` does what `set_input`
    does and an `expect` reads what `peek` reads, written out here."""
    sim = Simulator(image)
    report = sim.report
    values, driven = sim.values, sim._driven
    async_resets = bool(sim._async_regs)
    run_domain = image.primary_domain or (image.domains[0] if image.domains else None)
    actions = {line: _resolve(sim, form, run_domain) for line, form in program.forms.items()}
    expects = 0
    try:
        if trace_path is not None:
            from .vcd import VcdTrace
            sim.trace = VcdTrace(image)
        for line_no, action in enumerate(list(map(actions.__getitem__, program.lines)), 1):
            kind = action[0]
            if kind == SET:
                _, index, value, slot = action
                values[index] = value
                driven[slot] = True
                sim._dirty = True
                if async_resets:
                    sim._async_resets()
            elif kind == EXPECT:
                if sim._dirty:
                    sim.settle()
                _, index, want, name = action
                got = values[index]
                expects += 1
                if got != want:
                    report.expect_failures += 1
                    report.events.append(SimEvent(
                        "EXPECT_MISMATCH", sim._max_cycle(), "",
                        f"line {line_no}: `{name}` expected {want}, got {got}"))
            elif kind == RUN:
                sim.run_cycles(run_domain, action[1])
            elif kind == TICK:
                sim.tick(action[1])
            elif kind == CLOCK:
                try:
                    sim.set_period(action[1], action[2])
                except (KeyError, ValueError) as exc:
                    raise StimulusError(line_no, str(exc))
            elif kind == FAIL:
                raise StimulusError(line_no, action[1])
    except _StopSim:
        pass
    except SimAbortError as e:
        event = SimEvent("ABORT", sim._max_cycle(), "", f"{e.kind}: {e.message}")
        report.events.append(event)
        report.aborted = event
    if sim.trace is not None and not sim.trace.changes:
        sim.sample_trace()  # no tick ran: the one sample, at the end
    report.expect_count = expects
    report.final_time = sim.time
    report.passed = (report.expect_failures == 0 and report.assert_failures == 0
                     and report.aborted is None)
    if trace_path is not None and sim.trace is not None:
        sim.trace.write(trace_path)
    return report
