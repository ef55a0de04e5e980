"""`build` workload: check plus SystemVerilog emission, one input per op.

Inputs: the 27 corpus designs, the 30 `corpus/bad` inputs, seeded
scale-ups of the corpus's generate and instance patterns, and one deeply
nested expression. Every check here reads the Arch source or the emitted
text itself; none of it goes through archc.
"""

from __future__ import annotations

import os
import random
import re
import sys
from dataclasses import dataclass, field

from harness import Op

IMPORTS = ["archc.cli", "archc.sv_emit"]

# Scale-ups: (pattern, base SIZE). The seed adds 0-3 to each SIZE and picks
# the data width, so the amount of work stays nearly the same across seeds.
SCALE_UPS = [("systolic", 96), ("systolic", 200), ("systolic", 400),
             ("regchain", 64), ("regchain", 160)]

DEEP_PARENS = 3000


@dataclass
class Built:
    sv: list = field(default_factory=list)   # emitted text, in design order
    diag: str | None = None                  # rendered diagnostics
    codes: list = field(default_factory=list)
    todo: bool = False
    design: object = None


# ── inputs ──────────────────────────────────────────────────────


def systolic_text(size: int, width: int) -> str:
    return f"""/// Chained instance array (scale-up of corpus/gen_systolic.arch).
module SystolicPE
  port a: in SInt<{width}>;
  port sum_in: in SInt<{width}>;
  port sum_out: out SInt<{width}>;
  comb sum_out = sum_in + a;
end module SystolicPE

module SystolicArray
  param SIZE: const = {size};
  generate_for i in 0..SIZE
    port data_in[i]: in SInt<{width}>;
    inst pe[i]: SystolicPE
      a <- data_in[i];
      sum_in <- if i == 0 then 0 else pe[i-1].sum_out;
    end inst pe[i]
  end generate_for
  port total: out SInt<{width}>;
  comb total = pe[SIZE-1].sum_out;
end module SystolicArray
"""


def regchain_text(size: int, width: int) -> str:
    return f"""/// Registered instance chain (scale-up of corpus/hier_top.arch).
module ChainStage
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port x: in UInt<{width}>;
  port k: in UInt<{width}>;
  port y: out UInt<{width}>;
  reg r: UInt<{width}> reset rst => 0;
  seq on clk rising
    r <= x +% k;
  end seq
  comb y = r;
end module ChainStage

module RegChain
  param SIZE: const = {size};
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port din: in UInt<{width}>;
  generate_for i in 0..SIZE
    port k[i]: in UInt<{width}>;
    inst st[i]: ChainStage
      clk <- clk;
      rst <- rst;
      x <- if i == 0 then din else st[i-1].y;
      k <- k[i];
    end inst st[i]
  end generate_for
  port dout: out UInt<{width}>;
  comb dout = st[SIZE-1].y;
end module RegChain
"""


PATTERNS = {
    "systolic": (systolic_text, "SystolicArray", "SystolicPE", "pe"),
    "regchain": (regchain_text, "RegChain", "ChainStage", "st"),
}


def deep_text(depth: int) -> str:
    return ("module Deep\n  port a: in UInt<8>;\n  port y: out UInt<8>;\n"
            f"  comb y = {'(' * depth}a{')' * depth};\nend module Deep\n")


def scale_ups(seed: int) -> list[tuple[str, str, str, int]]:
    """(input name, text, pattern, SIZE) for each seeded scale-up."""
    rng = random.Random(f"build:{seed}")
    out = []
    for pattern, base in SCALE_UPS:
        size = base + rng.randrange(4)
        width = rng.choice((8, 16))
        text = PATTERNS[pattern][0](size, width)
        out.append((f"gen/{pattern}_{size}_w{width}.arch", text, pattern, size))
    return out


# ── independent checks ──────────────────────────────────────────

_CONSTRUCT = re.compile(r"(module|fsm|fifo|counter|pipeline|synchronizer)\s+(\w+)$")
_PARAM = re.compile(r"param\s+(\w+)\s*:\s*const\s*=\s*(\w+)\s*;")
_GEN_FOR = re.compile(r"generate_for\s+\w+\s+in\s+(\w+)\.\.(\w+)$")
_PORT = re.compile(r"port\s+(\w+)(\[\w+\])?\s*:\s*(in|out)\b")
_SV_PORT = re.compile(r"^\s*(input|output)\s+logic\b[^,;]*?\b(\w+),?\s*$")


def arch_ports(text: str) -> dict[str, dict[str, str]]:
    """Construct name -> {port name as SV spells it: "input" | "output"},
    read from the Arch source. Ports inside `generate_if` are conditional
    and left out; indexed ports in `generate_for` expand to name_<i>."""
    out: dict[str, dict[str, str]] = {}
    current = None
    params: dict[str, int] = {}
    loops: list[range] = []
    conditional = 0

    def value(tok: str) -> int:
        return int(tok) if tok.isdigit() else params[tok]

    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if current is None:
            m = _CONSTRUCT.match(line)
            if m:
                current = (m.group(1), m.group(2))
                out[current[1]] = {}
                params, loops, conditional = {}, [], 0
            continue
        if line == f"end {current[0]} {current[1]}":
            current = None
            continue
        if m := _PARAM.match(line):
            if m.group(2).isdigit():
                params[m.group(1)] = int(m.group(2))
        elif m := _GEN_FOR.match(line):
            loops.append(range(value(m.group(1)), value(m.group(2))))
        elif line == "end generate_for":
            loops.pop()
        elif line.startswith("generate_if"):
            conditional += 1
        elif line == "end generate_if":
            conditional -= 1
        elif (m := _PORT.match(line)) and not conditional:
            direction = "input" if m.group(3) == "in" else "output"
            if m.group(2):
                for i in loops[-1]:
                    out[current[1]][f"{m.group(1)}_{i}"] = direction
            else:
                out[current[1]][m.group(1)] = direction
    return out


def sv_ports(sv: str) -> tuple[str, dict[str, str]]:
    """(module name, {port: "input" | "output"}) from an emitted module."""
    name = re.search(r"^module (\w+)", sv, re.M).group(1)
    header = sv[sv.index(f"module {name}"):sv.index(");")]
    ports = {}
    for line in header.splitlines():
        m = _SV_PORT.match(line)
        if m:
            ports[m.group(2)] = m.group(1)
    return name, ports


def check_ports(text: str, svs: list[str]) -> list[str]:
    want = arch_ports(text)
    problems = []
    emitted = set()
    for sv in svs:
        name, ports = sv_ports(sv)
        construct = name.split("__")[0]
        emitted.add(construct)
        for port, direction in want.get(construct, {}).items():
            if ports.get(port) != direction:
                problems.append(f"{name}: Arch port `{port}` not declared as {direction}")
    missing = set(want) - emitted
    if missing:
        problems.append(f"no module emitted for {sorted(missing)}")
    return problems


def instance_count(sv: str, child: str, inst: str) -> int:
    return len(re.findall(rf"^\s*{child} {inst}_\d+ \($", sv, re.M))


def golden_code(golden: str) -> str:
    return re.match(r"error\[(E_\w+)\]", golden).group(1)


# ── ops ─────────────────────────────────────────────────────────


def _compile(archc, text: str, name: str) -> Built:
    """What `archc build` does for one file, minus writing the .sv files."""
    files = {}
    try:
        src, unit = archc.parser.parse_source(text, name)
        files[src.name] = src
        program = archc.elaborate.elaborate_program([unit], files)
        design = archc.lower.compile_design(program)
    except archc.diagnostics.CompileError as e:
        return Built(diag=archc.diagnostics.render_all(e.diagnostics, files),
                     codes=[d.code for d in e.diagnostics])
    if any(design.cores[key].has_todo for key in design.order):
        return Built(todo=True, design=design)
    return Built(sv=[archc.sv_emit.emit_module(design.cores[key]) for key in design.order],
                 design=design)


def _clean_check(archc, text: str, expect_todo: bool, pattern=None, size=0):
    def check(b: Built) -> list[str]:
        if b.diag is not None:
            return [f"unexpected diagnostics {b.codes}"]
        if expect_todo:
            return [] if b.todo else ["todo! design was built to SystemVerilog"]
        if b.todo:
            return ["clean design refused as todo!"]
        problems = check_ports(text, b.sv)
        again = [archc.sv_emit.emit_module(b.design.cores[k]) for k in b.design.order]
        if again != b.sv:
            problems.append("second emission differs")
        if pattern is not None:
            _text_fn, top, child, inst = PATTERNS[pattern]
            top_sv = [sv for sv in b.sv if sv_ports(sv)[0] == top]
            got = instance_count(top_sv[0], child, inst) if top_sv else -1
            if got != size:
                problems.append(f"{got} instances of {child}, SIZE is {size}")
        return problems
    return check


def _bad_check(golden: str):
    code = golden_code(golden)

    def check(b: Built) -> list[str]:
        if b.diag is None:
            return [f"compiled without the expected {code}"]
        problems = []
        if code not in b.codes:
            problems.append(f"expected {code}, got {b.codes}")
        if b.diag + "\n" != golden:
            problems.append("diagnostic text differs from its golden")
        return problems
    return check


def _deep_check(b: Built) -> list[str]:
    # A frontend that handles the nesting may compile it or reject it with a
    # diagnostic; either ends the command properly.
    if b.diag is not None or b.todo:
        return []
    return check_ports(deep_text(DEEP_PARENS), b.sv)


def prepare(root: str, seed: int) -> list[Op]:
    archc = sys.modules["archc"]
    corpus = os.path.join(root, "corpus")
    ops = []

    def add(name, text, check):
        ops.append(Op(name, lambda: _compile(archc, text, name), check))

    for fname in sorted(os.listdir(corpus)):
        if fname.endswith(".arch"):
            with open(os.path.join(corpus, fname), encoding="utf-8") as f:
                text = f.read()
            add(f"corpus/{fname}", text, _clean_check(archc, text, "todo!" in text))
    bad = os.path.join(corpus, "bad")
    for fname in sorted(os.listdir(bad)):
        if fname.endswith(".arch"):
            with open(os.path.join(bad, fname), encoding="utf-8") as f:
                text = f.read()
            with open(os.path.join(bad, fname[:-5] + ".diag"), encoding="utf-8") as f:
                golden = f.read()
            add(f"corpus/bad/{fname}", text, _bad_check(golden))
    for name, text, pattern, size in scale_ups(seed):
        add(name, text, _clean_check(archc, text, False, pattern, size))
    add(f"deep/parens{DEEP_PARENS}.arch", deep_text(DEEP_PARENS), _deep_check)
    return ops


def install_tracing(archc, tracer) -> None:
    def tokens(t, result, _args, _kwargs):
        t.count("lexer.tokens", len(result[1]))

    def sv_bytes(t, result, _args, _kwargs):
        t.count("sv_emit.bytes", len(result.encode("utf-8")))

    tracer.patch(archc.parser, "lex", "lexer", tokens)
    tracer.patch(archc.parser, "parse_source", "parser")
    tracer.patch(archc.elaborate, "elaborate_program", "elaborate")
    tracer.patch(archc.lower, "compile_design", "lower")
    tracer.patch(archc.lower, "analyze_comb", "typecheck.analyze_comb")
    tracer.patch(archc.lower, "analyze_domains", "typecheck.analyze_domains")
    tracer.patch(archc.sv_emit, "emit_module", "sv_emit", sv_bytes)
    tracer.patch(archc.diagnostics, "render_all", "diagnostics.render")
