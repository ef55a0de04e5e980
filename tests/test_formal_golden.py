"""Formal goldens over every corpus module in formal scope, each hashed
into one digest.

GOLDEN_SHA256 pins the summary lines of `verify(..., "builtin")` at bounds
0, 5, 10, 16 and 20. It was recorded before the SAT core got binary
implication lists, hashed gates and a propagation queue kept across
questions; any change in a verdict or its cycle changes the digest. Traces
stay out: they are the solver's choice, and `verify` replays each one in
the simulator.

SCRIPTS_SHA256 pins the `--emit-smt` stream of `encode_bmc` (every
property's goal at every cycle, as `check-sat-assuming` questions) at
bounds 0, 5 and 12, one per module, over the same modules plus OPS_ARCH
(every expression form the encoder handles, runtime checks included) and
seeded random-expression modules; the stream an external solver or
`--emit-smt` sees must not change by a byte. It was last recorded when
the per-property whole-bound scripts (one `(check-sat)` of a disjunction
over `__prop__<k>` definitions) gave way to this stream: all 12,048
`declare-const` and `define-fun` lines of the 162 previous scripts, all
but the `__prop__<k>` ones, appear byte for byte in the 69 streams of
the same module and bound.

Both digests, and `REFUTED_TABLES_SHA256` in test_cli.py, were
re-recorded when enum-typed signals came into formal scope and
`enum_match.arch`'s `EnumDemo` joined the modules; without it, all
three are the digests recorded before.
"""

import glob
import hashlib
import os
import random

from conftest import CORPUS, build_files, build_text
from test_sim import random_expr

from archc.diagnostics import CompileError
from archc.formal import FormalUnsupported, formal_scope_check, verify
from archc.formal.encode import encode_bmc
from archc.types import Bool, SInt, UInt

GOLDEN_SHA256 = "94072ddca89274ada3abcc3e64584813207a421f3573f4d8c32d00a16ac0c4b3"

SCRIPTS_SHA256 = "970c6ae308a60e7c10966f67c38f3e30c667ca165dbc253aa107f0cbd97969ee"

BOUNDS = (0, 5, 10, 16, 20)
SCRIPT_BOUNDS = (0, 5, 12)

OPS_ARCH = """\
module Ops
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port a: in UInt<8>;
  port b: in UInt<8>;
  port s: in SInt<8>;
  port i: in UInt<4>;
  port n: in UInt<2>;
  port en: in Bool;
  port s4: in SInt<4>;
  port u7: in UInt<7>;
  port j: in UInt<3>;
  port q: out UInt<8>;
  port sw: out SInt<8>;
  port b7: out Bit;
  port bit_hi: out Bit;
  port bit_lo: out Bit;
  port sl: out UInt<5>;
  port w: out UInt<16>;
  port sx: out SInt<12>;
  port tr: out UInt<8>;
  port sq: out SInt<8>;
  port lt: out Bool;
  port gd: out Bool;
  port either: out Bool;
  reg acc: UInt<16> reset rst => 0;
  reg sacc: SInt<8> reset rst => -3;
  reg flag: Bool reset none;
  seq on clk rising
    acc <= acc +% w;
    sacc <= (sacc -% s) >> n.zext<8>();
    flag <= !flag || (en && a[i]);
  end seq
  comb q = en ? a / b : a % b;
  comb bit_hi = a[i];
  comb bit_lo = a[n];
  comb sl = a[6:2];
  comb sw = s +% s4;
  comb b7 = u7[j];
  comb w = a.zext<16>() *% b.zext<16>();
  comb sx = s.sext<12>();
  comb tr = acc.trunc<8>();
  comb sq = (-s) / (sacc | 1) + (s % 3) - (~sacc);
  comb lt = s < (-2) && sacc >= s;
  comb gd = (b != 0) && (a / b > 3);
  comb either = (b == 0) || (a % b == 1);
  assert p1: lt implies (sx < 0);
  assert p2: (a <= b) == !(a > b);
  cover c1: gd && either && flag;
end module Ops
"""


def _formal_cores():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.arch"))):
        try:
            design, _ = build_files([path])
        except CompileError:
            continue  # todo_stub.arch: refused before formal
        for name in sorted(design.cores):
            try:
                formal_scope_check(design.cores[name])
            except FormalUnsupported:
                continue
            yield os.path.basename(path), name, design.cores[name]


def _summary():
    lines = []
    for fname, name, core in _formal_cores():
        lines.append(f"{fname} {name}")
        for bound in BOUNDS:
            lines += verify(core, bound, "builtin").summary_lines()
    return lines


def test_formal_verdicts_match_golden_digest():
    lines = _summary()
    assert len(lines) == 232
    # the corpus must keep reaching every verdict kind, or the digest pins little
    text = "\n".join(lines)
    for kind in ("PROVED", "REFUTED at", "HIT at", "NOT-REACHED"):
        assert kind in text
    assert hashlib.sha256((text + "\n").encode("utf-8")).hexdigest() == GOLDEN_SHA256


def _random_cores(count):
    """Modules whose outputs, register and property are random
    expressions over the inputs (the generator of the differential test)."""
    rng = random.Random(4711)
    inputs = {"a": UInt(8), "b": UInt(8), "s": SInt(8), "e": Bool()}
    for i in range(count):
        outs = [(f"y{j}", ty, random_expr(rng, inputs, 3, ty))
                for j, ty in enumerate([UInt(8), SInt(8), Bool(), UInt(8)])]
        text = (f"module R{i}\n  port clk: in Clock<T>;\n  port rst: in Reset<Sync>;\n"
                + "".join(f"  port {n}: in {t};\n" for n, t in inputs.items())
                + "".join(f"  port {n}: out {t};\n" for n, t, _ in outs)
                + f"  reg r: UInt<8> reset rst => {rng.randrange(256)};\n"
                + f"  seq on clk rising\n    r <= {random_expr(rng, inputs, 3, UInt(8))};\n"
                + "  end seq\n"
                + "".join(f"  comb {n} = {e};\n" for n, _, e in outs)
                + f"  assert rp: {random_expr(rng, inputs, 3, Bool())};\n"
                + f"  cover rc: r == y0;\nend module R{i}\n")
        design, _ = build_text(text)
        yield "random", f"R{i}", design.cores[f"R{i}"]


def _script_cores():
    yield from _formal_cores()
    design, _ = build_text(OPS_ARCH)
    yield "ops", "Ops", design.cores["Ops"]
    yield from _random_cores(6)


def test_smt_scripts_match_golden_digest():
    digest = hashlib.sha256()
    n_streams = 0
    for fname, name, core in _script_cores():
        for bound in SCRIPT_BOUNDS:
            head = f"{fname} {name} {bound}\n"
            digest.update((head + encode_bmc(core, bound)).encode("utf-8"))
            n_streams += 1
    assert n_streams == 72
    assert digest.hexdigest() == SCRIPTS_SHA256
