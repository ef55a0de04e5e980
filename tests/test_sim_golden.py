"""Simulator golden: report lines and VCD bytes of every corpus design
that has a stimulus program, plus seeded random stimulus over the same
designs and small designs that hit each runtime check, under three flag
sets, hashed into one digest.

GOLDEN_SHA256 was recorded from the closure-interpreter simulator that
the generated-code simulator replaced; any change in an event, its
cycle or order, an expect result, a cover cycle, a final time, a CDC
capture draw or a waveform byte changes the digest. It was re-recorded
once since, when the generated `_auto_div0_*` asserts came to hold their
site's path condition: the only lines that changed were the false
ASSERT_FAIL events of the guarded divisions (`div_guard_ternary`,
`div_guard_and`, `div_guard_if`) and their FAIL summaries, now PASS.
"""

import random

from conftest import CLEAN_CORPUS, build_files, build_text, corpus_path

from archc.sim import SimFlags, build_sim, parse_stimulus, run_stimulus
from archc.types import Clock, SInt, Vec

GOLDEN_SHA256 = "0e9c17969ce2c413ead9f34f5994eca790556eea70a591ae3899099771d8de64"

FLAG_SETS = [
    ("plain", {}),
    ("uninit", {"check_uninit": True, "inputs_start_uninit": True}),
    ("cdc7", {"cdc_random": True, "seed": 7}),
]

RANDOM_STEPS = 150

_PORTS = """\
  port clk: in Clock<D>;
  port rst: in Reset<Sync>;
  port num: in UInt<8>;
  port den: in UInt<8>;
  port sn: in SInt<8>;
  port sd: in SInt<8>;
  port idx: in UInt<3>;
  port bidx: in UInt<4>;
  port word: in UInt<8>;
  port go: in Bool;
  port y: out UInt<8>;
  port ys: out SInt<8>;
  port b: out Bool;
  reg mem: Vec<UInt<8>, 4> reset rst => 0;
  reg acc: UInt<8> reset rst => 0;
  reg lazy: UInt<8> reset none;
"""

# (name, seq body, comb/assert body, stimulus): each runtime check once on
# a path that is taken, and once behind a ternary, `&&`, or `if` whose
# branch is not taken (which must not fire).
_STIM_HEAD = "clock D period 2\nset rst 1\nrun 1\nset rst 0\nset num 200\nset word 90\n"
CHECK_CASES = [
    ("div_comb", "", "comb y = num / (den ^ 5);\ncomb b = go;\ncomb ys = sn;",
     "set den 2\nrun 2\nexpect y 28\nset den 5\nrun 2\n"),
    ("mod_comb", "", "comb y = num % (den ^ 5);\ncomb b = go;\ncomb ys = sn;",
     "set den 2\nrun 2\nset den 5\nrun 1\nexpect y 0\n"),
    ("div_seq", "acc <= num / den;", "comb y = acc;\ncomb b = go;\ncomb ys = sn;",
     "set rst 1\nset den 9\nrun 3\nset rst 0\nrun 2\nset den 0\nrun 3\n"),
    ("sdiv_comb", "", "comb ys = sn / (sd ^ 3);\ncomb y = num;\ncomb b = go;",
     "set sn -7\nset sd 1\nrun 1\nexpect ys -3\nset sd -2\nrun 1\nset sd 3\nrun 1\n"),
    ("smod_comb", "", "comb ys = sn % (sd ^ 3);\ncomb y = num;\ncomb b = go;",
     "set sn -7\nset sd 1\nrun 1\nexpect ys -1\nset sd 3\nrun 1\n"),
    ("div_guard_ternary", "", "comb y = den == 0 ? 0 : num % den;\ncomb b = go;"
     "\ncomb ys = sd == 0 ? sn : sn / sd;",
     "set den 0\nset sd 0\nrun 3\nexpect y 0\nset den 11\nset sd 3\nrun 1\n"),
    ("div_guard_and", "", "comb b = den != 0 && num / den > 2;\ncomb y = num;"
     "\ncomb ys = sn;",
     "set den 0\nrun 3\nexpect b 0\nset den 50\nrun 1\nexpect b 1\n"),
    ("div_guard_if", "if den != 0 then\n      acc <= num / den;\n    end if",
     "comb y = acc;\ncomb b = go;\ncomb ys = sn;",
     "set den 0\nrun 3\nset den 3\nrun 2\nexpect y 66\nset den 0\nrun 2\n"),
    ("vec_read", "mem[0] <= word;", "comb y = mem[idx];\ncomb b = go;\ncomb ys = sn;",
     "set idx 2\nrun 2\nset idx 0\nrun 1\nexpect y 90\nset idx 5\nrun 1\n"),
    ("vec_store", "mem[idx] <= word;", "comb y = mem[1];\ncomb b = go;\ncomb ys = sn;",
     "set idx 1\nrun 2\nexpect y 90\nset idx 6\nrun 2\n"),
    ("vec_guard_ternary", "", "comb y = idx < 4 ? mem[idx] : 0;\ncomb b = go;"
     "\ncomb ys = sn;",
     "set idx 7\nrun 3\nexpect y 0\nset idx 3\nrun 1\n"),
    ("vec_guard_and", "", "comb b = idx < 4 && mem[idx] == 0;\ncomb y = num;"
     "\ncomb ys = sn;",
     "set idx 4\nrun 3\nexpect b 0\nset idx 2\nrun 1\nexpect b 1\n"),
    ("vec_guard_if", "if idx < 4 then\n      mem[idx] <= word;\n    end if",
     "comb y = mem[3];\ncomb b = go;\ncomb ys = sn;",
     "set idx 5\nrun 3\nset idx 3\nrun 1\nexpect y 90\n"),
    ("bit_read", "", "comb b = word[bidx];\ncomb y = num;\ncomb ys = sn;",
     "set bidx 4\nrun 1\nexpect b 1\nset bidx 12\nrun 1\n"),
    ("bit_seq", "acc <= word[bidx] ? 1 : 2;", "comb y = acc;\ncomb b = go;"
     "\ncomb ys = sn;",
     "set bidx 3\nrun 2\nset bidx 8\nrun 2\n"),
    ("bit_guard_and", "", "comb b = bidx < 8 && word[bidx];\ncomb y = num;"
     "\ncomb ys = sn;",
     "set bidx 15\nrun 3\nexpect b 0\nset bidx 6\nrun 1\nexpect b 1\n"),
    ("bit_guard_ternary", "", "comb b = bidx > 7 ? go : word[bidx];\ncomb y = num;"
     "\ncomb ys = sn;",
     "set bidx 9\nrun 3\nexpect b 0\nset bidx 1\nrun 1\nexpect b 1\n"),
    ("todo_taken", "", "comb y = go ? todo! : acc;\ncomb b = go;\ncomb ys = sn;",
     "run 3\nexpect y 0\nset go 1\nrun 1\n"),
    ("todo_untaken", "", "comb y = go ? todo! : acc;\ncomb b = go;\ncomb ys = sn;",
     "set go 0\nrun 4\nexpect y 0\n"),
    ("uninit_reads", "if go then\n      lazy <= word;\n    end if",
     "comb y = lazy +% num;\ncomb b = go;\ncomb ys = sn;\n"
     "  assert small: num < 250;\n  cover big: y > 100;",
     "set num 251\nrun 2\nset go 1\nset num 5\nrun 2\nexpect y 95\n"),
]

# corpus designs with no stimulus program of their own
EXTRA_CORPUS = [
    ("guard_bug.arch", "BadProducer",
     "set rst 1\nrun 1\nset rst 0\nrun 2\nset start 1\nrun 3\n"),
    ("counter_wrap15.arch", "Nibble",
     "set rst 1\nrun 1\nset rst 0\nset en 1\nrun 40\n"),
]


def _check_text(name, seq, comb):
    seq_block = f"  seq on clk rising\n    {seq}\n  end seq\n" if seq else ""
    body = "\n".join("  " + line if not line.startswith("  ") else line
                     for line in comb.split("\n"))
    return f"module {name}\n{_PORTS}{seq_block}{body}\nend module {name}\n"


def _random_stimulus(image, rng):
    """Seeded stimulus over a design's clocks and primary inputs; depends
    only on the image's domains and input types."""
    lines = [f"clock {d} period {rng.randint(1, 6)}" for d in image.domains]
    inputs = [(n, net.ty) for n, net in image.inputs.items()
              if not isinstance(net.ty, (Clock, Vec))]
    for _ in range(RANDOM_STEPS):
        for name, ty in rng.sample(inputs, min(len(inputs), rng.randint(0, 3))):
            w = getattr(ty, "width", 1)
            if isinstance(ty, SInt):
                v = rng.randint(-(1 << (w - 1)) - 2, (1 << (w - 1)) + 1)
            else:
                v = rng.randrange(1 << (w + 1))
            lines.append(f"set {name} {v}")
        lines.append(f"tick {rng.randint(1, 5)}" if rng.random() < 0.6 or not image.domains
                     else f"run {rng.randint(1, 3)}")
    return "\n".join(lines) + "\n"


def _run(design, top, stim_text, flags, wave):
    image = build_sim(design.cores, top, SimFlags(**flags))
    report = run_stimulus(image, parse_stimulus(stim_text), trace_path=wave)
    lines = report.lines()
    lines += [f"cover {n}: {report.cover_table[n]}" for n in sorted(report.cover_table)]
    lines += [f"cycles {d} {c}" for d, c in sorted(report.cycles.items())]
    with open(wave, "rb") as f:
        return ("\n".join(lines) + "\n").encode("utf-8") + f.read()


def _cases():
    out = []
    for fname, top, stim, _bound in CLEAN_CORPUS:
        design, _ = build_files([corpus_path(fname)])
        with open(corpus_path(stim), encoding="utf-8") as f:
            out.append((fname, design, top, f.read()))
        rng = random.Random(f"golden:{fname}")
        image = build_sim(design.cores, top, SimFlags())
        out.append((fname + ":random", design, top, _random_stimulus(image, rng)))
    for fname, top, text in EXTRA_CORPUS:
        design, _ = build_files([corpus_path(fname)])
        out.append((fname, design, top, text))
    # enough waveform variables for two-character VCD ids and for ids
    # holding `{` and `}`
    with open(corpus_path("gen_systolic.arch"), encoding="utf-8") as f:
        text = f.read().replace("const = 4;", "const = 32;")
    design, _ = build_text(text, "gen_systolic32.arch")
    image = build_sim(design.cores, "SystolicArray", SimFlags())
    assert len(image.visible) > 94
    out.append(("gen_systolic32:random", design, "SystolicArray",
                _random_stimulus(image, random.Random("golden:systolic32"))))
    for name, seq, comb, stim in CHECK_CASES:
        design, _ = build_text(_check_text("Check", seq, comb), f"{name}.arch")
        out.append((name, design, "Check", _STIM_HEAD + stim))
    return out


def test_sim_output_matches_golden_digest(tmp_path):
    import hashlib
    h = hashlib.sha256()
    aborts, fails = {}, set()
    wave = str(tmp_path / "w.vcd")
    for name, design, top, text in _cases():
        for tag, flags in FLAG_SETS:
            blob = _run(design, top, text, flags, wave)
            h.update(f"== {name} {tag}\n".encode("utf-8") + blob)
            if b"\nABORT: " in b"\n" + blob:
                aborts.setdefault(name, set()).add(tag)
            if b"[ASSERT_FAIL]" in blob:
                fails.add(name)
    # every taken check aborts under every flag set, no guarded one does,
    # and no guarded one fails its generated assertion either
    taken = {n for n, *_ in CHECK_CASES
             if n in ("div_comb", "mod_comb", "div_seq", "sdiv_comb", "smod_comb",
                      "vec_read", "vec_store", "bit_read", "bit_seq", "todo_taken")}
    checks = {n for n, *_ in CHECK_CASES}
    assert {n for n in aborts if n in checks} == taken, sorted(aborts)
    assert all(aborts[n] == {t for t, _ in FLAG_SETS} for n in taken)
    assert not {n for n in fails if "_guard_" in n}, sorted(fails)
    assert h.hexdigest() == GOLDEN_SHA256
