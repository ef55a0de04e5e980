"""The frame-by-frame builtin BMC against its own `--emit-smt` stream.

`verify` settles what an interval invariant rules out, asks one question
per open property and frame, and reports the first sat frame. Its cycles
are checked here by replaying the design's `encode_bmc` stream, every
property at every cycle with no invariant and no early stop, in a fresh
in-process `Session`, so the check goes through the SMT-LIB text: a
REFUTED or HIT result at cycle c must have its first sat answer at cycle
c, and a PROVED or NOT-REACHED result no sat answer up to the bound.
"""

import pytest

from conftest import CLEAN_CORPUS, build_files, build_text, corpus_path

from archc.formal import encode_bmc, verify
from archc.smt.solve import Session

FORMAL_CORPUS = [(fname, top, bound) for fname, top, _, bound in CLEAN_CORPUS
                 if bound is not None]
FORMAL_CORPUS += [("counter_wrap15.arch", "Nibble", 20), ("guard_bug.arch", "BadProducer", 12)]


def counter_text(name, kind, max_value, prop):
    return f"""counter {name}
  param MAX: const = {max_value};
  kind {kind};
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port count: out UInt<{max_value.bit_length()}>;
  {prop};
end counter {name}
"""


# the four generated-counter shapes of the `formal` benchmark workload
COUNTERS = [
    ("GenWrapping", "wrapping", "assert never_at: count != 20"),
    ("GenSaturating", "saturating", "cover reach: count == 20"),
    ("GenWrappingHigh", "wrapping", "cover reach: count == 26"),
    ("GenSaturatingMax", "saturating", "assert bounded: count <= 27"),
]


def answers(core, bound):
    """Each property's column of stream answers, cycle 0 to `bound`."""
    out = Session().run(encode_bmc(core, bound)).split()
    n = len(core.properties)
    assert len(out) == (bound + 1) * n and set(out) <= {"sat", "unsat"}, out
    return {p.name: out[i::n] for i, p in enumerate(core.properties)}


def check_minimal(core, bound):
    v = verify(core, bound, "builtin")
    columns = answers(core, bound)
    seen = []
    for r in v.results:
        column = columns[r.name]
        if r.status in ("REFUTED", "HIT"):
            assert column.index("sat") == r.cycle, r.name
        else:
            assert r.status in ("PROVED", "NOT_REACHED"), (r.name, r.status, r.detail)
            assert "sat" not in column, r.name
        seen.append(r.status)
    return seen


@pytest.mark.parametrize("fname,top,bound", FORMAL_CORPUS,
                         ids=[f for f, _, _ in FORMAL_CORPUS])
def test_corpus_cycles_are_minimal(fname, top, bound):
    design, _ = build_files([corpus_path(fname)])
    check_minimal(design.cores[top], bound)


def test_free_divisor_cycles_are_minimal():
    # the second question, with the runtime checks, keeps the first cycle
    from test_formal import DIV_ARCH
    design, _ = build_text(DIV_ARCH)
    assert check_minimal(design.cores["Div"], 20) == ["HIT", "REFUTED", "REFUTED"]


@pytest.mark.parametrize("name,kind,prop", COUNTERS, ids=[c[0] for c in COUNTERS])
def test_generated_counter_cycles_are_minimal(name, kind, prop):
    design, _ = build_text(counter_text(name, kind, 27, prop))
    seen = check_minimal(design.cores[name], 24)
    assert seen[-1] == {"GenWrapping": "REFUTED", "GenSaturating": "HIT",
                        "GenWrappingHigh": "NOT_REACHED",
                        "GenSaturatingMax": "PROVED"}[name]
