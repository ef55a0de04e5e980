import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from archc.diagnostics import CompileError  # noqa: E402
from archc.elaborate import elaborate_program  # noqa: E402
from archc.lower import compile_design  # noqa: E402
from archc.parser import parse_source  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(ROOT, "corpus")


def build_text(text, name="test.arch", **kw):
    """Full static pipeline on an in-memory source; returns (design, files)."""
    src, unit = parse_source(text, name)
    files = {src.name: src}
    program = elaborate_program([unit], files)
    return compile_design(program, **kw), files


def build_files(paths, **kw):
    files = {}
    units = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        src, unit = parse_source(text, path)
        files[src.name] = src
        units.append(unit)
    program = elaborate_program(units, files)
    return compile_design(program, **kw), files


def settle_checked(image):
    """`image`, its settle made to run a second pass and assert that the
    pass changes nothing (comb loops are refused, so one pass settles).
    Call it before the first step is generated: a step binds
    `image.settle` when it is made."""
    settle = image.settle

    def twice(values):
        settle(values)
        before = list(values)
        settle(values)
        assert values == before, "settle invariant violated: second pass changed nets"

    image.settle = twice
    return image


def diag_codes(exc: CompileError):
    return [d.code for d in exc.diagnostics]


def corpus_path(name):
    return os.path.join(CORPUS, name)


# The clean corpus: every design compiles, simulates its stimulus, and
# (where in formal scope) verifies. Entries: (file, top, stim, formal bound).
CLEAN_CORPUS = [
    ("comb_alu.arch", "Alu8", "comb_alu.stim", None),
    ("comb_mux.arch", "Mux4", "comb_mux.stim", None),
    ("seq_accum.arch", "Accum", "seq_accum.stim", 8),
    ("seq_shiftreg.arch", "ShiftReg4", "seq_shiftreg.stim", None),
    ("fsm_controller.arch", "Controller", "fsm_controller.stim", 10),
    ("fsm_reqack.arch", "ReqAck", "fsm_reqack.stim", 10),
    ("fifo_sync8.arch", "SyncBuf", "fifo_sync8.stim", None),
    ("fifo_sync3.arch", "TriBuf", "fifo_sync3.stim", None),
    ("fifo_async16.arch", "AsyncBuf", "fifo_async16.stim", None),
    ("counter_wrap200.arch", "EvtCounter", "counter_wrap200.stim", 20),
    ("counter_sat10.arch", "SatTen", "counter_sat10.stim", 20),
    ("counter_cover8.arch", "CoverEight", "counter_cover8.stim", 20),
    ("sync_ff2.arch", "SysToUsb", "sync_ff2.stim", None),
    ("pipe_intpipe.arch", "IntPipe", "pipe_intpipe.stim", 8),
    ("pipe3.arch", "Pipe3", "pipe3.stim", 8),
    ("gen_systolic.arch", "SystolicArray", "gen_systolic.stim", None),
    ("gen_condport.arch", "DebugTop", "gen_condport.stim", None),
    ("hier_top.arch", "HierTop", "hier_top.stim", None),
    ("cdc_flag.arch", "CdcTop", "cdc_flag.stim", None),
    ("guard_ok.arch", "GoodProducer", "guard_ok.stim", 12),
    ("enum_match.arch", "EnumDemo", "enum_match.stim", None),
    ("wrap_mac.arch", "WrapMac", "wrap_mac.stim", 8),
    ("safe_div.arch", "SafeDiv", "safe_div.stim", 10),
    ("bit_sel.arch", "BitSel", "bit_sel.stim", 10),
]

# Intentional-failure fixtures, excluded from the clean sweep.
FIXTURES = ["counter_wrap15.arch", "todo_stub.arch", "guard_bug.arch"]

ALL_ARCH = [c[0] for c in CLEAN_CORPUS] + FIXTURES


@pytest.fixture(scope="session")
def clean_corpus_designs():
    out = {}
    for fname, top, stim, bound in CLEAN_CORPUS:
        design, files = build_files([corpus_path(fname)])
        out[fname] = (design, top, stim, bound)
    return out
