"""Formal verdict golden: the summary lines of `verify(..., "builtin")` for
every corpus module in formal scope, at bounds 0, 5, 10, 16 and 20, hashed
into one digest.

GOLDEN_SHA256 was recorded before the SAT core got binary implication
lists, hashed gates and a propagation queue kept across questions; any
change in a verdict or its cycle changes the digest. Traces stay out: they
are the solver's choice, and `verify` replays each one in the simulator.
"""

import glob
import hashlib
import os

from conftest import CORPUS, build_files

from archc.diagnostics import CompileError
from archc.formal import FormalUnsupported, formal_scope_check, verify

GOLDEN_SHA256 = "936046276a3d63e806232e12e80a129718bb5820c33f3ece40c83ae3c7ac772b"

BOUNDS = (0, 5, 10, 16, 20)


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
    assert len(lines) == 226
    # the corpus must keep reaching every verdict kind, or the digest pins little
    text = "\n".join(lines)
    for kind in ("PROVED", "REFUTED at", "HIT at", "NOT-REACHED"):
        assert kind in text
    assert hashlib.sha256((text + "\n").encode("utf-8")).hexdigest() == GOLDEN_SHA256
