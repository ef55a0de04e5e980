"""The archc command line: check / build / sim / formal.

Exit codes: check and build return 0 (clean) or 1 (diagnostics); sim
returns 0 (pass), 1 (functional failure), or 3 (runtime abort); formal
returns 0 (every assert PROVED, every cover HIT), 1 (any REFUTED or
NOT-REACHED), or 2 (inconclusive / solver missing / out of formal scope).
"""

from __future__ import annotations

import os

from .diagnostics import CompileError, render_all
from .elaborate import elaborate_program
from .lower import Design, compile_design
from .parser import parse_source
from .source import SourceFile


def _load(paths: list[str], as_json: bool,
          fsm_encoding: str) -> tuple[Design, dict[str, SourceFile]] | int:
    files: dict[str, SourceFile] = {}
    units = []
    try:
        for path in paths:
            try:
                with open(path, "r", encoding="utf-8") as f:
                    text = f.read()
            except OSError as e:
                print(f"error[E_IO]: cannot read `{path}`: {e.strerror}")
                return 1
            src, unit = parse_source(text, path)
            files[src.name] = src
            units.append(unit)
        program = elaborate_program(units, files)
        design = compile_design(program, fsm_encoding=fsm_encoding)
    except CompileError as e:
        print(render_all(e.diagnostics, files, as_json=as_json))
        return 1
    return design, files


def _todo_notes(design: Design) -> list[str]:
    notes = []
    for key in design.order:
        core = design.cores.get(key)
        if core is None:
            continue
        for span in core.has_todo:
            notes.append(f"note: todo! placeholder in `{core.name}` at {span.point()}")
    return notes


def cmd_check(args) -> int:
    loaded = _load(args.files, args.json, args.fsm_encoding)
    if isinstance(loaded, int):
        return loaded
    design, _files = loaded
    for line in _todo_notes(design):
        print(line)
    return 0


def cmd_build(args) -> int:
    from .sv_emit import emit_module, sv_file_name
    loaded = _load(args.files, args.json, args.fsm_encoding)
    if isinstance(loaded, int):
        return loaded
    design, _files = loaded
    todo = _todo_notes(design)
    if todo:
        print("error[E_TODO_IN_BUILD]: designs with todo! cannot be built to "
              "SystemVerilog (simulate them instead):")
        for line in todo:
            print("  " + line)
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    for key in design.order:
        core = design.cores[key]
        path = os.path.join(args.out_dir, sv_file_name(core))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(emit_module(core))
        print(path)
    return 0


def _pick_top(design: Design, name: str | None) -> str | int:
    tops = [n for n in design.program.top_names if n in design.cores]
    if name is not None:
        if name in design.cores:
            return name
        print(f"error[E_NO_TOP]: `{name}` is not a construct in the input set "
              f"(candidates: {', '.join(tops)})")
        return 1
    if len(tops) == 1:
        return tops[0]
    print(f"error[E_NO_TOP]: more than one top-level construct; pick one with "
          f"--top (candidates: {', '.join(tops)})")
    return 1


def cmd_sim(args) -> int:
    from .sim import SimFlags, build_sim, parse_stimulus, run_stimulus
    from .sim.stimulus import StimulusError
    loaded = _load(args.files, args.json, args.fsm_encoding)
    if isinstance(loaded, int):
        return loaded
    design, _files = loaded
    top = _pick_top(design, args.top)
    if isinstance(top, int):
        return top
    flags = SimFlags(check_uninit=args.check_uninit,
                     inputs_start_uninit=args.inputs_start_uninit,
                     cdc_random=args.cdc_random,
                     stop_on_assert=args.stop_on_assert,
                     seed=args.seed)
    image = build_sim(design.cores, top, flags)
    try:
        if args.stim is not None:
            with open(args.stim, "r", encoding="utf-8") as f:
                program = parse_stimulus(f.read())
        else:
            program = parse_stimulus(f"run {args.cycles}\n")
    except OSError as e:
        print(f"error[E_IO]: cannot read `{args.stim}`: {e.strerror}")
        return 1
    except StimulusError as e:
        print(f"error[E_STIM]: {e}" if args.stim is not None
              else f"error[E_STIM]: --cycles: {e.message}")
        return 1
    try:
        report = run_stimulus(image, program, trace_path=args.wave)
    except StimulusError as e:
        if args.stim is None:  # the one `run` line is not the user's
            print(f"error[E_STIM]: {e.message}; give a stimulus program with --stim")
        else:
            print(f"error[E_STIM]: {e}")
        return 1
    for line in report.lines():
        print(line)
    if report.cover_table:
        for name in sorted(report.cover_table):
            cyc = report.cover_table[name]
            state = f"hit at cycle {cyc}" if cyc is not None else "not hit"
            print(f"cover {name}: {state}")
    if report.aborted is not None:
        return 3
    return 0 if report.passed else 1


def cmd_formal(args) -> int:
    from .flatten import flatten
    from .formal import (FormalUnsupported, SolverError, verify)
    loaded = _load(args.files, args.json, args.fsm_encoding)
    if isinstance(loaded, int):
        return loaded
    design, _files = loaded
    top = _pick_top(design, args.top)
    if isinstance(top, int):
        return top
    try:
        verdict = verify(flatten(design.cores, top), args.bound, args.solver,
                         timeout=args.timeout, emit_smt=args.emit_smt)
    except FormalUnsupported as e:
        print(f"error[E_FORMAL_UNSUPPORTED]: {e.reason}")
        return 2
    except SolverError as e:
        print(f"error[{e.code}]: {e}")
        return 2
    for line in verdict.summary_lines():
        print(line)
    for r in verdict.results:
        if r.status in ("REFUTED", "HIT") and r.trace is not None:
            print(f"{'counterexample' if r.status == 'REFUTED' else 'witness'} for {r.name}:")
            header = sorted({k for row in r.trace for k in row})
            print("  cycle  " + "  ".join(header))
            for k, row in enumerate(r.trace):
                print(f"  {k:>5}  " + "  ".join(str(row.get(h, "-")) for h in header))
    return verdict.exit_code


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, so that importing the package does not load it
    parser = argparse.ArgumentParser(
        prog="archc",
        description="Compiler, simulator, and bounded model checker for the "
                    "Arch hardware description language.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("files", nargs="+", help="input .arch files")
        p.add_argument("--json", action="store_true",
                       help="emit diagnostics as JSON, one object per line")
        p.add_argument("--fsm-encoding", choices=("binary", "onehot"),
                       default="binary")

    p_check = sub.add_parser("check", help="parse, elaborate, and type-check")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_build = sub.add_parser("build", help="emit SystemVerilog")
    common(p_build)
    p_build.add_argument("--out-dir", default="build")
    p_build.set_defaults(fn=cmd_build)

    p_sim = sub.add_parser("sim", help="cycle-accurate simulation")
    common(p_sim)
    p_sim.add_argument("--top")
    p_sim.add_argument("--stim", help="stimulus program file")
    p_sim.add_argument("--wave", help="write a VCD waveform")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--cycles", type=int, default=10,
                       help="cycles to run when no --stim is given")
    p_sim.add_argument("--check-uninit", action="store_true")
    p_sim.add_argument("--inputs-start-uninit", action="store_true")
    p_sim.add_argument("--cdc-random", action="store_true")
    p_sim.add_argument("--stop-on-assert", action="store_true")
    p_sim.set_defaults(fn=cmd_sim)

    p_formal = sub.add_parser("formal", help="SMT bounded model checking")
    common(p_formal)
    p_formal.add_argument("--top")
    p_formal.add_argument("--bound", type=int, default=20)
    p_formal.add_argument("--solver", default="auto",
                          choices=("auto", "z3", "boolector", "bitwuzla", "builtin"))
    p_formal.add_argument("--emit-smt", metavar="PATH")
    p_formal.add_argument("--timeout", type=float, default=None, metavar="SEC")
    p_formal.set_defaults(fn=cmd_formal)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
