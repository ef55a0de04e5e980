"""The Arch operator table (`archc.ops`) against every backend that reads
it. For every row and every operand pair at width 3, UInt and SInt (Bool
for the logical operators, an unsigned amount for the shifts), three
evaluations must agree wherever all three define a value:

- `eval_const` on literal operands, wrapped to the result width;
- the simulator's compiled text for the expression, on a value list;
- the BMC unrolling's term for it, evaluated by `concrete_value`.

A zero divisor aborts the simulator and is E_CONST_DIV0 in consteval,
where SMT-LIB gives a value, so those pairs are compared between the
first two only, as both undefined. This is per-operator differential
checking in the manner of Verismith (Herklotz & Wickerson, FPGA 2020).
"""

import itertools

import pytest

from conftest import build_text

from archc.ast_nodes import Binary, IntLit, Unary
from archc.consteval import eval_const, wrap_signed
from archc.diagnostics import CompileError
from archc.formal.encode import Unrolling
from archc.ops import BINARY, BOOL_GROUPS, UNARY
from archc.parser import parse_source
from archc.sim import SimFlags, build_sim
from archc.sim.image import ExprCompiler, SimAbortError
from archc.smt.solve import concrete_value
from archc.smt.terms import OPS, TermBuilder
from archc.sv_emit import emit_module
from archc.tokens import TK

WIDTH = 3


def _name(op: str) -> str:
    return "o" + "".join(f"_{ord(c)}" for c in op)


def _operands(op, row):
    """The names of the operands of row `op`: Bools for the logical
    operators, the unsigned `n` for a shift amount."""
    if row.group == "logic" or op == "!":
        return ("p", "q")
    if row.group == "shift":
        return ("a", "n")
    return ("a", "b")


def _rows(signed):
    """(operator, row, unary?) for every row that applies to the operand
    type: unary `-` needs SInt."""
    for op, row in BINARY.items():
        yield op, row, False
    for op, row in UNARY.items():
        if op != "-" or signed:
            yield op, row, True


def _module(signed):
    ty = f"{'SInt' if signed else 'UInt'}<{WIDTH}>"
    ports = [f"  port a: in {ty};", f"  port b: in {ty};", f"  port n: in UInt<{WIDTH}>;",
             "  port p: in Bool;", "  port q: in Bool;"]
    combs = []
    for op, row, unary in _rows(signed):
        x, y = _operands(op, row)
        out = "Bool" if row.group in BOOL_GROUPS or op == "!" else ty
        ports.append(f"  port {_name(op)}{'_u' if unary else ''}: out {out};")
        expr = f"{op}{x}" if unary else f"{x} {op} {y}"
        combs.append(f"  comb {_name(op)}{'_u' if unary else ''} = {expr};")
    # a clock and a register bring the module into formal scope
    return ("module M\n  port clk: in Clock<D>;\n  port rst: in Reset<Sync>;\n"
            + "\n".join(ports) + "\n  reg r: Bool reset rst => false;\n"
            "  seq on clk rising\n    r <= !r;\n  end seq\n" + "\n".join(combs)
            + "\nend module M\n")


def _values(name, signed):
    if name in ("p", "q"):
        return range(2)
    if name == "n" or not signed:
        return range(1 << WIDTH)
    return range(-(1 << (WIDTH - 1)), 1 << (WIDTH - 1))


@pytest.mark.parametrize("signed", [False, True], ids=["UInt", "SInt"])
def test_every_row_agrees_across_consteval_sim_and_formal(signed):
    design, _ = build_text(_module(signed))
    core = design.cores["M"]
    image = build_sim(design.cores, "M", SimFlags())
    builder = image.builder
    tb = TermBuilder()
    frame = Unrolling(core, tb).extend()
    compared = 0
    for op, row, unary in _rows(signed):
        net = _name(op) + ("_u" if unary else "")
        names = _operands(op, row)[:1 if unary else 2]
        sim_code = compile(ExprCompiler(builder).value(builder.defs[net]), net, "eval")
        term = frame[net]
        bool_result = row.group in BOOL_GROUPS or op == "!"
        for vals in itertools.product(*(_values(n, signed) for n in names)):
            lits = [IntLit(None, v, str(v)) for v in vals]
            try:
                const = eval_const(Unary(None, op, *lits) if unary
                                   else Binary(None, op, *lits), {})
            except CompileError as e:
                assert e.diagnostics[0].code == "E_CONST_DIV0"
                const = None
            else:
                if not bool_result:
                    const = wrap_signed(const, WIDTH) if signed else const & ((1 << WIDTH) - 1)
            values = list(image.initial)
            for name, v in zip(names, vals):
                values[builder.index_of(name)] = v
            try:
                sim = eval(sim_code, builder.ns, {"v": values})
            except SimAbortError as e:
                assert e.kind == "DIV_BY_ZERO"
                sim = None
            where = f"{op} on {dict(zip(names, vals))}"
            assert (const is None) == (sim is None), where
            if const is None:
                continue
            bits = dict(zip(names, vals))
            got = concrete_value(term, {}, lambda v: bits[v.name[:-3]] & ((1 << v.width) - 1))
            smt = wrap_signed(got, WIDTH) if signed and not bool_result else got
            assert const == sim == smt, (where, const, sim, smt)
            compared += 1
    assert compared == (1230 if signed else 1222)


def test_every_parser_operator_has_a_row():
    """Every token that parses as a binary or prefix operator has a row,
    and every row's token parses as its operator."""
    def parse(text):
        src, unit = parse_source(f"module M\n  comb y = {text};\nend module M\n", "t.arch")
        return unit.constructs[0].items[0].stmts[0].rhs

    binary, unary = set(), set()
    for tk in TK:
        for text, found in ((f"a {tk.value} b", binary), (f"{tk.value} a", unary)):
            try:
                e = parse(text)
            except CompileError:
                continue
            if isinstance(e, (Binary, Unary)):
                found.add(e.op)
    assert binary == set(BINARY)
    assert unary == set(UNARY)
    for op, row in BINARY.items():
        assert parse(f"a {row.token.value} b").op == op


def test_every_row_reaches_every_backend():
    """Each row names QF_BV operators the solver has, formats as Python,
    and is spelled in the SV of the design that uses it."""
    for row in list(BINARY.values()) + list(UNARY.values()):
        assert all(name in OPS for name in row.smt)
        compile(row.py.format(a="x", b="y"), "<row>", "eval")
    for signed in (False, True):
        design, _ = build_text(_module(signed))
        sv = emit_module(design.cores["M"])
        for op, row, unary in _rows(signed):
            net = _name(op) + ("_u" if unary else "")
            line = next(x for x in sv.splitlines() if x.strip().startswith(net + " = "))
            assert row.sv[signed] in line, line
