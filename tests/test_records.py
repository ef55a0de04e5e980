"""What the record classes promise: AST value equality that ignores
spans and pass annotations, immutable hashable types, constructor calls
as the code makes them, and an `archc` start-up that loads no code
generators."""

import inspect
import os
import subprocess
import sys

import pytest

from conftest import ROOT

from archc import ast_nodes
from archc.diagnostics import Diagnostic, Note
from archc.ir import CoreModule, CorePort, CoreReg, NetDef, VecStore
from archc.sim import SimFlags
from archc.sim.engine import SimReport
from archc.source import Span
from archc.typecheck import ERROR_TY, ErrorTy
from archc.types import BIT, Bit, Bool, Clock, EnumType, Reset, SInt, UInt, Vec

SPAN = Span("a.arch", 1, 4, 3, 7)
OTHER_SPAN = Span("b.arch", 2, 1, 10, 12)

# Leaf AST classes: every class defined in ast_nodes that no other class
# there derives from (the bases are never made on their own), plus the
# IR-only expression VecStore.
_DEFINED = [c for c in vars(ast_nodes).values()
            if inspect.isclass(c) and c.__module__ == ast_nodes.__name__]
LEAF_NODES = [c for c in _DEFINED
              if not any(d is not c and issubclass(d, c) for d in _DEFINED)] + [VecStore]


def _params(cls):
    return [p for p in inspect.signature(cls.__init__).parameters.values()
            if p.name != "self"]


def _default_args(cls):
    """Keyword arguments for a default instance: each parameter's own
    default, or a placeholder string where it has none."""
    return {p.name: (f"<{p.name}>" if p.default is inspect.Parameter.empty else p.default)
            for p in _params(cls) if p.name != "span"}


def _compared_fields(cls):
    if cls is ast_nodes.SourceUnit:
        return ["constructs"]  # its `__eq__` compares only the constructs
    return [p.name for p in _params(cls) if p.name != "span"]


class TestStartup:
    def test_no_code_generators_loaded(self):
        """An `archc` process imports neither `dataclasses` nor `inspect`,
        and the CLI alone loads neither `difflib` nor `json`."""
        probe = (
            "import sys\n"
            "import archc.cli\n"
            "print(sorted(m for m in ('difflib', 'json') if m in sys.modules))\n"
            "import archc.sv_emit, archc.sim, archc.formal\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, check=True,
                             env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert out.stdout.splitlines() == ["[]", "[]"]

    def test_command_line_and_pipe_modules_load_on_use(self):
        """Importing the CLI, the simulator and the formal backend loads
        neither `argparse` (only `cli.main` parses arguments) nor
        `subprocess` and `select` (only a pipe to an external solver)."""
        probe = (
            "import sys\n"
            "import archc.cli, archc.sim, archc.formal\n"
            "print(sorted(m for m in ('argparse', 'subprocess', 'select') if m in sys.modules))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, check=True,
                             env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert out.stdout.splitlines() == ["[]"]


class TestAstEquality:
    @pytest.mark.parametrize("cls", LEAF_NODES, ids=lambda c: c.__name__)
    def test_span_and_annotations_do_not_count(self, cls):
        kw = _default_args(cls)
        a, b = cls(**kw), cls(**kw)
        b.span = OTHER_SPAN
        b.ty = UInt(8)
        b.docs = ["/// doc"]
        b.resolved_key = "Child__W8"
        b.const_name = "S_IDLE"
        assert a == b and not a != b

    @pytest.mark.parametrize("cls", LEAF_NODES, ids=lambda c: c.__name__)
    def test_every_declared_field_counts(self, cls):
        kw = _default_args(cls)
        a = cls(**kw)
        for name in _compared_fields(cls):
            b = cls(**kw)
            setattr(b, name, object())
            assert a != b, f"{cls.__name__}.{name} is not compared"

    def test_different_classes_are_unequal(self):
        assert ast_nodes.TBit() != ast_nodes.TBool()
        assert ast_nodes.Ternary(SPAN) != ast_nodes.IfExpr(SPAN)

    def test_nodes_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(ast_nodes.NameRef(SPAN, "x"))

    def test_nested_trees_compare_structurally(self):
        def tree(span):
            return ast_nodes.Binary(span, "+", ast_nodes.IntLit(span, 5, "5"),
                                    ast_nodes.NameRef(span, "x"))
        assert tree(SPAN) == tree(OTHER_SPAN)
        changed = tree(SPAN)
        changed.rhs.name = "y"
        assert tree(SPAN) != changed


class TestTypeValues:
    def test_equal_values_hash_equal(self):
        assert UInt(8) == UInt(8) and hash(UInt(8)) == hash(UInt(8))
        assert Vec(SInt(4), 3) == Vec(SInt(4), 3)
        assert hash(Vec(SInt(4), 3)) == hash(Vec(SInt(4), 3))
        assert EnumType("M", "St", ("A", "B")) == EnumType("M", "St", ("A", "B"))

    def test_class_and_fields_decide(self):
        assert UInt(8) != SInt(8)
        assert UInt(8) != UInt(9)
        assert Bit() == Bit() == BIT
        assert Bit() != Bool()
        assert Reset("Sync", "High") != Reset("Sync", "Low")
        assert Clock("a") != Clock("b")
        assert ErrorTy() == ERROR_TY != Bit()

    def test_types_key_dicts_and_sets(self):
        table = {Vec(UInt(4), 2): "v", UInt(8): "u"}
        assert table[Vec(UInt(4), 2)] == "v" and table[UInt(8)] == "u"
        assert len({UInt(8), UInt(8), SInt(8), Bit(), Bit()}) == 3

    @pytest.mark.parametrize("ty,field", [(UInt(8), "width"), (Vec(Bit(), 2), "size"),
                                          (Reset("Sync", "High"), "polarity"),
                                          (BIT, "width")])
    def test_types_are_immutable(self, ty, field):
        with pytest.raises(AttributeError):
            setattr(ty, field, 1)

    def test_str_and_repr(self):
        assert str(Vec(UInt(4), 2)) == "Vec<UInt<4>, 2>"
        assert repr(UInt(8)) == "UInt(width=8)"
        assert EnumType("M", "St", ("A", "B", "C")).width == 2


class TestConstructorCalls:
    """The call shapes that the compiler and the benchmark use."""

    def test_ast_positional_span_first(self):
        lit = ast_nodes.IntLit(SPAN, 5, "5")
        assert (lit.span, lit.value, lit.text, lit.ty) == (SPAN, 5, "5", None)
        conn = ast_nodes.Connection("d", "<-", lit, SPAN)
        assert (conn.port, conn.arrow, conn.expr, conn.span) == ("d", "<-", lit, SPAN)
        c = ast_nodes.Construct("module", "M", [], "module", "M", SPAN)
        assert (c.kind, c.name, c.span, c.docs) == ("module", "M", SPAN, [])

    def test_fresh_containers_per_instance(self):
        a, b = ast_nodes.SIf(SPAN), ast_nodes.SIf(SPAN)
        assert a.then == [] and a.then is not b.then and a.els is None
        p, q = ast_nodes.PortDecl(SPAN, "x"), ast_nodes.PortDecl(SPAN, "y")
        assert p.docs == [] and p.docs is not q.docs
        m, n = CoreModule("M", "M", "module", [], []), CoreModule("N", "N", "module", [], [])
        assert m.nets == {} and m.nets is not n.nets and m.comb_blocks is not n.comb_blocks
        assert SimReport().events is not SimReport().events
        d = Diagnostic("E_PARSE", "m", SPAN)
        assert d.notes == [] and d.notes is not Diagnostic("E_PARSE", "m", SPAN).notes

    def test_ir_records(self):
        net = NetDef("q", UInt(8), "internal", None, SPAN)
        assert (net.name, net.ty, net.kind, net.expr, net.span) == ("q", UInt(8), "internal",
                                                                    None, SPAN)
        port = CorePort("clk", "in", Clock("sys"), SPAN)
        assert (port.name, port.direction, port.ty, port.span) == ("clk", "in", Clock("sys"), SPAN)
        reg = CoreReg("r", BIT, clock="clk", domain="sys", edge="rising", reset_sig=None,
                      reset_value=None, reset_sync=None, reset_polarity=None, guard=None,
                      origin="user", span=SPAN)
        assert (reg.next, reg.assigned, reg.uninit_exempt, reg.domain_neutral) == (
            None, None, False, False)
        m = CoreModule("K", "M", "module", [], [], port_alias={"a": "b"}, span=SPAN)
        assert (m.key, m.port_alias, m.enums, m.span) == ("K", {"a": "b"}, {}, SPAN)

    def test_keyword_records(self):
        flags = SimFlags(cdc_random=True, seed=5)
        assert (flags.cdc_random, flags.seed, flags.check_uninit, flags.stop_on_assert) == (
            True, 5, False, False)
        d = Diagnostic("E_PARSE", "msg", SPAN, notes=[Note("here", SPAN)], help="h")
        assert (d.severity, d.notes[0].message, d.help) == ("error", "here", "h")
        with pytest.raises(AssertionError):
            Diagnostic("E_NOT_A_CODE", "msg", SPAN)
