"""Clock-domain summaries against a reference written here.

Every `analyze_domains` call made while compiling is checked, before
`compile_design` adjusts synchronizer and fifo summaries, against:
- `through` and `in_domains` from one breadth-first search per input port
  over the comb graph;
- `out_domains` from a memoised walk back through net definitions, child
  outputs and their comb-through inputs.
"""

import glob
import io
import os
import time
from contextlib import redirect_stdout

import pytest

from conftest import CORPUS, build_text

from archc import cli, lower
from archc.diagnostics import CompileError
from archc.ir import expr_reads
from archc.typecheck import _stmt_reads
from archc.types import Clock, Reset


def _bfs(graph, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in graph.edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _reference_domains(core, summaries):
    insts = {i.name: i for i in core.instances}
    memo = {}

    def dom(name):
        if name in memo:
            return memo[name]
        out = set()
        net = core.nets.get(name)
        if name in core.regs:
            reg = core.regs[name]
            out = set() if reg.domain_neutral else {reg.domain}
        elif net is not None and net.expr is not None:
            for n in expr_reads(net.expr):
                out |= dom(n)
        elif "." in name:
            inst_name, port = name.split(".", 1)
            inst = insts.get(inst_name)
            child = summaries.get(inst.module_key) if inst is not None else None
            if child is not None and port in inst.out_used:
                out = set(child.out_domains.get(port, set()))
                for pin, pout in child.through:
                    if pout == port and pin in inst.in_map:
                        for n in expr_reads(inst.in_map[pin]):
                            out |= dom(n)
        memo[name] = out
        return out

    return dom


def reference_summary(core, summaries, graph):
    in_ports = [p.name for p in core.ports if p.direction == "in"
                and not isinstance(p.ty, (Clock, Reset))]
    out_ports = [p.name for p in core.ports if p.direction == "out"]
    reach = {p: _bfs(graph, p) for p in in_ports}
    through = {(p, o) for p in in_ports for o in out_ports if o in reach[p]}
    in_domains = {}
    for sblock in core.seq_blocks:
        read = set()
        for st in sblock.stmts:
            _stmt_reads(st, read)
        for p in in_ports:
            if read & reach[p]:
                in_domains.setdefault(p, set()).add(sblock.domain)
    for inst in core.instances:
        child = summaries.get(inst.module_key)
        if child is None:
            continue
        for port, expr in inst.in_map.items():
            for p in in_ports:
                if expr_reads(expr) & reach[p]:
                    in_domains.setdefault(p, set()).update(child.in_domains.get(port, set()))
    dom = _reference_domains(core, summaries)
    out_domains = {o: dom(o) for o in out_ports}
    return through, in_domains, out_domains


@pytest.fixture
def compared(monkeypatch):
    """(module name, got, want) for every analyze_domains call."""
    seen = []
    real = lower.analyze_domains

    def checked(core, summaries, diags, graph):
        summary = real(core, summaries, diags, graph)
        got = (set(summary.through), {k: set(v) for k, v in summary.in_domains.items()},
               {k: set(v) for k, v in summary.out_domains.items()})
        seen.append((core.name, got, reference_summary(core, summaries, graph)))
        return summary

    monkeypatch.setattr(lower, "analyze_domains", checked)
    return seen


def systolic(size):
    return f"""module PE
  port a: in SInt<8>;
  port sum_in: in SInt<8>;
  port sum_out: out SInt<8>;
  comb sum_out = sum_in + a;
end module PE

module Array
  param SIZE: const = {size};
  generate_for i in 0..SIZE
    port data_in[i]: in SInt<8>;
    inst pe[i]: PE
      a <- data_in[i];
      sum_in <- if i == 0 then 0 else pe[i-1].sum_out;
    end inst pe[i]
  end generate_for
  port total: out SInt<8>;
  comb total = pe[SIZE-1].sum_out;
end module Array
"""


def regchain(size):
    return f"""module Stage
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port x: in UInt<8>;
  port k: in UInt<8>;
  port y: out UInt<8>;
  port peek: out UInt<8>;
  reg r: UInt<8> reset rst => 0;
  seq on clk rising
    r <= x +% k;
  end seq
  comb y = r;
  comb peek = k;
end module Stage

module Chain
  param SIZE: const = {size};
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port din: in UInt<8>;
  generate_for i in 0..SIZE
    port k[i]: in UInt<8>;
    inst st[i]: Stage
      clk <- clk;
      rst <- rst;
      x <- if i == 0 then din else st[i-1].y;
      k <- k[i] ^ din;
    end inst st[i]
  end generate_for
  port dout: out UInt<8>;
  port mix: out UInt<8>;
  comb dout = st[SIZE-1].y;
  comb mix = st[0].peek +% st[SIZE-1].peek;
end module Chain
"""


TWO_DOMAIN_CONSUMER = """module Split
  port clk_a: in Clock<DomA>;
  port clk_b: in Clock<DomB>;
  port rst: in Reset<Sync>;
  port d: in UInt<8>;
  port qa: out UInt<8>;
  port qb: out UInt<8>;
  reg ra: UInt<8> reset rst => 0;
  reg rb: UInt<8> reset rst => 0;
  seq on clk_a rising
    ra <= d;
  end seq
  seq on clk_b rising
    rb <= d;
  end seq
  comb qa = ra;
  comb qb = rb;
end module Split

module Outer
  port clk_a: in Clock<DomA>;
  port clk_b: in Clock<DomB>;
  port rst: in Reset<Sync>;
  port x: in UInt<8>;
  port y: in UInt<8>;
  port qa: out UInt<8>;
  port sum: out UInt<8>;
  let mixed: UInt<8> = x +% 1;
  inst s: Split
    clk_a <- clk_a;
    clk_b <- clk_b;
    rst <- rst;
    d <- mixed;
  end inst s
  comb qa = s.qa;
  comb sum = x +% y;
end module Outer
"""


def _assert_all_match(compared):
    assert compared
    for name, got, want in compared:
        assert got == want, name


def test_corpus_summaries_match_reference(compared):
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.arch"))
                   + glob.glob(os.path.join(CORPUS, "bad", "*.arch")))
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            build_text(text, name=path)
        except CompileError:
            pass
    _assert_all_match(compared)
    assert any(got[0] for _n, got, _w in compared)   # some comb-through
    assert any(got[1] for _n, got, _w in compared)   # some consumption
    assert len(compared) >= 30


@pytest.mark.parametrize("text", [systolic(3), systolic(17), regchain(2), regchain(11)],
                         ids=["systolic3", "systolic17", "regchain2", "regchain11"])
def test_scale_up_summaries_match_reference(compared, text):
    build_text(text)
    _assert_all_match(compared)


def test_child_consuming_one_input_in_two_domains(compared):
    build_text(TWO_DOMAIN_CONSUMER)
    _assert_all_match(compared)
    by_name = {name: got for name, got, _w in compared}
    assert by_name["Split"][1] == {"d": {"DomA", "DomB"}}
    assert by_name["Outer"][1] == {"x": {"DomA", "DomB"}}
    assert by_name["Outer"][0] == {("x", "sum"), ("y", "sum")}
    assert by_name["Outer"][2] == {"qa": {"DomA"}, "sum": set()}


def test_check_scales_linearly_on_a_1600_wide_systolic_array(tmp_path):
    """The quadratic per-input search took over 4 s here; linear takes 0.25 s."""
    with open(os.path.join(CORPUS, "gen_systolic.arch"), encoding="utf-8") as f:
        text = f.read()
    assert "param SIZE: const = 4;" in text
    path = tmp_path / "systolic1600.arch"
    path.write_text(text.replace("param SIZE: const = 4;", "param SIZE: const = 1600;"))
    start = time.perf_counter()
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["check", str(path)])
    elapsed = time.perf_counter() - start
    assert (rc, out.getvalue()) == (0, "")
    assert elapsed < 2.0, f"archc check took {elapsed:.2f} s"
