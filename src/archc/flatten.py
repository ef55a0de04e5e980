"""Flattening: a hierarchy as one instance-free core module.

Every net, register and property of an instance appears under its dotted
instance path ("f.mem", "core.s"), its expressions renamed to match. A
child's output port is the parent's `inst-out` net of the same name, and
a child's input port is a net defined by the parent's connection, except
a Clock port, which the clock schedule drives. `comb_order` is the global
topological order of every flat net definition. The simulator's image
builder and formal's unrolling both read the result.
"""

from __future__ import annotations

from .ast_nodes import EXPR_CHILDREN, Expr, NameRef
from .ir import CoreModule, CoreProperty, CoreReg, NetDef, build_comb_graph
from .source import Span
from .types import Clock


def flatten(cores: dict[str, CoreModule], top: str) -> CoreModule:
    """The design under `top` as one core; a top with no instances is
    returned as it is."""
    core = cores[top]
    if not core.instances:
        return core
    import copy
    nets: dict[str, NetDef] = {}
    regs: dict[str, CoreReg] = {}
    props: list[CoreProperty] = []
    todo: list[Span] = []

    def walk(prefix: str, key: str, inputs: dict[str, Expr]) -> None:
        """Add the core `key` at `prefix`; `inputs` maps its input ports to
        the parent's connections, already renamed."""
        c = cores[key]
        todo.extend(c.has_todo)
        for name, net in c.nets.items():
            if name in inputs and not isinstance(net.ty, Clock):
                expr = inputs[name]
            else:
                expr = _prefix_expr(net.expr, prefix)
            known = nets.get(prefix + name)
            if known is None:
                nets[prefix + name] = NetDef(prefix + name, net.ty, net.kind, expr, net.span)
            elif expr is not None:  # an output port, read by the parent
                known.expr = expr
        for name, reg in c.regs.items():
            r = regs[prefix + name] = copy.copy(reg)
            r.name, r.next, r.assigned = (prefix + name, _prefix_expr(reg.next, prefix),
                                          _prefix_expr(reg.assigned, prefix))
            r.clock, r.reset_sig, r.guard, r.cdc_chain = (
                n and prefix + n for n in (reg.clock, reg.reset_sig, reg.guard, reg.cdc_chain))
        for prop in c.properties:
            p = copy.copy(prop)
            p.name, p.expr = prefix + prop.name, _prefix_expr(prop.expr, prefix)
            p.clock, p.reset_sig = (n and prefix + n for n in (prop.clock, prop.reset_sig))
            props.append(p)
        for inst in c.instances:
            walk(f"{prefix}{inst.name}.", inst.module_key,
                 {port: _prefix_expr(e, prefix) for port, e in inst.in_map.items()})

    walk("", top, {})
    defs = {name: net.expr for name, net in nets.items() if net.expr is not None}
    # every comb loop was refused per module, through the instance summaries
    order = build_comb_graph(defs, [], set(regs), {}).order
    return CoreModule(core.key, core.name, core.kind, core.params, core.ports, regs=regs,
                      properties=props, nets=nets, comb_order=[n for n in order if n in defs],
                      has_todo=todo, enums=core.enums, span=core.span)


def _prefix_expr(e: Expr | None, prefix: str) -> Expr | None:
    """`e` with every name read under `prefix`."""
    if e is None or not prefix:
        return e
    import copy

    def walk(x: Expr) -> Expr:
        if isinstance(x, NameRef):
            n = NameRef(x.span, prefix + x.name)
            n.ty = x.ty
            return n
        c = copy.copy(x)
        c.ty = x.ty
        for attr in EXPR_CHILDREN:
            sub = getattr(x, attr, None)
            if isinstance(sub, Expr):
                setattr(c, attr, walk(sub))
        return c

    return walk(e)
