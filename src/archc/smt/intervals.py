"""Sound unsigned-interval analysis over the term graph.

Used as a word-level preprocessing step: when the abstract value of every
asserted constraint excludes `false`, the formula is satisfied by any
assignment; when some constraint's abstract value excludes `true`, the
formula is unsat. Branch-refined ite evaluation (narrowing a subterm's
interval under `=`, `bvult`, ... conditions) is what lets long wrapping
counter unrollings prove without bit-blasting.

`invariant` runs the same evaluation over a frame in any state, to find
register intervals that hold at every cycle. `backtrace` runs the other
way, from a goal the pass leaves open down to the free constants it
forces, to find a candidate model without search.
"""

from __future__ import annotations

from .terms import BOOL_SORT, Term

Interval = tuple[int, int]
# a refinement of no term (`peek`): `eval` under it reads the cache and
# gives what an unrefined eval gives, but caches nothing new apart from
# the intervals of the vars it reaches
_UNCACHED: dict = {None: (0, 1)}


def full(width: int) -> Interval:
    if width == BOOL_SORT:
        return (0, 1)
    return (0, (1 << width) - 1)


class IntervalEngine:
    def __init__(self) -> None:
        self.cache: dict[Term, Interval] = {}

    def eval(self, t: Term, refine: dict[Term, Interval] | None = None) -> Interval:
        if t.op == "const":  # never cached: a refinement can only pin it to itself
            return (t.value, t.value)
        if refine:
            r = refine.get(t)
            if r is not None:
                return r
            if t.op == "var":
                # refinement narrows specific nodes only; other vars keep
                # their cached global interval (sound, and keeps refined
                # evaluation local to the current tree)
                return self.eval(t, None)
            if refine is _UNCACHED:
                hit = self.cache.get(t)
                if hit is not None:
                    return hit
            return self._compute(t, refine)
        hit = self.cache.get(t)
        if hit is not None:
            return hit
        out = self._compute(t, None)
        self.cache[t] = out
        return out

    def peek(self, t: Term) -> Interval:
        """`eval(t)` without caching `t` or the terms under it: the cache is
        also the bit-blaster's source of bound clauses, which stay the same
        whatever is peeked."""
        return self.eval(t, _UNCACHED)

    def _compute(self, t: Term, refine) -> Interval:
        op = t.op
        if op == "var":
            if t.definition is not None:
                return self.eval(t.definition, refine)
            return full(t.width)
        if op == "ite":
            c, a, b = t.args
            ci = self.eval(c, refine)
            if ci == (1, 1):
                return self.eval(a, refine)
            if ci == (0, 0):
                return self.eval(b, refine)
            # None from _refine_from = branch provably unreachable
            then_ref = _refine_from(c, True, self, refine)
            else_ref = _refine_from(c, False, self, refine)
            ai = None if then_ref is None else self.eval(a, _merge(refine, then_ref))
            bi = None if else_ref is None else self.eval(b, _merge(refine, else_ref))
            if ai is None and bi is None:
                return full(t.width)
            if ai is None:
                return bi
            if bi is None:
                return ai
            return (min(ai[0], bi[0]), max(ai[1], bi[1]))
        args = [self.eval(a, refine) for a in t.args]
        mask = (1 << t.width) - 1 if t.width else 1
        if op == "bvadd":
            (a, b), (c, d) = args
            if b + d <= mask:
                return (a + c, b + d)
            return full(t.width)
        if op == "bvsub":
            (a, b), (c, d) = args
            if a - d >= 0:
                return (a - d, b - c)
            return full(t.width)
        if op == "bvmul":
            (a, b), (c, d) = args
            if b * d <= mask:
                return (a * c, b * d)
            return full(t.width)
        if op == "bvand":
            (_, b), (_, d) = args
            return (0, min(b, d))
        if op == "bvor":
            (a, b), (c, d) = args
            hi = (1 << max(b.bit_length(), d.bit_length())) - 1
            return (max(a, c), min(hi, mask))
        if op == "bvxor":
            (_, b), (_, d) = args
            hi = (1 << max(b.bit_length(), d.bit_length())) - 1
            return (0, min(hi, mask))
        if op == "bvnot":
            (a, b) = args[0]
            return (mask - b, mask - a)
        if op == "bvshl":
            (a, b), (c, d) = args
            if c == d and (b << d) <= mask:
                return (a << c, b << d)
            return full(t.width)
        if op in ("bvlshr", "bvashr"):
            (a, b), (c, d) = args
            if op == "bvlshr":
                if c == d:
                    return (a >> c, b >> c)
                return (0, b)
            return full(t.width)
        if op == "extract":
            hi, lo = t.value >> 16, t.value & 0xFFFF
            (a, b) = args[0]
            if lo == 0 and b <= mask:
                return (a, b)
            return full(t.width)
        if op == "zero_extend":
            return args[0]
        if op == "sign_extend":
            src = t.args[0]
            (a, b) = args[0]
            if b < (1 << (src.width - 1)):
                return (a, b)  # sign bit provably clear
            return full(t.width)
        if op == "concat":
            (a, b), (c, d) = args
            low_w = t.args[1].width
            return (
                (a << low_w) + c,
                (b << low_w) + d,
            )
        if op == "=":
            (a, b), (c, d) = args
            if b < c or d < a:
                return (0, 0)
            if a == b == c == d:
                return (1, 1)
            return (0, 1)
        if op in ("bvult", "bvule", "bvugt", "bvuge"):
            (a, b), (c, d) = args
            if op == "bvult":
                if b < c:
                    return (1, 1)
                if a >= d:
                    return (0, 0)
            elif op == "bvule":
                if b <= c:
                    return (1, 1)
                if a > d:
                    return (0, 0)
            elif op == "bvugt":
                if a > d:
                    return (1, 1)
                if b <= c:
                    return (0, 0)
            else:
                if a >= d:
                    return (1, 1)
                if b < c:
                    return (0, 0)
            return (0, 1)
        if op == "not":
            (a, b) = args[0]
            return (1 - b, 1 - a)
        if op == "and":
            hi = min(b for (_, b) in args)
            lo = 1 if all(a == 1 for (a, _) in args) else 0
            return (lo, hi)
        if op == "or":
            hi = max(b for (_, b) in args)
            lo = 1 if any(a == 1 for (a, _) in args) else 0
            return (lo, hi)
        if op == "xor":
            (a, b), (c, d) = args
            if a == b and c == d:
                v = a ^ c
                return (v, v)
            return (0, 1)
        if op == "=>":
            (a, b), (c, d) = args
            if b == 0 or c == 1:
                return (1, 1)
            if a == 1 and d == 0:
                return (0, 0)
            return (0, 1)
        # bvudiv/bvurem/bvsdiv/bvsrem/signed compares: conservative
        return full(t.width)


WIDEN_FROM = 3   # the first round of `invariant` that widens
MAX_ROUNDS = 24  # rounds of `invariant` before it gives up


def invariant(engine: IntervalEngine, regs: list[tuple[Term, int, Term]],
              nets: list[Term], thresholds: set[int]) -> dict[Term, Interval] | None:
    """Register intervals that hold at every cycle, found by Kleene
    iteration with widening (Cousot & Cousot, POPL 1977) to thresholds
    (Blanchet et al., PLDI 2003).

    `regs` holds (declared state var, value at cycle 0, next state over
    the state vars) and `nets` the vars defined over the state vars and
    the free inputs, in evaluation order. The intervals start at the
    values of cycle 0. Each round evaluates every next state under the
    refinement that holds the current intervals and each net evaluated
    under it, and joins the result in. From round `WIDEN_FROM` on, a bound
    that still moves widens to the nearest of `thresholds` past it, then
    to the type's range. A round that changes nothing means the intervals
    hold the values of cycle 0 and are closed under one step, so they
    hold at every cycle: that round's refinement is returned. None if
    `MAX_ROUNDS` rounds pass without one."""
    cur = {var: (init, init) for var, init, _ in regs}
    for n in range(MAX_ROUNDS):
        refine = dict(cur)
        for net in nets:
            refine[net] = engine.eval(net.definition, refine)
        changed = False
        for var, _, step in regs:
            lo, hi = cur[var]
            a, b = engine.eval(step, refine)
            if a >= lo and b <= hi:
                continue
            changed = True
            if n >= WIDEN_FROM:
                top = (1 << step.width) - 1
                if a < lo:
                    a = max((c for c in thresholds if c <= a), default=0)
                if b > hi:
                    b = min((c for c in thresholds if b <= c <= top), default=top)
            cur[var] = (min(lo, a), max(hi, b))
        if not changed:
            return refine
    return None


def constants(terms: list[Term]) -> set[int]:
    """The values of the constants in `terms`, through the definitions of
    the vars they mention."""
    seen: set[Term] = set()
    values: set[int] = set()
    todo = list(terms)
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        if t.op == "const":
            values.add(t.value)
        elif t.definition is not None:
            todo.append(t.definition)
        else:
            todo.extend(t.args)
    return values


def backtrace(engine: IntervalEngine, goal: Term) -> dict[Term, int]:
    """The free constants that `goal == true` pins, by their values: the
    backtrace of test generation (Goel, *PODEM*, IEEE Trans. Computers
    1981), run over the cached intervals. Starting from the goal, a
    demanded interval moves down to the terms that it forces: through the
    Bool connectives and comparisons with a constant (`_refine_from`),
    through an `ite` one of whose branches cannot meet the demand (the
    condition is then fixed too), through `bvadd`/`bvsub` with a constant
    that cannot wrap, and into a defined constant's definition. Each term
    keeps the intersection of its demands with its cached interval. Only
    terms that a demand reaches are visited.

    Every pin is implied by the goal, so a candidate that satisfies the
    goal agrees with every model on the constants it pins; one that does
    not proves nothing, and the backtrace never answers unsat. Empty when
    nothing is pinned or two demands on a term do not meet."""
    demand: dict[Term, Interval] = {goal: (1, 1)}
    pinned: dict[Term, int] = {}
    todo = [goal]
    while todo:
        t = todo.pop()
        lo, hi = demand[t]
        op = t.op
        if op == "var":
            if t.definition is None:
                if lo == hi:
                    pinned[t] = lo
                continue
            moves = {t.definition: (lo, hi)}
        elif op == "ite":
            c, a, b = t.args
            if _misses(demand.get(b) or engine.peek(b), lo, hi):
                moves = {c: (1, 1), a: (lo, hi)}
            elif _misses(demand.get(a) or engine.peek(a), lo, hi):
                moves = {c: (0, 0), b: (lo, hi)}
            else:
                continue
        elif op in ("bvadd", "bvsub"):
            moves = _arith_demand(engine, demand, t, lo, hi)
        elif t.width == BOOL_SORT and lo == hi and op != "const":
            moves = _refine_from(t, lo == 1, engine, _UNCACHED)
            if moves is None:
                return {}
        else:
            continue
        for x, (nlo, nhi) in moves.items():
            old = demand.get(x) or engine.peek(x)
            new = (max(old[0], nlo), min(old[1], nhi))
            if new[0] > new[1]:
                return {}
            if new != old or x not in demand:
                demand[x] = new
                todo.append(x)
    return pinned


def _misses(known: Interval, lo: int, hi: int) -> bool:
    return known[1] < lo or hi < known[0]


def _arith_demand(engine: IntervalEngine, demand: dict[Term, Interval], t: Term,
                  lo: int, hi: int) -> dict[Term, Interval]:
    """What `lo <= t <= hi` demands of the operand of `t`, a `bvadd` or
    `bvsub` with one constant operand, when no value of it can wrap."""
    a, b = t.args
    if b.op == "const":
        x, k, const_first = a, b.value, False
    elif a.op == "const":
        x, k, const_first = b, a.value, True
    else:
        return {}
    xlo, xhi = demand.get(x) or engine.peek(x)
    if t.op == "bvadd":
        if xhi + k > (1 << t.width) - 1:
            return {}
        return {x: (lo - k, hi - k)}
    if const_first:  # k - x
        return {x: (k - hi, k - lo)} if xhi <= k else {}
    return {x: (lo + k, hi + k)} if xlo >= k else {}


def _merge(base: dict[Term, Interval] | None, extra: dict[Term, Interval]) -> dict:
    if not base:
        return extra
    out = dict(base)
    out.update(extra)
    return out


def _refine_from(cond: Term, truth: bool, eng: IntervalEngine,
                 refine) -> dict[Term, Interval] | None:
    """Interval narrowing implied by `cond == truth`; None = branch
    provably unreachable."""
    out: dict[Term, Interval] = {}
    if cond.op == "not":
        return _refine_from(cond.args[0], not truth, eng, refine)
    if (cond.op == "and" and truth) or (cond.op == "or" and not truth):
        for sub in cond.args:  # every conjunct holds / every disjunct fails
            r = _refine_from(sub, truth, eng, refine)
            if r is None:
                return None
            out.update(r)
        return out
    if cond.op not in ("=", "bvult", "bvule", "bvugt", "bvuge"):
        return out
    a, b = cond.args
    if a.op == "const" and b.op != "const":
        flip = {"bvult": "bvugt", "bvule": "bvuge", "bvugt": "bvult",
                "bvuge": "bvule", "=": "="}
        cond = Term(flip[cond.op], BOOL_SORT, (b, a))
        a, b = cond.args
    if b.op != "const":
        return out
    k = b.value
    lo, hi = eng.eval(a, refine)
    op = cond.op
    if op == "=":
        if truth:
            if k < lo or k > hi:
                return None
            out[a] = (k, k)
        else:
            if lo == hi == k:
                return None
            if lo == k:
                out[a] = (lo + 1, hi)
            elif hi == k:
                out[a] = (lo, hi - 1)
        return out
    # normalize to an inclusive bound [nlo, nhi] implied by the comparison
    if op == "bvule":
        nlo, nhi = (lo, k) if truth else (k + 1, hi)
    elif op == "bvult":
        nlo, nhi = (lo, k - 1) if truth else (k, hi)
    elif op == "bvuge":
        nlo, nhi = (k, hi) if truth else (lo, k - 1)
    else:  # bvugt
        nlo, nhi = (k + 1, hi) if truth else (lo, k)
    bound = (max(lo, nlo), min(hi, nhi))
    if bound[0] > bound[1]:
        return None
    out[a] = bound
    return out
