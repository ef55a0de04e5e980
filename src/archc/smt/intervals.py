"""Sound unsigned-interval analysis over the term graph.

Used as a word-level preprocessing step: when the abstract value of every
asserted constraint excludes `false`, the formula is satisfied by any
assignment; when some constraint's abstract value excludes `true`, the
formula is unsat. Branch-refined ite evaluation (each arm evaluated under
what its condition demands of the terms under it) is what lets long
wrapping counter unrollings prove without bit-blasting.

One rule set, `_demands`, says what an interval required of a term
demands of the terms directly under it. `IntervalEngine.narrow` moves a
demand down through it, meeting (intersecting) every demand that lands
on one term: the ite refinement asks it for the condition true and
false, and `backtrace` for a goal the pass leaves open, down through
definitions to the free constants the goal forces, which make a
candidate model without search. `invariant` runs the evaluation over a
frame in any state, to find register intervals that hold at every cycle.
"""

from __future__ import annotations

from .terms import BOOL_SORT, Term

Interval = tuple[int, int]
# a refinement of no term: `eval` under it reads the cache and gives what
# an unrefined eval gives, but caches nothing new apart from the intervals
# of the vars it reaches (the cache is also the bit-blaster's source of
# bound clauses, which must not depend on what was narrowed)
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
                return self.cache.get(t) or self.eval(t, None)
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

    def narrow(self, t: Term, lo: int, hi: int, refine=None,
               definitions: bool = False) -> dict[Term, Interval] | None:
        """What `lo <= t <= hi` demands of `t` and of the terms under it:
        their intervals by term, each the meet (intersection) of every
        demand on it with its interval under `refine`. None when a meet is
        empty, i.e. the demand cannot hold. Demands move down by
        `_demands` and stop at a var, or with `definitions` go on into its
        definition once no other term waits: a rule then reads the
        demands of every term that sits above the definition it is in.
        Nothing new is cached."""
        refine = refine or _UNCACHED
        out: dict[Term, Interval] = {t: (lo, hi)}

        def known(y: Term) -> Interval:
            return out.get(y) or self.eval(y, refine)

        todo = [t] if t.op != "var" else []  # terms whose rules are still to run
        defined = [t] if definitions and t.definition is not None else []
        while todo or defined:
            if todo:
                x = todo.pop()
                moves = _demands(x, *out[x], known)
            else:
                x = defined.pop()
                moves = ((x.definition, out[x]),)
            for y, (dlo, dhi) in moves:
                old = out.get(y) or self.eval(y, refine)
                if old[0] < dlo or dhi < old[1]:
                    old = (max(old[0], dlo), min(old[1], dhi))
                    if old[0] > old[1]:
                        return None
                elif y in out:
                    continue
                out[y] = old
                if y.op != "var":
                    todo.append(y)
                elif definitions and y.definition is not None:
                    defined.append(y)
        return out

    def _arm(self, cond: Term, truth: int, arm: Term, refine) -> Interval | None:
        """`arm`'s interval where `cond == truth`; None where that cannot
        hold. `cond` stays out of the refinement: an arm under a condition
        that narrows nothing below it is evaluated, and cached, as is."""
        narrowed = self.narrow(cond, truth, truth, refine)
        if narrowed is None:
            return None
        del narrowed[cond]
        if refine and narrowed:
            narrowed = {**refine, **narrowed}
        return self.eval(arm, narrowed or refine)

    def _compute(self, t: Term, refine) -> Interval:
        op = t.op
        if op == "var":
            if t.definition is not None:
                return self.eval(t.definition, refine)
            return full(t.width)
        if op == "ite":
            c, a, b = t.args
            ci = self.eval(c, refine)
            if ci[0] == ci[1]:
                return self.eval(a if ci[0] else b, refine)
            ai, bi = self._arm(c, 1, a, refine), self._arm(c, 0, b, refine)
            if ai is None or bi is None:
                return ai or bi or full(t.width)
            return (min(ai[0], bi[0]), max(ai[1], bi[1]))
        args = [self.eval(a, refine) for a in t.args]
        if op == "=":
            (a, b), (c, d) = args
            if b < c or d < a:
                return (0, 0)
            if a == b == c == d:
                return (1, 1)
            return (0, 1)
        if op in _NEGATE:  # the unsigned comparisons, as x < y or x <= y
            (a, b), (c, d) = args if op in ("bvult", "bvule") else args[::-1]
            strict = op in ("bvult", "bvugt")
            if b < c or b == c and not strict:
                return (1, 1)
            if a > d or a == d and strict:
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
        mask = (1 << t.width) - 1
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


def backtrace(engine: IntervalEngine, goal: Term) -> dict[Term, int] | None:
    """The free constants that `goal == true` pins, by their values: the
    backtrace of test generation (Goel, *PODEM*, IEEE Trans. Computers
    1981), as `IntervalEngine.narrow` from the goal into definitions too.
    Every pin holds in every model of the goal; None when two demands do
    not meet, which proves the goal unsat."""
    demands = engine.narrow(goal, 1, 1, definitions=True)
    if demands is None:
        return None
    return {x: lo for x, (lo, hi) in demands.items()
            if lo == hi and x.op == "var" and x.definition is None}


# `x op k` for a constant k, as `k op' x` reads it
_FLIP = {"=": "=", "bvult": "bvugt", "bvule": "bvuge", "bvugt": "bvult", "bvuge": "bvule"}
# `not (x op k)` as `x op' k`
_NEGATE = {"bvult": "bvuge", "bvule": "bvugt", "bvugt": "bvule", "bvuge": "bvult"}


def _demands(t: Term, lo: int, hi: int, known) -> list[tuple[Term, Interval]]:
    """The one rule set of the interval pass's narrowing: what
    `lo <= t <= hi` demands of the terms directly under `t`, as (term,
    interval) pairs for the caller to meet with what it knows of each
    (`known(x)`); a demand that cannot hold gives a pair whose meet is
    empty. `bvand` is at most each operand and `bvor` at least each, so
    all-ones and all-zeros pin their operands. Empty where no rule fits."""
    op, args = t.op, t.args
    if op in _FLIP:
        x, y = args
        if x.op == "const":
            x, y, op = y, x, _FLIP[op]
        if lo != hi or y.op != "const" or x.op == "const":
            return []
        k = y.value
        if op == "=":
            if lo:
                return [(x, (k, k))]
            xlo, xhi = known(x)  # only an end of x's interval can be cut off
            return [(x, (k + 1, xhi))] if xlo == k else [(x, (xlo, k - 1))] if xhi == k else []
        if not lo:
            op = _NEGATE[op]
        top = full(x.width)[1]
        return [(x, {"bvult": (0, k - 1), "bvule": (0, k),
                     "bvugt": (k + 1, top), "bvuge": (k, top)}[op])]
    if op in ("not", "bvnot"):
        top = full(t.width)[1]
        return [(args[0], (top - hi, top - lo))]
    if op == "and":
        return [(x, (1, 1)) for x in args] if lo == 1 else []
    if op == "or":
        return [(x, (0, 0)) for x in args] if hi == 0 else []
    if op == "ite":
        c, a, b = args
        clo, chi = known(c)
        blo, bhi = known(b)
        if clo == 1 or bhi < lo or hi < blo:  # the else-arm cannot meet the demand
            return [(c, (1, 1)), (a, (lo, hi))]
        alo, ahi = known(a)
        if chi == 0 or ahi < lo or hi < alo:
            return [(c, (0, 0)), (b, (lo, hi))]
        return []
    mask = (1 << t.width) - 1
    if op in ("bvadd", "bvsub"):
        a, b = args
        if b.op == "const":
            x, k, const_first = a, b.value, False
        elif a.op == "const":
            x, k, const_first = b, a.value, True
        else:
            return []
        xlo, xhi = known(x)
        if op == "bvadd":
            return [(x, (lo - k, hi - k))] if xhi + k <= mask else []
        if const_first:  # k - x
            return [(x, (k - hi, k - lo))] if xhi <= k else []
        return [(x, (lo + k, hi + k))] if xlo >= k else []
    if op == "bvand":
        return [(x, (lo, mask)) for x in args] if lo else []
    if op == "bvor":
        return [(x, (0, hi)) for x in args] if hi < mask else []
    if op == "concat":
        high, low = args
        w = low.width
        out = [(high, (lo >> w, hi >> w))]
        if lo >> w == hi >> w:
            out.append((low, (lo & ((1 << w) - 1), hi & ((1 << w) - 1))))
        return out
    if op == "extract":
        x = args[0]
        top, bottom = t.value >> 16, t.value & 0xFFFF
        if top == x.width - 1:
            return [(x, (lo << bottom, ((hi + 1) << bottom) - 1))]
    return []
