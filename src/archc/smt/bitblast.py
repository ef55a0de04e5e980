"""Tseitin bit-blasting of the term graph onto the CDCL core.

`bits` blasts a term's uncached cone children first, so deep definition
chains never recurse. A term whose interval (`known`, from the interval
pass) is a single value is blasted as that constant, without its cone.
Any other interval narrower than the term's full range becomes clauses
for lo <= x <= hi (`_bound`), at most two per bit, so the CDCL core starts
from facts such as "count_k <= k" that it would otherwise learn through
conflicts (Strichman, *Tuning SAT checkers for Bounded Model Checking*,
CAV 2000). The intervals depend only on definitions, never on a goal, so
the clauses hold for every later question.

Gates are structurally hashed, as in AIG-based equivalence checkers
(Kuehlmann et al., IEEE TCAD 2002): each distinct AND, XOR or ITE over
normalized operand literals gets one variable, and constants and repeated
operands fold away. An ITE (`_mux`) is one 6-clause gate, and a full
adder is `a ^ b ^ cin` with carry `(a ^ b) ? cin : a`."""

from __future__ import annotations

from .cdcl import SatSolver
from .terms import BOOL_SORT, Term


class BitBlaster:
    def __init__(self, known: dict[Term, tuple[int, int]]) -> None:
        self.known = known  # term -> interval, from the interval pass
        self.sat = SatSolver()
        self.cache: dict[Term, list[int]] = {}  # term -> bit literals (LSB first)
        self.true_lit = self.sat.new_var()
        self.sat.add_clause([self.true_lit])
        self.var_bits: dict[str, list[int]] = {}
        self.gates: dict[tuple, int] = {}      # normalized operands -> gate var

    # ── gate helpers ─────────────────────────────────────────────

    def _const(self, bit: bool) -> int:
        return self.true_lit if bit else -self.true_lit

    def _clauses(self, *clauses: list[int]) -> None:
        for clause in clauses:
            self.sat.add_clause(clause)

    def _and(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == -b or a == -t or b == -t:
            return -t
        if a == b or b == t:
            return a
        if a == t:
            return b
        key = ("and", a, b) if a < b else ("and", b, a)
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.sat.new_var()
            self._clauses([-g, a], [-g, b], [g, -a, -b])
        return g

    def _or(self, a: int, b: int) -> int:
        return -self._and(-a, -b)

    def _xor(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == t or a == -t:
            return -b if a == t else b
        if b == t or b == -t:
            return -a if b == t else a
        if a == b:
            return -t
        if a == -b:
            return t
        # a ^ b = ~a ^ ~b = ~(~a ^ b): key on the variables, sign on the output
        sign = 1 if (a > 0) == (b > 0) else -1
        a, b = abs(a), abs(b)
        key = ("xor", a, b) if a < b else ("xor", b, a)
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.sat.new_var()
            self._clauses([-g, a, b], [-g, -a, -b], [g, -a, b], [g, a, -b])
        return sign * g

    def _mux(self, c: int, a: int, b: int) -> int:
        """c ? a : b"""
        t = self.true_lit
        if a == b or c == t:
            return a
        if c == -t:
            return b
        if c < 0:
            c, a, b = -c, b, a
        if a == c or a == t:
            return self._or(c, b)
        if a == -c or a == -t:
            return self._and(-c, b)
        if b == c or b == -t:
            return self._and(c, a)
        if b == -c or b == t:
            return self._or(-c, a)
        if a == -b:
            return -self._xor(c, a)
        sign = 1
        if a < 0:  # c ? ~a : ~b = ~(c ? a : b)
            sign, a, b = -1, -a, -b
        key = ("ite", c, a, b)
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.sat.new_var()
            self._clauses([-c, -a, g], [-c, a, -g], [c, -b, g], [c, b, -g],
                          [-a, -b, g], [a, b, -g])  # the last two only speed propagation
        return sign * g

    def _full_add(self, a: int, b: int, cin: int) -> tuple[int, int]:
        axb = self._xor(a, b)
        # the carry is a when a == b, else cin
        return self._xor(axb, cin), self._mux(axb, cin, a)

    def _adder(self, xs: list[int], ys: list[int], cin: int) -> list[int]:
        out = []
        carry = cin
        for a, b in zip(xs, ys):
            s, carry = self._full_add(a, b, carry)
            out.append(s)
        return out

    def _neg(self, xs: list[int]) -> list[int]:
        return self._adder([self._const(False)] * len(xs), [-x for x in xs], self.true_lit)

    def _abs(self, xs: list[int]) -> list[int]:
        """|xs|, read unsigned: the most negative value keeps its bits."""
        return [self._mux(xs[-1], n, x) for n, x in zip(self._neg(xs), xs)]

    def _mul(self, xs: list[int], ys: list[int]) -> list[int]:
        """The low len(xs) bits of xs * ys, by shift and add."""
        w = len(xs)
        acc = [self._const(False)] * w
        for i in range(w):
            addend = [self._const(False)] * i + [self._and(ys[i], xs[j]) for j in range(w - i)]
            acc = self._adder(acc, addend, self._const(False))
        return acc

    def _eq_bits(self, xs: list[int], ys: list[int]) -> int:
        acc = self.true_lit
        for a, b in zip(xs, ys):
            acc = self._and(acc, -self._xor(a, b))
        return acc

    def _ult_bits(self, xs: list[int], ys: list[int]) -> int:
        lt = -self.true_lit
        for a, b in zip(xs, ys):  # LSB first; later (higher) bits dominate
            eqbit = -self._xor(a, b)
            lt = self._or(self._and(-a, b), self._and(eqbit, lt))
        return lt

    # ── term blasting ────────────────────────────────────────────

    def bits(self, t: Term) -> list[int]:
        hit = self.cache.get(t)
        if hit is not None:
            return hit
        known = self.known
        for x in self._uncached_cone(t):
            iv = known.get(x)
            if iv is not None and iv[0] == iv[1]:  # pinned: constant bits, no cone
                self.cache[x] = [self._const(bool((iv[0] >> i) & 1))
                                 for i in range(x.width or 1)]
                continue
            self.cache[x] = xs = self._blast(x)
            if iv is not None and x.op != "var":  # a var's bits are its definition's
                self._bound(xs, *iv)
        return self.cache[t]

    def _bound(self, xs: list[int], lo: int, hi: int) -> None:
        """Clauses for lo <= xs <= hi, unsigned, at most one per bit of
        each bound: xs exceeds hi only if, at the highest bit where they
        differ, hi has a 0 and every higher 1 of hi is matched in xs (and
        symmetrically for lo). A full-range bound adds nothing."""
        for i in range(len(xs)):
            if not (hi >> i) & 1:
                self.sat.add_clause([-xs[i]] + [-xs[j] for j in range(i + 1, len(xs))
                                                if (hi >> j) & 1])
            if (lo >> i) & 1:
                self.sat.add_clause([xs[i]] + [xs[j] for j in range(i + 1, len(xs))
                                               if not (lo >> j) & 1])

    def _uncached_cone(self, t: Term) -> list[Term]:
        """The uncached terms `t` depends on, each after its operands."""
        order: list[Term] = []
        seen: set[Term] = set()
        stack: list[tuple[Term, bool]] = [(t, False)]
        cache, known = self.cache, self.known
        while stack:
            x, expanded = stack.pop()
            if expanded:
                order.append(x)
                continue
            if x in seen or x in cache:
                continue
            seen.add(x)
            stack.append((x, True))
            iv = known.get(x)
            if iv is not None and iv[0] == iv[1]:
                continue
            if x.definition is not None:
                stack.append((x.definition, False))
            stack.extend((a, False) for a in x.args)
        return order

    def lit(self, t: Term) -> int:
        """Single literal for a Bool term."""
        assert t.width == BOOL_SORT
        return self.bits(t)[0]

    def _fresh_vec(self, width: int) -> list[int]:
        return [self.sat.new_var() for _ in range(width)]

    def _blast(self, t: Term) -> list[int]:
        op = t.op
        if op == "const":
            w = t.width if t.width else 1
            return [self._const(bool((t.value >> i) & 1)) for i in range(w)]
        if op == "var":
            if t.definition is not None:
                return self.bits(t.definition)
            w = t.width if t.width else 1
            if t.name not in self.var_bits:
                self.var_bits[t.name] = self._fresh_vec(w)
            return self.var_bits[t.name]
        if op == "ite":
            c, a, b = t.args
            cl = self.lit(c)
            return [self._mux(cl, x, y) for x, y in zip(self.bits(a), self.bits(b))]
        if op == "=":
            a, b = t.args
            return [self._eq_bits(self.bits(a), self.bits(b))]
        if op in ("and", "or"):
            lits = [self.lit(a) for a in t.args]
            acc = lits[0]
            for l in lits[1:]:
                acc = self._and(acc, l) if op == "and" else self._or(acc, l)
            return [acc]
        if op == "not":
            return [-self.lit(t.args[0])]
        if op == "xor":
            return [self._xor(self.lit(t.args[0]), self.lit(t.args[1]))]
        if op == "=>":
            return [self._or(-self.lit(t.args[0]), self.lit(t.args[1]))]
        if op in ("bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"):
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            if op in ("bvslt", "bvsle", "bvsgt", "bvsge"):
                xs = xs[:-1] + [-xs[-1]]  # flip sign bits: signed -> unsigned order
                ys = ys[:-1] + [-ys[-1]]
            if op in ("bvult", "bvslt"):
                return [self._ult_bits(xs, ys)]
            if op in ("bvule", "bvsle"):
                return [-self._ult_bits(ys, xs)]
            if op in ("bvugt", "bvsgt"):
                return [self._ult_bits(ys, xs)]
            return [-self._ult_bits(xs, ys)]
        if op == "bvnot":
            return [-b for b in self.bits(t.args[0])]
        if op == "bvneg":
            return self._neg(self.bits(t.args[0]))
        if op == "bvadd":
            return self._adder(self.bits(t.args[0]), self.bits(t.args[1]),
                               self._const(False))
        if op == "bvsub":
            return self._adder(self.bits(t.args[0]),
                               [-b for b in self.bits(t.args[1])], self.true_lit)
        if op == "bvmul":
            return self._mul(self.bits(t.args[0]), self.bits(t.args[1]))
        if op in ("bvand", "bvor", "bvxor"):
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            f = {"bvand": self._and, "bvor": self._or, "bvxor": self._xor}[op]
            return [f(a, b) for a, b in zip(xs, ys)]
        if op in ("bvshl", "bvlshr", "bvashr"):
            return self._shift(t)
        if op in ("bvudiv", "bvurem"):
            return self._divrem(t)
        if op in ("bvsdiv", "bvsrem"):
            return self._signed_divrem(t)
        if op == "extract":
            hi, lo = t.value >> 16, t.value & 0xFFFF
            return self.bits(t.args[0])[lo:hi + 1]
        if op == "zero_extend":
            xs = self.bits(t.args[0])
            return xs + [self._const(False)] * (t.width - len(xs))
        if op == "sign_extend":
            xs = self.bits(t.args[0])
            return xs + [xs[-1]] * (t.width - len(xs))
        if op == "concat":
            hi, lo = t.args
            return self.bits(lo) + self.bits(hi)
        raise AssertionError(f"bitblast: {op}")

    def _shift(self, t: Term) -> list[int]:
        xs = self.bits(t.args[0])
        amt = self.bits(t.args[1])
        w = len(xs)
        fill = xs[-1] if t.op == "bvashr" else self._const(False)
        cur = list(xs)
        steps = max(1, (w - 1).bit_length())
        for j in range(steps):
            sh = 1 << j
            if t.op == "bvshl":
                shifted = [self._const(False)] * min(sh, w) + cur[:max(0, w - sh)]
            else:
                shifted = cur[min(sh, w):] + [fill] * min(sh, w)
            cur = [self._mux(amt[j], s, c) for s, c in zip(shifted, cur)]
        # amounts >= w (any higher amount bit set) force the fill value
        big = -self.true_lit
        for j in range(steps, len(amt)):
            big = self._or(big, amt[j])
        if (1 << steps) > w:
            pass
        else:
            # amount bits inside [steps) can still reach >= w; compare amt >= w
            wconst = [self._const(bool((w >> i) & 1)) for i in range(len(amt))]
            big = self._or(big, -self._ult_bits(amt, wconst))
        return [self._mux(big, fill, c) for c in cur]

    def _divrem(self, t: Term) -> list[int]:
        q, r = self._udivrem(self.bits(t.args[0]), self.bits(t.args[1]))
        return q if t.op == "bvudiv" else r

    def _signed_divrem(self, t: Term) -> list[int]:
        # |a| / |b| with result signs fixed up (truncating division); |a| / 0
        # as bvudiv, so bvsdiv(a, 0) = a < 0 ? 1 : -1 and bvsrem(a, 0) = a
        xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
        sa, sb = xs[-1], ys[-1]
        q, r = self._udivrem(self._abs(xs), self._abs(ys))
        if t.op == "bvsdiv":
            sign = self._xor(sa, sb)
            return [self._mux(sign, n, x) for n, x in zip(self._neg(q), q)]
        return [self._mux(sa, n, x) for n, x in zip(self._neg(r), r)]

    def _udivrem(self, xs: list[int], ys: list[int]) -> tuple[list[int], list[int]]:
        """Fresh quotient and remainder vectors of xs / ys, tied down by
        zext(q)*zext(ys) + zext(r) == zext(xs) and r < ys, or for ys == 0
        by the SMT-LIB value: an all-ones quotient and remainder xs."""
        w = len(xs)
        q, r = self._fresh_vec(w), self._fresh_vec(w)
        zero = [self._const(False)] * w
        acc = self._adder(self._mul(ys + zero, q + zero), r + zero, self._const(False))
        ok = self._and(self._eq_bits(acc, xs + zero), self._ult_bits(r, ys))
        zero_case = self._and(self._eq_bits(q, [self._const(True)] * w),
                              self._eq_bits(r, xs))
        self.sat.add_clause([self._mux(self._eq_bits(ys, zero), zero_case, ok)])
        return q, r

    # ── top level ────────────────────────────────────────────────

    def model_of(self, name: str) -> int:
        """A declared constant's value in the SAT model; 0 when no
        blasted term mentions it."""
        out = 0
        for i, var in enumerate(self.var_bits.get(name, ())):
            if self.sat.model_value(var):
                out |= 1 << i
        return out
