"""Tseitin bit-blasting of the term graph onto the CDCL core.

`bits` blasts a term's uncached cone children first, so deep definition
chains never recurse. A term whose interval (`known`, from the interval
pass) is a single value is blasted as that constant, without its cone."""

from __future__ import annotations

from .cdcl import SatSolver
from .terms import BOOL_SORT, Term


class BitBlaster:
    def __init__(self, known: dict[int, tuple[int, int]]) -> None:
        self.known = known  # term id -> interval, from the interval pass
        self.sat = SatSolver()
        self.cache: dict[int, list[int]] = {}   # term id -> bit literals (LSB first)
        self.true_lit = self.sat.new_var()
        self.sat.add_clause([self.true_lit])
        self.var_bits: dict[str, list[int]] = {}

    # ── gate helpers ─────────────────────────────────────────────

    def _const(self, bit: bool) -> int:
        return self.true_lit if bit else -self.true_lit

    def _and(self, a: int, b: int) -> int:
        if a == -b:
            return -self.true_lit
        if a == b:
            return a
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == -self.true_lit or b == -self.true_lit:
            return -self.true_lit
        g = self.sat.new_var()
        self.sat.add_clause([-g, a])
        self.sat.add_clause([-g, b])
        self.sat.add_clause([g, -a, -b])
        return g

    def _or(self, a: int, b: int) -> int:
        return -self._and(-a, -b)

    def _xor(self, a: int, b: int) -> int:
        if a == self.true_lit:
            return -b
        if b == self.true_lit:
            return -a
        if a == -self.true_lit:
            return b
        if b == -self.true_lit:
            return a
        if a == b:
            return -self.true_lit
        if a == -b:
            return self.true_lit
        g = self.sat.new_var()
        self.sat.add_clause([-g, a, b])
        self.sat.add_clause([-g, -a, -b])
        self.sat.add_clause([g, -a, b])
        self.sat.add_clause([g, a, -b])
        return g

    def _mux(self, c: int, a: int, b: int) -> int:
        """c ? a : b"""
        if a == b:
            return a
        if c == self.true_lit:
            return a
        if c == -self.true_lit:
            return b
        return self._or(self._and(c, a), self._and(-c, b))

    def _full_add(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._xor(self._xor(a, b), cin)
        cout = self._or(self._and(a, b), self._and(cin, self._xor(a, b)))
        return s, cout

    def _adder(self, xs: list[int], ys: list[int], cin: int) -> list[int]:
        out = []
        carry = cin
        for a, b in zip(xs, ys):
            s, carry = self._full_add(a, b, carry)
            out.append(s)
        return out

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
        hit = self.cache.get(id(t))
        if hit is not None:
            return hit
        for x in self._uncached_cone(t):
            self.cache[id(x)] = self._fixed(x) or self._blast(x)
        return self.cache[id(t)]

    def _fixed(self, t: Term) -> list[int] | None:
        """Constant bits for a term the interval pass pinned to one value."""
        iv = self.known.get(id(t))
        if iv is None or iv[0] != iv[1]:
            return None
        return [self._const(bool((iv[0] >> i) & 1)) for i in range(t.width or 1)]

    def _uncached_cone(self, t: Term) -> list[Term]:
        """The uncached terms `t` depends on, each after its operands."""
        order: list[Term] = []
        seen: set[int] = set()
        stack: list[tuple[Term, bool]] = [(t, False)]
        cache, known = self.cache, self.known
        while stack:
            x, expanded = stack.pop()
            if expanded:
                order.append(x)
                continue
            if id(x) in seen or id(x) in cache:
                continue
            seen.add(id(x))
            stack.append((x, True))
            iv = known.get(id(x))
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
            xs = self.bits(t.args[0])
            zero = [self._const(False)] * len(xs)
            return self._adder(zero, [-b for b in xs], self.true_lit)
        if op == "bvadd":
            return self._adder(self.bits(t.args[0]), self.bits(t.args[1]),
                               self._const(False))
        if op == "bvsub":
            return self._adder(self.bits(t.args[0]),
                               [-b for b in self.bits(t.args[1])], self.true_lit)
        if op == "bvmul":
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            w = len(xs)
            acc = [self._const(False)] * w
            for i in range(w):
                addend = [self._const(False)] * i + \
                         [self._and(ys[i], xs[j]) for j in range(w - i)]
                acc = self._adder(acc, addend, self._const(False))
            return acc
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
        a, b = t.args
        xs, ys = self.bits(a), self.bits(b)
        w = len(xs)
        q = self._fresh_vec(w)
        r = self._fresh_vec(w)
        zero = [self._const(False)] * w
        b_is_zero = self._eq_bits(ys, zero)
        # wide identity: zext(q)*zext(b) + zext(r) == zext(a)
        q2 = q + zero
        y2 = ys + zero
        acc = [self._const(False)] * (2 * w)
        for i in range(2 * w):
            addend = [self._const(False)] * i + \
                     [self._and(q2[i], y2[j]) for j in range(2 * w - i)]
            acc = self._adder(acc, addend, self._const(False))
        acc = self._adder(acc, r + zero, self._const(False))
        ident = self._eq_bits(acc, xs + zero)
        rem_lt = self._ult_bits(r, ys)
        ok = self._and(ident, rem_lt)
        # SMT-LIB semantics for x/0: quotient all-ones, remainder x
        q_ones = self._eq_bits(q, [self._const(True)] * w)
        r_eq_a = self._eq_bits(r, xs)
        zero_case = self._and(q_ones, r_eq_a)
        self.sat.add_clause([self._mux(b_is_zero, zero_case, ok)])
        return q if t.op == "bvudiv" else r

    def _signed_divrem(self, t: Term) -> list[int]:
        # |a| / |b| with result signs fixed up (truncating division)
        a, b = t.args
        xs, ys = self.bits(a), self.bits(b)
        w = len(xs)
        sa, sb = xs[-1], ys[-1]

        def absolute(bits, sign):
            neg = self._adder([self._const(False)] * w, [-x for x in bits], self.true_lit)
            return [self._mux(sign, n, x) for n, x in zip(neg, bits)]

        ax, ay = absolute(xs, sa), absolute(ys, sb)
        # unsigned div on the absolute values via fresh vectors
        q = self._fresh_vec(w)
        r = self._fresh_vec(w)
        zero = [self._const(False)] * w
        q2, y2 = q + zero, ay + zero
        acc = [self._const(False)] * (2 * w)
        for i in range(2 * w):
            addend = [self._const(False)] * i + \
                     [self._and(q2[i], y2[j]) for j in range(2 * w - i)]
            acc = self._adder(acc, addend, self._const(False))
        acc = self._adder(acc, r + zero, self._const(False))
        ident = self._eq_bits(acc, ax + zero)
        b_is_zero = self._eq_bits(ys, zero)
        ok = self._and(ident, self._ult_bits(r, ay))
        # |a| / 0 as bvudiv: all-ones quotient, remainder |a|; the sign
        # fix-up below then gives bvsdiv(a, 0) = a < 0 ? 1 : -1 and
        # bvsrem(a, 0) = a
        q_ones = self._eq_bits(q, [self._const(True)] * w)
        r_eq_a = self._eq_bits(r, ax)
        zero_case = self._and(q_ones, r_eq_a)
        self.sat.add_clause([self._mux(b_is_zero, zero_case, ok)])
        qsign = self._xor(sa, sb)
        qn = self._adder(zero, [-x for x in q], self.true_lit)
        rn = self._adder(zero, [-x for x in r], self.true_lit)
        signed_q = [self._mux(qsign, n, x) for n, x in zip(qn, q)]
        signed_r = [self._mux(sa, n, x) for n, x in zip(rn, r)]
        return signed_q if t.op == "bvsdiv" else signed_r

    # ── top level ────────────────────────────────────────────────

    def model_of(self, name: str) -> int:
        """A declared constant's value in the SAT model; 0 when no
        blasted term mentions it."""
        out = 0
        for i, var in enumerate(self.var_bits.get(name, ())):
            if self.sat.model_value(var):
                out |= 1 << i
        return out
