"""The bundled SMT solver: SAT core, intervals vs brute force, parser,
and end-to-end sat/unsat answers with models."""

import itertools
import random

import pytest

from archc.smt.bitblast import BitBlaster
from archc.smt.cdcl import SatSolver
from archc.smt.intervals import IntervalEngine, full
from archc.smt.sexpr import parse_all, parse_bv_literal
from archc.smt.solve import Session, concrete_value
from archc.smt.terms import BOOL_SORT, OPS, TermBuilder


class TestSexpr:
    def test_nesting_and_comments(self):
        forms = parse_all("; hello\n(a (b c) #b101)")
        assert forms == [["a", ["b", "c"], "#b101"]]

    def test_bv_literals(self):
        assert parse_bv_literal("#b1010") == (10, 4)
        assert parse_bv_literal("#xff") == (255, 8)
        assert parse_bv_literal(["_", "bv7", "4"]) == (7, 4)
        assert parse_bv_literal("foo") is None

    def test_numeral_too_long_for_int_is_an_error_answer(self):
        """Python's `int` refuses decimal text of more than 4,300 digits;
        such a numeral is an error answer, not a ValueError."""
        big = "9" * 5000
        error = '(error "numeral of 5000 digits is too long")'
        for script in (f"(declare-const a (_ BitVec {big}))",
                       f"(declare-const a (_ BitVec 4))\n(assert (= a (_ bv{big} 4)))",
                       f"(declare-const a (_ BitVec 4))\n(assert (= a (_ bv1 {big})))",
                       f"(declare-const a (_ BitVec 4))\n"
                       f"(assert (= ((_ zero_extend {big}) a) a))"):
            assert Session().run(script + "\n(check-sat)").splitlines() == [error, "unknown"]
        out = Session().run(f"(declare-const a (_ BitVec 4))\n(push {big})\n(check-sat)")
        assert out.splitlines() == [error, "sat"]


class TestCdcl:
    def test_simple_sat(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve() == "sat"
        assert s.model_value(b)

    def test_simple_unsat(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve() == "unsat"

    def test_pigeonhole_3_into_2(self):
        # 3 pigeons, 2 holes: classic small unsat needing real search
        s = SatSolver()
        v = {}
        for p in range(3):
            for h in range(2):
                v[p, h] = s.new_var()
        for p in range(3):
            s.add_clause([v[p, 0], v[p, 1]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        assert s.solve() == "unsat"

    def test_random_3sat_agrees_with_brute_force(self):
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randint(3, 7)
            m = rng.randint(3, 22)
            clauses = []
            for _ in range(m):
                vs = rng.sample(range(1, n + 1), 3)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            want = any(
                all(any((lit > 0) == bool((assign >> (abs(lit) - 1)) & 1)
                        for lit in cl) for cl in clauses)
                for assign in range(1 << n))
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            for cl in clauses:
                s.add_clause(list(cl))
            got = s.solve()
            assert got == ("sat" if want else "unsat"), (trial, clauses)


class TestCdclAssumptions:
    @staticmethod
    def brute_force(n, clauses, assumptions=()):
        for assign in range(1 << n):
            def true(lit):
                return (lit > 0) == bool((assign >> (abs(lit) - 1)) & 1)
            if all(true(a) for a in assumptions) and \
                    all(any(true(lit) for lit in cl) for cl in clauses):
                return True
        return False

    def test_solves_under_assumptions_agree_with_brute_force(self):
        """One solver, many solves under changing assumptions, clauses
        added between them: every answer and model checked exhaustively."""
        rng = random.Random(11)
        for trial in range(40):
            n = rng.randint(3, 12)
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            clauses = []
            for step in range(12):
                for _ in range(rng.randint(0, 6)):
                    vs = rng.sample(range(1, n + 1), rng.randint(1, 3))
                    clauses.append([v if rng.random() < 0.5 else -v for v in vs])
                    s.add_clause(list(clauses[-1]))
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))]
                got = s.solve(assumptions=assumptions)
                want = self.brute_force(n, clauses, assumptions)
                assert got == ("sat" if want else "unsat"), (trial, step, clauses, assumptions)
                if got == "sat":
                    def true(lit):
                        return s.model_value(abs(lit)) == (lit > 0)
                    assert all(true(a) for a in assumptions)
                    assert all(any(true(lit) for lit in cl) for cl in clauses)

    def test_unsat_under_assumptions_leaves_the_clauses_sat(self):
        rng = random.Random(12)
        checked = 0
        for trial in range(120):
            n = rng.randint(4, 10)
            clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(rng.randint(n, 4 * n))]
            if not self.brute_force(n, clauses):
                continue
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            for cl in clauses:
                s.add_clause(list(cl))
            for _ in range(6):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
                if self.brute_force(n, clauses, assumptions):
                    continue
                assert s.solve(assumptions=assumptions) == "unsat"
                checked += 1
                assert s.solve() == "sat", (trial, clauses, assumptions)
        assert checked >= 50

    def test_contradictory_assumptions(self):
        s = SatSolver()
        a = s.new_var()
        assert s.solve(assumptions=[a, -a]) == "unsat"
        assert s.solve(assumptions=[-a]) == "sat" and not s.model_value(a)

    def test_activity_rescale_keeps_every_var_a_candidate(self):
        """With `var_inc` near 1e100 the second bump of a variable rescales
        every activity and rebuilds the decision heap mid-analysis. Answers
        and models must still agree with brute force, and after each call
        every unassigned variable must keep one live heap entry."""
        rng = random.Random(13)
        rescales = 0
        for trial in range(40):
            n = rng.randint(6, 10)
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            clauses = []
            for step in range(10):
                for _ in range(rng.randint(2, n)):
                    vs = rng.sample(range(1, n + 1), 3)
                    clauses.append([v if rng.random() < 0.5 else -v for v in vs])
                    s.add_clause(list(clauses[-1]))
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))]
                s.var_inc = 0.6e100
                got = s.solve(assumptions=assumptions)
                rescales += s.var_inc < 1e90
                want = self.brute_force(n, clauses, assumptions)
                assert got == ("sat" if want else "unsat"), (trial, step, clauses, assumptions)
                if got == "sat":
                    def true(lit):
                        return s.model_value(abs(lit)) == (lit > 0)
                    assert all(true(a) for a in assumptions)
                    assert all(any(true(lit) for lit in cl) for cl in clauses)
                s._backtrack(0)
                live = {v for neg, v in s.order if -neg == s.activity[v]}
                unassigned = {v for v in range(1, n + 1) if s.assign[v] == 0}
                assert unassigned <= live, (trial, step)
                assert all(s.queued[v] for v in unassigned)
                if not s.ok:
                    break
        assert rescales >= 50


class TestIncrementalQuestions:
    def test_level0_trail_is_propagated_once(self):
        """Pinned width-4 `bvadd` questions to one session's SAT step, each
        over fresh constants: each unsat answer leaves a learned unit on the
        level-0 trail, and later questions must not propagate that trail
        again, so a question late in the session costs no more propagation
        than the same question early on. (`check_assuming` would answer
        them from the backtrace's pins, so the SAT step is asked directly.)"""
        s = Session()
        tb = s.builder
        per_question = []
        for i in range(320):
            x, y = tb.declare(f"x{i}", 4), tb.declare(f"y{i}", 4)
            a, b = i % 16, (7 * i) % 16  # each block of 16 asks the same sums
            goal = tb.app("and", [
                tb.app("=", [x, tb.const(a, 4)]), tb.app("=", [y, tb.const(b, 4)]),
                tb.app("distinct", [tb.app("bvadd", [x, y]), tb.const(a + b, 4)])])
            before = s.blaster.sat.propagations if s.blaster else 0
            s.range_definitions()
            assert s._sat_step(goal) == "unsat"
            per_question.append(s.blaster.sat.propagations - before)
        sat = s.blaster.sat
        level0 = sat.trail_lim[0] if sat.trail_lim else len(sat.trail)
        assert level0 >= 320  # the trail the early questions did not have
        assert sat.conflicts >= 320
        assert sum(per_question[-64:]) <= sum(per_question[64:128])


def _div_reference(op, x, y, w):
    """SMT-LIB 2.6 bvudiv/bvurem/bvsdiv/bvsrem on w-bit operands."""
    mask = (1 << w) - 1
    if op == "bvudiv":
        return mask if y == 0 else x // y
    if op == "bvurem":
        return x if y == 0 else x % y
    sx = x - (1 << w) if x >> (w - 1) else x
    sy = y - (1 << w) if y >> (w - 1) else y
    if op == "bvsdiv":
        if sy == 0:
            return 1 if sx < 0 else mask
        q = abs(sx) // abs(sy)
        return (-q if (sx < 0) != (sy < 0) else q) & mask
    if sy == 0:
        return x
    r = abs(sx) % abs(sy)
    return (-r if sx < 0 else r) & mask


class TestDivision:
    def test_bvsrem_by_zero_is_the_dividend(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(declare-const b (_ BitVec 4))
(assert (= b #x0))
(assert (bvslt a #x0))
(assert (distinct (bvsrem a b) a))
(check-sat)
""")
        assert out.strip() == "unsat"

    @pytest.mark.parametrize("op", ["bvudiv", "bvurem", "bvsdiv", "bvsrem"])
    def test_every_4bit_operand_pair(self, op):
        """The table's division entries against the independent reference;
        `TestOperatorTable` checks the circuits against the table."""
        tb = TermBuilder()
        t = tb.app(op, [tb.declare("a", 4), tb.declare("b", 4)])
        wrong = [(x, y) for x in range(16) for y in range(16)
                 if OPS[op].value(t, [x, y]) != _div_reference(op, x, y, 4)]
        assert wrong == []


def _shapes(op, w, rng):
    """The (operand widths, indices) at which `op` is tested for width w:
    every legal index at widths 1-4, three seeded ones at width 8. The Bool
    operators, and `=`, `distinct` and `ite` over Bool, come at w = 1 only."""
    shapes = _all_shapes(op, w)
    return shapes if w < 8 else rng.sample(shapes, min(3, len(shapes)))


def _all_shapes(op, w):
    entry = OPS[op]
    if entry.sort == "bool":
        counts = [entry.arity] if entry.arity else [1, 2, 3]
        return [((BOOL_SORT,) * n, ()) for n in counts] if w == 1 else []
    if entry.sort in ("bv", "cmp"):
        return [((w,) * entry.arity, ())]
    if entry.sort in ("eq", "ite"):
        cond = (BOOL_SORT,) if entry.sort == "ite" else ()
        return [(cond + (v, v), ()) for v in ([w, BOOL_SORT] if w == 1 else [w])]
    if entry.sort == "concat":
        return [((w, 1), ()), ((1, w), ())] if w > 1 else [((1, 1), ())]
    if entry.sort == "extract":
        return [((w,), (hi, lo)) for hi in range(w) for lo in range(hi + 1)]
    if entry.sort == "extend":
        return [((w,), (n,)) for n in range(w + 1)]
    raise AssertionError(f"no test shapes for sort rule {entry.sort!r}")


def _operands(ranges, rng=None, samples=0):
    """Every operand tuple over `ranges`, or `samples` drawn with `rng`."""
    if rng is None:
        return itertools.product(*ranges)
    return [tuple(rng.choice(r) for r in ranges) for _ in range(samples)]


def _values(width):
    return range(1 << (width or 1))


# Every operator at widths 1-4 on every operand tuple, at width 8 on seeded samples.
_WIDTHS = (1, 2, 3, 4, 8)
_SAMPLES = 8

# Their circuits tie fresh quotient and remainder bits down by clauses, which
# could rule an operand tuple out; every other circuit is gates, which every
# operand tuple satisfies.
_SIDE_CLAUSES = {"bvudiv", "bvurem", "bvsdiv", "bvsrem"}


class TestOperatorTable:
    """The bit-blaster's circuits and the interval pass's rules against the
    values in `OPS`."""

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_bit_blaster_matches_the_table(self, op):
        """With the operands pinned, can the circuit's result differ from the
        table's value? One session per width, one question per operand
        tuple; every answer must be unsat. A circuit with side clauses must
        also admit the seeded samples, or those answers would hold vacuously."""
        rng = random.Random(op)
        wrong = []
        for w in _WIDTHS:
            s = Session()
            tb = s.builder
            eqs = {}

            def equals(x, v):
                if (id(x), v) not in eqs:  # built once, shared by the questions
                    eqs[id(x), v] = tb.app("=", [x, tb.const(v, x.width)])
                return eqs[id(x), v]

            for n, (widths, indices) in enumerate(_shapes(op, w, rng)):
                xs = [tb.declare(f"x{n}_{i}", v) for i, v in enumerate(widths)]
                t = tb.app(op, xs, *indices)
                ranges = [_values(v) for v in widths]
                for vals in _operands(ranges, rng if w == 8 else None, _SAMPLES):
                    pins = [equals(x, v) for x, v in zip(xs, vals)]
                    differs = tb.app("not", [equals(t, OPS[op].value(t, list(vals)))])
                    if s.check_assuming(tb.app("and", pins + [differs])) != "unsat":
                        wrong.append((widths, indices, vals))
                if op in _SIDE_CLAUSES:
                    wrong += [(widths, vals) for vals in _operands(ranges, rng, _SAMPLES)
                              if s.check_assuming(tb.app("and", [
                                  equals(x, v) for x, v in zip(xs, vals)])) != "sat"]
        assert wrong == []

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_intervals_contain_the_table_value(self, op):
        """The interval of `op` contains the table's value on point
        operands, on free operands, and on seeded sub-intervals of the
        operands given through `refine`."""
        rng = random.Random(op)
        wrong = []
        for w in _WIDTHS:
            tb = TermBuilder()
            for widths, indices in _shapes(op, w, rng):
                xs = [tb.declare(f"x{len(tb.vars)}", v) for v in widths]
                t = tb.app(op, xs, *indices)
                full_ranges = [_values(v) for v in widths]
                boxes = [full_ranges] + [
                    [range(lo, hi + 1) for lo, hi in
                     (sorted((rng.choice(r), rng.choice(r))) for r in full_ranges)]
                    for _ in range(8)]
                for box in boxes:
                    refine = {x: (r[0], r[-1]) for x, r in zip(xs, box)}
                    lo, hi = IntervalEngine().eval(t, refine)
                    for vals in _operands(box, rng if w == 8 else None, _SAMPLES):
                        v = OPS[op].value(t, list(vals))
                        if not lo <= v <= hi:
                            wrong.append(("refine", widths, indices, box, vals))
                free_lo, free_hi = IntervalEngine().eval(t)
                for vals in _operands(full_ranges, rng if w == 8 else None, _SAMPLES):
                    v = OPS[op].value(t, list(vals))
                    point = tb.app(op, [tb.const(c, x.width) for c, x in zip(vals, xs)], *indices)
                    lo, hi = IntervalEngine().eval(point)
                    if not (lo <= v <= hi and free_lo <= v <= free_hi):
                        wrong.append(("point/free", widths, indices, vals))
        assert wrong == []

    def test_every_operator_is_covered(self):
        """Each OPS entry has shapes above, so both tests cover it, and has
        a circuit of its own and a well-formed interval."""
        for op in OPS:
            shapes = [shape for w in _WIDTHS for shape in _all_shapes(op, w)]
            assert shapes, op
            for widths, indices in shapes:
                tb = TermBuilder()
                t = tb.app(op, [tb.declare(f"x{i}", v) for i, v in enumerate(widths)], *indices)
                BitBlaster({}).bits(t)  # AssertionError for an operator without a circuit
                lo, hi = IntervalEngine().eval(t)
                assert 0 <= lo <= hi <= full(t.width)[1], op


class TestGateHashing:
    """Each distinct gate gets one variable, whatever the operand order or
    the operand signs that fold into its output."""

    @staticmethod
    def blaster():
        tb = TermBuilder()
        return tb, BitBlaster({}), tb.declare("a", 4), tb.declare("b", 4)

    def test_commuted_operands_share_gates(self):
        tb, bb, a, b = self.blaster()
        pairs = [(tb.app(op, [a, b]), tb.app(op, [b, a])) for op in ("bvand", "bvor", "bvxor")]
        for ab, ba in pairs:
            first = bb.bits(ab)
            nvars = bb.sat.nvars
            assert bb.bits(ba) == first
            assert bb.sat.nvars == nvars

    def test_xor_folds_operand_signs(self):
        tb, bb, a, b = self.blaster()
        na, nb = tb.app("bvnot", [a]), tb.app("bvnot", [b])
        terms = [tb.app("bvxor", args) for args in ([a, b], [na, nb], [na, b])]
        plain = bb.bits(terms[0])
        nvars = bb.sat.nvars
        assert bb.bits(terms[1]) == plain
        assert bb.bits(terms[2]) == [-x for x in plain]
        assert bb.sat.nvars == nvars

    def test_second_adder_adds_no_variables(self):
        tb, bb, _, _ = self.blaster()
        x, y = tb.declare("x", 8), tb.declare("y", 8)
        once, twice = tb.app("bvadd", [x, y]), tb.app("bvadd", [x, y])
        first = bb.bits(once)
        nvars, nclauses = bb.sat.nvars, len(bb.sat.clauses)
        assert bb.bits(twice) == first
        assert (bb.sat.nvars, len(bb.sat.clauses)) == (nvars, nclauses)


class TestFreedTerms:
    """A term built after another one was freed, perhaps at the freed
    term's address, never gets the freed term's cached answer."""

    def test_bit_blaster(self):
        tb, bb = TermBuilder(), BitBlaster({})
        a, b = tb.declare("a", 4), tb.declare("b", 4)
        first = bb.bits(tb.app("bvxor", [a, b]))  # the term is freed here
        second = bb.bits(tb.app("bvxor", [tb.app("bvnot", [a]), b]))
        assert second == [-x for x in first]

    def test_interval_engine(self):
        tb, eng = TermBuilder(), IntervalEngine()
        a = tb.declare("a", 4)
        first = eng.eval(tb.app("bvand", [a, tb.const(1, 4)]))  # the term is freed here
        second = eng.eval(tb.app("bvor", [a, tb.const(8, 4)]))
        assert (first, second) == ((0, 1), (8, 15))

    def test_model_value(self):
        s = Session()
        s.run("(declare-const a (_ BitVec 4)) (assert (= a #x5)) (check-sat)")
        tb, a = s.builder, s.builder.vars["a"]
        first = s.model_value(tb.app("bvadd", [a, tb.const(1, 4)]))  # the term is freed here
        second = s.model_value(tb.app("bvsub", [a, tb.const(1, 4)]))
        assert (first, second) == (6, 4)


def _random_term(rng, tb, leaves, width, depth):
    """A random well-sorted term of `width` (BOOL_SORT for Bool) over every
    operator, with the 3-bit constants `leaves` at the bottom."""
    if depth == 0:
        x = rng.choice(leaves)
        if width == BOOL_SORT:
            return tb.app("=", [x, tb.const(rng.randrange(8), 3)])
        if width == 3:
            return x if rng.random() < 0.7 else tb.const(rng.randrange(8), 3)
        if width < 3:
            return tb.app("extract", [x], width - 1, 0)
        return tb.app(rng.choice(["zero_extend", "sign_extend"]), [x], width - 3)
    while True:
        op = rng.choice(sorted(OPS))
        entry = OPS[op]
        indices = ()
        if entry.sort == "bool" and width == BOOL_SORT:
            widths = [BOOL_SORT] * (entry.arity or rng.randint(1, 3))
        elif entry.sort in ("eq", "cmp") and width == BOOL_SORT:
            v = rng.randint(entry.sort == "cmp", 5)  # `=` and `distinct` also over Bool
            widths = [v, v]
        elif entry.sort == "ite":
            widths = [BOOL_SORT, width, width]
        elif entry.sort == "bv" and width:
            widths = [width] * entry.arity
        elif entry.sort == "concat" and width >= 2:
            k = rng.randint(1, width - 1)
            widths = [k, width - k]
        elif entry.sort == "extract" and width:
            source = rng.randint(width, 6)
            lo = rng.randint(0, source - width)
            widths, indices = [source], (lo + width - 1, lo)
        elif entry.sort == "extend" and width:
            source = rng.randint(1, width)
            widths, indices = [source], (width - source,)
        else:
            continue
        args = [_random_term(rng, tb, leaves, v, depth - 1) for v in widths]
        return tb.app(op, args, *indices)


_COMPARISONS = ["=", "bvult", "bvule", "bvugt", "bvuge"]


def _narrowing_term(rng, tb, leaves, width, depth):
    """A random term of `width` topped by a form the narrowing rules read:
    an `ite` whose condition conjoins two comparisons of one operand with
    constants (its then-arm that operand, or it plus a constant), or a
    `bvadd`/`bvsub` with a constant; a Bool one compares such a term with
    a constant. The operands come from `_random_term`."""
    if width == BOOL_SORT:
        w = rng.choice([1, 3, 5])
        x, k = _narrowing_term(rng, tb, leaves, w, depth), tb.const(rng.randrange(1 << w), w)
        return tb.app(rng.choice(_COMPARISONS), [x, k] if rng.random() < 0.5 else [k, x])
    x = _random_term(rng, tb, leaves, width, depth - 1)

    def const():
        return tb.const(rng.randrange(1 << width), width)

    def compare():
        k = const()
        return tb.app(rng.choice(_COMPARISONS), [x, k] if rng.random() < 0.5 else [k, x])

    shape = rng.randrange(4)
    if shape == 0:
        then = x if rng.random() < 0.5 else tb.app("bvadd", [x, const()])
        other = _random_term(rng, tb, leaves, width, depth - 1)
        return tb.app("ite", [tb.app("and", [compare(), compare()]), then, other])
    if shape == 1:
        return tb.app("bvadd", [x, const()] if rng.random() < 0.5 else [const(), x])
    return tb.app("bvsub", [x, const()] if shape == 2 else [const(), x])


class TestIntervals:
    def test_random_terms_sound_vs_exhaustive(self):
        """Interval evaluation must contain every concrete value of random
        terms over every operator, and of terms topped by the forms the
        narrowing rules read (`_narrowing_term`), checked exhaustively over
        two 3-bit constants."""
        rng = random.Random(77)
        for trial in range(300):
            tb = TermBuilder()
            x, y = tb.declare("x", 3), tb.declare("y", 3)
            make = _random_term if trial % 2 else _narrowing_term
            t = make(rng, tb, [x, y], rng.choice([BOOL_SORT, 1, 3, 5]), 3)
            lo, hi = IntervalEngine().eval(t)
            for vx in range(8):
                for vy in range(8):
                    v = concrete_value(t, {x: vx, y: vy}, None)
                    assert lo <= v <= hi, (trial, vx, vy, v, (lo, hi), t)

    def test_constants_stay_out_of_the_cache(self):
        tb = TermBuilder()
        x = tb.declare("x", 4)
        five = tb.const(5, 4)
        eng = IntervalEngine()
        assert eng.eval(five) == (5, 5)
        assert eng.eval(tb.const(1, BOOL_SORT)) == (1, 1)
        assert eng.eval(tb.app("bvadd", [x, five])) == (0, 15)
        assert five not in eng.cache and len(eng.cache) == 2  # x and the sum
        # under a refinement too: a constant is only ever its own value
        t = tb.app("ite", [tb.app("=", [x, five]), tb.app("bvadd", [x, five]), five])
        assert eng.eval(t) == (5, 10)

    def test_narrowings_of_one_operand_meet(self):
        """Under `x >= 3 and x <= 4` the then-arm `x` is (3, 4), in either
        order of the conjuncts, so the ite is (3, 7). Conjuncts that cannot
        meet make the then-arm unreachable."""
        for swap in (False, True):
            tb = TermBuilder()
            x = tb.declare("x", 4)
            conjuncts = [tb.app("bvuge", [x, tb.const(3, 4)]), tb.app("bvule", [x, tb.const(4, 4)])]
            if swap:
                conjuncts.reverse()
            t = tb.app("ite", [tb.app("and", conjuncts), x, tb.const(7, 4)])
            assert IntervalEngine().eval(t) == (3, 7), swap
        never = tb.app("and", [tb.app("bvuge", [x, tb.const(5, 4)]), tb.app("bvule", [x, tb.const(4, 4)])])
        assert IntervalEngine().eval(tb.app("ite", [never, x, tb.const(7, 4)])) == (7, 7)

    def test_each_rule_narrows(self):
        """What one demand moves to the terms under it, rule by rule."""
        tb = TermBuilder()
        x, y = tb.declare("x", 8), tb.declare("y", 8)
        p, q = tb.declare("p", 1), tb.declare("q", 1)
        lo4, hi4 = tb.declare("lo4", 4), tb.declare("hi4", 4)

        def narrowed(t, lo, hi, *terms):
            out = IntervalEngine().narrow(t, lo, hi)
            return None if out is None else [out.get(u) for u in terms]

        k = lambda v, w=8: tb.const(v, w)
        assert narrowed(tb.app("not", [tb.app("bvult", [x, k(9)])]), 1, 1, x) == [(9, 255)]
        assert narrowed(tb.app("bvugt", [k(9), x]), 1, 1, x) == [(0, 8)]
        assert narrowed(tb.app("=", [x, k(0)]), 0, 0, x) == [(1, 255)]
        assert narrowed(tb.app("=", [x, k(5)]), 0, 0, x) == [None]  # not an end
        assert narrowed(tb.app("or", [tb.app("bvuge", [x, k(9)]), tb.app("=", [y, k(3)])]),
                        0, 0, x, y) == [(0, 8), None]
        assert narrowed(tb.app("bvadd", [x, k(10)]), 20, 30, x) == [None]  # x + 10 can wrap
        wide = tb.app("zero_extend", [lo4], 4)
        assert narrowed(tb.app("bvsub", [k(100), wide]), 90, 95, wide) == [(5, 10)]
        assert narrowed(tb.app("bvsub", [wide, k(2)]), 0, 0, wide) == [None]  # can wrap below 0
        assert narrowed(tb.app("bvnot", [x]), 0, 0, x) == [(255, 255)]
        assert narrowed(tb.app("bvand", [p, q]), 1, 1, p, q) == [(1, 1), (1, 1)]
        assert narrowed(tb.app("bvor", [x, y]), 0, 0, x, y) == [(0, 0), (0, 0)]
        assert narrowed(tb.app("concat", [hi4, lo4]), 0x5A, 0x5A, hi4, lo4) == [(5, 5), (10, 10)]
        assert narrowed(tb.app("concat", [hi4, lo4]), 0x4E, 0x52, hi4, lo4) == [(4, 5), None]
        assert narrowed(tb.app("extract", [x], 7, 4), 5, 5, x) == [(0x50, 0x5F)]
        assert narrowed(tb.app("extract", [x], 3, 0), 6, 6, x) == [None]  # not the top bits
        ite = tb.app("ite", [tb.app("=", [p, k(1, 1)]), tb.app("bvadd", [wide, k(2)]), k(0)])
        assert narrowed(ite, 9, 9, p, wide) == [(1, 1), (7, 7)]  # the else-arm cannot be 9
        assert narrowed(tb.app("and", [tb.app("bvuge", [x, k(5)]), tb.app("bvule", [x, k(4)])]),
                        1, 1, x) is None


class TestIntervalBounds:
    """The bit-blaster gives each blasted term's interval, when it is not
    one value, to the SAT core as clauses for lo <= x <= hi."""

    def test_bound_clauses_admit_exactly_the_interval(self):
        for width in range(1, 5):
            for lo in range(1 << width):
                for hi in range(lo, 1 << width):
                    bb = BitBlaster({})
                    xs = [bb.sat.new_var() for _ in range(width)]
                    before = len(bb.sat.clauses)
                    bb._bound(xs, lo, hi)
                    assert len(bb.sat.clauses) - before <= 2 * width
                    for v in range(1 << width):
                        pin = [x if (v >> i) & 1 else -x for i, x in enumerate(xs)]
                        want = "sat" if lo <= v <= hi else "unsat"
                        assert bb.sat.solve(assumptions=pin) == want, (width, lo, hi, v)

    def test_random_goals_agree_with_enumeration(self):
        """Bool goals over two free 3-bit constants and one defined from
        them, all asked of one session: each goal the interval pass leaves
        open gets the answer of exhaustive enumeration, and a sat model
        satisfies it."""
        rng = random.Random(16)
        asked = 0
        for _ in range(12):
            s = Session()
            tb = s.builder
            x, y = tb.declare("x", 3), tb.declare("y", 3)
            z = tb.define("z", 3, _random_term(rng, tb, [x, y], 3, 2))
            for _ in range(15):
                goal = _random_term(rng, tb, [x, y, z], BOOL_SORT, 3)
                s.range_definitions()
                lo, hi = s.engine.eval(goal)
                if lo == hi:
                    continue
                asked += 1
                want = any(concrete_value(goal, {x: vx, y: vy}, None)
                           for vx in range(8) for vy in range(8))
                assert s.check_assuming(goal) == ("sat" if want else "unsat"), goal
                if want:
                    assert s.model_value(goal) == 1, goal
        assert asked >= 150

    def test_wrapping_counter_needs_few_conflicts(self):
        """The generated wrapping counter of the `formal` benchmark (seed 3):
        the count is 0 at cycle 0 and rises by at most one per cycle, so
        `count != 22` first fails at cycle 22. The interval pass knows
        count_k <= k; as bound clauses that makes the trace nearly forced.
        Without them the SAT core needed 121 conflicts; with them, 17. The
        backtrace answers this question in `verify`
        (`TestBacktrace.test_verify_answers_the_counter_without_bit_blasting`),
        so the SAT step is asked here directly."""
        from archc.formal.encode import Unrolling
        core = _wrapping_counter_core()
        session = Session()
        unroll = Unrolling(core, session.builder)
        for _ in range(23):
            unroll.extend()
        session.range_definitions()
        never_at = [p for p in core.properties if p.name == "never_at"][0]
        goal = unroll.goal(never_at, 22)
        assert session.engine.eval(goal) == (0, 1)  # the interval pass leaves it open
        assert session._sat_step(goal) == "sat"
        assert session.blaster.sat.conflicts <= 40


def _wrapping_counter_core():
    from conftest import build_text
    design, _ = build_text("""\
counter GenWrapping0
  param MAX: const = 29;
  kind wrapping;
  port clk: in Clock<SysDomain>;
  port rst: in Reset<Sync>;
  port en: in Bool;
  port count: out UInt<5>;
  assert never_at: count != 22;
end counter GenWrapping0
""")
    return design.cores["GenWrapping0"]


class TestBacktrace:
    """The builtin session's backtrace (`intervals.backtrace`): demands
    moved from a goal down to its free constants; a candidate that pins
    them all and satisfies the goal is the sat answer and its model."""

    def test_verify_answers_the_counter_without_bit_blasting(self, monkeypatch):
        """Reaching count == 22 at cycle 22 needs `en` at every cycle
        before it: the backtrace finds that and no BitBlaster is built."""
        from archc.formal import verify
        import archc.smt.solve as solve
        sessions = []

        class Recorded(solve.Session):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(solve, "Session", Recorded)
        verdict = verify(_wrapping_counter_core(), 24, "builtin")
        got = {r.name: (r.status, r.cycle) for r in verdict.results}
        assert got == {"_auto_count_range": ("PROVED", None), "never_at": ("REFUTED", 22)}
        [session] = sessions
        assert session.blaster is None
        trace = verdict.results[1].trace
        assert [row["en"] for row in trace] == [1] * 22 + [0]
        assert [row["count_r"] for row in trace] == list(range(23))

    @pytest.mark.parametrize("fname, top, states", [
        ("fsm_controller.arch", "Controller", ("Idle", "Active", "Done")),
        ("fsm_reqack.arch", "ReqAck", ("Idle", "Wait", "Reply"))])
    def test_verify_answers_the_fsms_without_bit_blasting(self, monkeypatch, fname, top, states):
        """Every state and transition cover of the corpus FSMs is hit
        within two cycles: the backtrace pins the inputs each hit needs
        (through `bvand` demanded all-ones, and an `ite` evaluated through
        its taken arm only), so no BitBlaster is built."""
        import os
        from conftest import CORPUS, build_files
        from archc.formal import verify
        import archc.smt.solve as solve
        sessions = []

        class Recorded(solve.Session):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(solve, "Session", Recorded)
        core = build_files([os.path.join(CORPUS, fname)])[0].cores[top]
        verdict = verify(core, 10, "builtin")
        first, second, third = states
        assert {r.name: (r.status, r.cycle) for r in verdict.results} == {
            "_auto_legal_state": ("PROVED", None),
            f"_auto_state_{first}": ("HIT", 0), f"_auto_state_{second}": ("HIT", 1),
            f"_auto_state_{third}": ("HIT", 2), f"_auto_trans_{first}_{second}": ("HIT", 0),
            f"_auto_trans_{second}_{third}": ("HIT", 1), f"_auto_trans_{third}_{first}": ("HIT", 2)}
        [session] = sessions
        assert session.blaster is None

    def test_candidate_that_fails_under_its_pins_is_unsat(self):
        """The backtrace pins x = 3 and y = 5, every model has those
        values, and `y < x` fails under them: unsat, with no SAT step."""
        from archc.smt.intervals import backtrace
        s = Session()
        tb = s.builder
        x, y = tb.declare("x", 4), tb.declare("y", 4)
        goal = tb.app("and", [tb.app("=", [x, tb.const(3, 4)]), tb.app("=", [y, tb.const(5, 4)]),
                              tb.app("bvult", [y, x])])
        s.range_definitions()
        assert s.engine.eval(goal) == (0, 1)
        assert backtrace(s.engine, goal) == {x: 3, y: 5}
        assert s.check_assuming(goal) == "unsat"
        assert s.blaster is None

    def test_candidate_that_reads_an_unpinned_constant_goes_to_the_sat_step(self):
        """x = 3 is pinned but y is not, and `y < x` reads y: the
        candidate decides nothing, and the SAT step answers."""
        from archc.smt.intervals import backtrace
        s = Session()
        tb = s.builder
        x, y = tb.declare("x", 4), tb.declare("y", 4)
        goal = tb.app("and", [tb.app("=", [x, tb.const(3, 4)]), tb.app("bvult", [y, x])])
        s.range_definitions()
        assert backtrace(s.engine, goal) == {x: 3}
        assert s.check_assuming(goal) == "sat"
        assert s.blaster is not None and s.model_value(y) < 3

    def test_demands_that_do_not_meet_are_unsat(self):
        """x >= 5 and x <= 4 cannot meet: the backtrace finds the conflict
        (None) and the answer is unsat with no SAT step."""
        from archc.smt.intervals import backtrace
        s = Session()
        tb = s.builder
        x = tb.declare("x", 4)
        goal = tb.app("and", [tb.app("bvuge", [x, tb.const(5, 4)]),
                              tb.app("bvule", [x, tb.const(4, 4)])])
        s.range_definitions()
        assert s.engine.eval(goal) == (0, 1)
        assert backtrace(s.engine, goal) is None
        assert s.check_assuming(goal) == "unsat"
        assert s.blaster is None

    def test_candidate_is_the_model_of_get_value(self):
        """Through the SMT-LIB text: the demand moves through a defined
        constant, an ite whose else-branch cannot meet it and a bvadd that
        cannot wrap once the assertion bounds x; get-value reads the
        candidate."""
        s = Session()
        out = s.run("""
(declare-const c Bool)
(declare-const x (_ BitVec 4))
(define-fun y () (_ BitVec 4) (ite c (bvadd x #x4) #x0))
(assert (bvule x #x7))
(check-sat-assuming ((= y #xa)))
(get-value (c x y))
""")
        assert out.splitlines() == ["sat", "((c true)", " (x #b0110)", " (y #b1010))"]
        assert s.blaster is None

    def test_a_pin_the_goal_does_not_force_is_not_made(self):
        """`x + 1 = 0` can wrap, so the backtrace pins nothing, and the SAT
        step answers."""
        from archc.smt.intervals import backtrace
        s = Session()
        tb = s.builder
        x = tb.declare("x", 4)
        goal = tb.app("=", [tb.app("bvadd", [x, tb.const(1, 4)]), tb.const(0, 4)])
        s.range_definitions()
        assert backtrace(s.engine, goal) == {}
        assert s.check_assuming(goal) == "sat" and s.model_value(x) == 15
        assert s.blaster is not None

    def test_pinned_random_goals_agree_with_enumeration(self):
        """Goals `x = a and y = b and p` for random Bool terms `p` over
        two free 3-bit constants and one defined from them, every other one
        topped by the forms the narrowing rules read (`_narrowing_term`):
        the backtrace pins x and y, so the candidate decides every goal
        without the SAT step, sat exactly when p holds at (a, b)."""
        rng = random.Random(20)
        by_backtrace = unsat = 0
        for _ in range(12):
            s = Session()
            tb = s.builder
            x, y = tb.declare("x", 3), tb.declare("y", 3)
            z = tb.define("z", 3, _random_term(rng, tb, [x, y], 3, 2))
            for i in range(15):
                a, b = rng.randrange(8), rng.randrange(8)
                make = _random_term if i % 2 else _narrowing_term
                p = make(rng, tb, [x, y, z], BOOL_SORT, 3)
                goal = tb.app("and", [tb.app("=", [x, tb.const(a, 3)]),
                                      tb.app("=", [y, tb.const(b, 3)]), p])
                want = concrete_value(p, {x: a, y: b}, None)
                assert s.check_assuming(goal) == ("sat" if want else "unsat"), goal
                if want:
                    assert (s.model_value(x), s.model_value(y), s.model_value(goal)) == (a, b, 1)
                    by_backtrace += bool(s.pinned)
                else:
                    unsat += 1
            assert s.blaster is None
        assert by_backtrace >= 40 and unsat >= 40


class TestCheckSatAssuming:
    def test_literals_are_asked_with_the_assertions(self):
        out = Session().run("""
(declare-const p Bool)
(declare-const q Bool)
(assert (or p q))
(check-sat-assuming (p))
(check-sat-assuming ((not p)))
(get-value (p q))
(check-sat-assuming ((not p) (not q)))
(check-sat)
""")
        assert out.splitlines() == ["sat", "sat", "((p false)", " (q true))", "unsat", "sat"]

    def test_non_bool_literal_is_an_error_answer(self):
        session = Session()
        out = session.run("""
(declare-const a (_ BitVec 4))
(check-sat-assuming (a))
(check-sat-assuming ((= a #x3)))
""")
        assert out.splitlines() == ['(error "check-sat-assuming takes Bool literals")', "sat"]
        assert not session.incomplete

    def test_stdin_is_answered_a_command_at_a_time(self):
        """A child `archc-smt` on a pipe answers the first question before
        the second is written: it does not read its input to the end."""
        import os
        import select
        import subprocess
        import sys
        from conftest import ROOT
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "archc.smt.solve"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                env=dict(env, PYTHONPATH=os.path.join(ROOT, "src")))

        def ask(text):
            proc.stdin.write(text)
            proc.stdin.flush()
            assert select.select([proc.stdout], [], [], 30)[0], "no answer"
            return proc.stdout.readline()

        try:
            assert ask("(declare-const a (_ BitVec 4))\n(define-fun g () Bool (= a #x3))\n"
                       "(check-sat-assuming (g))\n") == "sat\n"
            assert ask("(get-value (a))\n") == "((a #b0011))\n"
            assert ask("(check-sat-assuming ((not g)\n (= a #x3)))\n") == "unsat\n"
        finally:
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
            proc.stdout.close()


class TestSession:
    def test_definitional_chain_and_model(self):
        # definitions as equalities, the older script style: plain constraints
        out = Session().run("""
(set-logic QF_BV)
(declare-const a (_ BitVec 8))
(declare-const b (_ BitVec 8))
(assert (= b (bvadd a #x01)))
(assert (= b #x10))
(check-sat)
(get-value (a b))
""")
        lines = out.splitlines()
        assert lines[0] == "sat"
        assert "(a #b00001111)" in out

    def test_unsat_no_model(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(assert (bvult a #x2))
(assert (bvugt a #x8))
(check-sat)
(get-value (a))
""")
        assert out.splitlines()[0] == "unsat"
        assert "model is not available" in out

    def test_bool_sort(self):
        out = Session().run("""
(declare-const p Bool)
(declare-const q Bool)
(assert (= p true))
(assert (or (not p) q))
(check-sat)
(get-value (p q))
""")
        assert out.splitlines() == ["sat", "((p true)", " (q true))"]

    def test_division_semantics(self):
        out = Session().run("""
(declare-const a (_ BitVec 8))
(declare-const q (_ BitVec 8))
(assert (= a #x64))
(assert (= q (bvudiv a #x07)))
(check-sat)
(get-value (q))
""")
        assert "sat" in out
        assert "(q #b00001110)" in out  # 100 / 7 = 14

    def test_shift_beyond_width(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(declare-const r (_ BitVec 4))
(assert (= a #xf))
(assert (= r (bvshl a #x8)))
(check-sat)
(get-value (r))
""")
        assert "(r #b0000)" in out

    def test_get_model_define_funs(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(assert (= a #x5))
(check-sat)
(get-model)
""")
        assert "(define-fun a () (_ BitVec 4) #b0101)" in out

    def test_define_fun_chain_and_get_value(self):
        session = Session()
        out = session.run("""
(declare-const a (_ BitVec 8))
(define-fun b () (_ BitVec 8) (bvadd a #x01))
(define-fun c () (_ BitVec 8) (bvshl b #x01))
(define-fun hit () Bool (= c #x20))
(assert hit)
(check-sat)
(get-value (a b c hit))
""")
        assert out.splitlines() == [
            "sat", "((a #b00001111)", " (b #b00010000)", " (c #b00100000)", " (hit true))"]
        assert [v.name for v in session.builder.defined] == ["b", "c", "hit"]

    def test_push_pop_scope_the_assertions(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(push 1)
(assert (= a #x1))
(check-sat)
(pop 1)
(assert (= a #x2))
(check-sat)
(push 2)
(define-fun b () (_ BitVec 4) (bvadd a #x1))
(assert (= b #x0))
(check-sat)
(pop 2)
(assert (= b #x3))
(check-sat)
(get-value (a b))
(pop 1)
(check-sat)
""")
        # definitions stay global; a pop past the open scopes is an error answer only
        assert out.splitlines() == ["sat", "sat", "unsat", "sat", "((a #b0010)", " (b #b0011))",
                                    '(error "pop 1 with 0 open scopes")', "sat"]
        # a pop inside one `push n` drops what was asserted since it
        out = Session().run("(declare-const a (_ BitVec 4)) (push 3) (assert (= a #x1)) (pop 1)"
                            " (assert (= a #x2)) (check-sat) (pop 2) (assert (= a #x1))"
                            " (check-sat) (push 100000000000) (pop 100000000000) (check-sat)")
        assert out.splitlines() == ["sat", "sat", "sat"]

    def test_unsupported_command_is_an_error_answer(self):
        session = Session()
        out = session.run("""
(declare-const a (_ BitVec 4))
(get-assignment)
(assert (= a #x3))
(check-sat)
""")
        assert out.splitlines() == ['(error "unsupported command get-assignment")', "sat"]
        assert not session.incomplete

    def test_get_value_of_terms(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(assert (= a #x5))
(check-sat)
(get-value ((bvadd a #x1) a |a| #x7 (bvult a #x2)))
""")
        assert out.splitlines() == [
            "sat", "(((bvadd a #b0001) #b0110)", " (a #b0101)", " (|a| #b0101)",
            " (#x7 #b0111)", " ((bvult a #b0010) false))"]

    def test_redeclared_constant_is_an_error_answer(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(declare-const a (_ BitVec 8))
(assert (= a #x3))
(check-sat)
""")
        assert out.splitlines() == ['(error "redeclared a")', "unknown"]

    def test_deep_term_is_an_error_answer(self):
        depth = 3000
        session = Session()
        out = session.run("(declare-const a (_ BitVec 4))\n(assert (= a "
                          + "(bvnot " * depth + "a" + ")" * depth + "))\n(check-sat)\n")
        assert out.splitlines() == ['(error "RecursionError: term nested too deeply")', "unknown"]
        assert session.status == "unknown"

    def test_dropped_assertion_makes_later_answers_unknown(self):
        out = Session().run("""
(declare-const a (_ BitVec 4))
(check-sat)
(assert (bvfrob a))
(assert (= a #x3))
(check-sat)
(get-value (a))
(check-sat)
""")
        assert out.splitlines() == [
            "sat", "(error \"unsupported operator 'bvfrob'\")", "unknown",
            '(error "model is not available")', "unknown"]

    @pytest.mark.parametrize("script,error", [
        ("(declare-const a Bool)\n(assert (ite a a))", "wrong number of arguments to ite: 2"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a (bvadd a)))",
         "wrong number of arguments to bvadd: 1"),
        ("(declare-fun f)", "wrong number of arguments to declare-fun: 1"),
        ("(declare-const a Bool)\n(assert (and))", "wrong number of arguments to and: 0"),
        ("(declare-const a (_ BitVec 4))\n(assert (= ((_ extract 3) a) #b1))",
         "wrong number of arguments to (_ extract): 1"),
        ("(declare-const a (_ BitVec 4))\n(assert (= ((_ zero_extend 1)) a))",
         "wrong number of arguments to zero_extend: 0"),
        ("(declare-const a (_ BitVec x))", "expected a numeral, found 'x'"),
        ("(assert)", "wrong number of arguments to assert: 0"),
        ("(declare-const a (_ BitVec 4))\n(assert (= (bvult a a) a))",
         "ill-sorted arguments to =: Bool (_ BitVec 4)"),
        ("(declare-const a (_ BitVec 4))\n(declare-const b (_ BitVec 8))\n"
         "(assert (= (bvadd a b) #x0))",
         "ill-sorted arguments to bvadd: (_ BitVec 4) (_ BitVec 8)"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a #b1))",
         "ill-sorted arguments to =: (_ BitVec 4) (_ BitVec 1)"),
        ("(declare-const a Bool)\n(assert (bvnot a))", "ill-sorted arguments to bvnot: Bool"),
        ("(declare-const a (_ BitVec 0))", "unsupported sort (_ BitVec 0)"),
        ("(declare-const a (_ BitVec 4))\n(assert (= ((_ extract 1 3) a) #b1))",
         "ill-sorted arguments to (_ extract 1 3): (_ BitVec 4)"),
        ("(declare-const a (_ BitVec 4))\n(assert (bvadd a a))",
         "assert takes a Bool term, not (_ BitVec 4)"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a #b))", "bad bit-vector literal #b"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a #b1210))",
         "bad bit-vector literal #b1210"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a (_ bvx 4)))",
         "bad bit-vector literal (_ bvx 4)"),
        ("(declare-const a (_ BitVec 4))\n(assert (= a (_ bv1 0)))",
         "bad bit-vector literal (_ bv1 0)"),
        ("(define-fun f ((x (_ BitVec 4))) (_ BitVec 4) x)",
         "only 0-ary define-fun supported"),
        ("(declare-const a (_ BitVec 4))\n(define-fun b () (_ BitVec 8) a)",
         "define-fun b is declared (_ BitVec 8) but its body is (_ BitVec 4)"),
        ("(define-fun b () (_ BitVec 4) (bvnot z))", "unknown symbol z"),
        ("(declare-const a (_ BitVec 4))\n(define-fun a () (_ BitVec 4) #x1)",
         "redeclared a"),
        ("(declare-const (a) Bool)", "declare-const takes a symbol, not ['a']"),
    ], ids=["ite", "bvadd", "declare-fun", "and", "extract", "zero_extend", "sort", "assert",
            "cmp-as-bv", "mixed-widths", "narrow-literal", "bvnot-of-bool", "bitvec-0",
            "extract-range", "assert-bv", "empty-literal", "binary-digits", "bv-value",
            "bv-width-0", "define-fun-arity", "define-fun-sort", "define-fun-unknown-symbol",
            "define-fun-redefined", "list-as-name"])
    def test_wrong_arity_is_an_error_answer(self, script, error):
        """Malformed or ill-sorted input: one error answer, then unknown."""
        session = Session()
        out = session.run(script + "\n(check-sat)\n(check-sat)\n")
        assert out.splitlines() == [f'(error "{error}")', "unknown", "unknown"]
        assert session.status == "unknown"
