"""The bundled SMT solver: SAT core, intervals vs brute force, parser,
and end-to-end sat/unsat answers with models."""

import random

import pytest

from archc.smt.cdcl import SatSolver
from archc.smt.intervals import IntervalEngine
from archc.smt.sexpr import parse_all, parse_bv_literal
from archc.smt.solve import Session
from archc.smt.terms import TermBuilder


class TestSexpr:
    def test_nesting_and_comments(self):
        forms = parse_all("; hello\n(a (b c) #b101)")
        assert forms == [["a", ["b", "c"], "#b101"]]

    def test_bv_literals(self):
        assert parse_bv_literal("#b1010") == (10, 4)
        assert parse_bv_literal("#xff") == (255, 8)
        assert parse_bv_literal(["_", "bv7", "4"]) == (7, 4)
        assert parse_bv_literal("foo") is None


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
        """Each pair is one question to one session: with a and b hidden
        from the interval pass as (= (bvxor a k) (bvxor #xA k)), can the
        result differ from the reference? Every answer must be unsat."""
        s = Session()
        tb = s.builder
        a, b, k = (tb.declare(name, 4) for name in "abk")
        result = tb.app(op, [a, b])
        hidden = [tb.app("bvxor", [tb.const(c, 4), k]) for c in range(16)]
        a_is = [tb.app("=", [tb.app("bvxor", [a, k]), h]) for h in hidden]
        b_is = [tb.app("=", [tb.app("bvxor", [b, k]), h]) for h in hidden]
        differs = [tb.app("distinct", [result, tb.const(c, 4)]) for c in range(16)]
        wrong = [(x, y) for x in range(16) for y in range(16)
                 if s.check_assuming(tb.app("and", [
                     a_is[x], b_is[y], differs[_div_reference(op, x, y, 4)]])) != "unsat"]
        assert wrong == []


class TestIntervals:
    def test_random_terms_sound_vs_exhaustive(self):
        """Interval evaluation must contain every concrete value (soundness
        checked exhaustively over tiny widths)."""
        rng = random.Random(77)
        for trial in range(150):
            b = TermBuilder()
            x = b.declare("x", 3)
            y = b.declare("y", 3)

            def gen(depth):
                if depth == 0:
                    if rng.random() < 0.5:
                        return rng.choice([x, y])
                    return b.const(rng.randrange(8), 3)
                op = rng.choice(["bvadd", "bvsub", "bvand", "bvor", "bvxor",
                                 "bvnot", "ite"])
                if op == "bvnot":
                    from archc.smt.terms import Term
                    return Term("bvnot", 3, (gen(depth - 1),))
                from archc.smt.terms import Term
                if op == "ite":
                    cond = Term("bvule", 0, (gen(depth - 1), gen(depth - 1)))
                    return Term("ite", 3, (cond, gen(depth - 1), gen(depth - 1)))
                return Term(op, 3, (gen(depth - 1), gen(depth - 1)))

            t = gen(3)
            eng = IntervalEngine()
            lo, hi = eng.eval(t)

            def concrete(node, vx, vy):
                if node.op == "var":
                    return vx if node.name == "x" else vy
                if node.op == "const":
                    return node.value
                a = [concrete(c, vx, vy) for c in node.args]
                return {
                    "bvadd": lambda: (a[0] + a[1]) & 7,
                    "bvsub": lambda: (a[0] - a[1]) & 7,
                    "bvand": lambda: a[0] & a[1],
                    "bvor": lambda: a[0] | a[1],
                    "bvxor": lambda: a[0] ^ a[1],
                    "bvnot": lambda: (~a[0]) & 7,
                    "bvule": lambda: 1 if a[0] <= a[1] else 0,
                    "ite": lambda: a[1] if a[0] else a[2],
                }[node.op]()

            for vx in range(8):
                for vy in range(8):
                    v = concrete(t, vx, vy)
                    assert lo <= v <= hi, (trial, vx, vy, v, (lo, hi))


class TestSession:
    def test_definitional_chain_and_model(self):
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
        assert out.splitlines()[0] == "sat"
        assert "(q #b1)" in out

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
    ], ids=["ite", "bvadd", "declare-fun", "and", "extract", "zero_extend", "sort", "assert"])
    def test_wrong_arity_is_an_error_answer(self, script, error):
        session = Session()
        out = session.run(script + "\n(check-sat)\n(check-sat)\n")
        assert out.splitlines() == [f'(error "{error}")', "unknown", "unknown"]
        assert session.status == "unknown"
